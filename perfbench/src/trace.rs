//! Spans recorded by the benchmark around its own calls into each layer.
//! They are kept in memory and written out as JSONL when the run ends;
//! per-layer self time is computed from them. Nothing here reaches into
//! the program: a span covers one public call as seen from outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::stats::{self_time, Interval};

/// One finished span. Times are microseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub label: String,
    pub start_us: f64,
    pub dur_us: f64,
    /// Units of work the call did (accesses, candidates, …); 0 if none.
    pub work: u64,
    /// Outcome tag (`ok`, `hit`, `miss`, …).
    pub status: String,
}

/// Records nested spans on one thread. A tracer that is off records
/// nothing and costs one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer; tracers sharing `origin` share a clock.
    pub fn on(origin: Instant) -> Self {
        Self {
            on: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, label: &str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            label: label.to_string(),
            start_us: self.now_us(),
            dur_us: 0.0,
            work: 0,
            status: "ok".to_string(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span, crediting it with `work` units.
    pub fn end(&mut self, work: u64) {
        if !self.on {
            return;
        }
        let now = self.now_us();
        let id = self.open.pop().expect("span end without a begin");
        let span = &mut self.spans[id];
        span.dur_us = now - span.start_us;
        span.work = work;
    }

    /// Runs `f` inside a span labelled `label`; `work` counts what it did.
    pub fn span<T>(
        &mut self,
        label: &str,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> T {
        self.begin(label);
        let out = f();
        let units = if self.on { work(&out) } else { 0 };
        self.end(units);
        out
    }

    /// Moves `other`'s spans (another thread's, same clock) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{},\"parent\":{parent},\"label\":{:?},\"start_us\":{:.3},\"dur_us\":{:.3},\"work\":{},\"status\":{:?}}}",
                s.id, s.label, s.start_us, s.dur_us, s.work, s.status
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Totals for one span label.
#[derive(Debug, Default, Clone)]
pub struct LabelStats {
    /// Self time of each span, microseconds.
    pub self_us: Vec<f64>,
    /// Total duration of each span, microseconds.
    pub dur_us: Vec<f64>,
    pub work: u64,
}

impl LabelStats {
    pub fn self_total_us(&self) -> f64 {
        self.self_us.iter().sum()
    }
}

/// Groups `spans` by label, with each span's self time: its duration
/// minus what its child spans cover.
pub fn by_label(spans: &[Span]) -> BTreeMap<String, LabelStats> {
    let mut children: Vec<Vec<Interval>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(Interval {
                start: s.start_us,
                dur: s.dur_us,
            });
        }
    }
    let mut out: BTreeMap<String, LabelStats> = BTreeMap::new();
    for s in spans {
        let own = Interval {
            start: s.start_us,
            dur: s.dur_us,
        };
        let entry = out.entry(s.label.clone()).or_default();
        entry.self_us.push(self_time(own, &children[s.id]));
        entry.dur_us.push(s.dur_us);
        entry.work += s.work;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_parent_self_time() {
        let mut t = Tracer::on(Instant::now());
        t.begin("outer");
        t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(3);
        t.end(1);
        let stats = by_label(t.spans());
        let inner = &stats["inner"];
        let outer = &stats["outer"];
        assert_eq!(inner.work, 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        // The parent's self time excludes the child's whole interval.
        let expected = outer.dur_us[0] - inner.dur_us[0];
        assert!((outer.self_us[0] - expected).abs() < 1e-6);
        assert!(inner.self_us[0] >= 5000.0);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("x", || 41 + 1, |_| 1);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_renumbers_parents() {
        let origin = Instant::now();
        let mut a = Tracer::on(origin);
        a.span("a", || (), |_| 0);
        let mut b = Tracer::on(origin);
        b.begin("p");
        b.span("c", || (), |_| 0);
        b.end(0);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].id, 2);
    }
}
