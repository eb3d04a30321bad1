//! The statistics every workload reports: percentiles with the sample
//! count behind them, the error rate, closed-loop load timing, and span
//! self time.

use std::time::{Duration, Instant};

/// Percentile `p` (0–100) of `sorted` by the nearest-rank rule.
///
/// # Panics
///
/// Panics on an empty slice: a timing with no samples is a bug in the
/// workload, never a value to report.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    let x = p / 100.0 * n as f64;
    // Shave the rounding error of `p / 100` (99.9% of 10 000 must be
    // rank 9990, not 9991).
    let r = (x - x * 1e-12).ceil() as usize;
    r.clamp(1, n)
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile on the ladder that still has at least ten
/// samples strictly beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(p, n) >= 10)
}

/// A timing distribution as reported: median, p90, p99, and the highest
/// percentile backed by at least ten samples, with the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub tail_pct: Option<f64>,
    pub tail: f64,
}

impl Summary {
    /// Summarizes `values` (any order). `None` for no samples.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len());
        Some(Self {
            samples: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            p99: percentile(&sorted, 99.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct.unwrap_or(50.0)),
        })
    }

    /// One human-readable line stating what the percentiles rest on.
    pub fn describe(&self, what: &str, unit: &str) -> String {
        let tail = match self.tail_pct {
            Some(p) => format!("p{p} = {:.4} {unit}", self.tail),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!(
            "{what}: {} samples; p50 = {:.4} {unit}, p90 = {:.4} {unit}, p99 = {:.4} {unit}; highest percentile with >= 10 samples beyond: {tail}",
            self.samples, self.p50, self.p90, self.p99
        )
    }
}

/// Median of `values` (any order); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.p50)
}

/// Failed or wrong operations as a share of those attempted.
///
/// # Panics
///
/// Panics when nothing was attempted: a run that did no work has no rate.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "error rate of a run that attempted nothing");
    failed as f64 / attempted as f64
}

/// `num / den`, or 0 when `den` is 0 (a layer the run never reached).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One request of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// From sending the request to receiving its reply.
    pub latency: Duration,
    /// When the reply arrived, since the loop started.
    pub done: Duration,
    /// Whether the reply was a correct answer.
    pub ok: bool,
}

/// What a closed loop did.
pub struct ClosedLoop<C> {
    /// The client states, handed back in order.
    pub clients: Vec<C>,
    /// Every request, all clients together.
    pub outcomes: Vec<Outcome>,
    /// From the first send to the last reply.
    pub wall: Duration,
}

impl<C> ClosedLoop<C> {
    /// Replies received per second of wall time.
    pub fn per_second(&self) -> f64 {
        ratio(self.outcomes.len() as f64, self.wall.as_secs_f64())
    }

    /// The loop cut into `count` equal windows by reply time, in order.
    /// Medians over windows keep a short stall on the machine from
    /// deciding a run's figures.
    pub fn windows(&self, count: usize) -> Vec<Vec<Outcome>> {
        let width = self.wall.as_secs_f64() / count as f64;
        let mut windows = vec![Vec::new(); count];
        for o in &self.outcomes {
            let i = (o.done.as_secs_f64() / width) as usize;
            windows[i.min(count - 1)].push(*o);
        }
        windows
    }

    /// Appends a loop that ran after this one with the same clients,
    /// as if no time passed between them.
    pub fn extend(&mut self, next: ClosedLoop<C>) {
        for mut o in next.outcomes {
            o.done += self.wall;
            self.outcomes.push(o);
        }
        self.wall += next.wall;
        self.clients = next.clients;
    }

    /// Number of requests that did not get a correct answer.
    pub fn failed(&self) -> u64 {
        self.outcomes.iter().filter(|o| !o.ok).count() as u64
    }
}

/// Runs a closed loop: each client, on its own thread, sends its next
/// request only after the previous reply arrived, until `window` has
/// passed since the loop started. A slow system therefore receives less
/// load, as callers that block on each reply would give it. `op` sends
/// one request for a client and reports whether the answer was correct.
pub fn closed_loop<C, F>(clients: Vec<C>, window: Duration, op: F) -> ClosedLoop<C>
where
    C: Send,
    F: Fn(&mut C) -> bool + Sync,
{
    let op = &op;
    let start = Instant::now();
    let deadline = start + window;
    let per_client: Vec<(C, Vec<Outcome>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    while Instant::now() < deadline {
                        let sent = Instant::now();
                        let ok = op(&mut client);
                        outcomes.push(Outcome {
                            latency: sent.elapsed(),
                            done: start.elapsed(),
                            ok,
                        });
                    }
                    (client, outcomes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut clients = Vec::new();
    let mut outcomes = Vec::new();
    for (client, mut samples) in per_client {
        clients.push(client);
        outcomes.append(&mut samples);
    }
    ClosedLoop {
        clients,
        outcomes,
        wall,
    }
}

/// A time interval on one clock, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub start: f64,
    pub dur: f64,
}

/// Self time of a span: its duration minus the part of it that its
/// children cover. Children may overlap one another (parallel work) and
/// may stick out of the parent; only their union inside the parent is
/// subtracted.
pub fn self_time(parent: Interval, children: &[Interval]) -> f64 {
    let (lo, hi) = (parent.start, parent.start + parent.dur);
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(lo), (c.start + c.dur).min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = lo;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    parent.dur - covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_states_its_sample_count() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&v).expect("samples");
        assert_eq!(s.samples, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p90, 899.0);
        assert_eq!(s.p99, 989.0);
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.tail, 989.0);
        assert!(s.describe("x", "ms").contains("1000 samples"));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn error_rate_is_over_attempted() {
        assert_eq!(error_rate(0, 7), 0.0);
        assert_eq!(error_rate(1, 4), 0.25);
        assert_eq!(error_rate(3, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "attempted nothing")]
    fn error_rate_needs_attempts() {
        let _ = error_rate(0, 0);
    }

    #[test]
    fn closed_loop_waits_for_each_reply() {
        const CLIENTS: usize = 2;
        let in_flight: Vec<AtomicU32> = (0..CLIENTS).map(|_| AtomicU32::new(0)).collect();
        let service = Duration::from_millis(3);
        let mut run = closed_loop(
            (0..CLIENTS).collect(),
            Duration::from_millis(60),
            |&mut c: &mut usize| {
                // A second request from this client while one is
                // outstanding would break the closed loop.
                let before = in_flight[c].fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(service);
                in_flight[c].fetch_sub(1, Ordering::SeqCst);
                before == 0
            },
        );
        assert_eq!(run.clients, vec![0, 1]);
        assert_eq!(run.failed(), 0);
        assert!(run.outcomes.iter().all(|o| o.latency >= service));
        // Each client is sequential: its requests cannot take more time
        // together than the loop ran.
        let busy: Duration = run.outcomes.iter().map(|o| o.latency).sum();
        assert!(busy <= run.wall * CLIENTS as u32);
        assert!(run.wall >= Duration::from_millis(60));
        let expected = run.outcomes.len() as f64 / run.wall.as_secs_f64();
        assert!((run.per_second() - expected).abs() < 1e-9);
        // At most one request per client per service time fits.
        let cap = CLIENTS as f64 * run.wall.as_secs_f64() / service.as_secs_f64();
        assert!(run.outcomes.len() as f64 <= cap + CLIENTS as f64);
        // Every reply lands in the window of its arrival time.
        let windows = run.windows(3);
        assert_eq!(windows.len(), 3);
        let width = run.wall / 3;
        for (i, w) in windows.iter().enumerate() {
            assert!(w
                .iter()
                .all(|o| o.done >= width * i as u32 && o.done <= width * (i as u32 + 1)));
        }
        let windowed: usize = windows.iter().map(Vec::len).sum();
        assert_eq!(windowed, run.outcomes.len());
        // A second part continues the first one's timeline.
        let (first_wall, first_count) = (run.wall, run.outcomes.len());
        let next = closed_loop(std::mem::take(&mut run.clients), service * 4, |_| {
            std::thread::sleep(service);
            true
        });
        let next_wall = next.wall;
        run.extend(next);
        assert_eq!(run.clients, vec![0, 1]);
        assert_eq!(run.wall, first_wall + next_wall);
        assert!(run.outcomes[first_count..]
            .iter()
            .all(|o| o.done >= first_wall && o.done <= run.wall));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = Interval {
            start: 0.0,
            dur: 100.0,
        };
        assert_eq!(self_time(parent, &[]), 100.0);
        let a = Interval {
            start: 10.0,
            dur: 20.0,
        };
        let b = Interval {
            start: 50.0,
            dur: 10.0,
        };
        assert_eq!(self_time(parent, &[a, b]), 70.0);
        // Overlapping children (parallel work) count once.
        let c = Interval {
            start: 20.0,
            dur: 20.0,
        };
        assert_eq!(self_time(parent, &[a, b, c]), 60.0);
        // A child sticking out of its parent is clipped.
        let d = Interval {
            start: 90.0,
            dur: 50.0,
        };
        assert_eq!(self_time(parent, &[d]), 90.0);
    }
}
