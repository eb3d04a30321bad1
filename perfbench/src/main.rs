//! The repository benchmark. One command runs one workload for a given
//! seed and prints, as its last line, a JSON object with the run's
//! correctness, attempted and failed operation counts, and its metrics:
//! the end-to-end ones with `--trace 0`, the per-layer ones (from spans
//! the benchmark records around each layer call) with `--trace 1`.
//!
//! ```text
//! perfbench --workload sim|check|serve --seed N --seconds S \
//!           --trace 0|1 --vcache PATH
//! ```
//!
//! `perfbench/run.py` builds this binary and the `vcache` daemon and
//! supplies `--vcache`. See `perfbench/README.md` for what each workload
//! and metric means.

mod check;
mod serve;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Each workload defines them over its own unit of work (README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_cpu_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mersenne.reduce_ns", "ns"),
    ("mersenne.mask_ns", "ns"),
    ("mersenne.reduce_over_mask", "ratio"),
    ("cache.direct.access_ns", "ns"),
    ("cache.prime.access_ns", "ns"),
    ("cache.assoc4.access_ns", "ns"),
    ("cache.direct.hit_ratio", "ratio"),
    ("cache.prime.hit_ratio", "ratio"),
    ("cache.assoc4.hit_ratio", "ratio"),
    ("cache.direct.conflict_misses", "count"),
    ("cache.prime.conflict_misses", "count"),
    ("machine.mm.execute_s", "s"),
    ("machine.cc_direct.execute_s", "s"),
    ("machine.cc_prime.execute_s", "s"),
    ("machine.mm.cycles_per_result", "cycles"),
    ("machine.cc_direct.cycles_per_result", "cycles"),
    ("machine.cc_prime.cycles_per_result", "cycles"),
    ("machine.cc_prime.cache_stall_cycles", "cycles"),
    ("machine.mm.memory_stall_cycles", "cycles"),
    ("workloads.generate_s", "s"),
    ("staticcheck.gate.orbits_s", "s"),
    ("staticcheck.gate.absint_s", "s"),
    ("staticcheck.gate.workloads_s", "s"),
    ("staticcheck.gate.probabilistic_s", "s"),
    ("staticcheck.absint.analyze_us_p50", "us"),
    ("staticcheck.absint.analyze_us_p99", "us"),
    ("staticcheck.absint.fallback_ratio", "ratio"),
    ("staticcheck.absint.enumerated_lines", "count"),
    ("staticcheck.relational.decide_us.trip256", "us"),
    ("staticcheck.relational.decide_us.trip4096", "us"),
    ("staticcheck.relational.trip256_over_trip4096", "ratio"),
    ("staticcheck.conflict.analyze_program_us", "us"),
    ("staticcheck.plan.candidates", "count"),
    ("staticcheck.plan.ranked_ratio", "ratio"),
    ("staticcheck.plan.candidate_us", "us"),
    ("staticcheck.probabilistic.analyze_profile_us", "us"),
    ("staticcheck.probabilistic.monte_carlo_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.working_set_over_cache", "ratio"),
    ("serve.first_answer_ms", "ms"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.worker_us_p50", "us"),
    ("serve.prescribe_ms_p50", "ms"),
    ("serve.latency_p50_ms.hit", "ms"),
    ("serve.latency_p50_ms.miss", "ms"),
    ("serve.sheds", "count"),
    ("serve.client_retries", "count"),
    ("fleet.router.hop_us_p50", "us"),
    ("fleet.router.reroutes", "count"),
    ("fleet.ring.max_shard_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("ops_per_s", "1/s"),
    ("latency.p90_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("latency.samples", "count"),
    ("latency.tail_pct", "%"),
    ("latency.tail_ms", "ms"),
    ("error_rate", "ratio"),
];

/// How one run was asked to go.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub vcache: PathBuf,
    /// Where span files go (inside the checkout).
    pub out_dir: PathBuf,
}

/// What a workload did and measured.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a latency distribution (milliseconds): the end-to-end
    /// p50, and the p90, p99, sample count and highest percentile with
    /// ten samples beyond it.
    pub fn set_latency(&mut self, what: &str, latencies_ms: &[f64]) {
        let Some(s) = stats::Summary::of(latencies_ms) else {
            return;
        };
        self.set("latency_p50_ms", s.p50);
        self.set("latency.p90_ms", s.p90);
        self.set("latency.p99_ms", s.p99);
        self.set("latency.samples", s.samples as f64);
        self.set("latency.tail_pct", s.tail_pct.unwrap_or(0.0));
        self.set("latency.tail_ms", s.tail);
        self.note(s.describe(what, "ms"));
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// Times a workload's set-up `SETUPS` times over one run. The host's
/// speed swings over seconds, so set-ups timed back to back would all
/// sample one moment of it. The first set-up builds the run's state; the
/// others are spread evenly over the timed loop, which pauses its clock
/// for them, and what they build is dropped untimed.
pub struct Setups<'a> {
    again: Box<dyn FnMut() -> Result<f64, String> + 'a>,
    durations: Vec<f64>,
}

impl<'a> Setups<'a> {
    /// Runs and times `setup` once, returning its state.
    pub fn start<T: 'a>(
        mut setup: impl FnMut() -> Result<T, String> + 'a,
    ) -> Result<(T, Self), String> {
        let start = Instant::now();
        let state = setup()?;
        let first = start.elapsed().as_secs_f64();
        let again = Box::new(move || {
            let start = Instant::now();
            let state = setup()?;
            let took = start.elapsed().as_secs_f64();
            drop(state);
            Ok(took)
        });
        Ok((
            state,
            Self {
                again,
                durations: vec![first],
            },
        ))
    }

    /// Takes the set-ups due once `progress` (0 to 1) of the timed loop
    /// has passed.
    pub fn due(&mut self, progress: f64) -> Result<(), String> {
        let wanted = 1 + ((SETUPS - 1) as f64 * progress.clamp(0.0, 1.0)) as usize;
        while self.durations.len() < wanted {
            let took = (self.again)()?;
            self.durations.push(took);
        }
        Ok(())
    }

    /// Takes the set-ups still missing; returns the median duration.
    pub fn median(mut self) -> Result<f64, String> {
        self.due(1.0)?;
        Ok(stats::median(&self.durations))
    }
}

/// Peak resident set size (VmHWM) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// CPU time (user + system, all threads, exited ones included) `pid`,
/// or this process, has used so far, in seconds.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: malformed"))
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

fn parse_args() -> Result<(String, Config), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let take = |key: &str| -> Result<String, String> {
        map.get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let vcache = PathBuf::from(take("vcache")?);
    let out_dir = PathBuf::from(".bench_build").join("perfbench-out");
    Ok((
        workload,
        Config {
            seed,
            seconds,
            trace,
            vcache,
            out_dir,
        },
    ))
}

fn render(result: &RunResult, trace: bool) -> Result<String, String> {
    let correct = result.failed == 0;
    let list = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in list {
        let value = match result.metrics.get(name) {
            Some(&v) => v,
            // An end-to-end metric every workload must measure.
            None if !trace => return Err(format!("workload did not measure {name}")),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        metrics.push(format!(
            "{name:?}: {{\"value\": {value:?}, \"unit\": {unit:?}}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let (workload, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "sim" => sim::run(&config),
        "check" => check::run(&config),
        "serve" => serve::run(&config),
        other => Err(format!("unknown workload {other:?}")),
    };
    let line = outcome.and_then(|mut result| {
        if result.attempted == 0 {
            return Err("the run attempted no operations".into());
        }
        let rate = stats::error_rate(result.failed, result.attempted);
        result.set("error_rate", rate);
        render(&result, config.trace).map(|line| (result.notes, line))
    });
    match line {
        Ok((notes, line)) => {
            for note in notes {
                println!("# {note}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = json.get(key).and_then(|v| v.as_arr()).expect(key);
            let listed: Vec<(String, String)> = entries
                .iter()
                .map(|e| {
                    let field = |f: &str| match e.get(f) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        _ => panic!("{key} entry without {f}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn setups_are_spread_over_the_loop() {
        let mut calls = 0;
        let (state, mut setups) = Setups::start(|| {
            calls += 1;
            Ok(calls)
        })
        .expect("set-up");
        assert_eq!(state, 1);
        setups.due(0.0).expect("due");
        assert_eq!(setups.durations.len(), 1);
        setups.due(0.5).expect("due");
        assert_eq!(setups.durations.len(), 1 + (SETUPS - 1) / 2);
        setups.due(0.5).expect("due");
        assert_eq!(setups.durations.len(), 1 + (SETUPS - 1) / 2);
        setups.median().expect("median");
        assert_eq!(calls, SETUPS);
    }

    #[test]
    fn render_fills_missing_layers_and_requires_end_to_end() {
        let mut r = RunResult {
            attempted: 4,
            failed: 1,
            ..RunResult::default()
        };
        r.set("trace.overhead_ratio", 1.25);
        let line = render(&r, true).expect("per-layer render");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
        assert!(line.contains("\"trace.overhead_ratio\": {\"value\": 1.25, \"unit\": \"ratio\"}"));
        assert!(line.contains("\"mersenne.reduce_ns\": {\"value\": 0.0, \"unit\": \"ns\"}"));
        assert!(render(&r, false).is_err());
    }
}
