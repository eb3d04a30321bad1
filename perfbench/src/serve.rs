//! `serve`: a closed loop over two connections against a spawned
//! `vcache serve --workers 2`. Requests are `analyze_nest` calls drawn
//! Zipf-skewed from a seeded population four times the size of the
//! daemon's verdict cache (1024 entries by default); about one in eight
//! asks for a prescription, and both geometries appear. The load client
//! never retries, so a refusal or shed counts as a failed request. The
//! traced run also sends the mix through the router of
//! `vcache serve --shards 2 --workers 1` to measure router, ring and
//! fleet.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use serde::{Serialize, Value};
use vcache_check::{analyze_nest, battery, plan, CostWeights, LoopNest, DEFAULT_MAX_PAD};
use vcache_serve::{Client, ClientError, GeometrySpec, RetryPolicy};
use vcache_trace::SpanRecord;

use crate::sim::Rng;
use crate::stats::{closed_loop, median, ratio, ClosedLoop, Outcome, Summary};
use crate::trace::{by_label, Span, Tracer};
use crate::{cpu_seconds, peak_rss_mb, Config, RunResult, Setups};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Topology {
    Daemon,
    Fleet,
}

/// Distinct requests in the population.
const KEYS: usize = 4096;
/// Verdict-cache entries per daemon (the `vcache serve` default).
const CACHE_ENTRIES: usize = 1024;
const CONNECTIONS: usize = 2;
/// Zipf exponent of the request mix. An assumption: no trace of
/// `vcache serve` requests exists to measure the skew from. With 4096
/// keys over 1024 cache entries it gives the daemon's verdict cache a
/// hit ratio of about 0.8, which every serve figure rests on; the run
/// prints the ratio it saw.
const ZIPF_S: f64 = 1.0;
/// The untraced loop runs in this many parts, with a timed set-up
/// between two parts.
const SEGMENTS: u32 = 24;
/// The mix runs this long before measuring, so the verdict caches
/// start warm.
const WARMUP: Duration = Duration::from_secs(1);

/// One distinct request.
struct Req {
    nest: LoopNest,
    geometry: GeometrySpec,
    prescribe: bool,
    params: Value,
}

fn population(seed: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0x5E7E);
    battery::cases(seed, KEYS)
        .into_iter()
        .map(|case| {
            let geometry = if rng.next().is_multiple_of(2) {
                GeometrySpec::Pow2 {
                    sets: 1 << case.exponent,
                    line_words: case.line_words,
                }
            } else {
                GeometrySpec::Prime {
                    exponent: case.exponent,
                    line_words: case.line_words,
                }
            };
            let prescribe = rng.next().is_multiple_of(8);
            let params = Value::Obj(vec![
                ("nest".into(), case.nest.to_value()),
                ("geometry".into(), geometry.to_value()),
                ("prescribe".into(), Value::Bool(prescribe)),
            ]);
            Req {
                nest: case.nest,
                geometry,
                prescribe,
                params,
            }
        })
        .collect()
}

/// Cumulative Zipf weights over the keys; key `k` has rank `k`.
fn zipf_cdf() -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=KEYS)
        .map(|k| {
            acc += (k as f64).powf(-ZIPF_S);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn sample(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// The answer the library gives in process, built the way the daemon
/// builds its `analyze_nest` result.
fn library_answer(req: &Req) -> Result<Value, String> {
    let geometry = req.geometry.to_geometry()?;
    let analysis = analyze_nest(&req.nest, &geometry).map_err(|e| e.to_string())?;
    let mut pairs = vec![("analysis".to_string(), analysis.to_value())];
    if req.prescribe && !analysis.verdict.is_conflict_free() {
        let (frontier, analyzed, mut ranked) = plan(&req.nest, &geometry, DEFAULT_MAX_PAD)
            .map_or((0, 0, Vec::new()), |p| (p.candidates, p.analyzed, p.ranked));
        let ranked_count = ranked.len() as u64;
        let best = if ranked.is_empty() {
            Value::Null
        } else {
            ranked.remove(0).to_value()
        };
        pairs.push(("certificate".to_string(), best));
        pairs.push((
            "alternatives".to_string(),
            Value::Arr(ranked.iter().map(|c| c.to_value()).collect()),
        ));
        pairs.push((
            "plan".to_string(),
            Value::Obj(vec![
                ("candidates".into(), Value::U64(frontier)),
                ("analyzed".into(), Value::U64(analyzed)),
                ("ranked".into(), Value::U64(ranked_count)),
                ("weights".into(), CostWeights::default().to_value()),
            ]),
        ));
    }
    Ok(Value::Obj(pairs))
}

fn no_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    }
}

/// A spawned `vcache serve`, stopped (and waited for) on drop.
struct Daemon {
    child: Child,
    addr: String,
    /// Shards behind a fleet router, killed with it if it will not drain.
    shard_pids: Vec<u32>,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(vcache: &Path, topology: Topology, spans: Option<&Path>) -> Result<Self, String> {
        let mut cmd = Command::new(vcache);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        match topology {
            Topology::Daemon => cmd.args(["--workers", "2"]),
            Topology::Fleet => cmd.args(["--shards", "2", "--workers", "1"]),
        };
        if let Some(path) = spans {
            cmd.arg("--spans").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", vcache.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut daemon = Self {
            child,
            addr: String::new(),
            shard_pids: Vec::new(),
            _stdout: BufReader::new(stdout),
        };
        let mut banner = String::new();
        daemon
            ._stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading the daemon banner: {e}"))?;
        daemon.addr = banner
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {banner:?}"))?
            .to_string();
        Ok(daemon)
    }

    /// Waits for the first answer (a ping) and learns a fleet's shard
    /// pids. Returns how long the first answer took, in milliseconds: it
    /// includes the wait for the accept loop's next poll.
    fn first_answer(&mut self, topology: Topology) -> Result<f64, String> {
        let start = Instant::now();
        self.client()
            .call("ping", Value::Null, None)
            .map_err(|e| format!("first ping: {e}"))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if topology == Topology::Fleet {
            self.shard_pids = statuses(self, topology)?.pids[1..].to_vec();
        }
        Ok(ms)
    }

    fn client(&self) -> Client {
        Client::with_policy(self.addr.clone(), no_retries())
    }

    fn status(&self) -> Result<Value, String> {
        self.client().status().map_err(|e| format!("status: {e}"))
    }

    /// Asks the daemon (a router drains its shards too) to stop, and
    /// waits for it to exit.
    fn stop(&mut self) -> Result<(), String> {
        self.client()
            .call("shutdown", Value::Null, None)
            .map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("daemon did not exit after shutdown".into())
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(None)) || self.stop().is_ok() {
            return;
        }
        // It would not drain: kill it, and any shards it leaves behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in &self.shard_pids {
            let _ = Command::new("kill")
                .args(["-9", &pid.to_string()])
                .stderr(Stdio::null())
                .status();
        }
    }
}

fn counter(status: &Value, name: &str) -> u64 {
    status
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(Value::as_arr)
        .and_then(|cs| {
            cs.iter()
                .find(|c| matches!(c.get("name"), Some(Value::Str(n)) if n == name))
        })
        .and_then(|c| match c.get("value") {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        })
        .unwrap_or(0)
}

/// Status of the process the client talks to (`front`), and of every
/// daemon that does analysis work: the daemon itself, or each shard
/// behind the router, with their pids.
struct Statuses {
    front: Value,
    workers: Vec<Value>,
    pids: Vec<u32>,
    /// CPU seconds the daemon processes had used.
    cpu_s: f64,
}

fn statuses(daemon: &Daemon, topology: Topology) -> Result<Statuses, String> {
    let front = daemon.status()?;
    if topology == Topology::Daemon {
        return Ok(Statuses {
            workers: vec![front.clone()],
            front,
            pids: vec![daemon.child.id()],
            cpu_s: cpu_seconds(Some(daemon.child.id()))?,
        });
    }
    let shards = front
        .get("shards")
        .and_then(Value::as_arr)
        .ok_or("router status without shards")?;
    let mut workers = Vec::new();
    let mut pids = vec![daemon.child.id()];
    for shard in shards {
        let Some(Value::Str(addr)) = shard.get("addr") else {
            return Err("a shard has no address".into());
        };
        if let Some(Value::U64(pid)) = shard.get("pid") {
            pids.push(u32::try_from(*pid).map_err(|e| e.to_string())?);
        }
        let mut client = Client::with_policy(addr.clone(), no_retries());
        workers.push(client.status().map_err(|e| format!("shard status: {e}"))?);
    }
    let mut cpu_s = 0.0;
    for &pid in &pids {
        cpu_s += cpu_seconds(Some(pid))?;
    }
    Ok(Statuses {
        front,
        workers,
        pids,
        cpu_s,
    })
}

impl Statuses {
    /// Sum of counter `name` over the analysing daemons.
    fn total(&self, name: &str) -> u64 {
        self.workers.iter().map(|s| counter(s, name)).sum()
    }
}

/// Load-client state of one connection.
struct Loader<'a> {
    client: Client,
    rng: Rng,
    cdf: &'a [f64],
    reqs: &'a [Req],
    /// First answer seen per key; every later answer must equal it.
    seen: HashMap<usize, Value>,
    refusals: u64,
    tracer: Tracer,
}

impl Loader<'_> {
    fn request(&mut self) -> bool {
        let key = sample(self.cdf, &mut self.rng);
        self.tracer.begin("client.request");
        let answer = self
            .client
            .call("analyze_nest", self.reqs[key].params.clone(), None);
        self.tracer.end(1);
        match answer {
            Ok(value) => match self.seen.get(&key) {
                Some(first) if *first == value => true,
                Some(_) => {
                    eprintln!("serve: key {key} answered differently than before");
                    false
                }
                None => {
                    self.seen.insert(key, value);
                    true
                }
            },
            Err(ClientError::Server(body)) if body.code.request_not_started() => {
                self.refusals += 1;
                false
            }
            Err(e) => {
                eprintln!("serve: request failed: {e}");
                false
            }
        }
    }
}

/// What one closed loop against a daemon produced.
struct Drive<'a> {
    run: ClosedLoop<Loader<'a>>,
    warm_requests: usize,
    warm_failed: u64,
    /// Answers the warm-up loaders saw, one map per connection.
    warm_seen: Vec<HashMap<usize, Value>>,
    before: Statuses,
    after: Statuses,
    /// Request lines the front process read beyond those the loaders
    /// and status calls sent: resends the client made on its own.
    resent: u64,
    /// Peak RSS of every daemon process, summed.
    rss_mb: f64,
}

/// Warms the daemon up, then runs the measured closed loop in
/// `segments` parts of equal length; `between` runs between two parts,
/// given the share of the loop done, and is not timed.
#[allow(clippy::too_many_arguments)]
fn drive<'a>(
    daemon: &Daemon,
    topology: Topology,
    reqs: &'a [Req],
    cdf: &'a [f64],
    seed: u64,
    window: Duration,
    traced: Option<Instant>,
    segments: u32,
    between: &mut dyn FnMut(f64) -> Result<(), String>,
) -> Result<Drive<'a>, String> {
    let loaders = |salt: u64, traced: Option<Instant>| -> Vec<Loader<'a>> {
        (0..CONNECTIONS as u64)
            .map(|c| Loader {
                client: daemon.client(),
                rng: Rng::new(seed.wrapping_mul(31).wrapping_add(c).wrapping_add(salt)),
                cdf,
                reqs,
                seen: HashMap::new(),
                refusals: 0,
                tracer: traced.map_or_else(Tracer::off, Tracer::on),
            })
            .collect()
    };
    let start = statuses(daemon, topology)?;
    let warm = closed_loop(loaders(1000, None), WARMUP, |l: &mut Loader<'a>| {
        l.request()
    });
    let before = statuses(daemon, topology)?;
    let part = window / segments;
    let request = |l: &mut Loader<'a>| l.request();
    let mut run = closed_loop(loaders(0, traced), part, request);
    for k in 1..segments {
        between(f64::from(k) / f64::from(segments))?;
        let next = closed_loop(std::mem::take(&mut run.clients), part, request);
        run.extend(next);
    }
    let after = statuses(daemon, topology)?;
    // The front counts each line as it reads it, so the `start` status
    // is inside `start` and the `after` status inside `after`. Between
    // them it read the warm-up and loop requests and the `before` and
    // `after` status calls, plus any line the client resent: with
    // max_attempts = 1 it still redials once, uncounted, when a pooled
    // socket fails.
    let sent = (warm.outcomes.len() + run.outcomes.len() + 2) as u64;
    let received = counter(&after.front, "serve.requests")
        .saturating_sub(counter(&start.front, "serve.requests"));
    let resent = received.saturating_sub(sent);
    let mut rss_mb = 0.0;
    for &pid in &after.pids {
        rss_mb += peak_rss_mb(Some(pid))?;
    }
    Ok(Drive {
        run,
        warm_requests: warm.outcomes.len(),
        warm_failed: warm.failed(),
        warm_seen: warm.clients.into_iter().map(|l| l.seen).collect(),
        before,
        after,
        resent,
        rss_mb,
    })
}

/// Compares every distinct answer seen with the in-process library
/// answer, byte for byte. Returns (checked, wrong).
fn verify(reqs: &[Req], seen: &HashMap<usize, Value>) -> Result<(u64, u64), String> {
    let mut wrong = 0;
    for (&key, value) in seen {
        let served = serde_json::to_string(value).map_err(|e| e.to_string())?;
        let local =
            serde_json::to_string(&library_answer(&reqs[key])?).map_err(|e| e.to_string())?;
        if served != local {
            eprintln!("serve: answer for key {key} differs from the library's");
            wrong += 1;
        }
    }
    Ok((seen.len() as u64, wrong))
}

/// Reads the daemon's `--spans` file, renumbering span ids densely.
fn daemon_spans(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records = text
        .lines()
        .map(SpanRecord::from_jsonl)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let index: HashMap<u64, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.span, i))
        .collect();
    Ok(records
        .into_iter()
        .enumerate()
        .map(|(i, r)| Span {
            id: i,
            parent: r.parent.and_then(|p| index.get(&p).copied()),
            label: r.label,
            start_us: r.start_us as f64,
            dur_us: r.dur_us as f64,
            work: 0,
            status: r.status,
        })
        .collect())
}

/// The daemon spans of requests made inside the measured loop: the
/// `analyze_nest` roots between the last two `status` calls (the
/// snapshots that bracket the loop; earlier ones precede the warm-up)
/// and their descendants, renumbered densely.
fn in_window(spans: &[Span]) -> Vec<Span> {
    let mut status_starts: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.label == "status")
        .map(|s| s.start_us)
        .collect();
    status_starts.sort_by(f64::total_cmp);
    let [.., lo, hi] = status_starts[..] else {
        return Vec::new();
    };
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        &spans[i]
    };
    let mut renumber = HashMap::new();
    let mut kept = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let root = root_of(i);
        if root.label == "analyze_nest" && root.start_us > lo && root.start_us < hi {
            renumber.insert(i, kept.len());
            kept.push(s.clone());
        }
    }
    for (id, s) in kept.iter_mut().enumerate() {
        s.id = id;
        s.parent = s.parent.and_then(|p| renumber.get(&p).copied());
    }
    kept
}

pub fn run(config: &Config) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let topology = Topology::Daemon;
    let cdf = zipf_cdf();
    let window = Duration::from_secs_f64(if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    });
    // Set-up ends when the daemon listens. Its first answer waits for
    // the accept loop's next poll, a race that would make set-up times
    // bimodal; it is reported as `serve.first_answer_ms` instead.
    let ((reqs, mut daemon), mut setups) = Setups::start(|| {
        let reqs = population(config.seed);
        let daemon = Daemon::spawn(&config.vcache, topology, None)?;
        Ok((reqs, daemon))
    })?;
    let first_answer_ms = daemon.first_answer(topology)?;
    let working_set = KEYS as f64 / CACHE_ENTRIES as f64;
    result.note(format!(
        "serve: seed {}, {KEYS} distinct requests (Zipf s={ZIPF_S}, ~1/8 prescribe), {CONNECTIONS} closed-loop connections, working set / cache = {working_set} (2 for the traced fleet); caches start warm after a {:.1} s warm-up of the same mix",
        config.seed,
        WARMUP.as_secs_f64()
    ));

    let plain = drive(
        &daemon,
        topology,
        &reqs,
        &cdf,
        config.seed,
        window,
        None,
        SEGMENTS,
        &mut |progress| setups.due(progress),
    )?;
    daemon.shutdown()?;
    let setup_s = setups.median()?;
    let mut seen: HashMap<usize, Value> = HashMap::new();
    let mut mismatches = 0;
    // Every answer must equal the first one seen for its key, across
    // connections and phases; the first ones are then checked against
    // the library.
    let mut absorb = |drive: &Drive<'_>| {
        let maps = drive
            .warm_seen
            .iter()
            .chain(drive.run.clients.iter().map(|l| &l.seen));
        for map in maps {
            for (k, v) in map {
                match seen.get(k) {
                    Some(first) if first != v => mismatches += 1,
                    Some(_) => {}
                    None => {
                        seen.insert(*k, v.clone());
                    }
                }
            }
        }
    };
    absorb(&plain);
    // A resent request is a failure the client would otherwise hide.
    result.attempted = (plain.run.outcomes.len() + plain.warm_requests) as u64;
    result.failed = plain.run.failed() + plain.warm_failed + plain.resent;
    let mut resent = plain.resent;
    let refusals: u64 = plain.run.clients.iter().map(|l| l.refusals).sum();
    let delta =
        |d: &Drive<'_>, name: &str| d.after.total(name).saturating_sub(d.before.total(name));
    let (hits, misses) = (
        delta(&plain, "serve.cache.hits"),
        delta(&plain, "serve.cache.misses"),
    );
    result.note(format!(
        "serve: {} requests in {:.3} s ({} failed, {refusals} refused, {} shed, {} resent); verdict-cache hit ratio {:.4} ({hits} hits, {misses} misses)",
        plain.run.outcomes.len(),
        plain.run.wall.as_secs_f64(),
        plain.run.failed(),
        delta(&plain, "serve.sheds"),
        plain.resent,
        ratio(hits as f64, (hits + misses) as f64)
    ));

    result.set("setup_s", setup_s);
    result.set("peak_rss_mb", plain.rss_mb);
    let daemon_cpu_s = plain.after.cpu_s - plain.before.cpu_s;
    result.set(
        "ops_per_cpu_s",
        ratio(plain.run.outcomes.len() as f64, daemon_cpu_s),
    );
    result.set_latency(
        "client-observed request latency",
        &ok_latencies_ms(&plain.run.outcomes),
    );
    set_windowed(&mut result, &plain.run);
    result.note(format!(
        "serve: the daemon processes used {daemon_cpu_s:.2} CPU-s for the loop"
    ));
    if !config.trace {
        let (checked, wrong) = verify(&reqs, &seen)?;
        result.attempted += checked;
        result.failed += mismatches + wrong;
        result.note(format!(
            "serve: {checked} distinct answers compared with the library: {wrong} differ"
        ));
        return Ok(result);
    }

    // Traced: the daemon again, then the same mix through the router of
    // a fleet. The fleet's wall-clock figures moved too much from run to
    // run to carry a bound, so router, ring and fleet are measured here,
    // per layer, rather than as a workload of their own.
    let origin = Instant::now();
    let traced = traced_phase(config, Topology::Daemon, &reqs, &cdf, window, origin)?;
    let fleet = traced_phase(config, Topology::Fleet, &reqs, &cdf, window / 2, origin)?;
    let mut tracer = Tracer::on(origin);
    for phase in [&traced, &fleet] {
        absorb(&phase.drive);
        let run = &phase.drive.run;
        result.attempted += (run.outcomes.len() + phase.drive.warm_requests) as u64;
        result.failed += run.failed() + phase.drive.warm_failed + phase.drive.resent;
        resent += phase.drive.resent;
    }
    let (checked, wrong) = verify(&reqs, &seen)?;
    result.attempted += checked;
    result.failed += mismatches + wrong;
    result.set(
        "trace.overhead_ratio",
        ratio(plain.run.per_second(), traced.drive.run.per_second()),
    );
    let delta = |name: &str| delta(&traced.drive, name) as f64;
    let (hits, misses) = (delta("serve.cache.hits"), delta("serve.cache.misses"));
    result.set("serve.cache.hit_ratio", ratio(hits, hits + misses));
    result.set("serve.cache.evictions", delta("serve.cache.evictions"));
    result.set("serve.sheds", delta("serve.sheds"));
    for l in traced
        .drive
        .run
        .clients
        .into_iter()
        .chain(fleet.drive.run.clients)
    {
        tracer.absorb(l.tracer);
    }
    let client_path = config
        .out_dir
        .join(format!("serve-{}.client.spans.jsonl", config.seed));
    tracer
        .write_jsonl(&client_path)
        .map_err(|e| format!("{}: {e}", client_path.display()))?;
    result.note(format!(
        "serve: spans written to {}, {} and {}",
        client_path.display(),
        traced.span_path.display(),
        fleet.span_path.display()
    ));
    result.set("serve.working_set_over_cache", working_set);
    result.set("serve.first_answer_ms", first_answer_ms);
    // Resends over the whole run: untraced, traced and fleet loops.
    result.set("serve.client_retries", resent as f64);

    let spans = &traced.spans;
    let durations = |label: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.dur_us)
            .collect()
    };
    if let Some(s) = Summary::of(&durations("queue_wait")) {
        result.set("serve.queue_wait_us_p50", s.p50);
        result.set("serve.queue_wait_us_p99", s.p99);
    }
    result.set("serve.worker_us_p50", median(&durations("worker")));
    result.set(
        "serve.prescribe_ms_p50",
        median(&durations("prescribe")) / 1e3,
    );
    // Daemon-observed latency of each request, split by the outcome of
    // its cache lookup.
    let mut split: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in spans.iter().filter(|s| s.label == "cache_lookup") {
        if let Some(root) = s.parent.map(|p| &spans[p]) {
            split
                .entry(s.status.as_str())
                .or_default()
                .push(root.dur_us / 1e3);
        }
    }
    for (outcome, metric) in [
        ("hit", "serve.latency_p50_ms.hit"),
        ("miss", "serve.latency_p50_ms.miss"),
    ] {
        result.set(metric, split.get(outcome).map_or(0.0, |v| median(v)));
    }

    // The router's own time per request: its root span minus the hop to
    // the shard.
    if let Some(s) = by_label(&fleet.spans).get("analyze_nest") {
        result.set("fleet.router.hop_us_p50", median(&s.self_us));
    }
    let (before, after) = (&fleet.drive.before, &fleet.drive.after);
    let reroutes = counter(&after.front, "serve.router.reroutes")
        .saturating_sub(counter(&before.front, "serve.router.reroutes"));
    result.set("fleet.router.reroutes", reroutes as f64);
    let served: Vec<f64> = after
        .workers
        .iter()
        .zip(&before.workers)
        .map(|(a, b)| {
            counter(a, "serve.requests").saturating_sub(counter(b, "serve.requests")) as f64
        })
        .collect();
    let total: f64 = served.iter().sum();
    let max = served.iter().copied().fold(0.0, f64::max);
    result.set("fleet.ring.max_shard_share", ratio(max, total));
    Ok(result)
}

/// A traced closed loop against a fresh daemon (or fleet) started with
/// `--spans`, and the daemon spans of its measured loop.
struct Traced<'a> {
    drive: Drive<'a>,
    spans: Vec<Span>,
    span_path: PathBuf,
}

fn traced_phase<'a>(
    config: &Config,
    topology: Topology,
    reqs: &'a [Req],
    cdf: &'a [f64],
    window: Duration,
    origin: Instant,
) -> Result<Traced<'a>, String> {
    let name = match topology {
        Topology::Daemon => "daemon",
        Topology::Fleet => "fleet",
    };
    let span_path = config
        .out_dir
        .join(format!("serve-{}.{name}.spans.jsonl", config.seed));
    std::fs::create_dir_all(&config.out_dir).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&span_path);
    let mut daemon = Daemon::spawn(&config.vcache, topology, Some(&span_path))?;
    daemon.first_answer(topology)?;
    let drive = drive(
        &daemon,
        topology,
        reqs,
        cdf,
        config.seed,
        window,
        Some(origin),
        1,
        &mut |_| Ok(()),
    )?;
    daemon.shutdown()?;
    Ok(Traced {
        drive,
        spans: in_window(&daemon_spans(&span_path)?),
        span_path,
    })
}

fn ok_latencies_ms(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.latency.as_secs_f64() * 1e3)
        .collect()
}

/// Requests per second and the latency p50 and p90 as medians over
/// one-second windows of the loop.
fn set_windowed(result: &mut RunResult, run: &ClosedLoop<Loader<'_>>) {
    let count = (run.wall.as_secs_f64().round() as usize).max(1);
    let width = run.wall.as_secs_f64() / count as f64;
    let windows = run.windows(count);
    let rates: Vec<f64> = windows.iter().map(|w| w.len() as f64 / width).collect();
    let summaries: Vec<Summary> = windows
        .iter()
        .filter_map(|w| Summary::of(&ok_latencies_ms(w)))
        .collect();
    let fewest = summaries.iter().map(|s| s.samples).min().unwrap_or(0);
    let over_windows =
        |f: fn(&Summary) -> f64| median(&summaries.iter().map(f).collect::<Vec<_>>());
    result.set("ops_per_s", median(&rates));
    result.set("latency_p50_ms", over_windows(|s| s.p50));
    result.set("latency.p90_ms", over_windows(|s| s.p90));
    result.note(format!(
        "ops_per_s, latency_p50_ms and latency.p90_ms are medians over {count} windows of {width:.3} s, each of at least {fewest} requests"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, label: &str, start_us: f64) -> Span {
        Span {
            id,
            parent,
            label: label.to_string(),
            start_us,
            dur_us: 1.0,
            work: 0,
            status: "ok".to_string(),
        }
    }

    #[test]
    fn window_is_bounded_by_the_last_two_status_roots() {
        let spans = vec![
            span(0, None, "status", 0.0),
            span(1, None, "analyze_nest", 10.0),
            span(2, None, "status", 20.0),
            span(3, None, "analyze_nest", 30.0),
            span(4, Some(3), "worker", 31.0),
            span(5, None, "status", 40.0),
            span(6, None, "analyze_nest", 50.0),
        ];
        let kept = in_window(&spans);
        let labels: Vec<(&str, Option<usize>)> =
            kept.iter().map(|s| (s.label.as_str(), s.parent)).collect();
        assert_eq!(labels, [("analyze_nest", None), ("worker", Some(0))]);
        assert_eq!(kept[0].start_us, 30.0);
        assert!(in_window(&spans[..2]).is_empty());
    }
}
