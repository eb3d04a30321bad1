//! Out-of-process chaos tests for the analysis daemon: a fault-injected
//! soak (panics, delays, torn writes) that the retrying client must ride
//! out, a byte-identity check between local and remote `check --nests
//! --json`, and a SIGTERM drain. These drive the real `vcache` binary,
//! not an in-process server, so they also cover the CLI wiring and
//! signal handling.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use prime_cache::check::{AffineRef, LoopNest, Term};
use prime_cache::serve::{Client, ClientError, RetryPolicy};
use prime_cache::trace::SpanRecord;
use serde::{Serialize, Value};

const BIN: &str = env!("CARGO_BIN_EXE_vcache");

struct Daemon {
    child: Child,
    addr: String,
    /// Drains the daemon's stderr from the moment it spawns: with
    /// `--slow-ms` armed the soak emits hundreds of slow-request lines,
    /// and an unread pipe would fill and deadlock the daemon mid-test.
    /// Taken by [`Daemon::wait_exit`].
    stderr_drain: Option<thread::JoinHandle<String>>,
}

impl Daemon {
    /// Spawns `vcache serve` with the given extra args and scrapes the
    /// ephemeral address from its `listening on <addr>` banner.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(BIN)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut stderr_pipe = child.stderr.take().expect("daemon stderr");
        let stderr_drain = thread::spawn(move || {
            let mut buffer = String::new();
            let _ = stderr_pipe.read_to_string(&mut buffer);
            buffer
        });
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            stderr_drain: Some(stderr_drain),
        }
    }

    fn client(&self, attempts: u32) -> Client {
        Client::with_policy(
            self.addr.clone(),
            RetryPolicy {
                max_attempts: attempts,
                base: Duration::from_millis(10),
                cap: Duration::from_millis(250),
                seed: 0xc4a05,
            },
        )
    }

    /// Waits (bounded) for the daemon to exit on its own; returns the
    /// exit status and everything it wrote to stderr.
    fn wait_exit(mut self, timeout: Duration) -> (ExitStatus, String) {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(_) => break,
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("daemon did not exit within {timeout:?}");
                }
                None => thread::sleep(Duration::from_millis(25)),
            }
        }
        let status = self.child.wait().expect("wait");
        let stderr = self
            .stderr_drain
            .take()
            .expect("stderr not yet drained")
            .join()
            .expect("stderr drain thread");
        (status, stderr)
    }

    /// SIGTERMs the daemon, then waits for the drain.
    fn sigterm_and_wait(self) -> (ExitStatus, String) {
        assert!(self.sigterm(), "kill -TERM failed");
        self.wait_exit(Duration::from_secs(30))
    }

    fn sigterm(&self) -> bool {
        Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .is_ok_and(|status| status.success())
    }
}

/// A test that fails mid-soak must not leak the daemon (or a fleet's
/// router and shards): SIGTERM lets a router drain its shards; SIGKILL
/// follows after 10 s.
impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(None)) {
            return;
        }
        self.sigterm();
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(25));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Params for a small but real worker-pool op (the canonical nest suite
/// would be slow under a 500-request soak; a single fast nest is not).
fn nest_params() -> Value {
    let nest = LoopNest::new(
        "soak",
        vec![AffineRef::new(0, vec![Term { coeff: 1, trip: 64 }], 0)],
    );
    Value::Obj(vec![
        ("nest".into(), nest.to_value()),
        (
            "geometry".into(),
            Value::Obj(vec![
                ("kind".into(), Value::Str("prime".into())),
                ("exponent".into(), Value::U64(5)),
                ("line_words".into(), Value::U64(8)),
            ]),
        ),
    ])
}

/// Looks up a counter inside a `status` result's metrics snapshot.
fn counter(status: &Value, name: &str) -> u64 {
    let Some(Value::Arr(counters)) = status
        .get("metrics")
        .and_then(|metrics| metrics.get("counters"))
    else {
        panic!("status without counters: {status:?}");
    };
    counters
        .iter()
        .find(|c| matches!(c.get("name"), Some(Value::Str(s)) if s == name))
        .map_or(0, |c| match c.get("value") {
            Some(Value::U64(v)) => *v,
            other => panic!("counter {name} has non-u64 value {other:?}"),
        })
}

#[test]
fn chaos_soak_every_request_resolves_and_sigterm_drains() {
    // Panics, delays, and torn writes all armed. Torn writes surface to
    // clients as transport EOF, so retries (on fresh connections) are
    // what makes the soak converge — exactly the claim under test.
    // Spans are exported so the drain can audit one complete tree per
    // accepted request; --slow-ms 1 makes the injected 10ms delays
    // surface as structured slow_request lines.
    let span_path =
        std::env::temp_dir().join(format!("vcache-chaos-spans-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&span_path);
    // `--cache 0`: this soak repeats one nest, and the span audit below
    // insists every ok analyze_nest tree shows queue_wait + worker
    // attribution — verdict-cache hits legitimately skip both. The
    // cache's own soak is `fleet_chaos_soak_survives_a_shard_sigkill`.
    let daemon = Daemon::spawn(&[
        "--workers",
        "4",
        "--queue",
        "32",
        "--cache",
        "0",
        "--faults",
        "seed=11,panic=0.15,delay=0.2:10,torn=0.08",
        "--spans",
        span_path.to_str().expect("utf-8 temp path"),
        "--slow-ms",
        "1",
    ]);

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 125; // 500 requests total

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut client = daemon.client(12);
            thread::spawn(move || {
                let (mut ok, mut typed) = (0u32, 0u32);
                for i in 0..PER_CLIENT {
                    // Mix control-plane and worker-pool ops; op choice is
                    // deterministic per (client, iteration).
                    let result = match (c + i) % 3 {
                        0 => client.call("ping", Value::Null, Some(5_000)),
                        1 => client.call("status", Value::Null, Some(5_000)),
                        _ => client.call("analyze_nest", nest_params(), Some(5_000)),
                    };
                    match result {
                        Ok(_) => ok += 1,
                        // A typed server error is a well-formed outcome:
                        // the request resolved to exactly one response.
                        Err(ClientError::Server(_)) => typed += 1,
                        Err(other) => {
                            panic!("client {c} request {i}: untyped failure {other}")
                        }
                    }
                }
                (ok, typed)
            })
        })
        .collect();

    let mut total_ok = 0u32;
    let mut total_typed = 0u32;
    for w in workers {
        let (ok, typed) = w.join().expect("client thread");
        total_ok += ok;
        total_typed += typed;
    }
    assert_eq!(total_ok + total_typed, (CLIENTS * PER_CLIENT) as u32);
    // With panic=0.15 armed on the worker pool, some analyze_nest calls
    // MUST have resolved as typed internal errors...
    assert!(total_typed > 0, "fault plan never fired");
    // ...and plenty must still have succeeded.
    assert!(total_ok > 0, "no request ever succeeded");

    // The daemon survived all of it.
    let mut daemon = daemon;
    assert!(
        daemon.child.try_wait().expect("try_wait").is_none(),
        "daemon exited during the soak"
    );

    // Crash isolation is observable: workers caught injected panics.
    let status = daemon
        .client(12)
        .call("status", Value::Null, Some(5_000))
        .expect("status after soak");
    let panics = counter(&status, "serve.panics_caught");
    assert!(panics > 0, "no panics caught: {status:?}");

    // SIGTERM drains: exit code 0 and a final metrics snapshot.
    let (exit, stderr) = daemon.sigterm_and_wait();
    assert!(exit.success(), "drain exited nonzero: {exit:?}\n{stderr}");
    assert!(
        stderr.contains("final metrics"),
        "no final snapshot in stderr: {stderr}"
    );
    assert!(
        stderr.contains("serve.panics_caught"),
        "snapshot lacks panic counter: {stderr}"
    );
    // The injected 10ms delays crossed the 1ms threshold, so the drain
    // left structured slow-request lines behind.
    assert!(
        stderr.contains("{\"slow_request\":{\"op\":"),
        "no structured slow_request log in stderr: {stderr}"
    );

    audit_span_trees(&span_path, &stderr);
    let _ = std::fs::remove_file(&span_path);
}

/// The span-tree audit run over the chaos soak's export: every accepted
/// request — shed, panicked, delayed, or clean — must have left exactly
/// one *complete* span tree behind (DESIGN.md §8).
fn audit_span_trees(span_path: &std::path::Path, final_stderr: &str) {
    use std::collections::HashMap;

    let text = std::fs::read_to_string(span_path).expect("read span export");
    let spans: Vec<SpanRecord> = text
        .lines()
        .map(|line| {
            SpanRecord::from_jsonl(line)
                .unwrap_or_else(|e| panic!("unparseable span line {line:?}: {e}"))
        })
        .collect();
    assert!(!spans.is_empty(), "soak produced no spans");

    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "duplicate span ids in export");

    let mut roots = 0u64;
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for span in &spans {
        // Completeness: a span that reached the export was *finished* —
        // the Drop fallback would have stamped it "abandoned".
        assert_ne!(
            span.status, "abandoned",
            "unclosed span leaked into the export: {span}"
        );
        match span.parent {
            None => {
                roots += 1;
                assert!(
                    span.req_id.is_some(),
                    "root span without a wire correlation id: {span}"
                );
                assert!(
                    span.label == "malformed" || span.digest.is_some(),
                    "root span without a canonical digest: {span}"
                );
            }
            Some(parent) => {
                let parent = by_id
                    .get(&parent)
                    .unwrap_or_else(|| panic!("orphan span (parent missing): {span}"));
                assert_eq!(
                    parent.request, span.request,
                    "span crossed request trees: {span} under {parent}"
                );
                children.entry(parent.span).or_default().push(span);
            }
        }
    }

    // One root per accepted request: the server counts `serve.requests`
    // once per non-empty line, and every such line mints a root span.
    let requests = final_snapshot_counter(final_stderr, "serve.requests");
    assert_eq!(
        roots, requests,
        "span roots disagree with serve.requests ({roots} vs {requests})"
    );

    // Attribution: children fit inside their parent's recorded wall
    // time. Starts and durations come from one monotonic epoch, so the
    // slack only covers microsecond rounding at both ends.
    const SLACK_US: u64 = 50;
    for (parent_id, kids) in &children {
        let parent = by_id[parent_id];
        let parent_end = parent.start_us + parent.dur_us;
        let mut kid_sum = 0u64;
        for kid in kids {
            assert!(
                kid.start_us + SLACK_US >= parent.start_us
                    && kid.start_us + kid.dur_us <= parent_end + SLACK_US,
                "child span escapes its parent's window: {kid} under {parent}"
            );
            kid_sum += kid.dur_us;
        }
        // Siblings never overlap (queue wait precedes the worker; phases
        // nest), so their durations also sum within the parent's.
        assert!(
            kid_sum <= parent.dur_us + SLACK_US * kids.len() as u64,
            "children of span {parent_id} sum to {kid_sum}us > parent {}us",
            parent.dur_us
        );
    }

    // The soak's specific shapes all occurred: queue waits and worker
    // execution for pool ops, analyzer phases under workers, inline
    // handlers for control-plane ops, and spans finished by the panic
    // path (crash isolation is visible in the trace).
    let label_count = |label: &str| spans.iter().filter(|s| s.label == label).count();
    assert!(label_count("queue_wait") > 0, "no queue_wait spans");
    assert!(label_count("worker") > 0, "no worker spans");
    assert!(label_count("handler") > 0, "no inline handler spans");
    assert!(
        label_count("lineset") > 0 && label_count("rules") > 0,
        "no analyzer phase spans under the workers"
    );
    assert!(
        spans.iter().any(|s| s.status == "panic"),
        "injected panics left no panic-status spans"
    );
    // Every ok analyze_nest tree has both queue and worker attribution.
    for root in spans
        .iter()
        .filter(|s| s.is_root() && s.label == "analyze_nest" && s.status == "ok")
    {
        let kids = &children[&root.span];
        for want in ["queue_wait", "worker"] {
            assert!(
                kids.iter().any(|k| k.label == want),
                "ok analyze_nest tree lacks a {want} child: {root}"
            );
        }
    }
}

/// Pulls one counter out of the `final metrics` JSON snapshot the daemon
/// prints to stderr on drain.
fn final_snapshot_counter(stderr: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = stderr
        .find(&needle)
        .unwrap_or_else(|| panic!("no {name} in final snapshot: {stderr}"));
    stderr[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("bad {name} value in final snapshot: {e}"))
}

/// Params for one of eight distinct cacheable nests: the fleet soak
/// cycles them so most analyze_nest traffic replays from the shards'
/// verdict caches while staying spread across the hash ring.
fn fleet_nest_params(k: usize) -> Value {
    let nest = LoopNest::new(
        format!("fleet-{k}"),
        vec![AffineRef::new(
            (k * 8) as u64,
            vec![Term {
                coeff: 1 + (k % 3) as i64,
                trip: 32,
            }],
            0,
        )],
    );
    Value::Obj(vec![
        ("nest".into(), nest.to_value()),
        (
            "geometry".into(),
            Value::Obj(vec![
                ("kind".into(), Value::Str("pow2".into())),
                ("sets".into(), Value::U64(32)),
                ("line_words".into(), Value::U64(8)),
            ]),
        ),
    ])
}

/// The shards array out of a router `status` result.
fn shard_entries(status: &Value) -> &[Value] {
    match status.get("shards") {
        Some(Value::Arr(shards)) => shards,
        other => panic!("router status lacks a shards array: {other:?}"),
    }
}

#[test]
fn fleet_chaos_soak_survives_a_shard_sigkill() {
    let span_path =
        std::env::temp_dir().join(format!("vcache-fleet-spans-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&span_path);
    let fleet = Daemon::spawn(&[
        "--shards",
        "3",
        "--workers",
        "2",
        "--queue",
        "32",
        "--cache",
        "1024",
        "--spans",
        span_path.to_str().expect("utf-8 temp path"),
    ]);

    // The router answers ping locally and names its role.
    let pong = fleet
        .client(8)
        .call("ping", Value::Null, Some(5_000))
        .expect("router ping");
    assert_eq!(pong.get("role"), Some(&Value::Str("router".into())));

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 2_500; // 10k requests total
    const NESTS: usize = 8;

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut client = fleet.client(12);
            thread::spawn(move || {
                let mut ok = 0u32;
                let mut typed = 0u32;
                // First Ok result bytes per nest; every later response
                // for the same nest — cold on another shard or a cache
                // hit on the owner — must serialize identically.
                let mut golden: Vec<Option<String>> = vec![None; NESTS];
                for i in 0..PER_CLIENT {
                    let result = match (c + i) % 16 {
                        0 => client.call("ping", Value::Null, Some(5_000)),
                        1 => client.call("status", Value::Null, Some(5_000)),
                        _ => {
                            let k = (c + i) % NESTS;
                            match client.call("analyze_nest", fleet_nest_params(k), Some(5_000)) {
                                Ok(value) => {
                                    let bytes = serde_json::to_string(&value)
                                        .expect("serialize analyze result");
                                    match &golden[k] {
                                        Some(first) => assert_eq!(
                                            first, &bytes,
                                            "client {c} request {i}: nest {k} bytes diverged"
                                        ),
                                        None => golden[k] = Some(bytes),
                                    }
                                    Ok(value)
                                }
                                err => err,
                            }
                        }
                    };
                    match result {
                        Ok(_) => ok += 1,
                        // A typed server error is still exactly one
                        // well-formed response: the request was never
                        // silently lost.
                        Err(ClientError::Server(_)) => typed += 1,
                        Err(other) => panic!("client {c} request {i}: untyped failure {other}"),
                    }
                }
                (ok, typed, golden)
            })
        })
        .collect();

    // Mid-soak, SIGKILL one live shard: abrupt death, no drain, exactly
    // what the supervisor + ring failover exist for. Stopping it first
    // lets routed exchanges pile up on it, so the kill always lands
    // mid-exchange; a bare kill races the monitor, which may notice the
    // exit before any request reaches the dead shard.
    thread::sleep(Duration::from_millis(500));
    let status = fleet
        .client(12)
        .call("status", Value::Null, Some(5_000))
        .expect("router status mid-soak");
    let victim_pid = shard_entries(&status)
        .iter()
        .find_map(|shard| match (shard.get("health"), shard.get("pid")) {
            (Some(Value::Str(h)), Some(Value::U64(pid))) if h == "live" => Some(*pid),
            _ => None,
        })
        .expect("a live shard with a pid");
    let stopped = Command::new("kill")
        .args(["-STOP", &victim_pid.to_string()])
        .status()
        .expect("send SIGSTOP");
    assert!(stopped.success(), "kill -STOP failed");
    thread::sleep(Duration::from_millis(200));
    let killed = Command::new("kill")
        .args(["-KILL", &victim_pid.to_string()])
        .status()
        .expect("send SIGKILL");
    assert!(killed.success(), "kill -KILL failed");

    let mut total_ok = 0u32;
    let mut total_typed = 0u32;
    let mut goldens: Vec<Vec<Option<String>>> = Vec::new();
    for w in workers {
        let (ok, typed, golden) = w.join().expect("client thread");
        total_ok += ok;
        total_typed += typed;
        goldens.push(golden);
    }
    // Zero lost requests: every one of the 10k resolved.
    assert_eq!(total_ok + total_typed, (CLIENTS * PER_CLIENT) as u32);
    assert!(
        total_ok >= (CLIENTS * PER_CLIENT) as u32 * 99 / 100,
        "too many typed errors riding out one shard death: {total_ok} ok, {total_typed} typed"
    );
    // Byte identity holds across clients too, not just within one.
    for k in 0..NESTS {
        let mut distinct: Vec<&String> = goldens.iter().filter_map(|g| g[k].as_ref()).collect();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            1,
            "nest {k} produced different bytes for different clients"
        );
    }

    // The supervisor noticed the death and brought the slot back.
    let deadline = Instant::now() + Duration::from_secs(15);
    let restarts = loop {
        let status = fleet
            .client(12)
            .call("status", Value::Null, Some(5_000))
            .expect("router status after soak");
        let shards = shard_entries(&status);
        let restarts: u64 = shards
            .iter()
            .map(|s| match s.get("restarts") {
                Some(Value::U64(n)) => *n,
                _ => 0,
            })
            .sum();
        let all_live = shards
            .iter()
            .all(|s| matches!(s.get("health"), Some(Value::Str(h)) if h == "live"));
        if restarts >= 1 && all_live {
            assert!(counter(&status, "serve.fleet.deaths") >= 1);
            assert!(counter(&status, "serve.fleet.restarts") >= 1);
            break restarts;
        }
        assert!(
            Instant::now() < deadline,
            "killed shard never came back live: {status:?}"
        );
        thread::sleep(Duration::from_millis(100));
    };
    assert!(restarts >= 1);

    // The restarted shard serves its key range again: every nest
    // resolves post-restart with the same bytes as during the soak.
    let mut client = fleet.client(12);
    for k in 0..NESTS {
        let value = client
            .call("analyze_nest", fleet_nest_params(k), Some(5_000))
            .unwrap_or_else(|e| panic!("nest {k} unroutable after restart: {e}"));
        let bytes = serde_json::to_string(&value).expect("serialize analyze result");
        let golden = goldens
            .iter()
            .find_map(|g| g[k].as_ref())
            .expect("soak recorded bytes for every nest");
        assert_eq!(&bytes, golden, "nest {k} bytes changed after the restart");
    }

    // SIGTERM the fleet: router drains, supervisor drains the shards,
    // and every process prints a final snapshot into the shared stderr.
    let (exit, stderr) = fleet.sigterm_and_wait();
    assert!(
        exit.success(),
        "fleet drain exited nonzero: {exit:?}\n{stderr}"
    );
    let snapshots = stderr.matches("drained; final metrics:").count();
    assert!(
        snapshots >= 2,
        "expected router + shard snapshots in stderr, got {snapshots}:\n{stderr}"
    );
    // The verdict caches demonstrably served the soak: summed across
    // shard snapshots, the hit counter is nonzero (8 nests x thousands
    // of analyze calls make hits the common case).
    let cache_hits: u64 = stderr
        .match_indices("\"serve.cache.hits\":")
        .map(|(at, needle)| {
            stderr[at + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse::<u64>()
                .expect("cache hit counter parses")
        })
        .sum();
    assert!(
        cache_hits > 0,
        "no cache hits in any final snapshot:\n{stderr}"
    );
    // The router's own snapshot (the last one printed) saw the fleet
    // lifecycle.
    let router_snapshot = &stderr[stderr
        .rfind("drained; final metrics:")
        .expect("router snapshot")..];
    assert!(
        router_snapshot.contains("serve.fleet.restarts"),
        "router snapshot lacks fleet counters:\n{router_snapshot}"
    );

    audit_router_spans(&span_path);
    let _ = std::fs::remove_file(&span_path);
}

/// Span audit for the fleet soak: the router exports one complete tree
/// per request it accepted, roots carry wire correlation ids and
/// canonical digests, and every fleet-routed success shows its `route`
/// hop — the trace survives the extra hop intact.
fn audit_router_spans(span_path: &std::path::Path) {
    use std::collections::HashMap;

    let text = std::fs::read_to_string(span_path).expect("read router span export");
    let spans: Vec<SpanRecord> = text
        .lines()
        .map(|line| {
            SpanRecord::from_jsonl(line)
                .unwrap_or_else(|e| panic!("unparseable span line {line:?}: {e}"))
        })
        .collect();
    assert!(!spans.is_empty(), "fleet soak produced no router spans");

    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "duplicate span ids in export");
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for span in &spans {
        assert_ne!(span.status, "abandoned", "unclosed router span: {span}");
        match span.parent {
            None => {
                assert!(span.req_id.is_some(), "root without wire id: {span}");
                assert!(
                    span.label == "malformed" || span.digest.is_some(),
                    "root without a digest: {span}"
                );
            }
            Some(parent) => {
                let parent = by_id
                    .get(&parent)
                    .unwrap_or_else(|| panic!("orphan router span: {span}"));
                assert_eq!(parent.request, span.request, "span crossed trees: {span}");
                children.entry(parent.span).or_default().push(span);
            }
        }
    }
    // Every successfully routed analyze_nest shows the hop that served
    // it; local control-plane ops (ping/status) legitimately have none.
    let mut routed_ok = 0usize;
    for root in spans
        .iter()
        .filter(|s| s.is_root() && s.label == "analyze_nest" && s.status == "ok")
    {
        let kids = children.get(&root.span).map_or(&[][..], Vec::as_slice);
        assert!(
            kids.iter().any(|k| k.label == "route" && k.status == "ok"),
            "routed request without a successful route hop: {root}"
        );
        routed_ok += 1;
    }
    assert!(routed_ok > 0, "no successfully routed analyze_nest spans");
    // The SIGKILL is visible in the trace: at least one failed hop.
    assert!(
        spans
            .iter()
            .any(|s| s.label == "route" && s.status == "failed"),
        "shard SIGKILL left no failed route hop in the trace"
    );
}

#[test]
fn remote_check_json_is_byte_identical_to_local() {
    let local = Command::new(BIN)
        .args(["check", "--nests", "--json"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("local check");

    let daemon = Daemon::spawn(&[]);
    let remote = Command::new(BIN)
        .args([
            "client",
            "check",
            "--nests",
            "--json",
            "--addr",
            &daemon.addr,
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("remote check");

    assert_eq!(
        local.status.code(),
        remote.status.code(),
        "exit codes differ: local stderr {:?}, remote stderr {:?}",
        String::from_utf8_lossy(&local.stderr),
        String::from_utf8_lossy(&remote.stderr)
    );
    assert_eq!(local.status.code(), Some(0), "canonical nest suite dirty");
    assert!(
        local.stdout == remote.stdout,
        "local and remote --json reports differ:\nlocal:  {}\nremote: {}",
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout)
    );

    // `client shutdown` stops the daemon cleanly (and is never retried).
    let stop = Command::new(BIN)
        .args(["client", "shutdown", "--addr", &daemon.addr])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("client shutdown");
    assert!(
        stop.status.success(),
        "client shutdown failed: {}",
        String::from_utf8_lossy(&stop.stderr)
    );
    let (exit, stderr) = daemon.wait_exit(Duration::from_secs(30));
    assert!(exit.success(), "shutdown drain exited nonzero:\n{stderr}");
}
