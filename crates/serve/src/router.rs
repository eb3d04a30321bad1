//! The fleet front-end: consistent-hash request routing with failover
//! (DESIGN.md §9).
//!
//! The router is deliberately thin. It terminates client connections,
//! parses each request line just enough to learn `(id, op, digest)`,
//! and then forwards the **raw line, byte for byte** to a shard chosen
//! by the [`crate::ring`] — so a response that came from a shard is the
//! shard's bytes, untouched, and the byte-identity guarantees of the
//! verdict cache survive the extra hop. Three ops never cross the hop:
//!
//! * `ping` — answered locally (`role: "router"`), so health probes of
//!   the router probe the router.
//! * `status` — answered locally with per-shard health, the router's
//!   own metrics, and the fleet restart counters.
//! * `shutdown` — sets the router's shutdown flag and reports
//!   `stopping`; the binary then drains the supervisor, which forwards
//!   the shutdown to every shard.
//!
//! Everything else walks the ring's preference order for its digest:
//! live shards first, then — because the health registry may be stale —
//! any shard that still has an address. When an exchange fails the next
//! candidate is tried; every routed op is a pure read, so re-sending
//! after a torn exchange is safe. Only when every candidate fails does
//! the client see an error, and it is `overloaded` + retry-after:
//! request-not-started, so even cautious clients converge by retrying.
//!
//! The router assigns no shard health. Shard health changes only
//! through [`ShardSet::apply`], along four edges:
//!
//! ```text
//!   from                  event              to          issued by
//!   Starting|Restarting   Up{addr,pid}       Live        monitor (from Restarting: +1 restart)
//!   Live                  RouteFailed{addr}  Dead        router  (only if addr is still current)
//!   Live|Dead             Exited             Restarting  monitor (clears the pid)
//!   Dead                  ProbeOk            Live        monitor
//! ```
//!
//! The supervisor's monitor owns the lifecycle; a failed exchange is
//! reported as `RouteFailed` with the address actually dialed, so a
//! report about a shard the monitor has already restarted is dropped.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Serialize, Value};
use vcache_trace::{MetricsSnapshot, SharedMetrics, SpanCollector, SpanHandle};

use crate::digest::request_digest;
use crate::fleet::{self, ShardEvent, ShardHealth, ShardSet};
use crate::pool::ConnPool;
use crate::protocol::{ErrorBody, ErrorCode, Request, Response, PROTOCOL_VERSION};
use crate::ring::HashRing;
use crate::wire::{self, LineHandler, READ_MARGIN};

/// Everything configurable about a router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP listen address (use port 0 for an ephemeral port).
    pub addr: String,
    /// Retry-after hint attached when every shard candidate fails.
    pub retry_after_ms: u64,
    /// Deadline assumed for requests that do not carry their own.
    pub default_deadline_ms: u64,
    /// Export every request span as JSONL to this file.
    pub span_path: Option<PathBuf>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            retry_after_ms: 50,
            default_deadline_ms: 10_000,
            span_path: None,
        }
    }
}

/// Shared state for every router thread.
struct Inner {
    shards: ShardSet,
    ring: HashRing,
    pool: ConnPool,
    metrics: SharedMetrics,
    spans: SpanCollector,
    shutdown: Arc<AtomicBool>,
    started: Instant,
    retry_after_ms: u64,
    default_deadline: Duration,
}

/// Triggers router shutdown from another thread (signal handler or the
/// `shutdown` op).
#[derive(Clone)]
pub struct RouterShutdown {
    inner: Arc<Inner>,
}

impl RouterShutdown {
    /// Stops the accept loop. Idempotent.
    pub fn trigger(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn is_triggered(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }
}

/// A bound-but-not-yet-running fleet router.
pub struct Router {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Router {
    /// Binds the listen socket over an existing shard registry.
    ///
    /// # Errors
    ///
    /// Socket bind or span-file failures.
    pub fn bind(
        config: RouterConfig,
        shards: ShardSet,
        metrics: SharedMetrics,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let spans = match &config.span_path {
            Some(path) => SpanCollector::to_file(path)?,
            None => SpanCollector::new(),
        };
        let ring = HashRing::new(shards.len());
        Ok(Self {
            listener,
            inner: Arc::new(Inner {
                shards,
                ring,
                pool: ConnPool::default(),
                metrics,
                spans,
                shutdown: Arc::new(AtomicBool::new(false)),
                started: Instant::now(),
                retry_after_ms: config.retry_after_ms,
                default_deadline: Duration::from_millis(config.default_deadline_ms.max(1)),
            }),
        })
    }

    /// The bound address (reports the actual ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the router from anywhere.
    #[must_use]
    pub fn shutdown_handle(&self) -> RouterShutdown {
        RouterShutdown {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Runs the router until shutdown; returns the final metrics
    /// snapshot once every connection thread has exited.
    ///
    /// # Errors
    ///
    /// Socket configuration failures; per-connection errors are
    /// absorbed.
    pub fn run(self) -> io::Result<MetricsSnapshot> {
        self.listener.set_nonblocking(true)?;
        let inner = Arc::clone(&self.inner);
        let handler: Arc<LineHandler> = Arc::new(move |line: &str, out: &mut dyn Write| {
            let (response_line, close_after) = dispatch_route(line, &inner);
            // One write per response: a split line + newline pair would
            // re-trigger the Nagle stall the transport's nodelay avoids.
            let mut framed = response_line.into_bytes();
            framed.push(b'\n');
            out.write_all(&framed).and_then(|()| out.flush()).is_ok() && !close_after
        });
        let accept = || self.listener.accept().map(|(stream, _)| stream);
        wire::accept_loop(accept, &self.inner.shutdown, &self.inner.metrics, &handler);
        let _ = self.inner.spans.flush();
        Ok(self.inner.metrics.snapshot())
    }
}

/// Resolves one request line to one response line (no trailing
/// newline). Routed responses are the shard's bytes verbatim.
fn dispatch_route(line: &str, inner: &Arc<Inner>) -> (String, bool) {
    let request = match Request::from_json(line) {
        Ok(request) => request,
        Err(msg) => {
            let root = inner.spans.root("malformed", 0, None);
            let response = Response::err(0, ErrorBody::new(ErrorCode::BadRequest, msg));
            root.finish("bad_request");
            return (local(inner, &response), false);
        }
    };
    let digest = request_digest(&request.op, &request.params);
    let root = inner
        .spans
        .root(&request.op, request.id, Some(digest.clone()));
    match request.op.as_str() {
        "ping" => {
            let response = Response::ok(
                request.id,
                Value::Obj(vec![
                    ("pong".into(), Value::Bool(true)),
                    ("version".into(), Value::U64(PROTOCOL_VERSION)),
                    ("role".into(), Value::Str("router".into())),
                ]),
            );
            root.finish("ok");
            (local(inner, &response), false)
        }
        "status" => {
            let response = Response::ok(request.id, router_status(inner));
            root.finish("ok");
            (local(inner, &response), false)
        }
        "shutdown" => {
            inner.shutdown.store(true, Ordering::SeqCst);
            let response = Response::ok(
                request.id,
                Value::Obj(vec![("stopping".into(), Value::Bool(true))]),
            );
            root.finish("ok");
            (local(inner, &response), true)
        }
        _ if inner.shutdown.load(Ordering::SeqCst) => {
            let response = Response::err(
                request.id,
                ErrorBody::new(ErrorCode::ShuttingDown, "router is draining"),
            );
            root.finish("shutting_down");
            (local(inner, &response), false)
        }
        _ => {
            let (line, status) = route_to_fleet(line, &request, &digest, inner, &root);
            root.finish(status);
            (line, false)
        }
    }
}

/// Counts the outcome of a response the router answers itself and
/// serializes it.
fn local(inner: &Inner, response: &Response) -> String {
    wire::count_outcome(&inner.metrics, response);
    response.to_json()
}

/// Walks the ring's preference order for `digest` until a shard
/// completes the exchange. Returns the response line plus the root
/// span's status.
fn route_to_fleet(
    raw_line: &str,
    request: &Request,
    digest: &str,
    inner: &Arc<Inner>,
    root: &SpanHandle,
) -> (String, &'static str) {
    let walk = inner.ring.order(digest);
    let read_timeout = request
        .deadline_ms
        .map_or(inner.default_deadline, Duration::from_millis)
        + READ_MARGIN;
    // Pass 1: shards believed live. Pass 2: anything with an address —
    // the registry may be stale in both directions.
    for live_only in [true, false] {
        for &slot in &walk {
            let health = inner.shards.health(slot);
            let Some(addr) = inner.shards.addr(slot) else {
                continue;
            };
            let is_live = health == Some(ShardHealth::Live);
            if live_only != is_live {
                continue;
            }
            let hop = root.child("route");
            match wire::exchange(Some(&inner.pool), &addr, raw_line, Some(read_timeout)) {
                Ok((response, response_line)) => {
                    hop.finish("ok");
                    wire::count_outcome(&inner.metrics, &response);
                    return (response_line, "ok");
                }
                Err(_) => {
                    hop.finish("failed");
                    inner.pool.evict(&addr);
                    let failed = ShardEvent::RouteFailed { addr };
                    fleet::report(&inner.shards, &inner.metrics, slot, failed);
                    inner.metrics.count("serve.router.reroutes", 1);
                }
            }
        }
    }
    let mut body = ErrorBody::new(
        ErrorCode::Overloaded,
        "no shard could serve the request; all candidates failed",
    );
    body.retry_after_ms = Some(inner.retry_after_ms);
    (local(inner, &Response::err(request.id, body)), "overloaded")
}

/// The router's own `status` result: role marker, per-shard health, and
/// the router's metrics snapshot (the same shape a daemon reports, so
/// `vcache stat` renders it unchanged).
fn router_status(inner: &Inner) -> Value {
    let uptime_ms = u64::try_from(inner.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    let shards: Vec<Value> = inner
        .shards
        .snapshot()
        .into_iter()
        .map(|shard| {
            Value::Obj(vec![
                ("index".into(), Value::U64(shard.index as u64)),
                ("addr".into(), shard.addr.map_or(Value::Null, Value::Str)),
                (
                    "pid".into(),
                    shard.pid.map_or(Value::Null, |p| Value::U64(u64::from(p))),
                ),
                (
                    "health".into(),
                    Value::Str(shard.health.as_str().to_string()),
                ),
                ("restarts".into(), Value::U64(shard.restarts)),
            ])
        })
        .collect();
    let counts = inner.spans.counts();
    Value::Obj(vec![
        ("version".into(), Value::U64(PROTOCOL_VERSION)),
        ("role".into(), Value::Str("router".into())),
        ("uptime_ms".into(), Value::U64(uptime_ms)),
        ("queue_depth".into(), Value::U64(0)),
        ("in_flight".into(), Value::U64(0)),
        (
            "draining".into(),
            Value::Bool(inner.shutdown.load(Ordering::SeqCst)),
        ),
        (
            "spans".into(),
            Value::Obj(vec![
                ("opened".into(), Value::U64(counts.opened)),
                ("finished".into(), Value::U64(counts.finished)),
            ]),
        ),
        ("shards".into(), Value::Arr(shards)),
        ("metrics".into(), inner.metrics.snapshot().to_value()),
    ])
}
