//! Shard fleet supervision: health registry, child daemon processes,
//! and crash-restart with backoff (DESIGN.md §9).
//!
//! A fleet is N copies of the single-process daemon, each a real OS
//! process listening on its own ephemeral port, plus the in-process
//! [`crate::router`] front-end that consistent-hashes digests across
//! them. This module owns the part between: the [`ShardSet`] health
//! registry, and the [`Supervisor`] that spawns the children, scrapes
//! their `listening on <addr>` banners, notices when one dies (crash,
//! SIGKILL, injected `kill` fault) and restarts it with exponential
//! backoff.
//!
//! Health changes only through [`ShardSet::apply`], which accepts
//! exactly four edges and rejects every other one:
//!
//! ```text
//!   from                  event              to          issued by
//!   Starting|Restarting   Up{addr,pid}       Live        monitor (from Restarting: +1 restart)
//!   Live                  RouteFailed{addr}  Dead        router  (only if addr is still current)
//!   Live|Dead             Exited             Restarting  monitor (clears the pid)
//!   Dead                  ProbeOk            Live        monitor
//! ```
//!
//! The supervisor's monitor owns the lifecycle; the router only reports
//! the address it failed to reach, which can demote a live shard but
//! never one the monitor is already restarting.
//!
//! A shard keeps its *slot index* forever — the hash ring maps digests
//! to slots, not addresses — so a restarted shard (new pid, new port)
//! inherits the same key range and can rebuild its verdict cache from
//! the same traffic.

use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use vcache_trace::SharedMetrics;

/// Where a shard is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Spawned, banner not yet seen.
    Starting,
    /// Serving (or believed to be).
    Live,
    /// Routing to it failed while its process may still run; the
    /// monitor's probe revives it, or its exit sends it to `Restarting`.
    Dead,
    /// Process exited; awaiting its next respawn attempt (backoff).
    Restarting,
}

impl ShardHealth {
    /// The stable wire string used in `status` and prom labels.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Starting => "starting",
            Self::Live => "live",
            Self::Dead => "dead",
            Self::Restarting => "restarting",
        }
    }
}

/// One shard's public state, as surfaced in the router's `status`.
#[derive(Debug, Clone)]
pub struct ShardInfo {
    /// The shard's slot on the hash ring (stable across restarts).
    pub index: usize,
    /// Current listen address (`None` until the first banner).
    pub addr: Option<String>,
    /// Current child pid (`None` for externally-managed shards).
    pub pid: Option<u32>,
    /// Lifecycle state.
    pub health: ShardHealth,
    /// Times this slot has been respawned.
    pub restarts: u64,
}

/// One lifecycle event for a shard slot, fed to [`ShardSet::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardEvent {
    /// The slot's child printed its `listening on <addr>` banner.
    Up {
        /// The address the child listens on.
        addr: String,
        /// The child's pid (`None` for externally-managed shards).
        pid: Option<u32>,
    },
    /// The router failed an exchange with the shard it dialed.
    RouteFailed {
        /// The address that was dialed; stale once the slot has moved on.
        addr: String,
    },
    /// The monitor reaped the slot's child process.
    Exited,
    /// The monitor reconnected to a dead-marked shard whose process
    /// still runs.
    ProbeOk,
}

/// The shard-health registry: the router reads it on every routed
/// request, and every change goes through [`ShardSet::apply`].
#[derive(Clone)]
pub struct ShardSet {
    inner: Arc<Mutex<Vec<ShardInfo>>>,
}

impl ShardSet {
    /// A registry of `n` shards, all [`ShardHealth::Starting`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(
                (0..n)
                    .map(|index| ShardInfo {
                        index,
                        addr: None,
                        pid: None,
                        health: ShardHealth::Starting,
                        restarts: 0,
                    })
                    .collect(),
            )),
        }
    }

    /// A registry over externally-managed shards at fixed addresses,
    /// all immediately [`ShardHealth::Live`]. Used by in-process router
    /// tests and any deployment where something else owns the
    /// processes.
    #[must_use]
    pub fn fixed(addrs: &[String]) -> Self {
        let set = Self::new(addrs.len());
        for (i, addr) in addrs.iter().cloned().enumerate() {
            set.apply(i, ShardEvent::Up { addr, pid: None });
        }
        set
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<ShardInfo>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of shard slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when the registry has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A point-in-time copy of every shard's state.
    #[must_use]
    pub fn snapshot(&self) -> Vec<ShardInfo> {
        self.lock().clone()
    }

    /// The current address of slot `i`, live or not.
    #[must_use]
    pub fn addr(&self, i: usize) -> Option<String> {
        self.lock().get(i).and_then(|s| s.addr.clone())
    }

    /// The current health of slot `i`.
    #[must_use]
    pub fn health(&self, i: usize) -> Option<ShardHealth> {
        self.lock().get(i).map(|s| s.health)
    }

    /// Applies `event` to slot `i` if it is one of the four legal edges
    /// (module docs); returns false, changing nothing, for any other
    /// edge or an out-of-range slot.
    pub fn apply(&self, i: usize, event: ShardEvent) -> bool {
        let mut shards = self.lock();
        let Some(shard) = shards.get_mut(i) else {
            return false;
        };
        match (shard.health, event) {
            (ShardHealth::Starting | ShardHealth::Restarting, ShardEvent::Up { addr, pid }) => {
                if shard.health == ShardHealth::Restarting {
                    shard.restarts += 1;
                }
                shard.addr = Some(addr);
                shard.pid = pid;
                shard.health = ShardHealth::Live;
            }
            (ShardHealth::Live, ShardEvent::RouteFailed { addr })
                if shard.addr.as_deref() == Some(addr.as_str()) =>
            {
                shard.health = ShardHealth::Dead;
            }
            (ShardHealth::Live | ShardHealth::Dead, ShardEvent::Exited) => {
                shard.health = ShardHealth::Restarting;
                shard.pid = None;
            }
            (ShardHealth::Dead, ShardEvent::ProbeOk) => shard.health = ShardHealth::Live,
            _ => return false,
        }
        true
    }

    /// Total restarts across every slot.
    #[must_use]
    pub fn total_restarts(&self) -> u64 {
        self.lock().iter().map(|s| s.restarts).sum()
    }
}

/// Everything configurable about a supervised fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shard slots.
    pub shards: usize,
    /// Command line (program + args) that starts ONE shard daemon. The
    /// child must print `listening on <addr>` on stdout once bound —
    /// i.e. `vcache serve --addr 127.0.0.1:0 ...`.
    pub shard_cmd: Vec<String>,
    /// First respawn delay after a crash.
    pub backoff_base: Duration,
    /// Respawn delay ceiling.
    pub backoff_cap: Duration,
    /// A shard up this long gets its backoff reset.
    pub backoff_reset_after: Duration,
    /// How long to wait for a spawned shard's banner.
    pub banner_timeout: Duration,
}

impl FleetConfig {
    /// Defaults for `shards` shards started by `shard_cmd`.
    #[must_use]
    pub fn new(shards: usize, shard_cmd: Vec<String>) -> Self {
        Self {
            shards,
            shard_cmd,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            backoff_reset_after: Duration::from_secs(5),
            banner_timeout: Duration::from_secs(10),
        }
    }
}

/// Spawns one shard process and scrapes its `listening on <addr>`
/// banner (bounded by `banner_timeout`). The child's stderr is
/// inherited so its structured logs and final metrics snapshot land in
/// the supervisor's stderr stream; stdout after the banner is drained
/// and discarded by a detached thread.
fn spawn_shard(cmd: &[String], banner_timeout: Duration) -> io::Result<(Child, String)> {
    let program = cmd
        .first()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty shard command"))?;
    let mut child = Command::new(program)
        .args(&cmd[1..])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().ok_or_else(|| {
        io::Error::new(io::ErrorKind::BrokenPipe, "shard stdout was not captured")
    })?;
    let (tx, rx) = mpsc::channel::<String>();
    thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let mut sent = false;
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {
                    if !sent {
                        if let Some(addr) = line.trim().strip_prefix("listening on ") {
                            // Receiver gone (banner timeout) is fine.
                            let _ = tx.send(addr.to_string());
                            sent = true;
                        }
                    }
                    // Keep draining so the child never blocks on stdout.
                }
            }
        }
    });
    match rx.recv_timeout(banner_timeout) {
        Ok(addr) => Ok((child, addr)),
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "shard did not print its listening banner in time",
            ))
        }
    }
}

/// Per-slot respawn bookkeeping, private to the monitor thread.
struct SlotState {
    child: Option<Child>,
    backoff: Duration,
    /// When the next respawn attempt is allowed.
    next_attempt: Instant,
    /// When the current child went live (for backoff reset).
    live_since: Option<Instant>,
}

/// Owns the shard child processes: spawns them, watches for exits,
/// respawns with backoff, and probes dead-marked-but-alive shards back
/// to life.
pub struct Supervisor {
    set: ShardSet,
    stop: Arc<AtomicBool>,
    monitor: Option<JoinHandle<Vec<Option<Child>>>>,
}

impl Supervisor {
    /// Spawns every shard synchronously (failing fast if any cannot
    /// boot), then starts the monitor thread. `metrics` receives
    /// `serve.fleet.deaths`, `serve.fleet.restarts` and
    /// `serve.fleet.rejected_transitions` counters.
    ///
    /// # Errors
    ///
    /// The first shard spawn/banner failure; already-started shards are
    /// killed before returning.
    pub fn start(config: FleetConfig, metrics: SharedMetrics) -> io::Result<Self> {
        let set = ShardSet::new(config.shards);
        let mut slots: Vec<SlotState> = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            match spawn_shard(&config.shard_cmd, config.banner_timeout) {
                Ok((child, addr)) => {
                    let pid = Some(child.id());
                    set.apply(i, ShardEvent::Up { addr, pid });
                    slots.push(SlotState {
                        child: Some(child),
                        backoff: config.backoff_base,
                        next_attempt: Instant::now(),
                        live_since: Some(Instant::now()),
                    });
                }
                Err(e) => {
                    for slot in &mut slots {
                        if let Some(child) = &mut slot.child {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                    }
                    return Err(e);
                }
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let monitor = {
            let set = set.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || monitor_loop(slots, &set, &config, &metrics, &stop))
        };
        Ok(Self {
            set,
            stop,
            monitor: Some(monitor),
        })
    }

    /// The shared health registry (clone it into the router).
    #[must_use]
    pub fn shards(&self) -> ShardSet {
        self.set.clone()
    }

    /// Stops restarting, asks every live shard to drain via a
    /// `shutdown` request, waits up to `grace` for children to exit,
    /// and kills whatever remains.
    pub fn drain(mut self, grace: Duration) {
        self.stop.store(true, Ordering::SeqCst);
        let mut children = match self.monitor.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => Vec::new(),
        };
        // Ask nicely first: one shutdown line per live shard.
        for shard in self.set.snapshot() {
            if shard.health == ShardHealth::Live {
                if let Some(addr) = shard.addr {
                    send_shutdown(&addr);
                }
            }
        }
        let deadline = Instant::now() + grace;
        for child in children.iter_mut().flatten() {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// Fire-and-forget `shutdown` request to one shard.
fn send_shutdown(addr: &str) {
    use std::io::Write as _;
    if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        let _ = stream.write_all(b"{\"id\":0,\"op\":\"shutdown\"}\n");
        let _ = stream.flush();
    }
}

/// Applies `event` to `slot`, counting a rejected edge as
/// `serve.fleet.rejected_transitions`: an event about a state the slot
/// has already left, such as a route failure on a restarting shard.
pub(crate) fn report(shards: &ShardSet, metrics: &SharedMetrics, slot: usize, event: ShardEvent) {
    if !shards.apply(slot, event) {
        metrics.count("serve.fleet.rejected_transitions", 1);
    }
}

/// The monitor: notice exits, respawn with backoff, re-probe shards the
/// router marked dead whose process is in fact alive. Returns the
/// children so `drain` can reap them.
fn monitor_loop(
    mut slots: Vec<SlotState>,
    set: &ShardSet,
    config: &FleetConfig,
    metrics: &SharedMetrics,
    stop: &AtomicBool,
) -> Vec<Option<Child>> {
    while !stop.load(Ordering::SeqCst) {
        for (i, slot) in slots.iter_mut().enumerate() {
            // 1. Did the child exit?
            let exited = match &mut slot.child {
                Some(child) => matches!(child.try_wait(), Ok(Some(_)) | Err(_)),
                None => false,
            };
            if exited {
                if let Some(mut child) = slot.child.take() {
                    let _ = child.wait();
                }
                metrics.count("serve.fleet.deaths", 1);
                // A long healthy run earns a fresh backoff.
                if slot
                    .live_since
                    .take()
                    .is_some_and(|since| since.elapsed() >= config.backoff_reset_after)
                {
                    slot.backoff = config.backoff_base;
                }
                report(set, metrics, i, ShardEvent::Exited);
                slot.next_attempt = Instant::now() + slot.backoff;
                slot.backoff = (slot.backoff * 2).min(config.backoff_cap);
            }
            // 2. Respawn when due. A slot without a child is
            //    Restarting: only `Exited` takes a child away, and the
            //    router cannot move a slot out of Restarting.
            if slot.child.is_none() && Instant::now() >= slot.next_attempt {
                match spawn_shard(&config.shard_cmd, config.banner_timeout) {
                    Ok((child, addr)) => {
                        let pid = Some(child.id());
                        report(set, metrics, i, ShardEvent::Up { addr, pid });
                        metrics.count("serve.fleet.restarts", 1);
                        slot.child = Some(child);
                        slot.live_since = Some(Instant::now());
                    }
                    Err(_) => {
                        slot.next_attempt = Instant::now() + slot.backoff;
                        slot.backoff = (slot.backoff * 2).min(config.backoff_cap);
                    }
                }
            }
            // 3. The router may have marked a live process dead on a
            //    route failure (e.g. one torn exchange). If the process
            //    is still running and accepts connections, restore it.
            if slot.child.is_some() && set.health(i) == Some(ShardHealth::Dead) {
                if let Some(addr) = set.addr(i) {
                    if std::net::TcpStream::connect(&addr).is_ok() {
                        report(set, metrics, i, ShardEvent::ProbeOk);
                    }
                }
            }
        }
        thread::sleep(Duration::from_millis(25));
    }
    slots.into_iter().map(|s| s.child).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_strings_are_stable() {
        assert_eq!(ShardHealth::Starting.as_str(), "starting");
        assert_eq!(ShardHealth::Live.as_str(), "live");
        assert_eq!(ShardHealth::Dead.as_str(), "dead");
        assert_eq!(ShardHealth::Restarting.as_str(), "restarting");
    }

    fn up(addr: &str, pid: u32) -> ShardEvent {
        ShardEvent::Up {
            addr: addr.into(),
            pid: Some(pid),
        }
    }

    fn route_failed(addr: &str) -> ShardEvent {
        ShardEvent::RouteFailed { addr: addr.into() }
    }

    #[test]
    fn shard_set_tracks_the_lifecycle() {
        let set = ShardSet::new(2);
        assert_eq!(set.len(), 2);
        assert_eq!(set.health(0), Some(ShardHealth::Starting));
        assert_eq!(set.addr(0), None);

        assert!(set.apply(0, up("127.0.0.1:9000", 42)));
        assert_eq!(set.health(0), Some(ShardHealth::Live));
        assert_eq!(set.addr(0), Some("127.0.0.1:9000".into()));
        // Slot 1 untouched.
        assert_eq!(set.health(1), Some(ShardHealth::Starting));

        assert!(set.apply(0, route_failed("127.0.0.1:9000")));
        assert_eq!(set.health(0), Some(ShardHealth::Dead));
        // Address survives death: the probe needs it.
        assert_eq!(set.addr(0), Some("127.0.0.1:9000".into()));
        assert!(set.apply(0, ShardEvent::ProbeOk));
        assert_eq!(set.health(0), Some(ShardHealth::Live));

        assert!(set.apply(0, ShardEvent::Exited));
        assert_eq!(set.health(0), Some(ShardHealth::Restarting));
        assert_eq!(set.snapshot()[0].pid, None);
        assert!(set.apply(0, up("127.0.0.1:9001", 43)));
        assert_eq!(set.addr(0), Some("127.0.0.1:9001".into()));
        assert_eq!(set.total_restarts(), 1);

        // Restarts are summed across slots; a first start is not one.
        assert!(set.apply(1, up("127.0.0.1:9002", 44)));
        assert_eq!(set.total_restarts(), 1);
        assert!(set.apply(1, ShardEvent::Exited));
        assert!(set.apply(1, up("127.0.0.1:9003", 45)));
        assert_eq!(set.total_restarts(), 2);

        // Out-of-range indices are ignored, not panics.
        assert!(!set.apply(99, route_failed("127.0.0.1:9000")));
        assert!(!set.apply(99, ShardEvent::Exited));
        assert_eq!(set.health(99), None);
    }

    /// The interleaving that used to orphan a slot: the router's report
    /// about a shard lands after the monitor has already reaped it.
    #[test]
    fn late_route_failure_cannot_orphan_a_restarting_slot() {
        let set = ShardSet::new(1);
        assert!(set.apply(0, up("A", 1)));
        assert!(set.apply(0, ShardEvent::Exited));
        assert!(!set.apply(0, route_failed("A")));
        assert_eq!(set.health(0), Some(ShardHealth::Restarting));

        assert!(set.apply(0, up("B", 2)));
        assert_eq!(set.health(0), Some(ShardHealth::Live));
        assert_eq!(set.snapshot()[0].restarts, 1);

        // A stale report about the old incarnation leaves the new one live.
        assert!(!set.apply(0, route_failed("A")));
        assert_eq!(set.health(0), Some(ShardHealth::Live));
        assert_eq!(set.addr(0), Some("B".into()));
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Exit,
        RouteFail,
        SpawnOk,
        SpawnFail,
        ProbeOk,
    }

    /// The registry plus what the monitor knows: each slot's child, as
    /// the address it listens on.
    struct Model {
        set: ShardSet,
        children: Vec<Option<String>>,
        spawned: u32,
    }

    impl Model {
        fn new(slots: usize) -> Self {
            Self {
                set: ShardSet::new(slots),
                children: vec![None; slots],
                spawned: 0,
            }
        }

        /// A deep copy: the clone of a `ShardSet` shares its registry.
        fn fork(&self) -> Self {
            Self {
                set: ShardSet {
                    inner: Arc::new(Mutex::new(self.set.snapshot())),
                },
                children: self.children.clone(),
                spawned: self.spawned,
            }
        }

        /// Runs `step` on `slot` against a copy of the model, or returns
        /// `None` when the step's guard does not hold.
        fn step(&self, slot: usize, step: Step) -> Option<Self> {
            let mut next = self.fork();
            let child = &self.children[slot];
            let event = match step {
                Step::Exit => {
                    child.as_ref()?;
                    next.children[slot] = None;
                    ShardEvent::Exited
                }
                Step::RouteFail => ShardEvent::RouteFailed {
                    addr: self.set.addr(slot)?,
                },
                Step::SpawnOk | Step::SpawnFail if child.is_some() => return None,
                Step::SpawnFail => return Some(next),
                Step::SpawnOk => {
                    next.spawned += 1;
                    let addr = format!("{slot}:{}", next.spawned);
                    next.children[slot] = Some(addr.clone());
                    ShardEvent::Up {
                        addr,
                        pid: Some(next.spawned),
                    }
                }
                // The probe dials the registered address, so it connects
                // only when the slot's child listens there.
                Step::ProbeOk => {
                    child.as_ref()?;
                    if *child != self.set.addr(slot) {
                        return None;
                    }
                    ShardEvent::ProbeOk
                }
            };
            let before = format!("{:?}", next.set.snapshot());
            if !next.set.apply(slot, event) {
                assert_eq!(before, format!("{:?}", next.set.snapshot()));
            }
            Some(next)
        }

        /// True when one pass of the monitor's own moves (respawn a slot
        /// with no child, probe one with a child) brings every slot back
        /// live.
        fn recovers(&self) -> bool {
            let mut model = self.fork();
            for slot in 0..model.children.len() {
                if let Some(next) = model
                    .step(slot, Step::SpawnOk)
                    .or_else(|| model.step(slot, Step::ProbeOk))
                {
                    model = next;
                }
            }
            model
                .set
                .snapshot()
                .iter()
                .all(|s| s.health == ShardHealth::Live)
        }
    }

    /// Every state reachable in up to `depth` events, on any slot, can
    /// still get back to live through monitor events. Returns the
    /// number of states visited and the health values seen.
    fn explore(model: &Model, depth: usize, seen: &mut Vec<ShardHealth>) -> usize {
        assert!(
            model.recovers(),
            "orphaned slot: {:?} children {:?}",
            model.set.snapshot(),
            model.children
        );
        for shard in model.set.snapshot() {
            if !seen.contains(&shard.health) {
                seen.push(shard.health);
            }
        }
        if depth == 0 {
            return 1;
        }
        let mut visited = 1;
        for slot in 0..model.children.len() {
            for step in [
                Step::Exit,
                Step::RouteFail,
                Step::SpawnOk,
                Step::SpawnFail,
                Step::ProbeOk,
            ] {
                if let Some(next) = model.step(slot, step) {
                    visited += explore(&next, depth - 1, seen);
                }
            }
        }
        visited
    }

    #[test]
    fn every_reachable_state_recovers_through_monitor_events() {
        for slots in [1, 2] {
            let mut seen = Vec::new();
            let visited = explore(&Model::new(slots), 6, &mut seen);
            assert!(visited > 100, "{slots} slots: only {visited} states");
            assert_eq!(seen.len(), 4, "{slots} slots: saw only {seen:?}");
        }
    }

    #[test]
    fn fixed_sets_are_live_immediately() {
        let set = ShardSet::fixed(&["a:1".into(), "b:2".into()]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        for shard in set.snapshot() {
            assert_eq!(shard.health, ShardHealth::Live);
            assert!(shard.addr.is_some());
            assert_eq!(shard.pid, None);
        }
    }

    #[test]
    fn empty_shard_command_is_an_input_error() {
        let err = spawn_shard(&[], Duration::from_millis(10)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
