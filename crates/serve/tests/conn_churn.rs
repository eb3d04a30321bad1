//! Connection churn must not grow the process: every connection thread
//! the daemon's and the router's accept loops spawn is joined once it
//! finishes, so 500 sequential connections leave no stacks behind.
//!
//! This is its own test binary because it counts the whole process's
//! memory mappings (`/proc/self/maps`); tests running in parallel in
//! the same binary would move the count.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use vcache_serve::protocol::{Request, Response};
use vcache_serve::{Router, RouterConfig, Server, ServerConfig, ShardSet};

/// Connections opened per measured run.
const CONNECTIONS: usize = 500;
/// Allowed growth in mapping lines over a measured run. A leaked thread
/// costs about two (stack and guard page), so a leak of every
/// connection thread grows the count by about 1,000.
const MAX_GROWTH: usize = 50;

fn mapping_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// One `ping` on a fresh connection, closed after the answer.
fn ping(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut line = Request::new(1, "ping").to_json();
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("write ping");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("read pong");
    let response = Response::from_json(reply.trim_end()).expect("parse pong");
    assert!(response.outcome.is_ok(), "ping failed: {reply}");
}

/// Mapping growth over `CONNECTIONS` sequential pings to `addr`, after a
/// warm-up that lets the allocator settle.
fn growth_over_churn(addr: &str) -> usize {
    for _ in 0..50 {
        ping(addr);
    }
    // Give the accept loop a few polls to join the warm-up's threads.
    thread::sleep(Duration::from_millis(200));
    let before = mapping_lines();
    for _ in 0..CONNECTIONS {
        ping(addr);
    }
    thread::sleep(Duration::from_millis(200));
    mapping_lines().saturating_sub(before)
}

#[test]
fn daemon_and_router_join_finished_connection_threads() {
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let shard_addr = server.local_addr().expect("daemon addr").to_string();
    let shard_handle = server.shutdown_handle();
    let shard_runner = thread::spawn(move || server.run().expect("daemon run"));

    let daemon_growth = growth_over_churn(&shard_addr);

    // The router answers `ping` itself, so only its own connection
    // threads are exercised.
    let router = Router::bind(
        RouterConfig::default(),
        ShardSet::fixed(std::slice::from_ref(&shard_addr)),
        vcache_trace::SharedMetrics::default(),
    )
    .expect("bind router");
    let router_addr = router.local_addr().expect("router addr").to_string();
    let router_handle = router.shutdown_handle();
    let router_runner = thread::spawn(move || router.run().expect("router run"));

    let router_growth = growth_over_churn(&router_addr);

    router_handle.trigger();
    let router_metrics = router_runner.join().expect("router runner");
    shard_handle.trigger();
    let daemon_metrics = shard_runner.join().expect("daemon runner");

    assert!(
        daemon_growth < MAX_GROWTH,
        "daemon mappings grew by {daemon_growth} over {CONNECTIONS} connections"
    );
    assert!(
        router_growth < MAX_GROWTH,
        "router mappings grew by {router_growth} over {CONNECTIONS} connections"
    );
    let accepted = (CONNECTIONS + 50) as u64;
    assert_eq!(daemon_metrics.counter("serve.connections"), accepted);
    assert_eq!(router_metrics.counter("serve.connections"), accepted);
}
