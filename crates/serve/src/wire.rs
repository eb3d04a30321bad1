//! The line-protocol transport shared by the daemon, the fleet router
//! and the client (DESIGN.md §7d). One copy of each piece:
//!
//! * [`accept_loop`] polls a listener until the shutdown flag is set,
//!   serves each connection on its own thread, and joins finished
//!   connection threads as it goes — a server holds one thread (and one
//!   stack mapping) per *open* connection, not per connection accepted.
//! * The connection loop reads request lines and hands each non-empty
//!   one to a [`LineHandler`], which writes its own response: the daemon
//!   keeps its torn-write and kill fault injection, the router its
//!   single framed write.
//! * [`exchange`] sends one request line and reads back one parsed
//!   response line, over a pooled socket with one fresh-dial retry.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use vcache_trace::SharedMetrics;

use crate::pool::ConnPool;
use crate::protocol::Response;

/// How long an accept loop sleeps between polls of the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Read timeout on served connections; bounds how long a connection
/// thread can outlive a shutdown request.
const READ_POLL: Duration = Duration::from_millis(250);
/// Bound on each connect attempt of a dial.
const DIAL_TIMEOUT: Duration = Duration::from_millis(1_000);
/// Slack added to a request's deadline while waiting for its answer.
pub(crate) const READ_MARGIN: Duration = Duration::from_millis(2_000);

/// Answers one request line by writing the response to the connection;
/// returns false to close the connection.
pub(crate) type LineHandler = dyn Fn(&str, &mut dyn Write) -> bool + Send + Sync;

/// A connection the accept loop can serve.
pub(crate) trait Conn: Read + Write + Send + Sized + 'static {
    /// Arms the read poll and returns a second handle for the read half.
    fn split(&self) -> io::Result<Self>;
}

impl Conn for TcpStream {
    fn split(&self) -> io::Result<Self> {
        // Request/response lines are small; Nagle + delayed ACK would
        // stall pipelined peers (the fleet router above all) ~40ms per
        // exchange.
        let _ = self.set_nodelay(true);
        self.set_read_timeout(Some(READ_POLL))?;
        self.try_clone()
    }
}

#[cfg(unix)]
impl Conn for std::os::unix::net::UnixStream {
    fn split(&self) -> io::Result<Self> {
        self.set_read_timeout(Some(READ_POLL))?;
        self.try_clone()
    }
}

/// Accepts connections from a non-blocking listener's `accept` call
/// until `shutdown` is set, then joins every connection thread. Counts
/// `serve.connections`, `serve.accept_errors` and `serve.requests`.
pub(crate) fn accept_loop<C: Conn>(
    mut accept: impl FnMut() -> io::Result<C>,
    shutdown: &Arc<AtomicBool>,
    metrics: &SharedMetrics,
    handler: &Arc<LineHandler>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        for done in conns.extract_if(.., |conn| conn.is_finished()) {
            let _ = done.join();
        }
        match accept() {
            Ok(stream) => {
                metrics.count("serve.connections", 1);
                let shutdown = Arc::clone(shutdown);
                let metrics = metrics.clone();
                let handler = Arc::clone(handler);
                conns.push(thread::spawn(move || {
                    serve_lines(stream, &shutdown, &metrics, &*handler);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                metrics.count("serve.accept_errors", 1);
                thread::sleep(ACCEPT_POLL);
            }
        }
    }
    for conn in conns {
        let _ = conn.join();
    }
}

/// The connection loop: read a request line, let `handler` answer it,
/// repeat. Strictly ordered per connection. Ends at EOF, on a read
/// error, when the handler asks, or at a read poll once `shutdown` is
/// set. A last line without a newline is answered, then the loop ends.
fn serve_lines<C: Conn>(
    mut stream: C,
    shutdown: &AtomicBool,
    metrics: &SharedMetrics,
    handler: &LineHandler,
) {
    let Ok(read_half) = stream.split() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) if buf.is_empty() => return, // clean EOF between requests
            Ok(n) if n > 0 && !buf.ends_with(b"\n") => continue, // EOF mid-line
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let at_eof = !buf.ends_with(b"\n");
        let line = String::from_utf8_lossy(&buf).trim().to_string();
        buf.clear();
        if !line.is_empty() {
            metrics.count("serve.requests", 1);
            if !handler(&line, &mut stream) {
                return;
            }
        }
        if at_eof {
            return;
        }
    }
}

/// Counts a response's outcome as `serve.responses_ok` or
/// `serve.errors.<code>`.
pub(crate) fn count_outcome(metrics: &SharedMetrics, response: &Response) {
    match &response.outcome {
        Ok(_) => metrics.count("serve.responses_ok", 1),
        Err(body) => metrics.count(&format!("serve.errors.{}", body.code), 1),
    }
}

/// Why an [`exchange`] failed.
#[derive(Debug)]
pub(crate) enum WireError {
    /// Every dial failed: the request never left this process.
    Dial(io::Error),
    /// The connection broke after the dial (write, read, timeout, or EOF
    /// before a complete line).
    Io(io::Error),
    /// The peer sent a complete line that is not a protocol response.
    Protocol(String),
}

/// One exchange with `addr`: write `line`, read one complete line back,
/// parse it as a [`Response`], and return it with the raw line (without
/// its newline). With a `pool`, an idle socket goes first; if it fails
/// in any way — the peer may simply have reaped it — the address's idle
/// sockets are evicted and one fresh dial follows, and a socket that
/// completes the exchange is checked back in. Without a pool every
/// exchange dials fresh. `read_timeout` bounds the wait for the answer
/// (`None`: no bound).
pub(crate) fn exchange(
    pool: Option<&ConnPool>,
    addr: &str,
    line: &str,
    read_timeout: Option<Duration>,
) -> Result<(Response, String), WireError> {
    if let Some(pool) = pool {
        if let Some(stream) = pool.checkout(addr) {
            if let Ok(reply) = round_trip(&stream, line, read_timeout) {
                pool.checkin(addr, stream);
                return Ok(reply);
            }
            pool.evict(addr);
        }
    }
    let stream = connect(addr).map_err(WireError::Dial)?;
    let reply = round_trip(&stream, line, read_timeout)?;
    if let Some(pool) = pool {
        pool.checkin(addr, stream);
    }
    Ok(reply)
}

/// Connects to the first of `addr`'s resolved addresses that accepts,
/// as [`TcpStream::connect`] does, but bounds each attempt by
/// [`DIAL_TIMEOUT`].
fn connect(addr: &str) -> io::Result<TcpStream> {
    let mut last = io::Error::new(
        io::ErrorKind::AddrNotAvailable,
        "address resolved to nothing",
    );
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, DIAL_TIMEOUT) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

fn round_trip(
    mut stream: &TcpStream,
    line: &str,
    read_timeout: Option<Duration>,
) -> Result<(Response, String), WireError> {
    stream
        .set_read_timeout(read_timeout)
        .map_err(WireError::Io)?;
    // One write per request: a split line + newline pair would
    // re-trigger the Nagle stall that nodelay avoids.
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    stream
        .write_all(&framed)
        .and_then(|()| stream.flush())
        .map_err(WireError::Io)?;
    let mut reply = String::new();
    let n = BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(WireError::Io)?;
    if n == 0 || !reply.ends_with('\n') {
        return Err(WireError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a complete response line",
        )));
    }
    reply.truncate(reply.trim_end_matches(['\n', '\r']).len());
    let response = Response::from_json(&reply).map_err(WireError::Protocol)?;
    Ok((response, reply))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    use crate::protocol::Request;

    fn pong(id: u64) -> String {
        let mut line = Response::ok(id, serde::Value::Bool(true)).to_json();
        line.push('\n');
        line
    }

    #[test]
    fn connection_loop_skips_empty_lines_and_serves_a_last_unterminated_line() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = SharedMetrics::default();
        let echo: Arc<LineHandler> =
            Arc::new(|line: &str, out: &mut dyn Write| writeln!(out, "<{line}>").is_ok());
        let server = {
            let (shutdown, metrics) = (Arc::clone(&shutdown), metrics.clone());
            thread::spawn(move || {
                let accept = || listener.accept().map(|(stream, _)| stream);
                accept_loop(accept, &shutdown, &metrics, &echo);
            })
        };

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"\n  \nfirst\nlast").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut replies = String::new();
        stream.read_to_string(&mut replies).unwrap();
        assert_eq!(replies, "<first>\n<last>\n");

        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap();
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("serve.connections"), 1);
        assert_eq!(snapshot.counter("serve.requests"), 2);
    }

    #[test]
    fn a_pooled_socket_that_answers_garbage_is_evicted_and_redialed_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // First connection: one good answer, then garbage. Second
        // connection: a good answer.
        let peer = thread::spawn(move || {
            let mut line = String::new();
            let (first, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(first.try_clone().unwrap());
            reader.read_line(&mut line).unwrap();
            (&first).write_all(pong(1).as_bytes()).unwrap();
            reader.read_line(&mut line).unwrap();
            (&first).write_all(b"not a response\n").unwrap();
            let (second, _) = listener.accept().unwrap();
            BufReader::new(&second).read_line(&mut line).unwrap();
            (&second).write_all(pong(2).as_bytes()).unwrap();
        });

        let pool = ConnPool::default();
        let first = Request::new(1, "ping").to_json();
        let (response, raw) = exchange(Some(&pool), &addr, &first, None).unwrap();
        assert_eq!((response.id, raw + "\n"), (1, pong(1)));
        assert_eq!(pool.idle_count(&addr), 1);

        let second = Request::new(2, "ping").to_json();
        let (response, _) = exchange(Some(&pool), &addr, &second, None).unwrap();
        assert_eq!(response.id, 2);
        assert_eq!(pool.idle_count(&addr), 1);
        peer.join().unwrap();

        // Without a pool the same garbage is final.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            BufReader::new(&conn).read_line(&mut String::new()).unwrap();
            (&conn).write_all(b"not a response\n").unwrap();
        });
        let outcome = exchange(None, &addr, &first, None);
        assert!(
            matches!(outcome, Err(WireError::Protocol(_))),
            "{outcome:?}"
        );
        peer.join().unwrap();
    }
}
