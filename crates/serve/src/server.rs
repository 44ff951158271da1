//! The TCP front end: bounded accept queue, worker pool, per-request
//! deadlines, load shedding and graceful drain.
//!
//! The shape is a classic thread-per-worker accept loop:
//!
//! * the **acceptor** (the thread that called [`Server::run`]) polls the
//!   listener and pushes connections into a bounded queue — when the
//!   queue is full the connection is answered `503` and closed
//!   immediately (load shedding beats unbounded latency);
//! * **workers** pop connections and run the keep-alive loop: read one
//!   request (under the read deadline), dispatch it against
//!   [`AppState`], write the response, repeat;
//! * **shutdown** ([`ServerHandle::shutdown`]) stops the acceptor,
//!   then lets every worker *drain*: queued connections are still
//!   served, pipelined requests already buffered are answered, and the
//!   last response on each connection carries `Connection: close`.
//!
//! Everything observable lands in the shared metrics registry:
//! connections accepted/shed, queue depth, and the per-endpoint
//! counters/histograms recorded by [`AppState::dispatch`].

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lisa_spans::{SpanKind, SpanRecorder, SpanScope};

use crate::http::{parse_request, Limits, Response};
use crate::service::AppState;

/// The reserved trace id for infrastructure spans (lock acquisition,
/// shed, drain): they describe the server, not any one request, so they
/// stay out of the per-request trees.
const INFRA_TRACE: u64 = 0;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded accept-queue capacity; a full queue sheds with `503`.
    pub queue: usize,
    /// Per-request deadline (read + handle + write).
    pub timeout: Duration,
    /// Serve a single connection, then return (deterministic tests).
    pub once: bool,
    /// HTTP parsing limits.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue: 64,
            timeout: Duration::from_millis(5000),
            once: false,
            limits: Limits::default(),
        }
    }
}

/// What a finished server reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted (including those later drained).
    pub accepted: u64,
    /// Connections shed with `503` because the queue was full.
    pub shed: u64,
}

/// A connection waiting for a worker, with its enqueue timestamp when
/// spans are on: the worker opens the connection's `accept` root there.
type QueuedConn = (TcpStream, Option<u64>);

/// Why the accept queue rejected a connection.
enum Push {
    Queued,
    Full(QueuedConn),
    Closed,
}

/// The bounded connection queue shared by acceptor and workers.
struct ConnQueue {
    inner: Mutex<(VecDeque<QueuedConn>, bool)>,
    ready: Condvar,
    capacity: usize,
    /// Lock-acquisition spans (`lock_push`/`lock_pop`) land here on the
    /// infra trace; `None` records nothing.
    spans: Option<Arc<SpanRecorder>>,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            capacity,
            spans: None,
        }
    }

    fn with_spans(mut self, spans: Arc<SpanRecorder>) -> ConnQueue {
        self.spans = Some(spans);
        self
    }

    /// Records how long acquiring the queue mutex took — the lock-hold
    /// contention the accept path and the workers inflict on each other.
    fn record_lock(&self, kind: SpanKind, start_ns: Option<u64>) {
        if let (Some(spans), Some(start)) = (&self.spans, start_ns) {
            let now = spans.now_ns();
            spans.record(INFRA_TRACE, 0, kind, 0, start, now.saturating_sub(start));
        }
    }

    fn lock_clock(&self) -> Option<u64> {
        self.spans.as_ref().filter(|s| s.is_enabled()).map(|s| s.now_ns())
    }

    /// Pushes a connection, returning it back when the queue is full so
    /// the caller can shed it.
    fn push(&self, conn: QueuedConn) -> Push {
        let t0 = self.lock_clock();
        let mut guard = self.inner.lock().expect("queue lock");
        self.record_lock(SpanKind::LockPush, t0);
        if guard.1 {
            return Push::Closed;
        }
        if guard.0.len() >= self.capacity {
            return Push::Full(conn);
        }
        guard.0.push_back(conn);
        drop(guard);
        self.ready.notify_one();
        Push::Queued
    }

    /// Pops the next connection; `None` once closed **and** empty, so
    /// queued connections are always drained before workers exit.
    fn pop(&self) -> Option<QueuedConn> {
        let t0 = self.lock_clock();
        let mut guard = self.inner.lock().expect("queue lock");
        self.record_lock(SpanKind::LockPop, t0);
        loop {
            if let Some(conn) = guard.0.pop_front() {
                return Some(conn);
            }
            if guard.1 {
                return None;
            }
            guard = self.ready.wait(guard).expect("queue lock");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("queue lock").1 = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").0.len()
    }
}

/// Clone-able shutdown handle for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Asks the server to stop accepting and drain in-flight work;
    /// [`Server::run`] returns once the drain completes.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// A bound-but-not-yet-running service.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Address parse and bind failures.
    pub fn bind(config: ServeConfig, state: Arc<AppState>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server { listener, config, state, stop: Arc::new(AtomicBool::new(false)) })
    }

    /// The bound socket address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle usable from other threads.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { stop: Arc::clone(&self.stop) }
    }

    /// Runs the accept loop and worker pool until shutdown (or, with
    /// `once`, until the first connection has been fully served).
    /// Blocks; returns the accept/shed tally.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only — per-connection I/O failures are
    /// absorbed (a dead client must never take the service down).
    pub fn run(self) -> io::Result<ServeSummary> {
        let reg = self.state.registry();
        let accepted_ctr =
            reg.counter("lisa_serve_connections_accepted_total", "Connections accepted.", &[]);
        let shed_ctr = reg.counter(
            "lisa_serve_connections_shed_total",
            "Connections answered 503 because the accept queue was full.",
            &[],
        );
        let depth_gauge =
            reg.gauge("lisa_serve_queue_depth", "Connections waiting for a worker.", &[]);

        let spans = Arc::clone(self.state.spans());
        let queue = ConnQueue::new(self.config.queue.max(1)).with_spans(Arc::clone(&spans));
        let workers = self.config.workers.max(1);
        self.listener.set_nonblocking(true)?;

        let mut summary = ServeSummary { accepted: 0, shed: 0 };
        let drain_start = std::thread::scope(|scope| {
            for worker in 0..workers {
                let (queue, spans, depth_gauge) = (&queue, &spans, &depth_gauge);
                let (state, config, stop) = (&self.state, &self.config, &self.stop);
                let worker = worker as u32;
                scope.spawn(move || {
                    while let Some((conn, queued_ns)) = queue.pop() {
                        depth_gauge.set(queue.depth() as i64);
                        // The accept root spans enqueue to this worker
                        // taking the connection, and is recorded now, so
                        // a dump read on the same connection holds the
                        // root its requests hang under.
                        let traced = queued_ns.map(|queued| {
                            let root = SpanScope::new(Arc::clone(spans), spans.new_trace())
                                .with_worker(worker);
                            let waited = spans.now_ns().saturating_sub(queued);
                            let accept = root.record(SpanKind::Accept, queued, waited);
                            let scope = root.child(accept);
                            scope.record(SpanKind::QueueWait, queued, waited);
                            scope
                        });
                        handle_connection(conn, traced.as_ref(), state, config, stop);
                    }
                });
            }

            loop {
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                match self.listener.accept() {
                    Ok((conn, _peer)) => {
                        summary.accepted += 1;
                        accepted_ctr.inc();
                        // Back to blocking I/O for the actual session;
                        // disable Nagle so small responses leave now.
                        let _ = conn.set_nonblocking(false);
                        let _ = conn.set_nodelay(true);
                        let queued_ns = spans.is_enabled().then(|| spans.now_ns());
                        match queue.push((conn, queued_ns)) {
                            Push::Queued => depth_gauge.set(queue.depth() as i64),
                            Push::Full((conn, _)) => {
                                summary.shed += 1;
                                shed_ctr.inc();
                                let t0 = spans.is_enabled().then(|| spans.now_ns());
                                shed(conn);
                                if let Some(t0) = t0 {
                                    let now = spans.now_ns();
                                    spans.record(
                                        INFRA_TRACE,
                                        0,
                                        SpanKind::Shed,
                                        0,
                                        t0,
                                        now.saturating_sub(t0),
                                    );
                                }
                            }
                            Push::Closed => break,
                        }
                        if self.config.once {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        queue.close();
                        return Err(e);
                    }
                }
            }

            // Drain: close the queue; workers finish queued connections
            // (pop returns None only once the queue is empty).
            let drain_start = spans.is_enabled().then(|| spans.now_ns());
            queue.close();
            Ok(drain_start)
        })?;
        // The scope has joined every worker: the drain is complete.
        if let Some(t0) = drain_start {
            let now = spans.now_ns();
            spans.record(INFRA_TRACE, 0, SpanKind::Drain, 0, t0, now.saturating_sub(t0));
        }
        Ok(summary)
    }
}

/// Answers a shed connection with `503` without tying up a worker.
fn shed(mut conn: TcpStream) {
    let _ = conn.set_write_timeout(Some(Duration::from_millis(250)));
    let resp = Response::json(503, crate::api::error_body("server busy, try again"));
    let _ = resp.write_to(&mut conn, true);
}

/// The keep-alive loop for one connection. Per iteration: read until one
/// complete request is buffered (bounded by the read deadline), dispatch
/// it, write the response. Leaves quietly on client disconnect, answers
/// parse failures with their mapped status, and never panics the worker.
///
/// With a span scope (parented on the connection's `accept` root), each
/// iteration emits a `request` span wrapping `parse`, the dispatch tree
/// and `write`.
fn handle_connection(
    mut conn: TcpStream,
    spans: Option<&SpanScope>,
    state: &AppState,
    config: &ServeConfig,
    stop: &AtomicBool,
) {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];

    'requests: loop {
        let draining = stop.load(Ordering::SeqCst);
        // During drain, pull whatever the client already sent (pipelined
        // requests in flight) but don't wait around for new ones.
        let deadline = Instant::now()
            + if draining {
                config.timeout.min(Duration::from_millis(200))
            } else {
                config.timeout
            };

        // The request span starts when its first byte is seen, not when
        // the worker starts waiting — idle keep-alive time is not part
        // of any request.
        let mut parse_start = spans.filter(|_| !buf.is_empty()).map(|s| s.recorder.now_ns());

        // Accumulate bytes until one full request parses.
        let request = loop {
            match parse_request(&buf, &config.limits) {
                Ok(Some((request, consumed))) => {
                    buf.drain(..consumed);
                    break request;
                }
                Ok(None) => {}
                Err(e) => {
                    let _ = Response::for_error(&e).write_to(&mut conn, true);
                    break 'requests;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                // Mid-request (bytes buffered): tell the client; between
                // requests: just an idle keep-alive timeout.
                if !buf.is_empty() {
                    let _ = Response::text(408, "request timed out\n").write_to(&mut conn, true);
                }
                break 'requests;
            }
            let _ = conn.set_read_timeout(Some(deadline - now));
            match conn.read(&mut chunk) {
                Ok(0) => break 'requests, // client closed
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if parse_start.is_none() {
                        parse_start = spans.map(|s| s.recorder.now_ns());
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Loop back; the deadline check above decides.
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break 'requests, // reset mid-request
            }
        };

        // The request span opens at the first byte and covers parse,
        // dispatch and write, which parent on it.
        let req_span = spans.zip(parse_start).map(|(scope, start)| {
            let request = scope.start_at(SpanKind::Request, start);
            let scope = scope.child(request.id());
            scope.record(SpanKind::Parse, start, scope.now_ns().saturating_sub(start));
            (scope, request)
        });

        let keep_alive = request.keep_alive();
        let response = state.dispatch_spanned(
            &request,
            Instant::now() + config.timeout,
            req_span.as_ref().map(|(scope, _)| scope),
        );
        // Close when the client asked to, or when shutdown began and no
        // further pipelined request is already buffered.
        let draining = stop.load(Ordering::SeqCst);
        let close = !keep_alive || (draining && buf.is_empty());
        let _ = conn.set_write_timeout(Some(config.timeout));
        let write_guard = req_span.as_ref().map(|(scope, _)| scope.start(SpanKind::Write));
        let wrote = response.write_to(&mut conn, close);
        drop(write_guard);
        drop(req_span);
        if wrote.is_err() || close {
            break;
        }
    }
    let _ = conn.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_sheds_when_full_and_drains_when_closed() {
        // Pure queue-discipline test over loopback socket pairs.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut clients = Vec::new();
        let mut server_side = Vec::new();
        for _ in 0..3 {
            clients.push(TcpStream::connect(addr).unwrap());
            server_side.push(listener.accept().unwrap().0);
        }

        let queue = ConnQueue::new(2);
        let mut it = server_side.into_iter().map(|conn| (conn, None));
        assert!(matches!(queue.push(it.next().unwrap()), Push::Queued));
        assert!(matches!(queue.push(it.next().unwrap()), Push::Queued));
        assert!(matches!(queue.push(it.next().unwrap()), Push::Full(_)));
        assert_eq!(queue.depth(), 2);

        // Closing still hands out the queued connections, then None.
        queue.close();
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());

        // Pushing after close is rejected.
        let extra = TcpStream::connect(addr).unwrap();
        let held = (listener.accept().unwrap().0, None);
        assert!(matches!(queue.push(held), Push::Closed));
        drop(extra);
        drop(clients);
    }
}
