//! Concurrency stress for the service: many client threads hammering a
//! deliberately small worker pool with pipelined keep-alive requests.
//! Invariants: every request gets exactly one response, the endpoint
//! counters agree with the client-side tally, and graceful shutdown
//! under load *drains* queued work instead of dropping it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use lisa::metrics::{MetricKey, MetricValue};
use lisa::serve::{AppState, ServeConfig, Server, ServerHandle};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 8;

fn boot(
    workers: usize,
    queue: usize,
) -> (SocketAddr, ServerHandle, Arc<AppState>, std::thread::JoinHandle<()>) {
    let state = Arc::new(AppState::new());
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue,
        timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let server = Server::bind(config, Arc::clone(&state)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle, state, join)
}

/// Reads exactly `n` HTTP responses off a connection, returning their
/// status codes. Panics on a malformed head (that *is* the test).
fn read_responses(conn: &mut TcpStream, n: usize) -> Vec<u16> {
    let mut statuses = Vec::with_capacity(n);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    while statuses.len() < n {
        // One complete head available?
        let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
        if let Some(head_end) = head_end {
            let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
            assert!(head.starts_with("HTTP/1.1 "), "malformed status line: {head:?}");
            let status: u16 = head["HTTP/1.1 ".len()..][..3].parse().expect("status code");
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse().ok())?
                })
                .expect("Content-Length header");
            if buf.len() >= head_end + content_length {
                buf.drain(..head_end + content_length);
                statuses.push(status);
                continue;
            }
        }
        let got = conn.read(&mut chunk).expect("read");
        assert!(got > 0, "server closed with {} of {n} responses received", statuses.len());
        buf.extend_from_slice(&chunk[..got]);
    }
    statuses
}

#[test]
fn pipelined_load_gets_exactly_one_response_per_request() {
    // 2 workers vs 4 clients; queue big enough that nothing sheds.
    let (addr, handle, state, join) = boot(2, 32);

    let tiny = br#"{"model": "tinyrisc", "program": "LDI R1, 1\nHLT\n", "max_cycles": 100}"#;
    let one_request =
        format!("POST /v1/simulate HTTP/1.1\r\nHost: s\r\nContent-Length: {}\r\n\r\n", tiny.len());

    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let one_request = one_request.clone();
        clients.push(std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            // Pipeline the whole batch: write every request up front,
            // only then start reading responses.
            let mut batch = Vec::new();
            for _ in 0..REQUESTS_PER_CLIENT {
                batch.extend_from_slice(one_request.as_bytes());
                batch.extend_from_slice(tiny);
            }
            conn.write_all(&batch).expect("write pipeline");
            read_responses(&mut conn, REQUESTS_PER_CLIENT)
        }));
    }

    let mut ok = 0usize;
    for client in clients {
        let statuses = client.join().expect("client thread");
        assert_eq!(statuses.len(), REQUESTS_PER_CLIENT);
        ok += statuses.iter().filter(|&&s| s == 200).count();
    }
    assert_eq!(ok, CLIENTS * REQUESTS_PER_CLIENT, "every request must succeed");

    // The shared registry agrees with the client-side tally.
    let snap = state.registry().snapshot();
    let key = MetricKey::new(
        "lisa_serve_requests_total",
        &[("endpoint", "/v1/simulate"), ("status", "200")],
    );
    assert_eq!(
        snap.metrics.get(&key),
        Some(&MetricValue::Counter((CLIENTS * REQUESTS_PER_CLIENT) as u64))
    );

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn graceful_shutdown_drains_queued_connections() {
    // One worker, deep queue: connections pile up behind a slow-ish
    // request, then shutdown fires while they are still queued.
    let (addr, handle, _state, join) = boot(1, 32);

    let mut conns = Vec::new();
    for _ in 0..6 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n")
            .expect("write");
        conns.push(conn);
    }
    // Give the acceptor a moment to queue them, then pull the plug.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    // Every queued connection still gets its response (drain, not drop).
    for mut conn in conns {
        let mut raw = Vec::new();
        conn.read_to_end(&mut raw).expect("read drained response");
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 200"), "drained connection got: {text:?}");
    }

    join.join().expect("server thread");
}
