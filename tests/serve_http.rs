//! Integration tests for the HTTP service: a real server on an
//! ephemeral loopback port, poked with raw `TcpStream`s — happy paths
//! for every endpoint plus the rude-client gauntlet (malformed request
//! lines, oversized headers, Content-Length abuse, early disconnects).
//! The server must never panic and every answered request must get a
//! well-formed status line.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use lisa::metrics::json;
use lisa::serve::{AppState, ServeConfig, Server, ServerHandle};

/// Boots a server on an ephemeral port; returns the address, a shutdown
/// handle, the shared state (for metric inspection) and the join handle.
fn boot(
    workers: usize,
    queue: usize,
    timeout_ms: u64,
) -> (SocketAddr, ServerHandle, Arc<AppState>, std::thread::JoinHandle<()>) {
    let state = Arc::new(AppState::new());
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue,
        timeout: Duration::from_millis(timeout_ms),
        ..ServeConfig::default()
    };
    let server = Server::bind(config, Arc::clone(&state)).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle, state, join)
}

/// Sends raw bytes on a fresh connection and reads to EOF.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn.write_all(bytes).expect("write request");
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    conn.read_to_end(&mut out).expect("read response");
    out
}

fn request(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Splits a raw response into (status code, body), asserting the status
/// line is well formed.
fn parse_response(raw: &[u8]) -> (u16, Vec<u8>) {
    let text = String::from_utf8_lossy(raw);
    assert!(text.starts_with("HTTP/1.1 "), "malformed status line: {text:?}");
    let status: u16 = text["HTTP/1.1 ".len()..][..3].parse().expect("numeric status");
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("head terminator") + 4;
    (status, raw[head_end..].to_vec())
}

fn body_json(raw: &[u8]) -> json::Value {
    let (_, body) = parse_response(raw);
    json::parse(std::str::from_utf8(&body).expect("utf8 body")).expect("json body")
}

#[test]
fn all_endpoints_answer_their_happy_path() {
    let (addr, handle, _state, join) = boot(2, 16, 10_000);

    let raw = send_raw(addr, &request("GET", "/healthz", ""));
    let (status, body) = parse_response(&raw);
    assert_eq!((status, body.as_slice()), (200, &b"ok\n"[..]));

    let raw = send_raw(addr, &request("GET", "/v1/models", ""));
    assert_eq!(parse_response(&raw).0, 200);
    let models = body_json(&raw);
    let names: Vec<&str> = models
        .get("models")
        .and_then(json::Value::as_array)
        .expect("models array")
        .iter()
        .filter_map(|m| m.get("name").and_then(json::Value::as_str))
        .collect();
    assert!(names.contains(&"tinyrisc") && names.contains(&"vliw62"), "{names:?}");

    let asm =
        r#"{"model": "tinyrisc", "program": "LDI R1, 20\nLDI R2, 22\nADD R3, R1, R2\nHLT\n"}"#;
    let raw = send_raw(addr, &request("POST", "/v1/assemble", asm));
    assert_eq!(parse_response(&raw).0, 200);
    let words = body_json(&raw);
    assert_eq!(words.get("words").and_then(json::Value::as_array).expect("words").len(), 4);

    let sim = r#"{"model": "tinyrisc", "program": "LDI R1, 20\nLDI R2, 22\nADD R3, R1, R2\nHLT\n", "dump": [["R", 4]], "probes": ["reg R[3]"]}"#;
    let raw = send_raw(addr, &request("POST", "/v1/simulate", sim));
    assert_eq!(parse_response(&raw).0, 200);
    let outcome = body_json(&raw);
    assert_eq!(outcome.get("halted").and_then(json::Value::as_bool), Some(true));
    let regs = outcome
        .get("dump")
        .and_then(|d| d.get("R"))
        .and_then(json::Value::as_array)
        .expect("R dump");
    assert_eq!(regs[3].as_f64(), Some(42.0));
    let probes = outcome.get("probes").expect("probe report");
    assert_eq!(probes.get("reg R[3]").and_then(json::Value::as_u64), Some(1));

    // The simulate run above fed the merged architectural profile.
    let raw = send_raw(addr, &request("GET", "/v1/debug/arch", ""));
    assert_eq!(parse_response(&raw).0, 200);
    let arch = body_json(&raw);
    assert!(arch.get("cycles").and_then(json::Value::as_u64).unwrap_or(0) > 0, "{arch:?}");

    let raw =
        send_raw(addr, &request("POST", "/v1/batch", r#"{"mode": "compiled", "workers": 2}"#));
    assert_eq!(parse_response(&raw).0, 200);
    let batch = body_json(&raw);
    assert_eq!(batch.get("failed").and_then(json::Value::as_u64), Some(0));
    assert!(batch.get("jobs").and_then(json::Value::as_u64).unwrap_or(0) > 0);

    let raw = send_raw(addr, &request("GET", "/metrics", ""));
    let (status, body) = parse_response(&raw);
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("metrics text");
    assert!(text.contains("lisa_serve_requests_total"), "{text}");
    assert!(text.contains("lisa_uptime_seconds"), "{text}");
    assert!(text.contains("lisa_metrics_scrapes_total 1"), "{text}");

    // A second scrape advances the scrape counter.
    let raw = send_raw(addr, &request("GET", "/metrics", ""));
    let (_, body) = parse_response(&raw);
    let text = String::from_utf8(body).expect("metrics text");
    assert!(text.contains("lisa_metrics_scrapes_total 2"), "{text}");

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn rude_clients_get_clean_errors_never_panics() {
    let (addr, handle, _state, join) = boot(2, 16, 1_000);

    // Malformed request line.
    let raw = send_raw(addr, b"NOT-HTTP\r\n\r\n");
    assert_eq!(parse_response(&raw).0, 400);
    let raw = send_raw(addr, b"GET /x HTTP/2.0\r\n\r\n");
    assert_eq!(parse_response(&raw).0, 505);

    // Oversized header block.
    let huge = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(64 * 1024));
    let raw = send_raw(addr, huge.as_bytes());
    assert_eq!(parse_response(&raw).0, 431);

    // Oversized request line.
    let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "q".repeat(64 * 1024));
    let raw = send_raw(addr, long_target.as_bytes());
    assert_eq!(parse_response(&raw).0, 414);

    // POST without Content-Length.
    let raw = send_raw(addr, b"POST /v1/assemble HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(parse_response(&raw).0, 411);

    // Unparseable Content-Length.
    let raw = send_raw(addr, b"POST /v1/assemble HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    assert_eq!(parse_response(&raw).0, 400);

    // Chunked bodies are declared unsupported, not mis-framed.
    let raw = send_raw(
        addr,
        b"POST /v1/assemble HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    );
    assert_eq!(parse_response(&raw).0, 501);

    // Unknown paths, the retired fuzz endpoint among them, and wrong method.
    let raw = send_raw(addr, &request("GET", "/nope", ""));
    assert_eq!(parse_response(&raw).0, 404);
    let raw = send_raw(addr, &request("POST", "/v1/fuzz", r#"{"model": "tinyrisc"}"#));
    assert_eq!(parse_response(&raw).0, 404);
    let raw = send_raw(addr, &request("DELETE", "/healthz", ""));
    assert_eq!(parse_response(&raw).0, 405);

    // Early disconnect mid-body: declared 100 bytes, sent 5, hung up.
    {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"POST /v1/assemble HTTP/1.1\r\nContent-Length: 100\r\n\r\nhello")
            .expect("partial write");
        drop(conn); // vanish without completing the body
    }

    // Early disconnect before any bytes at all.
    drop(TcpStream::connect(addr).expect("connect"));

    // The server is still alive and sane after all of the above.
    let raw = send_raw(addr, &request("GET", "/healthz", ""));
    assert_eq!(parse_response(&raw).0, 200);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let (addr, handle, _state, join) = boot(1, 8, 10_000);

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    for i in 0..3 {
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
        // Read one full response (head + 3-byte body).
        loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                if buf.len() >= pos + 4 + 3 {
                    break;
                }
            }
            let n = conn.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed early on request {i}");
            buf.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 200"), "request {i}: {text:?}");
        assert!(text.contains("Connection: keep-alive"), "request {i}: {text:?}");
        buf.clear();
    }

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn simulate_budget_and_bad_requests_map_to_statuses() {
    let (addr, handle, _state, join) = boot(2, 16, 10_000);

    // Step budget exhausted: 200 with halted=false at the cap.
    let spin = r#"{"model": "tinyrisc", "program": "loop: JMP loop\n", "max_cycles": 64}"#;
    let raw = send_raw(addr, &request("POST", "/v1/simulate", spin));
    assert_eq!(parse_response(&raw).0, 200);
    let outcome = body_json(&raw);
    assert_eq!(outcome.get("halted").and_then(json::Value::as_bool), Some(false));
    assert_eq!(outcome.get("cycles").and_then(json::Value::as_u64), Some(64));

    // Unknown model: 404 with a JSON error body.
    let raw =
        send_raw(addr, &request("POST", "/v1/simulate", r#"{"model": "pdp11", "program": "HLT"}"#));
    assert_eq!(parse_response(&raw).0, 404);
    assert!(body_json(&raw).get("error").is_some());

    // Assembly error: 422.
    let raw = send_raw(
        addr,
        &request("POST", "/v1/assemble", r#"{"model": "tinyrisc", "program": "FROB R1\n"}"#),
    );
    assert_eq!(parse_response(&raw).0, 422);
    // The 422 body quotes the statement as written: a label operand and
    // non-ASCII text come back unchanged.
    for path in ["/v1/assemble", "/v1/simulate"] {
        let body = r#"{"model": "tinyrisc", "program": "top: LDI Ré, top\n"}"#;
        let raw = send_raw(addr, &request("POST", path, body));
        assert_eq!(parse_response(&raw).0, 422, "{path}");
        let err = body_json(&raw);
        let msg = err.get("error").and_then(json::Value::as_str).unwrap_or("");
        assert!(msg.contains("no instruction syntax matches `LDI Ré, top`"), "{path}: {msg}");
    }

    // Unknown simulation mode: 422 (well-formed JSON, invalid value),
    // with a diagnostic naming the valid set.
    let raw = send_raw(
        addr,
        &request(
            "POST",
            "/v1/simulate",
            r#"{"model": "tinyrisc", "program": "HLT\n", "mode": "sideways"}"#,
        ),
    );
    assert_eq!(parse_response(&raw).0, 422);
    let err = body_json(&raw);
    let msg = err.get("error").and_then(json::Value::as_str).unwrap_or("");
    assert!(msg.contains("unknown mode `sideways`"), "{msg}");
    let raw =
        send_raw(addr, &request("POST", "/v1/batch", r#"{"mode": "sideways", "workers": 1}"#));
    assert_eq!(parse_response(&raw).0, 422);

    // The ops backend is a first-class mode over the wire.
    let ops = r#"{"model": "tinyrisc", "program": "LDI R1, 20\nLDI R2, 22\nADD R3, R1, R2\nHLT\n", "mode": "ops", "dump": [["R", 4]]}"#;
    let raw = send_raw(addr, &request("POST", "/v1/simulate", ops));
    assert_eq!(parse_response(&raw).0, 200);
    let outcome = body_json(&raw);
    assert_eq!(outcome.get("halted").and_then(json::Value::as_bool), Some(true));

    // Malformed JSON: 400.
    let raw = send_raw(addr, &request("POST", "/v1/simulate", "{not json"));
    assert_eq!(parse_response(&raw).0, 400);

    handle.shutdown();
    join.join().expect("server thread");
}
