//! End-to-end span tracing through a live server: one `/v1/simulate`
//! request over loopback must yield a single connected span tree
//! reaching from the serve layer (`accept`, `queue_wait`, `request`)
//! down through the simulator (`cycle_chunk`), observable afterwards
//! via `GET /v1/debug/spans`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa_metrics::json::{parse, Value};
use lisa_serve::{AppState, ServeConfig, Server, ServerHandle};

fn boot() -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue: 16,
        timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let server = Server::bind(config, Arc::new(AppState::new())).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle, join)
}

/// One `Connection: close` request; returns the response body.
fn roundtrip(addr: SocketAddr, request: &[u8]) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn.write_all(request).expect("write request");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "unexpected response: {head}");
    body.to_owned()
}

#[test]
fn one_simulate_request_yields_a_single_connected_span_tree() {
    let (addr, handle, join) = boot();

    let body =
        br#"{"model": "tinyrisc", "program": "LDI R1, 20\nLDI R2, 22\nADD R3, R1, R2\nHLT\n"}"#;
    let sim = format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        String::from_utf8_lossy(body)
    );
    let resp = roundtrip(addr, sim.as_bytes());
    assert!(resp.contains("\"halted\": true"), "simulate failed: {resp}");

    // The accept root is recorded when a worker takes the connection;
    // the spans of the request land as the worker writes the response,
    // which races this client's read of the close; poll.
    let debug = b"GET /v1/debug/spans?limit=4096 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    let deadline = Instant::now() + Duration::from_secs(5);
    let spans = loop {
        let body = roundtrip(addr, debug);
        let doc = parse(&body).expect("debug/spans JSON");
        let spans = match doc.get("spans") {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("missing spans array: {other:?}"),
        };
        let accepted =
            spans.iter().any(|s| s.get("name").and_then(Value::as_str) == Some("accept"));
        if accepted {
            break spans;
        }
        assert!(Instant::now() < deadline, "accept span never appeared");
        std::thread::sleep(Duration::from_millis(20));
    };

    handle.shutdown();
    join.join().expect("server thread");

    // Identify the simulate request's trace by its `run` span.
    let field = |s: &Value, key: &str| -> u64 {
        s.get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("span field {key} missing or non-numeric"))
    };
    let name = |s: &Value| -> String {
        s.get("name")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("span name missing"))
            .to_owned()
    };
    let run = spans.iter().find(|s| name(s) == "run").expect("run span recorded");
    let trace = field(run, "trace");
    assert_ne!(trace, 0, "request spans must not land on the infra trace");
    let tree: Vec<&Value> = spans.iter().filter(|s| field(s, "trace") == trace).collect();

    // Every layer is present in the one trace.
    let names: Vec<String> = tree.iter().map(|s| name(s)).collect();
    for expected in [
        "accept",
        "queue_wait",
        "parse",
        "request",
        "route",
        "assemble",
        "run",
        "serialize",
        "write",
        "cycle_chunk",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing {expected} in {names:?}");
    }

    // The tree is connected: unique ids, exactly one root (the accept
    // span), and every parent resolves to another span in the trace.
    let ids: Vec<u64> = tree.iter().map(|s| field(s, "span")).collect();
    let mut dedup = ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), ids.len(), "span ids must be unique");
    let roots: Vec<&&Value> = tree.iter().filter(|s| field(s, "parent") == 0).collect();
    assert_eq!(roots.len(), 1, "one root expected, got {roots:?}");
    assert_eq!(name(roots[0]), "accept");
    for span in &tree {
        let parent = field(span, "parent");
        assert!(
            parent == 0 || ids.contains(&parent),
            "dangling parent {parent} on {:?}",
            name(span)
        );
    }
}
