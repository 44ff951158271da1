//! Experiment E13: HTTP service throughput and latency over loopback.
//!
//! Boots the `lisa-serve` server in-process on an ephemeral port, then
//! drives it with keep-alive client threads issuing `/healthz` probes
//! and real `/v1/simulate` jobs. Reports requests/s plus p50/p99
//! request latency per worker-pool size, so the worker-count lever is
//! visible in one table.
//!
//! Each cell runs `ROUNDS` times on a fresh server, rounds interleaved
//! across cells so host drift spreads over all of them; a cell reports
//! the median requests/s with its quartiles, and the median over rounds
//! of each round's latency percentiles. One run reads anywhere within
//! ±25% on a shared host; the quartiles show what a change must beat.
//!
//! The server records spans as in production, so the median-throughput
//! `/v1/simulate` round per pool size also folds its span ring into
//! per-phase shares of request time (queue wait, parse, assemble, run,
//! serialize, write): where the wall-clock time of a request goes.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa_bench::sampler::{median, quartiles};
use lisa_serve::{AppState, ServeConfig, Server};
use lisa_spans::{SpanKind, SpanRecord};

const CLIENTS: usize = 4;
const HEALTH_REQUESTS: usize = 800;
const SIM_REQUESTS: usize = 120;
const ROUNDS: usize = 41;
const WORKERS: [usize; 3] = [1, 2, 4];

/// One round of a benchmark cell: per-request latencies measured by
/// every client, and the spans the round's server recorded.
struct Cell {
    elapsed: Duration,
    latencies_us: Vec<u64>,
    spans: Vec<SpanRecord>,
    /// Spans the server's ring overwrote.
    dropped: u64,
}

impl Cell {
    fn requests_per_s(&self) -> f64 {
        self.latencies_us.len() as f64 / self.elapsed.as_secs_f64()
    }
}

fn boot(
    workers: usize,
) -> (SocketAddr, Arc<AppState>, lisa_serve::ServerHandle, std::thread::JoinHandle<()>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue: 256,
        timeout: Duration::from_secs(30),
        once: false,
        ..ServeConfig::default()
    };
    let state = Arc::new(AppState::new());
    let server = Server::bind(config, Arc::clone(&state)).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, state, handle, join)
}

/// Sends `count` sequential keep-alive requests on one connection,
/// timing each round trip.
fn client(addr: SocketAddr, request: &[u8], count: usize, body_probe: &[u8]) -> Vec<u64> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).ok();
    conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut latencies = Vec::with_capacity(count);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    for _ in 0..count {
        let t = Instant::now();
        conn.write_all(request).expect("write request");
        // Read one full response: head + Content-Length body bytes.
        loop {
            if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) {
                let head = String::from_utf8_lossy(&buf[..head_end]);
                assert!(head.starts_with("HTTP/1.1 200"), "unexpected response: {head}");
                let need: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .expect("Content-Length")
                    .trim()
                    .parse()
                    .expect("length value");
                if buf.len() >= head_end + need {
                    assert!(
                        body_probe.is_empty()
                            || buf[head_end..head_end + need]
                                .windows(body_probe.len())
                                .any(|w| w == body_probe),
                        "response body missing {:?}",
                        String::from_utf8_lossy(body_probe)
                    );
                    buf.drain(..head_end + need);
                    break;
                }
            }
            let n = conn.read(&mut chunk).expect("read response");
            assert!(n > 0, "server closed mid-benchmark");
            buf.extend_from_slice(&chunk[..n]);
        }
        latencies.push(t.elapsed().as_micros() as u64);
    }
    latencies
}

/// Runs one cell: `CLIENTS` threads each sending `per_client` requests.
fn run_cell(workers: usize, request: &[u8], per_client: usize, body_probe: &'static [u8]) -> Cell {
    let (addr, state, handle, join) = boot(workers);
    let t = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let request = request.to_vec();
            std::thread::spawn(move || client(addr, &request, per_client, body_probe))
        })
        .collect();
    let mut latencies_us = Vec::new();
    for thread in threads {
        latencies_us.extend(thread.join().expect("client thread"));
    }
    let elapsed = t.elapsed();
    handle.shutdown();
    join.join().expect("server thread");
    latencies_us.sort_unstable();
    Cell { elapsed, latencies_us, spans: state.spans().collect(), dropped: state.spans().dropped() }
}

/// Nearest-rank percentile over sorted data.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let health = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n".to_vec();
    let sim_body = br#"{"model": "tinyrisc", "program": "LDI R1, 20\nLDI R2, 22\nADD R3, R1, R2\nHLT\n", "dump": [["R", 4]]}"#;
    let sim = format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
        sim_body.len(),
        String::from_utf8_lossy(sim_body)
    )
    .into_bytes();

    let mut out = String::new();
    writeln!(out, "E13 — HTTP service throughput and latency (loopback)").unwrap();
    writeln!(
        out,
        "({CLIENTS} keep-alive clients; {HEALTH_REQUESTS} /healthz + {SIM_REQUESTS} /v1/simulate requests each)"
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<14} {:<8} {:>9} {:>12} {:>17} {:>8} {:>8}",
        "endpoint", "workers", "requests", "requests/s", "(q1 – q3)", "p50 us", "p99 us"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(82)).unwrap();

    let endpoints = [
        ("/healthz", &health, HEALTH_REQUESTS, &b""[..]),
        ("/v1/simulate", &sim, SIM_REQUESTS, &b"\"halted\": true"[..]),
    ];
    // rounds[cell][round], cells endpoint-major; every round runs each
    // cell once.
    let cells: Vec<(usize, usize)> =
        (0..endpoints.len()).flat_map(|e| WORKERS.iter().map(move |&w| (e, w))).collect();
    let mut rounds: Vec<Vec<Cell>> = cells.iter().map(|_| Vec::with_capacity(ROUNDS)).collect();
    for _ in 0..ROUNDS {
        for (runs, &(e, workers)) in rounds.iter_mut().zip(&cells) {
            let (_, request, per_client, probe) = endpoints[e];
            runs.push(run_cell(workers, request, per_client, probe));
        }
    }

    // The median-throughput `/v1/simulate` round per pool size, for the
    // attribution.
    let mut sim_cells: Vec<(usize, Cell)> = Vec::new();
    for (mut runs, (e, workers)) in rounds.into_iter().zip(cells) {
        let [q1, rps, q3] = quartiles(runs.iter().map(Cell::requests_per_s).collect());
        let percentiles =
            |p: f64| median(runs.iter().map(|c| percentile(&c.latencies_us, p) as f64).collect());
        writeln!(
            out,
            "{:<14} {:<8} {:>9} {:>12.0} {:>17} {:>8.0} {:>8.0}",
            endpoints[e].0,
            workers,
            runs[0].latencies_us.len(),
            rps,
            format!("({q1:.0} – {q3:.0})"),
            percentiles(50.0),
            percentiles(99.0),
        )
        .unwrap();
        if endpoints[e].0 == "/v1/simulate" {
            runs.sort_by(|a, b| a.requests_per_s().total_cmp(&b.requests_per_s()));
            sim_cells.push((workers, runs.swap_remove(ROUNDS / 2)));
        }
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "note: single-machine loopback numbers over {ROUNDS} rounds per cell, each\n\
         on a fresh server; requests/s is the median round with its\n\
         quartiles, p50/p99 the median over rounds of each round's\n\
         nearest-rank client-observed round-trip percentiles.\n\
         /v1/simulate includes a full assemble + ops run per request."
    )
    .unwrap();

    // Where a /v1/simulate request's wall-clock time goes, per pool
    // size, folded from the median round's own span ring.
    out.push_str(
        "\nrequest-time attribution (median /v1/simulate round, share of summed request time)\n\
         workers   requests   req avg us  queue_wait    parse   assemble         run serialize    write\n",
    );
    writeln!(out, "{}", "-".repeat(92)).unwrap();
    let mut queue_wait_shares: Vec<(usize, f64)> = Vec::new();
    for (workers, cell) in &sim_cells {
        let spans = &cell.spans;
        let total_ns = |kind: SpanKind| -> u64 {
            spans.iter().filter(|s| s.kind == kind).map(|s| s.dur_ns).sum()
        };
        let requests = spans.iter().filter(|s| s.kind == SpanKind::Request).count();
        let request_ns = total_ns(SpanKind::Request).max(1) as f64;
        let share = |kind: SpanKind| total_ns(kind) as f64 / request_ns * 100.0;
        queue_wait_shares.push((*workers, share(SpanKind::QueueWait)));
        writeln!(
            out,
            "{:<8} {:>9} {:>12.0} {:>10.1}% {:>7.1}% {:>9.1}% {:>10.1}% {:>7.1}% {:>7.1}%",
            workers,
            requests,
            request_ns / requests.max(1) as f64 / 1000.0,
            share(SpanKind::QueueWait),
            share(SpanKind::Parse),
            share(SpanKind::Assemble),
            share(SpanKind::Run),
            share(SpanKind::Serialize),
            share(SpanKind::Write),
        )
        .unwrap();
        let dropped = cell.dropped;
        if dropped > 0 {
            writeln!(out, "  (span ring wrapped: {dropped} span(s) lost; shares cover the rest)")
                .unwrap();
        }
    }

    out.push_str(
        "\nnotes: queue_wait sums each connection's one-off wait for a worker,\n\
         relative to summed request time — above 100% means connections in\n\
         aggregate waited longer than they were served, the contention\n\
         signature of an undersized pool. That wait collapses to ~0% by 4\n\
         workers, so past that point the limit is not queueing but the serial\n\
         per-connection pipeline: each keep-alive connection is owned by one\n\
         worker, and its request time (parse/route/serialize/write plus the\n\
         assemble+run work) is something added workers cannot shorten.\n",
    );
    for (workers, share) in &queue_wait_shares {
        writeln!(out, "  queue_wait share at {workers} worker(s): {share:.2}%").unwrap();
    }

    print!("{out}");
}
