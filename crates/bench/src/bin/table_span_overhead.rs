//! Experiment E14: cost of the span layer and where request time goes.
//!
//! Two questions, one report:
//!
//! 1. **Overhead** — the simulator's cycle loop carries an optional
//!    [`lisa_spans::SpanScope`]. With no scope attached the loop is the
//!    E12-era fast path; with a scope on a *disabled* recorder every
//!    chunk boundary costs one atomic-bool branch; enabled, it also pays
//!    a clock read and a ring write per chunk. The gate is on the
//!    disabled path: attaching tracing machinery must not tax users who
//!    leave it off.
//! 2. **Attribution** — boots the HTTP service in-process (spans on, as
//!    in production) at 1/2/4 workers, drives it with keep-alive
//!    clients, then folds the recorded spans into a per-phase table.
//!    This pins down E13's flat 1→4 worker scaling by *measuring* where
//!    the wall-clock time of a request goes instead of guessing.
//!
//! Acceptance gate: spans-disabled geometric-mean overhead < 2%
//! (process exits 1 past the gate, so CI can hold the line).
//!
//! `--quick` shrinks repeats and request counts for CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa_bench::write_report;
use lisa_models::{accu16, kernels, vliw62, Workbench};
use lisa_serve::{AppState, ServeConfig, Server, ServerHandle};
use lisa_sim::SimMode;
use lisa_spans::{SpanKind, SpanRecorder, SpanScope};

/// The three instrumentation states the cycle loop can be in.
#[derive(Clone, Copy, PartialEq)]
enum Config {
    /// No scope attached: the untraced fast path.
    Baseline,
    /// Scope attached, recorder disabled: one branch per chunk.
    Disabled,
    /// Scope attached, recorder enabled: branch + clock + ring write.
    Enabled,
}

/// Best-of-`repeats` wall time for one kernel under one config.
fn measure(
    wb: &Workbench,
    kernel: &kernels::Kernel,
    config: Config,
    recorder: &Arc<SpanRecorder>,
    repeats: u32,
) -> (u64, Duration) {
    recorder.set_enabled(config == Config::Enabled);
    let mut best = Duration::MAX;
    let mut cycles = 0;
    for _ in 0..repeats {
        recorder.clear();
        let mut sim = kernels::load_kernel(wb, kernel, SimMode::Ops).expect("kernel loads");
        if config != Config::Baseline {
            let trace = recorder.new_trace();
            sim.set_spans(Some(SpanScope::new(Arc::clone(recorder), trace)));
        }
        let t = Instant::now();
        cycles = wb.run_to_halt(&mut sim, kernel.max_steps).expect("kernel halts");
        best = best.min(t.elapsed());
        kernels::verify_kernel(wb, kernel, &sim);
    }
    (cycles, best)
}

fn boot(workers: usize) -> (SocketAddr, Arc<AppState>, ServerHandle, std::thread::JoinHandle<()>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue: 256,
        timeout: Duration::from_secs(30),
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

/// Sends `count` sequential keep-alive `/v1/simulate` requests on one
/// connection, asserting 200s.
fn client(addr: SocketAddr, request: &[u8], count: usize) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).ok();
    conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    for _ in 0..count {
        conn.write_all(request).expect("write request");
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
                    buf.drain(..head_end + need);
                    break;
                }
            }
            let n = conn.read(&mut chunk).expect("read response");
            assert!(n > 0, "server closed mid-benchmark");
            buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Per-phase totals folded from one serve run's span snapshot.
struct Attribution {
    /// Summed duration per span kind, in nanoseconds.
    totals: BTreeMap<&'static str, (u64, u64)>,
    request_ns: u64,
    requests: u64,
    dropped: u64,
}

fn attribute(spans: &[lisa_spans::SpanRecord], dropped: u64) -> Attribution {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut request_ns = 0;
    let mut requests = 0;
    for span in spans {
        let entry = totals.entry(span.kind.as_str()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += span.dur_ns;
        if span.kind == SpanKind::Request {
            request_ns += span.dur_ns;
            requests += 1;
        }
    }
    Attribution { totals, request_ns, requests, dropped }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let repeats: u32 = if quick { 2 } else { 5 };
    // Sized so one worker thread's span volume (~8 spans/request, all
    // landing in that thread's shard) stays inside the server's 16k
    // flight recorder without wrapping.
    let clients: usize = 4;
    let per_client: usize = if quick { 20 } else { 40 };

    let mut out = String::new();
    writeln!(out, "E14 — span-layer overhead and request-time attribution").unwrap();
    writeln!(out).unwrap();

    // Part 1: cycle-loop overhead across the three instrumentation
    // states (compiled mode, best of {repeats}).
    writeln!(out, "cycle-loop overhead (compiled mode, best of {repeats})").unwrap();
    writeln!(
        out,
        "{:<18} {:>8} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "kernel", "cycles", "plain c/s", "off c/s", "on c/s", "off ovh", "on ovh"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(90)).unwrap();

    let recorder = Arc::new(SpanRecorder::new(1 << 16));
    let suites: [(Workbench, Vec<kernels::Kernel>); 2] = [
        (vliw62::workbench().expect("vliw62 builds"), kernels::vliw_suite()),
        (accu16::workbench().expect("accu16 builds"), kernels::accu_suite()),
    ];
    let (mut plain_total, mut off_total, mut on_total) = (0.0f64, 0.0f64, 0.0f64);
    let mut n = 0.0f64;
    for (wb, suite) in &suites {
        for kernel in suite {
            let (cycles, plain) = measure(wb, kernel, Config::Baseline, &recorder, repeats);
            let (_, off) = measure(wb, kernel, Config::Disabled, &recorder, repeats);
            let (_, on) = measure(wb, kernel, Config::Enabled, &recorder, repeats);
            let plain_cps = cycles as f64 / plain.as_secs_f64();
            let off_cps = cycles as f64 / off.as_secs_f64();
            let on_cps = cycles as f64 / on.as_secs_f64();
            writeln!(
                out,
                "{:<18} {:>8} {:>13.0} {:>13.0} {:>13.0} {:>8.1}% {:>8.1}%",
                kernel.name,
                cycles,
                plain_cps,
                off_cps,
                on_cps,
                (plain_cps / off_cps - 1.0) * 100.0,
                (plain_cps / on_cps - 1.0) * 100.0,
            )
            .unwrap();
            plain_total += plain_cps.ln();
            off_total += off_cps.ln();
            on_total += on_cps.ln();
            n += 1.0;
        }
    }
    let off_overhead = ((plain_total / n).exp() / (off_total / n).exp() - 1.0) * 100.0;
    let on_overhead = ((plain_total / n).exp() / (on_total / n).exp() - 1.0) * 100.0;
    writeln!(out, "{}", "-".repeat(90)).unwrap();
    writeln!(
        out,
        "geometric means: spans-off overhead {off_overhead:.1}%, spans-on overhead {on_overhead:.1}%"
    )
    .unwrap();
    writeln!(out).unwrap();

    // Part 2: where a /v1/simulate request's wall-clock time goes, per
    // worker-pool size, measured from the server's own span recorder.
    writeln!(
        out,
        "request-time attribution ({clients} keep-alive clients x {per_client} /v1/simulate each)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>9} {:>12} {:>11} {:>8} {:>10} {:>11} {:>8} {:>8}",
        "workers",
        "requests",
        "req avg us",
        "queue_wait",
        "parse",
        "assemble",
        "run",
        "serialize",
        "write"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(92)).unwrap();

    let body = br#"{"model": "tinyrisc", "program": "LDI R1, 20\nLDI R2, 22\nADD R3, R1, R2\nHLT\n", "dump": [["R", 4]]}"#;
    let request = format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        String::from_utf8_lossy(body)
    )
    .into_bytes();

    let mut queue_wait_shares: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, 4] {
        let (addr, state, handle, join) = boot(workers);
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                let request = request.clone();
                std::thread::spawn(move || client(addr, &request, per_client))
            })
            .collect();
        for thread in threads {
            thread.join().expect("client thread");
        }
        handle.shutdown();
        join.join().expect("server thread");

        let spans = state.spans().collect();
        let att = attribute(&spans, state.spans().dropped());
        let share = |kind: SpanKind| -> f64 {
            let (_, ns) = att.totals.get(kind.as_str()).copied().unwrap_or((0, 0));
            ns as f64 / att.request_ns.max(1) as f64 * 100.0
        };
        queue_wait_shares.push((workers, share(SpanKind::QueueWait)));
        writeln!(
            out,
            "{:<8} {:>9} {:>12.0} {:>10.1}% {:>7.1}% {:>9.1}% {:>10.1}% {:>7.1}% {:>7.1}%",
            workers,
            att.requests,
            att.request_ns as f64 / att.requests.max(1) as f64 / 1000.0,
            share(SpanKind::QueueWait),
            share(SpanKind::Parse),
            share(SpanKind::Assemble),
            share(SpanKind::Run),
            share(SpanKind::Serialize),
            share(SpanKind::Write),
        )
        .unwrap();
        if att.dropped > 0 {
            writeln!(
                out,
                "  (flight recorder wrapped: {} span(s) overwritten; shares are over the retained window)",
                att.dropped
            )
            .unwrap();
        }
    }

    writeln!(out).unwrap();
    writeln!(out, "notes: queue_wait sums each connection's one-off wait for a worker,").unwrap();
    writeln!(out, "relative to summed request time — above 100% means connections in").unwrap();
    writeln!(out, "aggregate waited longer than they were served, the contention").unwrap();
    writeln!(out, "signature of an undersized pool. That wait collapses to ~0% by 4").unwrap();
    writeln!(out, "workers, which pins down E13's flat 1->4 scaling: the bottleneck is").unwrap();
    writeln!(out, "not queueing but the serial per-connection pipeline — each keep-alive").unwrap();
    writeln!(out, "connection is owned by one worker, and its request time is dominated").unwrap();
    writeln!(out, "by the serve layer (parse/route/serialize/write plus the assemble+run").unwrap();
    writeln!(out, "work), which added workers cannot shorten for an already-pinned").unwrap();
    writeln!(out, "connection.").unwrap();
    for (workers, share) in &queue_wait_shares {
        writeln!(out, "  queue_wait share at {workers} worker(s): {share:.2}%").unwrap();
    }
    writeln!(out).unwrap();
    writeln!(out, "acceptance gate: spans-off geomean overhead < 2% (measured {off_overhead:.2}%)")
        .unwrap();

    write_report("e14_span_overhead.txt", &out);

    if off_overhead >= 2.0 {
        eprintln!("E14 GATE FAILED: spans-disabled overhead {off_overhead:.2}% >= 2%");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
