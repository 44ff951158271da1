//! The `serve-short` workload: `lisa-serve` in-process on loopback with
//! two workers, driven by a closed loop of two keep-alive clients
//! posting `/v1/simulate` requests; and the serve section of the traced
//! run, which replays in-process the public calls `handle_simulate`
//! makes, in the same order, to break a request down by layer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lisa_conform::Rng;
use lisa_metrics::json::{self, escape};
use lisa_serve::api::{self, SimulateOutcome, SimulateRequest};
use lisa_serve::http::{parse_request, Limits, Request, Response};
use lisa_serve::service::no_deadline;
use lisa_serve::{AppState, ServeConfig, Server, ServerHandle};
use lisa_sim::{publish_arch, ArchProfile, SimMode, Simulator};
use lisa_spans::SpanKind;

use crate::kernels::{assembler, load, standard_suite, Traced, MODELS};
use crate::report::{
    host_factor_on, mean, median, print_breakdown, shuffle, timed, Calibration, EndToEnd, Layers,
    Round, SetupTimes, Stage,
};

/// Closed-loop clients, each on one keep-alive connection.
const CLIENTS: usize = 2;

/// Windows per group of [`crate::report::median_of_best_low`]: 1, the
/// median window. How the scheduler places two clients and two workers
/// on two cores makes some windows faster as well as some slower, so
/// the best of a group would follow the scheduler, not the code.
const BEST_OF: usize = 1;

/// Server worker threads.
const WORKERS: usize = 2;

/// A model, kernel names from its standard suite, and `mode` fields.
type MixEntry = (&'static str, &'static [&'static str], &'static [Option<&'static str>]);

/// The request mix: standard-suite kernels per model and the `mode`
/// field sent (`None`: omitted, the server default). Restricted so that
/// the simulated run is a minority of request time.
const MIX: [MixEntry; 4] = [
    ("tinyrisc", &["tiny_fib_20", "tiny_memsum_24"], &[None, Some("ops"), Some("interp")]),
    (
        "accu16",
        &["accu_dot_32", "accu_scale_24", "accu_fir_unrolled_4x12"],
        &[None, Some("ops"), Some("interp")],
    ),
    ("scalar2", &["scalar_dot_24", "scalar_memsum_32"], &[None, Some("ops"), Some("interp")]),
    ("vliw62", &["vliw_vecadd_24", "vliw_biquad_16"], &[None, Some("ops")]),
];

/// One request of the mix with its expected outcome.
struct Req {
    model: usize,
    wire: Vec<u8>,
    cycles: u64,
    digest: String,
}

/// Builds the request mix and the expected (cycles, digest) of each,
/// from an in-process interpretive run of the same program loaded the
/// way the service loads it.
fn mix(state: &AppState) -> Vec<Req> {
    let mut reqs = Vec::new();
    for (name, kernel_names, modes) in MIX {
        let m = MODELS.iter().position(|&n| n == name).expect("known model");
        let served = state.models().iter().find(|s| s.name == name).expect("served model");
        for kernel in
            standard_suite(m).into_iter().filter(|k| kernel_names.contains(&k.name.as_str()))
        {
            let program = assembler(&served.model).assemble(&kernel.source).expect("assembles");
            let mut sim = Simulator::new(&served.model, SimMode::Interpretive).expect("builds");
            load(
                &mut sim,
                &served.model,
                served.program_memory,
                program.origin,
                &program.words,
                &[],
            );
            let halt = served.model.resource_by_name(served.halt_flag).expect("halt flag").clone();
            let out = sim
                .run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 100_000)
                .expect("reference run halts");
            let digest = format!("{:#018x}", sim.state().digest());
            for mode in modes {
                let mode_field = mode.map_or(String::new(), |md| format!(", \"mode\": \"{md}\""));
                let body = format!(
                    "{{\"model\": \"{name}\", \"program\": {}{mode_field}}}",
                    escape(&kernel.source)
                );
                let wire = format!(
                    "POST /v1/simulate HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes();
                reqs.push(Req { model: m, wire, cycles: out.cycles, digest: digest.clone() });
            }
        }
    }
    reqs
}

/// Whether a `/v1/simulate` response is a 200 that halted with the
/// expected cycles and state digest.
fn response_ok(status: u16, body: &[u8], req: &Req) -> bool {
    let Ok(doc) =
        std::str::from_utf8(body).map_err(|_| ()).and_then(|t| json::parse(t).map_err(|_| ()))
    else {
        return false;
    };
    status == 200
        && doc.get("halted").and_then(json::Value::as_bool) == Some(true)
        && doc.get("cycles").and_then(json::Value::as_u64) == Some(req.cycles)
        && doc.get("state_digest").and_then(json::Value::as_str) == Some(req.digest.as_str())
}

/// Reads one `Content-Length`-framed response off a keep-alive socket.
fn read_response(conn: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<(u16, Vec<u8>)> {
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) {
            let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
            let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
            let need: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            if buf.len() >= head_end + need {
                let body = buf[head_end..head_end + need].to_vec();
                buf.drain(..head_end + need);
                return Ok((status, body));
            }
        }
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// A closed-loop client on one keep-alive connection, sending the mix
/// in seeded shuffled passes.
struct Client<'r> {
    reqs: &'r [Req],
    conn: TcpStream,
    buf: Vec<u8>,
    rng: Rng,
    order: Vec<usize>,
    next: usize,
    attempted: u64,
    failed: u64,
    broken: bool,
}

impl<'r> Client<'r> {
    fn connect(addr: SocketAddr, reqs: &'r [Req], seed: u64) -> Client<'r> {
        let conn = TcpStream::connect(addr).expect("connect to the in-process server");
        conn.set_nodelay(true).expect("nodelay");
        conn.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        let order = (0..reqs.len()).collect();
        let rng = Rng::new(seed);
        Client {
            reqs,
            conn,
            buf: Vec::new(),
            rng,
            order,
            next: reqs.len(),
            attempted: 0,
            failed: 0,
            broken: false,
        }
    }

    /// Sends the next request of the mix. Returns its round trip in
    /// microseconds and its simulated cycles when the response is right.
    fn request(&mut self) -> Option<(f64, u64)> {
        if self.next == self.order.len() {
            shuffle(&mut self.order, &mut self.rng);
            self.next = 0;
        }
        let req = &self.reqs[self.order[self.next]];
        self.next += 1;
        self.attempted += 1;
        let t = Instant::now();
        let reply = self
            .conn
            .write_all(&req.wire)
            .and_then(|()| read_response(&mut self.conn, &mut self.buf));
        let us = t.elapsed().as_secs_f64() * 1e6;
        match reply {
            Ok((status, body)) if response_ok(status, &body, req) => Some((us, req.cycles)),
            Ok(_) => {
                self.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("client: {e}");
                self.failed += 1;
                self.broken = true;
                None
            }
        }
    }

    /// Requests until `end`: each correct request's round trip and
    /// cycles, and when the last one completed.
    fn window(&mut self, end: Instant) -> (Vec<(f64, u64)>, Instant) {
        let mut samples = Vec::new();
        while !self.broken && Instant::now() < end {
            samples.extend(self.request());
        }
        (samples, Instant::now())
    }
}

/// A booted service: its state, address and the thread running it.
struct Booted {
    state: Arc<AppState>,
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<()>,
}

/// `AppState::new` plus `Server::bind`: the service's set-up.
fn build() -> (Arc<AppState>, Server) {
    let state = Arc::new(AppState::new());
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        queue: 64,
        timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let server = Server::bind(config, Arc::clone(&state)).expect("bind loopback");
    (state, server)
}

fn boot(state: Arc<AppState>, server: Server) -> Booted {
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || {
        server.run().expect("server runs");
    });
    Booted { state, addr, handle, thread }
}

impl Booted {
    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread");
    }
}

/// Length of one measurement window of a session.
const WINDOW: Duration = Duration::from_millis(250);

/// A closed-loop session of [`CLIENTS`] clients until `deadline`: one
/// warm-up pass over the mix per client, then [`WINDOW`]-long rounds.
/// Between two windows every client and worker is idle, and the session
/// takes the [`host_factor_on`] both cores that scales the next window.
///
/// Returns the rounds, the requests attempted and failed, and the time on
/// the server's span clock when the warm-up ended.
fn session(b: &Booted, reqs: &[Req], seed: u64, deadline: Instant) -> (Vec<Round>, u64, u64, u64) {
    let mut clients: Vec<Client<'_>> = (0..CLIENTS)
        .map(|c| Client::connect(b.addr, reqs, seed ^ (0x636c_6965_6e74 + c as u64)))
        .collect();
    std::thread::scope(|s| {
        for c in &mut clients {
            s.spawn(move || {
                for _ in 0..reqs.len() {
                    c.request();
                }
            });
        }
    });
    let warm_ns = b.state.spans().now_ns();
    let mut rounds = Vec::new();
    loop {
        // Let the workers finish the last window's bookkeeping first.
        std::thread::sleep(Duration::from_millis(2));
        let factor = host_factor_on(Calibration::Interpreter, WORKERS);
        let start = Instant::now();
        let end = start + WINDOW;
        let outs: Vec<(Vec<(f64, u64)>, Instant)> = std::thread::scope(|s| {
            let handles: Vec<_> =
                clients.iter_mut().map(|c| s.spawn(move || c.window(end))).collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let raw_secs = outs.iter().map(|o| o.1).max().unwrap_or(end).duration_since(start);
        let samples: Vec<(f64, u64)> = outs.into_iter().flat_map(|o| o.0).collect();
        rounds.push(Round {
            ops: samples.len() as f64,
            secs: factor * raw_secs.as_secs_f64(),
            raw_secs: raw_secs.as_secs_f64(),
            cycles: samples.iter().map(|s| s.1 as f64).sum(),
            latencies_us: samples.iter().map(|s| factor * s.0).collect(),
        });
        if Instant::now() >= deadline || clients.iter().any(|c| c.broken) {
            break;
        }
    }
    let attempted = clients.iter().map(|c| c.attempted).sum();
    let failed = clients.iter().map(|c| c.failed).sum();
    (rounds, attempted, failed, warm_ns)
}

/// Fresh server boots per untraced run. Where the scheduler places the
/// two client and two worker threads on the two cores sets a session's
/// throughput for its whole life, so each boot is a fresh draw.
const SESSIONS: u32 = 8;

/// The untraced `serve-short` workload: [`SESSIONS`] sessions, each on a
/// freshly booted server, splitting the budget.
pub fn run(seed: u64, budget: Duration) -> EndToEnd {
    let mut setup = SetupTimes::default();
    let (state, server) = setup.repeat(build);
    let reqs = mix(&state);
    let mut e2e = EndToEnd::default();
    let mut rounds = Vec::new();
    let mut first = Some((state, server));
    for i in 0..SESSIONS {
        let (state, server) = first.take().unwrap_or_else(build);
        let booted = boot(state, server);
        let deadline = Instant::now() + budget / SESSIONS;
        let (session_rounds, attempted, failed, _) =
            session(&booted, &reqs, seed.wrapping_add(u64::from(i)), deadline);
        booted.stop();
        rounds.extend(session_rounds);
        e2e.attempted += attempted;
        e2e.failed += failed;
    }
    drop(setup.repeat(build));
    e2e.setup_s = setup.seconds();
    e2e.summarize(&rounds, BEST_OF);
    e2e
}

/// Stage times of one replayed `/v1/simulate` handling, in microseconds.
#[derive(Default, Clone)]
struct Replay {
    decode: f64,
    assemble: f64,
    new: f64,
    arm: f64,
    load: f64,
    predecode: f64,
    run: f64,
    extract: f64,
    merge: f64,
    body: f64,
}

/// Replays, in-process and in order, the public calls `handle_simulate`
/// makes for one request. Returns the response it would send.
fn replay(state: &AppState, aggregate: &Mutex<ArchProfile>, req: &Request) -> (Response, Replay) {
    let mut t = Replay::default();
    let (sreq, us) = timed(|| SimulateRequest::from_json(&req.body).expect("request decodes"));
    t.decode = us;
    let served = state.models().iter().find(|m| m.name == sreq.model).expect("served model");
    let mode = match sreq.mode.as_str() {
        "interp" | "interpretive" => SimMode::Interpretive,
        "ops" => SimMode::Ops,
        _ => SimMode::Compiled,
    };
    let (program, us) =
        timed(|| assembler(&served.model).assemble(&sreq.program).expect("assembles"));
    t.assemble = us;
    let (sim, us) = timed(|| Simulator::new(&served.model, mode).expect("builds"));
    t.new = us;
    let mut sim = sim;
    t.arm = timed(|| {
        sim.set_spans(None);
        sim.enable_arch_profile();
    })
    .1;
    t.load = timed(|| {
        load(&mut sim, &served.model, served.program_memory, program.origin, &program.words, &[]);
    })
    .1;
    if mode != SimMode::Interpretive {
        t.predecode = timed(|| sim.predecode_program_memory()).1;
    }
    let deadline = no_deadline();
    let (outcome, us) = timed(|| {
        let halt = served.model.resource_by_name(served.halt_flag).expect("halt flag").clone();
        let mut ticks: u32 = 0;
        sim.run_until(
            |st| {
                if st.read_int(&halt, &[]).unwrap_or(0) != 0 {
                    return true;
                }
                ticks = ticks.wrapping_add(1);
                ticks.is_multiple_of(1024) && Instant::now() >= deadline
            },
            sreq.max_cycles,
        )
    });
    t.run = us;
    let out = outcome.expect("replayed run halts");
    let ((outcome, profile), us) = timed(|| {
        let probes = sim.probe_report();
        let profile = sim.arch_profile().unwrap_or_default();
        let outcome = SimulateOutcome {
            cycles: out.cycles,
            halted: true,
            instructions_retired: sim.stats().instructions_retired,
            state_digest: sim.state().digest(),
            dump: Vec::new(),
            probes,
            breakpoint: None,
        };
        (outcome, profile)
    });
    t.extract = us;
    t.merge = timed(|| {
        let mut arch = aggregate.lock().expect("aggregate lock");
        arch.merge(&profile);
        publish_arch(state.registry(), &arch);
    })
    .1;
    let (response, us) = timed(|| Response::json(200, api::simulate_body(&outcome)));
    t.body = us;
    (response, t)
}

/// The traced serve section: a short session for the per-connection
/// queue-wait spans, a live session for the first half of the budget
/// (round trips against the server's own request spans), then the
/// in-process replay (parse, dispatch, and the handler's stages, in the
/// order `handle_simulate` runs them) until `deadline`.
pub fn section(seed: u64, deadline: Instant, layers: &mut Layers) -> Traced {
    let (state, server) = build();
    let reqs = mix(&state);
    let booted = boot(state, server);
    // Queue wait is recorded once per connection, and a long session
    // wraps the span ring, so read it from a short session of its own.
    booted.state.spans().clear();
    let (_, mut attempted, mut failed, _) = session(&booted, &reqs, seed, Instant::now());
    let queue_waits: Vec<f64> = booted
        .state
        .spans()
        .collect()
        .iter()
        .filter(|s| s.kind == SpanKind::QueueWait)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    let now = Instant::now();
    let live_deadline = now + deadline.saturating_duration_since(now) / 2;
    booted.state.spans().clear();
    let (rounds, live_attempted, live_failed, warm_ns) =
        session(&booted, &reqs, seed, live_deadline);
    attempted += live_attempted;
    failed += live_failed;
    // The server's own spans of the measured requests (the most recent
    // ones when the ring wrapped; never the warm-up, whose round trips
    // are not measured): request = read+parse, dispatch, write.
    let live_spans = booted.state.spans().collect();
    let span_mean = |kind: SpanKind| {
        mean(
            &live_spans
                .iter()
                .filter(|s| s.kind == kind && s.start_ns >= warm_ns)
                .map(|s| s.dur_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let (request_span, parse_span, route_span, write_span) = (
        span_mean(SpanKind::Request),
        span_mean(SpanKind::Parse),
        span_mean(SpanKind::Route),
        span_mean(SpanKind::Write),
    );
    let state = Arc::clone(&booted.state);
    booted.stop();

    let mut traced =
        Traced { attempted, failed, path: EndToEnd::default(), unaccounted_share: 0.0 };
    traced.path.summarize(&rounds, BEST_OF);
    // Round trips as measured, to set against the server's own spans.
    let rtt: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_us.iter().map(move |us| us * r.raw_secs / r.secs))
        .collect();

    let aggregate = Mutex::new(ArchProfile::new());
    let limits = Limits::default();
    let mut rng = Rng::new(seed ^ 0x7265_706c_6179);
    let mut parse = Vec::new();
    let mut write = Vec::new();
    let mut dispatch: Vec<Vec<f64>> = vec![Vec::new(); MODELS.len()];
    let mut stages: Vec<Replay> = Vec::new();
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    loop {
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let r = &reqs[i];
            let (parsed, us) = timed(|| parse_request(&r.wire, &limits));
            parse.push(us);
            let Ok(Some((request, _))) = parsed else {
                traced.failed += 1;
                continue;
            };
            let (response, us) = timed(|| state.dispatch(&request, no_deadline()));
            dispatch[r.model].push(us);
            let (replayed, t) = replay(&state, &aggregate, &request);
            stages.push(t);
            let mut sink = Vec::new();
            write.push(timed(|| replayed.write_to(&mut sink, false).expect("in-memory write")).1);
            traced.attempted += 2;
            for resp in [&response, &replayed] {
                if !response_ok(resp.status, &resp.body, r) {
                    traced.failed += 1;
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let col = |f: fn(&Replay) -> f64| mean(&stages.iter().map(f).collect::<Vec<_>>());
    let all_dispatch: Vec<f64> = dispatch.iter().flatten().copied().collect();
    let inside: f64 = [
        col(|t| t.decode),
        col(|t| t.assemble),
        col(|t| t.new),
        col(|t| t.arm),
        col(|t| t.load),
        col(|t| t.predecode),
        col(|t| t.run),
        col(|t| t.extract),
        col(|t| t.merge),
        col(|t| t.body),
    ]
    .iter()
    .sum();
    let transport = mean(&rtt) - request_span;
    let unaccounted = mean(&all_dispatch) - inside;
    layers.set("serve.http_parse_us", median(&parse));
    layers.set(
        "serve.request_decode_us",
        median(&stages.iter().map(|t| t.decode).collect::<Vec<_>>()),
    );
    layers.set(
        "serve.response_encode_us",
        median(&stages.iter().zip(&write).map(|(t, w)| t.body + w).collect::<Vec<_>>()),
    );
    for (m, name) in MODELS.iter().enumerate() {
        layers.set(format!("serve.dispatch_us.{name}"), median(&dispatch[m]));
    }
    layers.set("serve.transport_us", transport);
    layers.set("serve.queue_wait_us", median(&queue_waits));
    layers.set("serve.unaccounted_us", unaccounted);

    println!("  serve: {} live round trips, {} queue-wait spans", rtt.len(), queue_waits.len());
    let live_rows = [
        Stage { name: "transport (client+net)", layer: "serve", self_us: transport },
        Stage { name: "read+parse span", layer: "serve", self_us: parse_span },
        Stage { name: "dispatch span", layer: "serve", self_us: route_span },
        Stage { name: "write span", layer: "serve", self_us: write_span },
    ];
    print_breakdown("/v1/simulate round trip (live, server spans)", mean(&rtt), &live_rows);
    let rows = [
        Stage { name: "request decode", layer: "serve", self_us: col(|t| t.decode) },
        Stage { name: "assemble", layer: "asm", self_us: col(|t| t.assemble) },
        Stage { name: "Simulator::new", layer: "sim", self_us: col(|t| t.new) },
        Stage { name: "enable_arch_profile", layer: "probe", self_us: col(|t| t.arm) },
        Stage { name: "load", layer: "sim", self_us: col(|t| t.load) },
        Stage { name: "predecode", layer: "sim", self_us: col(|t| t.predecode) },
        Stage { name: "run_until", layer: "sim", self_us: col(|t| t.run) },
        Stage { name: "outcome+arch_profile", layer: "probe", self_us: col(|t| t.extract) },
        Stage { name: "arch merge+publish", layer: "probe", self_us: col(|t| t.merge) },
        Stage { name: "response body", layer: "serve", self_us: col(|t| t.body) },
    ];
    traced.unaccounted_share =
        print_breakdown("AppState::dispatch (in-process replay)", mean(&all_dispatch), &rows);
    traced
}
