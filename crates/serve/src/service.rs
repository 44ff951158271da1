//! Request routing and the endpoint handlers.
//!
//! [`AppState`] owns everything a request needs — the builtin model
//! registry (each model parsed and analysed once at startup, the way
//! the paper generates its tool suite once per description) and the
//! shared metrics [`Registry`]. [`AppState::dispatch`] is a pure
//! `Request -> Response` function over that state, so the whole request
//! path is testable without a socket.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lisa_conform::{publish_fuzz, CoverageMap, Fault, FuzzConfig, Fuzzer, Reproducer};
use lisa_core::Model;
use lisa_exec::{BatchObserver, BatchRunner};
use lisa_metrics::Registry;
use lisa_models::kernels::full_matrix;
use lisa_models::{accu16, scalar2, tinyrisc, vliw62, Workbench};
use lisa_sim::{
    publish_arch, ArchCounts, ArchProfile, ProbeSpec, SimError, SimMode, Simulator, StopReason,
};
use lisa_spans::{export, SpanKind, SpanRecorder, SpanScope};

use crate::api::{
    self, AssembleRequest, BatchRequest, FuzzRequest, SimulateOutcome, SimulateRequest,
};
use crate::http::{Request, Response};

/// One builtin model, ready to serve requests.
pub struct ServedModel {
    /// Registry name (`tinyrisc`, `accu16`, `scalar2`, `vliw62`).
    pub name: &'static str,
    /// The analysed model database, shared with [`ServedModel::workbench`].
    pub model: Arc<Model>,
    /// Program-memory resource programs load into.
    pub program_memory: &'static str,
    /// Halt-flag resource.
    pub halt_flag: &'static str,
    /// The workbench over the same model: its program assembler serves
    /// `/v1/assemble` and `/v1/simulate`, and `/v1/fuzz` runs on it.
    pub workbench: Workbench,
    /// The arch counts of every `/v1/simulate` run on this model, summed:
    /// folded to names only when `/v1/debug/arch` or `/metrics` is read.
    arch: Mutex<ArchCounts>,
}

/// Span-ring capacity for the always-on request tracer: a flight
/// recorder, large enough to hold several hundred request trees.
const SPAN_CAPACITY: usize = 16 * 1024;

/// Upper bound on `seed_count` per `/v1/fuzz` request — larger ranges
/// belong to a coordinator fanning out chunks, not one request.
const MAX_FUZZ_PROGRAMS: u64 = 100_000;

/// Upper bound on `/v1/fuzz` `max_len` (matches the generator's image
/// ceiling).
const MAX_FUZZ_LEN: u64 = 2048;

/// Upper bound on `/v1/fuzz` `max_cycles`.
const MAX_FUZZ_CYCLES: u64 = 10_000_000;

/// Shared service state: the models, each with the arch counts of its
/// runs summed, the metrics registry and the span recorder.
pub struct AppState {
    models: Vec<ServedModel>,
    registry: Registry,
    spans: Arc<SpanRecorder>,
    /// Span-ring drop count already published to the registry, so each
    /// `/metrics` scrape adds only the delta.
    spans_dropped_published: AtomicU64,
    /// Probe hits by label, merged across the `/v1/simulate` runs that
    /// set probes.
    arch_hits: Mutex<BTreeMap<String, u64>>,
    /// Per-model coding-tree coverage merged across every `/v1/fuzz`
    /// request, so the `lisa_fuzz_paths_covered` gauge is monotone.
    fuzz_coverage: Mutex<BTreeMap<&'static str, CoverageMap>>,
    /// Process start, for the `lisa_uptime_seconds` gauge.
    started: Instant,
}

impl AppState {
    /// Builds every builtin model and an empty metrics registry.
    ///
    /// # Panics
    ///
    /// Panics if a bundled model fails to build (a bug, covered by
    /// model tests).
    #[must_use]
    pub fn new() -> AppState {
        let served = |name, workbench: Workbench| ServedModel {
            name,
            model: Arc::clone(workbench.shared_model()),
            program_memory: workbench.program_memory(),
            halt_flag: workbench.halt_flag(),
            workbench,
            arch: Mutex::default(),
        };
        let models = vec![
            served("tinyrisc", tinyrisc::workbench().expect("tinyrisc builds")),
            served("accu16", accu16::workbench().expect("accu16 builds")),
            served("scalar2", scalar2::workbench().expect("scalar2 builds")),
            served("vliw62", vliw62::workbench().expect("vliw62 builds")),
        ];
        let registry = Registry::new();
        // The one place every exposition carries a version signal.
        registry
            .gauge(
                "lisa_build_info",
                "Build information; the value is always 1.",
                &[("version", env!("CARGO_PKG_VERSION"))],
            )
            .set(1);
        let spans = Arc::new(SpanRecorder::new(SPAN_CAPACITY));
        spans.set_enabled(true);
        AppState {
            models,
            registry,
            spans,
            spans_dropped_published: AtomicU64::new(0),
            arch_hits: Mutex::default(),
            fuzz_coverage: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }

    /// The shared metrics registry (exposed at `GET /metrics`).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shared span recorder (exposed at `GET /v1/debug/spans`).
    /// Enabled by default; disable with
    /// [`SpanRecorder::set_enabled`]`(false)` to shrink the request path
    /// to one branch per would-be span.
    #[must_use]
    pub fn spans(&self) -> &Arc<SpanRecorder> {
        &self.spans
    }

    /// The served model registry.
    #[must_use]
    pub fn models(&self) -> &[ServedModel] {
        &self.models
    }

    fn model(&self, name: &str) -> Option<&ServedModel> {
        self.models.iter().find(|m| m.name == name)
    }

    /// Routes one request to its handler, records per-endpoint counters
    /// and latency, and returns the response. `deadline` bounds the
    /// handler's work (simulations stop and answer 504 when it passes).
    pub fn dispatch(&self, req: &Request, deadline: Instant) -> Response {
        self.dispatch_spanned(req, deadline, None)
    }

    /// [`AppState::dispatch`] with a span context: routing and the
    /// handler's phases (`assemble`, `run`, `serialize`) are recorded as
    /// children of `spans`'s parent (the connection's `request` span).
    pub fn dispatch_spanned(
        &self,
        req: &Request,
        deadline: Instant,
        spans: Option<&SpanScope>,
    ) -> Response {
        let started = Instant::now();
        let (endpoint, response) = match spans {
            Some(scope) => {
                let route = scope.start(SpanKind::Route);
                let route_scope = scope.child(route.id());
                self.route(req, deadline, Some(&route_scope))
            }
            None => self.route(req, deadline, None),
        };
        let status = response.status.to_string();
        self.registry
            .counter(
                "lisa_serve_requests_total",
                "HTTP requests served, by endpoint and status.",
                &[("endpoint", endpoint), ("status", &status)],
            )
            .inc();
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.registry
            .histogram(
                "lisa_serve_request_duration_us",
                "Request handling latency in microseconds.",
                &[("endpoint", endpoint)],
            )
            .observe(micros);
        response
    }

    /// The route table. Returns the endpoint label used for metrics
    /// (unknown paths share one label so they can't explode cardinality).
    fn route(
        &self,
        req: &Request,
        deadline: Instant,
        spans: Option<&SpanScope>,
    ) -> (&'static str, Response) {
        match (req.method.as_str(), req.target.split('?').next().unwrap_or("")) {
            ("GET", "/healthz") => ("/healthz", Response::text(200, "ok\n")),
            ("GET", "/metrics") => ("/metrics", self.handle_metrics()),
            ("GET", "/v1/models") => ("/v1/models", self.handle_models()),
            ("GET", "/v1/debug/spans") => ("/v1/debug/spans", self.handle_spans(&req.target)),
            ("GET", "/v1/debug/arch") => ("/v1/debug/arch", self.handle_arch()),
            ("POST", "/v1/assemble") => ("/v1/assemble", self.handle_assemble(&req.body)),
            ("POST", "/v1/simulate") => {
                ("/v1/simulate", self.handle_simulate(&req.body, deadline, spans))
            }
            ("POST", "/v1/batch") => ("/v1/batch", self.handle_batch(&req.body, spans)),
            ("POST", "/v1/fuzz") => ("/v1/fuzz", self.handle_fuzz(&req.body, deadline)),
            (
                _,
                "/healthz" | "/metrics" | "/v1/models" | "/v1/debug/spans" | "/v1/debug/arch"
                | "/v1/assemble" | "/v1/simulate" | "/v1/batch" | "/v1/fuzz",
            ) => ("method_not_allowed", Response::json(405, api::error_body("method not allowed"))),
            _ => ("not_found", Response::json(404, api::error_body("no such route"))),
        }
    }

    /// `GET /metrics`: the Prometheus exposition. Span-ring overflow is
    /// folded into the registry right before the snapshot, so the scrape
    /// that reports loss is never stale; uptime, the scrape counter and,
    /// once a run has been summed, the `lisa_arch_*` gauges of the merged
    /// profile are refreshed the same way.
    fn handle_metrics(&self) -> Response {
        self.registry
            .counter("lisa_metrics_scrapes_total", "Scrapes of the /metrics endpoint.", &[])
            .inc();
        let uptime = i64::try_from(self.started.elapsed().as_secs()).unwrap_or(i64::MAX);
        self.registry
            .gauge("lisa_uptime_seconds", "Seconds since the service started.", &[])
            .set(uptime);
        let dropped = self.spans.dropped();
        let published = self.spans_dropped_published.swap(dropped, Ordering::Relaxed);
        let delta = dropped.saturating_sub(published);
        if delta > 0 {
            self.registry
                .counter(
                    "lisa_spans_dropped_total",
                    "Spans overwritten because a span ring wrapped.",
                    &[],
                )
                .add(delta);
        }
        if self.models.iter().any(|m| lock(&m.arch).runs() > 0) {
            publish_arch(&self.registry, &self.arch_profile());
        }
        Response::prometheus(self.registry.snapshot().to_prometheus())
    }

    /// `GET /v1/debug/spans?limit=N&format=chrome|json`: the recorder's
    /// current contents, newest-biased. The default JSON object carries
    /// raw-nanosecond spans plus the drop count; `format=chrome` returns
    /// a Chrome trace-event array that loads directly in Perfetto.
    fn handle_spans(&self, target: &str) -> Response {
        let query = target.split_once('?').map_or("", |(_, q)| q);
        let mut limit = 2048usize;
        let mut format = "json";
        for pair in query.split('&') {
            match pair.split_once('=') {
                Some(("limit", v)) => match v.parse::<usize>() {
                    Ok(n) => limit = n,
                    Err(_) => {
                        return Response::json(400, api::error_body("bad `limit` value"));
                    }
                },
                Some(("format", v)) => format = v,
                _ => {}
            }
        }
        let mut spans = self.spans.collect();
        if spans.len() > limit {
            // Keep the newest spans (collect() sorts by start time).
            spans.drain(..spans.len() - limit);
        }
        match format {
            "chrome" => Response::json(200, export::to_chrome_trace(&spans)),
            "json" => {
                let spans: Vec<String> = spans.iter().map(export::span_json).collect();
                let body = format!(
                    "{{\"enabled\": {}, \"dropped\": {}, \"spans\": [{}]}}",
                    self.spans.is_enabled(),
                    self.spans.dropped(),
                    spans.join(", ")
                );
                Response::json(200, body)
            }
            _ => Response::json(400, api::error_body("unknown `format` (json|chrome)")),
        }
    }

    /// `GET /v1/debug/arch`: the architectural profile merged across
    /// every `/v1/simulate` run since startup.
    fn handle_arch(&self) -> Response {
        Response::json(200, self.arch_profile().to_json())
    }

    /// Every served model's summed arch counts folded to names and
    /// merged, with the probe hits.
    fn arch_profile(&self) -> ArchProfile {
        let mut profile = ArchProfile::new();
        for m in &self.models {
            profile.merge(&lock(&m.arch).fold(&m.model));
        }
        profile.hits.clone_from(&lock(&self.arch_hits));
        profile
    }

    fn handle_models(&self) -> Response {
        let mut body = String::from("{\"models\": [");
        for (i, m) in self.models.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&format!(
                "{{\"name\": \"{}\", \"operations\": {}, \"resources\": {}, \
                 \"program_memory\": \"{}\", \"halt_flag\": \"{}\"}}",
                m.name,
                m.model.operations().len(),
                m.model.resources().len(),
                m.program_memory,
                m.halt_flag
            ));
        }
        body.push_str("]}");
        Response::json(200, body)
    }

    fn handle_assemble(&self, body: &[u8]) -> Response {
        let req = match AssembleRequest::from_json(body) {
            Ok(r) => r,
            Err(e) => return Response::json(400, api::error_body(&e)),
        };
        let Some(served) = self.model(&req.model) else {
            return Response::json(404, api::error_body(&format!("unknown model `{}`", req.model)));
        };
        match served.workbench.assembler().assemble(&req.program) {
            Ok(program) => Response::json(
                200,
                api::assemble_body(program.origin, &program.words, &program.listing),
            ),
            Err(e) => Response::json(422, api::error_body(&e.to_string())),
        }
    }

    fn handle_simulate(
        &self,
        body: &[u8],
        deadline: Instant,
        spans: Option<&SpanScope>,
    ) -> Response {
        let req = match SimulateRequest::from_json(body) {
            Ok(r) => r,
            Err(e) => return Response::json(400, api::error_body(&e)),
        };
        let Some(served) = self.model(&req.model) else {
            return Response::json(404, api::error_body(&format!("unknown model `{}`", req.model)));
        };
        let mode: SimMode = match req.mode.parse() {
            Ok(mode) => mode,
            // 422, not 400: the request is well-formed JSON with a
            // semantically invalid field value.
            Err(e) => return Response::json(422, api::error_body(&e)),
        };

        let program = {
            let _span = spans.map(|s| s.start(SpanKind::Assemble));
            match served.workbench.assembler().assemble(&req.program) {
                Ok(p) => p,
                Err(e) => return Response::json(422, api::error_body(&e.to_string())),
            }
        };
        let run = {
            let span = spans.map(|s| s.start(SpanKind::Run));
            // The simulator's phases (predecode, cycle chunks) nest
            // under the run span.
            let run_scope = match (spans, &span) {
                (Some(s), Some(g)) => Some(s.child(g.id())),
                _ => None,
            };
            simulate(
                served,
                mode,
                &program.words,
                program.origin,
                &req,
                deadline,
                run_scope.as_ref(),
            )
        };
        match run {
            Ok(outcome) => {
                let _span = spans.map(|s| s.start(SpanKind::Serialize));
                // Empty unless the request set probes: no lock otherwise.
                for (label, n) in outcome.probes.iter().filter(|(_, n)| *n > 0) {
                    *lock(&self.arch_hits).entry(label.clone()).or_default() += n;
                }
                Response::json(200, api::simulate_body(&outcome))
            }
            Err(SimulateError::Deadline) => {
                Response::json(504, api::error_body("deadline exceeded"))
            }
            Err(SimulateError::Sim(msg)) => Response::json(422, api::error_body(&msg)),
        }
    }

    /// `POST /v1/fuzz`: run the four-oracle conformance fuzzer over one
    /// iteration range. The request deadline is polled between
    /// iterations; an expired deadline answers 504 rather than returning
    /// a partial report, so fleet coordinators never merge truncated
    /// coverage silently. Self-check requests (deliberate fault
    /// injection) skip the `lisa_fuzz_*` metrics and the merged coverage
    /// so they cannot pollute real conformance data.
    fn handle_fuzz(&self, body: &[u8], deadline: Instant) -> Response {
        let req = match FuzzRequest::from_json(body) {
            Ok(r) => r,
            Err(e) => return Response::json(400, api::error_body(&e)),
        };
        let Some(served) = self.model(&req.model) else {
            return Response::json(404, api::error_body(&format!("unknown model `{}`", req.model)));
        };
        for (field, value, max) in [
            ("seed_count", req.seed_count, MAX_FUZZ_PROGRAMS),
            ("max_len", req.max_len, MAX_FUZZ_LEN),
            ("max_cycles", req.max_cycles, MAX_FUZZ_CYCLES),
        ] {
            if value == 0 || value > max {
                let message = format!("field `{field}` must be between 1 and {max}");
                return Response::json(422, api::error_body(&message));
            }
        }
        if req.seed_start.checked_add(req.seed_count).is_none() {
            return Response::json(422, api::error_body("seed range overflows"));
        }

        let config = FuzzConfig {
            seed: req.seed,
            start: req.seed_start,
            iters: req.seed_count,
            max_len: req.max_len as usize,
            max_cycles: req.max_cycles,
            fault: req.self_check.then_some(Fault { at_cycle: 0 }),
        };
        let fuzzer = match Fuzzer::new(&served.workbench, config) {
            Ok(f) => f,
            Err(e) => return Response::json(500, api::error_body(&e.to_string())),
        };
        let report = fuzzer.run_guarded(|| Instant::now() >= deadline);
        if report.stopped {
            return Response::json(504, api::error_body("deadline exceeded"));
        }
        let reproducers: Vec<Reproducer> =
            report.failure.iter().map(|f| fuzzer.reproducer(served.name, f)).collect();

        if req.self_check {
            let caught = report.failure.is_some();
            if !caught {
                return Response::json(
                    500,
                    api::error_body("self_check: injected backend fault was NOT caught"),
                );
            }
            return Response::json(
                200,
                api::fuzz_body(&req, &report, &reproducers, Some(true), None),
            );
        }

        let merged_paths = {
            let mut merged = lock(&self.fuzz_coverage);
            let entry = merged.entry(served.name).or_default();
            entry.merge(&report.coverage);
            entry.len()
        };
        publish_fuzz(&self.registry, served.name, &report, merged_paths);
        let distilled = if req.distill { Some(fuzzer.distill()) } else { None };
        Response::json(200, api::fuzz_body(&req, &report, &reproducers, None, distilled.as_ref()))
    }

    fn handle_batch(&self, body: &[u8], spans: Option<&SpanScope>) -> Response {
        let req = match BatchRequest::from_json(body) {
            Ok(r) => r,
            Err(e) => return Response::json(400, api::error_body(&e)),
        };
        let modes = match SimMode::parse_set(&req.mode) {
            Ok(modes) => modes,
            Err(e) => return Response::json(422, api::error_body(&e)),
        };
        let started = Instant::now();
        let matrix = match full_matrix() {
            Ok(m) => m,
            Err(e) => return Response::json(500, api::error_body(&e.to_string())),
        };
        let scenarios: Vec<_> = matrix
            .iter()
            .flat_map(|(wb, kernels)| {
                kernels
                    .iter()
                    .flat_map(move |k| modes.iter().map(move |&mode| wb.scenario(k, mode)))
            })
            .collect();
        let mut observer = BatchObserver::new().with_metrics(&self.registry);
        if let Some(scope) = spans {
            observer = observer.with_spans(scope.clone());
        }
        let report = BatchRunner::new(req.workers).run_observed(&scenarios, &observer);
        let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        Response::json(
            200,
            api::batch_body(
                report.jobs.len(),
                report.failures().len(),
                report.total_cycles(),
                elapsed,
            ),
        )
    }
}

impl Default for AppState {
    fn default() -> AppState {
        AppState::new()
    }
}

/// Locks `mutex`, taking the data of a poisoned lock as it is.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

enum SimulateError {
    Deadline,
    Sim(String),
}

/// Runs one simulation with both a cycle budget and a wall-clock
/// deadline. The deadline is checked every 1024 control steps so the
/// hot loop stays free of syscalls. Probes from the request are armed
/// before the run; the arch profile is always on, and a run that
/// succeeds adds its raw counts into the model's sum, so the service's
/// `/v1/debug/arch` view covers every run.
fn simulate(
    served: &ServedModel,
    mode: SimMode,
    words: &[u128],
    origin: u64,
    req: &SimulateRequest,
    deadline: Instant,
    spans: Option<&SpanScope>,
) -> Result<SimulateOutcome, SimulateError> {
    let sim_err = |e: SimError| SimulateError::Sim(e.to_string());
    let mut sim = Simulator::new(&served.model, mode).map_err(sim_err)?;
    sim.set_spans(spans.cloned());
    if !req.probes.is_empty() {
        let spec = ProbeSpec::parse(&req.probes.join("; "))
            .map_err(|e| SimulateError::Sim(e.to_string()))?;
        let set = spec.compile(&served.model).map_err(|e| SimulateError::Sim(e.to_string()))?;
        sim.set_probes(set);
    }
    sim.enable_arch_profile();
    sim.load_program_at(served.program_memory, origin, words).map_err(sim_err)?;
    let halt = served
        .model
        .resource_by_name(served.halt_flag)
        .ok_or_else(|| SimulateError::Sim(format!("no `{}` flag", served.halt_flag)))?
        .clone();

    let mut ticks: u32 = 0;
    let mut timed_out = false;
    let outcome = sim.run_until(
        |st| {
            if st.read_int(&halt, &[]).unwrap_or(0) != 0 {
                return true;
            }
            ticks = ticks.wrapping_add(1);
            if ticks.is_multiple_of(1024) && Instant::now() >= deadline {
                timed_out = true;
                return true;
            }
            false
        },
        req.max_cycles,
    );
    let (cycles, halted, stop) = match outcome {
        Ok(out) if timed_out => (out.cycles, false, StopReason::Halted),
        Ok(out) => (out.cycles, out.reason == StopReason::Halted, out.reason),
        Err(SimError::StepLimit { .. }) => (req.max_cycles, false, StopReason::Halted),
        Err(e) => return Err(sim_err(e)),
    };
    if timed_out {
        return Err(SimulateError::Deadline);
    }
    let report = sim.probe_report();
    let breakpoint = match stop {
        StopReason::Breakpoint { probe, pc } => {
            let label = report
                .get(probe as usize)
                .map_or_else(|| format!("probe #{probe}"), |(label, _)| label.clone());
            Some((label, pc))
        }
        StopReason::Halted => None,
    };
    let mut dump = Vec::new();
    for (name, count) in &req.dump {
        let res = served
            .model
            .resource_by_name(name)
            .ok_or_else(|| SimulateError::Sim(format!("unknown dump resource `{name}`")))?;
        let values = if res.is_array() {
            let base = res.dims.first().map_or(0, |d| d.base()) as i64;
            (0..(*count).min(res.element_count() as usize))
                .map(|i| sim.state().read_int(res, &[base + i as i64]).map_err(sim_err))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            vec![sim.state().read_int(res, &[]).map_err(sim_err)?]
        };
        dump.push((name.clone(), values));
    }
    sim.add_arch_counts_into(&mut lock(&served.arch));
    Ok(SimulateOutcome {
        cycles,
        halted,
        instructions_retired: sim.stats().instructions_retired,
        state_digest: sim.state().digest(),
        dump,
        probes: report,
        breakpoint,
    })
}

/// A far-future deadline for contexts without a per-request timeout
/// (tests, the bench client's in-process dispatch).
#[must_use]
pub fn no_deadline() -> Instant {
    Instant::now() + Duration::from_secs(86_400)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(state: &AppState, target: &str) -> Response {
        let req = Request {
            method: "GET".to_owned(),
            target: target.to_owned(),
            http11: true,
            headers: Vec::new(),
            body: Vec::new(),
        };
        state.dispatch(&req, no_deadline())
    }

    fn post(state: &AppState, target: &str, body: &str) -> Response {
        let req = Request {
            method: "POST".to_owned(),
            target: target.to_owned(),
            http11: true,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        state.dispatch(&req, no_deadline())
    }

    #[test]
    fn healthz_and_models_respond() {
        let state = AppState::new();
        assert_eq!(get(&state, "/healthz").status, 200);
        let models = get(&state, "/v1/models");
        assert_eq!(models.status, 200);
        let text = String::from_utf8(models.body).unwrap();
        for name in ["tinyrisc", "accu16", "scalar2", "vliw62"] {
            assert!(text.contains(name), "{text}");
        }
    }

    #[test]
    fn assemble_and_simulate_happy_path() {
        let state = AppState::new();
        let resp = post(
            &state,
            "/v1/assemble",
            r#"{"model": "tinyrisc", "program": "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nHLT\n"}"#,
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"words\""), "{text}");

        let resp = post(
            &state,
            "/v1/simulate",
            r#"{"model": "tinyrisc", "program": "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nHLT\n"}"#,
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"halted\": true"), "{text}");
    }

    #[test]
    fn interp_and_compiled_agree_on_the_digest() {
        let state = AppState::new();
        let body = |mode: &str| {
            format!(
                r#"{{"model": "tinyrisc", "program": "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nHLT\n", "mode": "{mode}"}}"#
            )
        };
        let a = post(&state, "/v1/simulate", &body("interp"));
        let b = post(&state, "/v1/simulate", &body("compiled"));
        assert_eq!(a.status, 200);
        let digest = |r: &Response| {
            let text = String::from_utf8(r.body.clone()).unwrap();
            let key = "\"state_digest\": ";
            let at = text.find(key).unwrap() + key.len();
            text[at..].split(',').next().unwrap().to_owned()
        };
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn batch_all_queues_one_interp_and_one_ops_job_per_scenario() {
        use lisa_metrics::MetricValue;
        let state = AppState::new();
        let resp = post(&state, "/v1/batch", r#"{"mode": "all"}"#);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        // Every job records its latency under its `kernel@Mode` name.
        let mut jobs: Vec<(String, u64)> = state
            .registry
            .snapshot()
            .metrics
            .into_iter()
            .filter(|(k, _)| k.name == "lisa_exec_job_duration_us")
            .map(|(k, v)| match v {
                MetricValue::Histogram(h) => (k.labels[0].1.clone(), h.count),
                other => panic!("{other:?}"),
            })
            .collect();
        jobs.sort();
        let mut want: Vec<(String, u64)> = full_matrix()
            .unwrap()
            .iter()
            .flat_map(|(_, kernels)| kernels.iter())
            .flat_map(|k| ["Interpretive", "Ops"].map(|m| (format!("{}@{m}", k.name), 1)))
            .collect();
        want.sort();
        assert_eq!(jobs, want);
    }

    #[test]
    fn unknown_model_is_404_and_bad_asm_is_422() {
        let state = AppState::new();
        let resp = post(&state, "/v1/assemble", r#"{"model": "z80", "program": "NOP"}"#);
        assert_eq!(resp.status, 404);
        let resp =
            post(&state, "/v1/assemble", r#"{"model": "tinyrisc", "program": "FROBNICATE R1"}"#);
        assert_eq!(resp.status, 422);
        let resp = post(&state, "/v1/simulate", r#"{"broken": true}"#);
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn routes_404_and_405() {
        let state = AppState::new();
        assert_eq!(get(&state, "/nope").status, 404);
        assert_eq!(post(&state, "/healthz", "").status, 405);
        assert_eq!(get(&state, "/v1/simulate").status, 405);
    }

    #[test]
    fn budget_exhaustion_reports_halted_false() {
        let state = AppState::new();
        // An infinite loop: branch to self.
        let resp = post(
            &state,
            "/v1/simulate",
            r#"{"model": "tinyrisc", "program": "loop: JMP loop\n", "max_cycles": 50}"#,
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"halted\": false"), "{text}");
        assert!(text.contains("\"cycles\": 50"), "{text}");
    }

    #[test]
    fn a_passed_deadline_is_a_504() {
        let state = AppState::new();
        let req = Request {
            method: "POST".to_owned(),
            target: "/v1/simulate".to_owned(),
            http11: true,
            headers: Vec::new(),
            body:
                br#"{"model": "tinyrisc", "program": "loop: JMP loop\n", "max_cycles": 100000000}"#
                    .to_vec(),
        };
        let resp = state.dispatch(&req, Instant::now());
        assert_eq!(resp.status, 504, "{}", String::from_utf8_lossy(&resp.body));
    }

    #[test]
    fn metrics_negotiates_prometheus_and_healthz_stays_plain() {
        let state = AppState::new();
        let resp = get(&state, "/metrics");
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.headers.get("Content-Type").map(String::as_str),
            Some("text/plain; version=0.0.4; charset=utf-8")
        );
        let text = String::from_utf8(resp.body).unwrap();
        let build_line = format!("lisa_build_info{{version=\"{}\"}} 1", env!("CARGO_PKG_VERSION"));
        assert!(text.contains(&build_line), "build info missing from:\n{text}");

        let resp = get(&state, "/healthz");
        assert_eq!(
            resp.headers.get("Content-Type").map(String::as_str),
            Some("text/plain; charset=utf-8")
        );
    }

    #[test]
    fn debug_spans_reports_a_connected_simulate_tree() {
        use lisa_metrics::json::{self, Value};

        let state = AppState::new();
        // Stand in for the server front end: a request span with the
        // handler's phases dispatched beneath it.
        let recorder = Arc::clone(state.spans());
        let trace = recorder.new_trace();
        let request = recorder.start(trace, 0, SpanKind::Request, 1);
        let scope =
            SpanScope { recorder: Arc::clone(&recorder), trace, parent: request.id(), worker: 1 };
        let req = Request {
            method: "POST".to_owned(),
            target: "/v1/simulate".to_owned(),
            http11: true,
            headers: Vec::new(),
            body: br#"{"model": "tinyrisc", "program": "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nHLT\n"}"#.to_vec(),
        };
        let resp = state.dispatch_spanned(&req, no_deadline(), Some(&scope));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        drop(request);

        let resp = get(&state, "/v1/debug/spans?limit=512");
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("valid JSON");
        let spans: Vec<&Value> = doc
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans array")
            .iter()
            .filter(|s| s.get("trace").and_then(Value::as_u64) == Some(trace))
            .collect();
        let names: Vec<&str> =
            spans.iter().filter_map(|s| s.get("name").and_then(Value::as_str)).collect();
        for expected in ["request", "route", "assemble", "run", "serialize", "cycle_chunk"] {
            assert!(names.contains(&expected), "missing `{expected}` in {names:?}");
        }
        // Single connected tree: exactly one root, every parent resolves.
        let ids: std::collections::BTreeSet<u64> =
            spans.iter().filter_map(|s| s.get("span").and_then(Value::as_u64)).collect();
        assert_eq!(ids.len(), spans.len());
        let roots =
            spans.iter().filter(|s| s.get("parent").and_then(Value::as_u64) == Some(0)).count();
        assert_eq!(roots, 1, "one root in {names:?}");
        for s in &spans {
            let parent = s.get("parent").and_then(Value::as_u64).unwrap();
            assert!(parent == 0 || ids.contains(&parent), "dangling parent {parent}");
        }
    }

    #[test]
    fn debug_spans_chrome_format_is_an_event_array() {
        use lisa_metrics::json::{self, Value};

        let state = AppState::new();
        let resp =
            post(&state, "/v1/simulate", r#"{"model": "tinyrisc", "program": "LDI R1, 1\nHLT\n"}"#);
        assert_eq!(resp.status, 200);
        // Unspanned dispatch records nothing; synthesize one span so the
        // chrome array is non-empty.
        let trace = state.spans().new_trace();
        let t0 = state.spans().now_ns();
        state.spans().record(trace, 0, SpanKind::Request, 0, t0, 10);

        let resp = get(&state, "/v1/debug/spans?format=chrome");
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("valid JSON");
        let events = doc.as_array().expect("array form");
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.get("ph").and_then(Value::as_str) == Some("X")));

        assert_eq!(get(&state, "/v1/debug/spans?format=nope").status, 400);
        assert_eq!(get(&state, "/v1/debug/spans?limit=bogus").status, 400);
        assert_eq!(post(&state, "/v1/debug/spans", "").status, 405);
    }

    #[test]
    fn debug_spans_limit_keeps_the_newest() {
        use lisa_metrics::json::{self, Value};

        let state = AppState::new();
        for i in 0..10 {
            let trace = state.spans().new_trace();
            state.spans().record(trace, 0, SpanKind::Request, 0, i * 100, 10);
        }
        let resp = get(&state, "/v1/debug/spans?limit=3");
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let spans = doc.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 3);
        let starts: Vec<u64> =
            spans.iter().filter_map(|s| s.get("start_ns").and_then(Value::as_u64)).collect();
        assert_eq!(starts, [700, 800, 900], "newest three survive the limit");
    }

    #[test]
    fn simulate_with_probes_reports_hits() {
        use lisa_metrics::json;

        let state = AppState::new();
        let resp = post(
            &state,
            "/v1/simulate",
            r#"{"model": "tinyrisc", "program": "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nHLT\n",
                "probes": ["reg R[3]", "watch dmem", "trace 2"]}"#,
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("halted").and_then(json::Value::as_bool), Some(true));
        let probes = doc.get("probes").expect("probes object");
        assert_eq!(probes.get("reg R[3]").and_then(json::Value::as_u64), Some(1));
        assert_eq!(probes.get("watch dmem").and_then(json::Value::as_u64), Some(0));
        assert_eq!(probes.get("trace 2").and_then(json::Value::as_u64), Some(1));
        assert!(doc.get("probe_hits").and_then(json::Value::as_u64).unwrap_or(0) >= 2);
        assert!(doc.get("breakpoint").is_none(), "nothing stopped this run");
    }

    #[test]
    fn simulate_breakpoint_stops_the_run_and_is_reported() {
        use lisa_metrics::json;

        let state = AppState::new();
        let resp = post(
            &state,
            "/v1/simulate",
            r#"{"model": "tinyrisc", "program": "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nHLT\n",
                "probes": ["break 2"]}"#,
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("halted").and_then(json::Value::as_bool), Some(false));
        let bp = doc.get("breakpoint").expect("breakpoint object");
        assert_eq!(bp.get("probe").and_then(json::Value::as_str), Some("break 2"));
        assert_eq!(bp.get("pc").and_then(json::Value::as_f64), Some(2.0));
    }

    #[test]
    fn bad_probe_specs_are_422() {
        let state = AppState::new();
        let body = |probe: &str| {
            format!(r#"{{"model": "tinyrisc", "program": "HLT\n", "probes": ["{probe}"]}}"#)
        };
        // Parse error: unknown clause keyword.
        let resp = post(&state, "/v1/simulate", &body("frobnicate dmem"));
        assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));
        // Compile error: no such resource.
        let resp = post(&state, "/v1/simulate", &body("watch nonexistent"));
        assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));
    }

    #[test]
    fn debug_arch_serves_the_merged_profile() {
        use lisa_metrics::json;

        let state = AppState::new();
        // Before any run: an empty profile, still valid JSON.
        let resp = get(&state, "/v1/debug/arch");
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("cycles").and_then(json::Value::as_u64), Some(0));

        let body = r#"{"model": "tinyrisc", "program": "LDI R1, 1\nLDI R2, 3\nST R1, R2\nHLT\n"}"#;
        assert_eq!(post(&state, "/v1/simulate", body).status, 200);
        let resp = get(&state, "/v1/debug/arch");
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let first = doc.get("cycles").and_then(json::Value::as_u64).expect("cycles");
        assert!(first > 0);
        assert!(doc.get("op_execs").is_some(), "op table present");

        // A second run merges on top instead of replacing.
        assert_eq!(post(&state, "/v1/simulate", body).status, 200);
        let resp = get(&state, "/v1/debug/arch");
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let second = doc.get("cycles").and_then(json::Value::as_u64).expect("cycles");
        assert_eq!(second, first * 2);

        // The utilization gauges landed in the registry.
        let text = String::from_utf8(get(&state, "/metrics").body).unwrap();
        assert!(text.contains("lisa_arch_cycles"), "{text}");

        assert_eq!(post(&state, "/v1/debug/arch", "").status, 405);
    }

    #[test]
    fn fuzz_happy_path_reports_coverage_and_metrics() {
        use lisa_metrics::json;

        let state = AppState::new();
        let resp =
            post(&state, "/v1/fuzz", r#"{"model": "tinyrisc", "seed_count": 20, "max_len": 8}"#);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("iterations").and_then(json::Value::as_u64), Some(20));
        assert_eq!(doc.get("passed").and_then(json::Value::as_bool), Some(true));
        assert_eq!(doc.get("stopped").and_then(json::Value::as_bool), Some(false));
        let paths = doc.get("coverage").unwrap().get("paths").and_then(json::Value::as_u64);
        assert!(paths.unwrap() > 0, "no coverage recorded");
        assert!(doc.get("reproducers").unwrap().as_array().unwrap().is_empty());

        let text = String::from_utf8(get(&state, "/metrics").body).unwrap();
        assert!(text.contains("lisa_fuzz_programs_total{model=\"tinyrisc\"} 20"), "{text}");
        assert!(text.contains("lisa_fuzz_paths_covered{model=\"tinyrisc\"}"), "{text}");
        assert!(text.contains("lisa_fuzz_divergences_total{model=\"tinyrisc\"} 0"), "{text}");
    }

    #[test]
    fn fuzz_coverage_gauge_is_monotone_across_requests() {
        use lisa_metrics::{MetricKey, MetricValue};

        let state = AppState::new();
        let body = |start: u64| {
            format!(r#"{{"model": "tinyrisc", "seed_start": {start}, "seed_count": 10}}"#)
        };
        let gauge = |state: &AppState| {
            let snap = state.registry().snapshot();
            let key = MetricKey::new("lisa_fuzz_paths_covered", &[("model", "tinyrisc")]);
            match snap.metrics.get(&key) {
                Some(&MetricValue::Gauge(v)) => v,
                other => panic!("gauge missing: {other:?}"),
            }
        };
        assert_eq!(post(&state, "/v1/fuzz", &body(0)).status, 200);
        let first = gauge(&state);
        assert_eq!(post(&state, "/v1/fuzz", &body(10)).status, 200);
        let second = gauge(&state);
        assert!(second >= first, "coverage gauge regressed: {first} -> {second}");
        // Replaying the same range cannot shrink (or inflate) coverage.
        assert_eq!(post(&state, "/v1/fuzz", &body(0)).status, 200);
        assert_eq!(gauge(&state), second);
    }

    #[test]
    fn fuzz_validates_the_request() {
        let state = AppState::new();
        assert_eq!(post(&state, "/v1/fuzz", "not json").status, 400);
        assert_eq!(post(&state, "/v1/fuzz", r#"{"model": "z80"}"#).status, 404);
        for bad in [
            r#"{"model": "tinyrisc", "seed_count": 0}"#,
            r#"{"model": "tinyrisc", "seed_count": 100000000}"#,
            r#"{"model": "tinyrisc", "max_len": 0}"#,
            r#"{"model": "tinyrisc", "max_len": 1000000}"#,
            r#"{"model": "tinyrisc", "max_cycles": 0}"#,
            r#"{"model": "tinyrisc", "seed_start": 18446744073709551615, "seed_count": 2}"#,
        ] {
            let resp = post(&state, "/v1/fuzz", bad);
            assert_eq!(resp.status, 422, "{bad}: {}", String::from_utf8_lossy(&resp.body));
        }
        assert_eq!(get(&state, "/v1/fuzz").status, 405);
    }

    #[test]
    fn fuzz_self_check_catches_and_shrinks_the_injected_fault() {
        use lisa_metrics::json;

        let state = AppState::new();
        let resp = post(
            &state,
            "/v1/fuzz",
            r#"{"model": "tinyrisc", "seed_count": 4, "self_check": true}"#,
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("self_check_caught").and_then(json::Value::as_bool), Some(true));
        let reps = doc.get("reproducers").unwrap().as_array().unwrap();
        assert_eq!(reps.len(), 1, "the injected fault must come back as a reproducer");
        // A fault at cycle 0 diverges even on the empty (all-halt)
        // image, so the minimal reproducer can be zero words.
        let words = reps[0].get("words").unwrap().as_array().unwrap();
        assert!(words.len() <= 4, "not shrunk: {} words", words.len());

        // Deliberate faults never pollute the real conformance metrics.
        let text = String::from_utf8(get(&state, "/metrics").body).unwrap();
        assert!(!text.contains("lisa_fuzz_divergences_total"), "{text}");
    }

    #[test]
    fn fuzz_deadline_is_a_504() {
        let state = AppState::new();
        let req = Request {
            method: "POST".to_owned(),
            target: "/v1/fuzz".to_owned(),
            http11: true,
            headers: Vec::new(),
            body: br#"{"model": "tinyrisc", "seed_count": 100000}"#.to_vec(),
        };
        let resp = state.dispatch(&req, Instant::now());
        assert_eq!(resp.status, 504, "{}", String::from_utf8_lossy(&resp.body));
    }

    #[test]
    fn fuzz_distill_covers_exactly_the_run() {
        use lisa_metrics::json;

        let state = AppState::new();
        let resp = post(
            &state,
            "/v1/fuzz",
            r#"{"model": "tinyrisc", "seed_count": 30, "max_len": 8, "distill": true}"#,
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let run_paths =
            doc.get("coverage").unwrap().get("paths").and_then(json::Value::as_u64).unwrap();
        let distilled = doc.get("distilled").expect("distilled section");
        assert_eq!(distilled.get("paths").and_then(json::Value::as_u64), Some(run_paths));
        let indices = distilled.get("indices").unwrap().as_array().unwrap();
        assert!(!indices.is_empty() && indices.len() <= 30);
    }

    #[test]
    fn metrics_expose_uptime_and_scrape_counter() {
        let state = AppState::new();
        let text = String::from_utf8(get(&state, "/metrics").body).unwrap();
        assert!(text.contains("lisa_metrics_scrapes_total 1"), "{text}");
        assert!(text.contains("lisa_uptime_seconds"), "{text}");
        let text = String::from_utf8(get(&state, "/metrics").body).unwrap();
        assert!(text.contains("lisa_metrics_scrapes_total 2"), "{text}");
    }

    #[test]
    fn metrics_count_dispatches_per_endpoint() {
        use lisa_metrics::{MetricKey, MetricValue};

        let state = AppState::new();
        for _ in 0..3 {
            assert_eq!(get(&state, "/healthz").status, 200);
        }
        assert_eq!(get(&state, "/nope").status, 404);
        let snap = state.registry().snapshot();
        let key = MetricKey::new(
            "lisa_serve_requests_total",
            &[("endpoint", "/healthz"), ("status", "200")],
        );
        assert_eq!(snap.metrics.get(&key), Some(&MetricValue::Counter(3)));
        let key = MetricKey::new(
            "lisa_serve_requests_total",
            &[("endpoint", "not_found"), ("status", "404")],
        );
        assert_eq!(snap.metrics.get(&key), Some(&MetricValue::Counter(1)));
        // The /metrics endpoint itself gets counted and timed.
        let text = String::from_utf8(get(&state, "/metrics").body).unwrap();
        assert!(text.contains("lisa_serve_request_duration_us_bucket"), "{text}");
    }
}
