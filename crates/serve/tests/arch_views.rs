//! The service's arch views are computed when they are read, from
//! per-model sums of raw counts. After a sequence of `/v1/simulate`
//! requests, `GET /v1/debug/arch` and the `lisa_arch_*` series of
//! `GET /metrics` must equal, byte for byte, the views built the direct
//! way: each program run on a `Simulator`, the per-run profiles merged
//! with `ArchProfile::merge`, and the merge published into a fresh
//! registry with `publish_arch`.

use lisa_metrics::json::escape;
use lisa_metrics::Registry;
use lisa_models::kernels::{accu_dot_product, scalar_memsum, tiny_fib, vliw_dot_product};
use lisa_serve::http::{Request, Response};
use lisa_serve::service::no_deadline;
use lisa_serve::AppState;
use lisa_sim::{publish_arch, ArchProfile, ProbeSpec, SimMode, Simulator};

fn dispatch(state: &AppState, method: &str, target: &str, body: String) -> Response {
    let req = Request {
        method: method.to_owned(),
        target: target.to_owned(),
        http11: true,
        headers: Vec::new(),
        body: body.into_bytes(),
    };
    state.dispatch(&req, no_deadline())
}

fn get(state: &AppState, target: &str) -> String {
    let resp = dispatch(state, "GET", target, String::new());
    assert_eq!(resp.status, 200);
    String::from_utf8(resp.body).expect("utf-8 body")
}

/// The `lisa_arch_*` lines of a Prometheus exposition, help and type
/// lines included.
fn arch_lines(exposition: &str) -> Vec<&str> {
    exposition.lines().filter(|l| l.contains("lisa_arch_")).collect()
}

/// One `/v1/simulate` request of the sequence.
struct Run {
    model: &'static str,
    source: String,
    mode: SimMode,
    probes: &'static [&'static str],
}

impl Run {
    fn body(&self) -> String {
        let mode = if self.mode == SimMode::Interpretive { "interp" } else { "ops" };
        let probes: Vec<String> = self.probes.iter().map(|p| escape(p)).collect();
        format!(
            r#"{{"model": "{}", "program": {}, "mode": "{mode}", "probes": [{}]}}"#,
            self.model,
            escape(&self.source),
            probes.join(", ")
        )
    }

    /// The run's profile, taken directly on a simulator set up the way
    /// the service sets one up.
    fn profile(&self, state: &AppState) -> ArchProfile {
        let served = state.models().iter().find(|m| m.name == self.model).expect("served");
        let program = served.workbench.assembler().assemble(&self.source).expect("assembles");
        let mut sim = Simulator::new(&served.model, self.mode).expect("simulator builds");
        if !self.probes.is_empty() {
            let spec = ProbeSpec::parse(&self.probes.join("; ")).expect("probes parse");
            sim.set_probes(spec.compile(&served.model).expect("probes compile"));
        }
        sim.enable_arch_profile();
        sim.load_program_at(served.program_memory, program.origin, &program.words)
            .expect("program loads");
        let halt = served.model.resource_by_name(served.halt_flag).expect("halt flag").clone();
        sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 100_000).expect("halts");
        sim.arch_profile().expect("profiling is on")
    }
}

#[test]
fn arch_views_equal_the_merged_per_run_profiles() {
    let state = AppState::new();
    assert!(arch_lines(&get(&state, "/metrics")).is_empty(), "no arch series before a run");

    // A request that fails adds nothing, and publishes nothing.
    let bad = Run {
        model: "tinyrisc",
        source: tiny_fib(4).source,
        mode: SimMode::Ops,
        probes: &["watch nonexistent"],
    };
    assert_eq!(dispatch(&state, "POST", "/v1/simulate", bad.body()).status, 422);
    assert!(arch_lines(&get(&state, "/metrics")).is_empty(), "a 422 publishes nothing");

    let mut runs = Vec::new();
    for mode in [SimMode::Ops, SimMode::Interpretive] {
        for (model, source) in [
            ("tinyrisc", tiny_fib(10).source),
            ("accu16", accu_dot_product(8).source),
            ("scalar2", scalar_memsum(8).source),
            ("vliw62", vliw_dot_product(8).source),
        ] {
            runs.push(Run { model, source, mode, probes: &[] });
        }
    }
    // Two requests with probes, sharing the `reg R[3]` label.
    let source = "LDI R1, 6\nLDI R2, 7\nMUL R3, R1, R2\nHLT\n";
    runs.push(Run {
        model: "tinyrisc",
        source: source.to_owned(),
        mode: SimMode::Ops,
        probes: &["reg R[3]", "trace 2"],
    });
    runs.push(Run {
        model: "tinyrisc",
        source: source.to_owned(),
        mode: SimMode::Interpretive,
        probes: &["reg R[3]"],
    });

    let mut expected = ArchProfile::new();
    for run in &runs {
        let resp = dispatch(&state, "POST", "/v1/simulate", run.body());
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        expected.merge(&run.profile(&state));
    }
    assert_eq!(expected.hits["reg R[3]"], 2, "both probe runs hit the shared label");

    assert_eq!(get(&state, "/v1/debug/arch"), expected.to_json());
    let registry = Registry::new();
    publish_arch(&registry, &expected);
    let published = registry.snapshot().to_prometheus();
    let scraped = get(&state, "/metrics");
    assert_eq!(arch_lines(&scraped), arch_lines(&published));
    assert!(scraped.contains(&format!("lisa_arch_cycles {}\n", expected.cycles)));
}
