//! Experiments E10, E12, E14 and E16: cost of observing a simulation —
//! the event trace (`lisa-trace`), boundary metrics (`lisa-metrics`),
//! cycle-loop spans (`lisa-spans`), probes and the architecture profile
//! (`lisa-probe`).
//!
//! Every observation hook in both backends sits behind one
//! `Option`-is-some branch, so with nothing installed a simulation must
//! run at the fast-path speed. This table measures ops-mode throughput
//! on the kernel suite under each configuration:
//!
//! * **plain** — nothing installed: the disabled path every user pays
//!   by default. Measured twice; the second pass is the gated **off**
//!   column, so the gate also bounds measurement noise honestly.
//! * **metrics** — the run plus `publish_metrics` into a warm registry,
//!   the publish timed with the run: what an instrumented run pays at
//!   its boundary. Gated.
//! * **spans-off** — a span scope on a *disabled* recorder: one
//!   atomic-bool branch per `SPAN_CHUNK_STEPS` chunk. Gated.
//! * **spans-on** — the same scope on an enabled recorder: a clock read
//!   and a ring write per chunk.
//! * **trace** — `set_trace(true)`: every event recorded, in order,
//!   into the simulator's trace buffer.
//! * **empty** — a probe runtime compiled from the empty spec: no probe
//!   can match and nothing is counted. Gated.
//! * **silent** — armed watch/break probes that never fire (an
//!   unreachable breakpoint PC plus a watch on the top data-memory
//!   cell), so the cost is pure matching, not hit emission.
//! * **profile** — the architecture profile (instructions, hot PCs,
//!   stage occupancy/stalls/flushes, op/unit counters, heatmaps), the
//!   observation every `/v1/simulate` request pays. Gated.
//!
//! Methodology: every configuration is one arm of the shared kernel
//! sampler ([`lisa_bench::sampler`]; [`BUDGET_CYCLES`] simulated cycles
//! per repeat). A cell shows the arm's median ns per simulated cycle,
//! then its overhead: the median over rounds of its run time over the
//! `plain` time of the same round. The ns/cycle figures tell a dearer
//! observer from a faster `plain`, which moves every ratio alike.
//!
//! Acceptance gates on the geometric-mean overheads (the process exits 1
//! past any of them, so CI can hold the line): `off`, `metrics` and
//! `spans-off` each < 2%, `empty` < 10% and `profile` < 18%. The armed
//! bounds sit well above the highest of six `--quick` runs on a 2-vCPU
//! Xeon VM (`empty` 4.4–5.7%, `profile` 8.8–12.3%).
//!
//! `--quick` shrinks repeats (7, not 9) for CI.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use lisa_bench::model_suites;
use lisa_bench::sampler::{geomean, median, sample_rounds, Arm};
use lisa_core::ast::ResourceClass;
use lisa_metrics::Registry;
use lisa_models::{kernels, Workbench};
use lisa_sim::{ProbeSet, ProbeSpec, SimMode, Simulator};
use lisa_spans::{SpanRecorder, SpanScope};

/// The observation configurations under test, in table order (the arms
/// of [`configs`]). `plain` and `off` both install nothing; `off` is the
/// gated re-measurement.
const NAMES: [&str; 9] =
    ["plain", "off", "metrics", "spans-off", "spans-on", "trace", "empty", "silent", "profile"];

/// Gated columns: `(index into [`NAMES`], bound in %)`. The paths a
/// run pays without arming an observer (`off`, `metrics`, `spans-off`)
/// are held under 2%; the armed `empty` runtime and `profile` under
/// their own bounds.
const GATED: [(usize, f64); 5] = [(1, 2.0), (2, 2.0), (3, 2.0), (6, 10.0), (8, 18.0)];

/// Simulated cycles per repeat: a repeat holds as many rounds as runs of
/// the kernel fit in it (at most 64). Every kernel gets at least the
/// median round count of the 5 ms (`--quick`) and 10 ms wall-clock
/// budgets this replaced.
const BUDGET_CYCLES: u64 = 14_000;

/// The [`NAMES`] configurations as ops arms: `registry` stays warm across
/// samples, `spans` backs both span configurations.
fn configs<'a>(
    wb: &Workbench,
    registry: &'a Registry,
    spans: &'a Arc<SpanRecorder>,
) -> [Arm<'a>; 9] {
    let ops = || Arm::new(SimMode::Ops);
    let scope = |enabled: bool| {
        move |sim: &mut Simulator<'_>| {
            spans.set_enabled(enabled);
            sim.set_spans(Some(SpanScope::new(Arc::clone(spans), spans.new_trace())));
        }
    };
    // A watch on the last cell of the first data memory plus a breakpoint
    // on a PC no program reaches: every write is matched, nothing hits.
    let watch = wb
        .model()
        .resources()
        .iter()
        .find(|r| r.class == ResourceClass::DataMemory)
        .map(|r| format!("watch {}[{}]; ", r.name, r.element_count().saturating_sub(1)))
        .unwrap_or_default();
    let silent = ProbeSpec::parse(&format!("{watch}break -2")).expect("silent spec parses");
    [
        ops(),
        ops(),
        ops().finish(|sim| sim.publish_metrics(registry)),
        ops().setup(scope(false)),
        ops().setup(scope(true)),
        ops().setup(|sim| sim.set_trace(true)),
        ops().setup(|sim| sim.set_probes(ProbeSet::empty(sim.model()))),
        ops()
            .setup(move |sim| sim.set_probes(silent.compile(sim.model()).expect("compiles")))
            .check(|sim| assert_eq!(sim.probe_hits(), 0, "silent probes must not fire")),
        ops().setup(|sim| sim.enable_arch_profile()),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let repeats: usize = if quick { 7 } else { 9 };

    let registry = Registry::new();
    let spans = Arc::new(SpanRecorder::new(1 << 12));

    // The vliw62 and accu16 suites, as in every earlier run of this
    // table: the gates' bounds were set on them.
    let suites: Vec<_> = model_suites(false)
        .into_iter()
        .filter(|(model, ..)| matches!(*model, "vliw62" | "accu16"))
        .collect();

    let mut out = String::new();
    writeln!(
        out,
        "E10/E12/E14/E16 — observer overhead (ops mode, median of paired rounds, {repeats} x {BUDGET_CYCLES} cycles per kernel)"
    )
    .unwrap();
    writeln!(out, "each arm: median ns/cycle, then median overhead vs plain").unwrap();
    writeln!(out).unwrap();
    write!(out, "{:<22} {:>6} {:>7}", "kernel", "cycles", "plain").unwrap();
    for name in &NAMES[1..] {
        write!(out, " {name:>15}").unwrap();
    }
    writeln!(out).unwrap();
    let rule = "-".repeat(37 + 16 * (NAMES.len() - 1));
    writeln!(out, "{rule}").unwrap();

    // Per-config median ns/cycle and median time ratios vs plain, one
    // per kernel.
    let mut ns_per_cycle = vec![Vec::new(); NAMES.len()];
    let mut ratios = vec![Vec::new(); NAMES.len()];
    for (_, wb, suite) in &suites {
        let arms = configs(wb, &registry, &spans);
        for kernel in suite {
            let samples = sample_rounds(wb, kernel, &arms, repeats, BUDGET_CYCLES);
            for (i, column) in ns_per_cycle.iter_mut().enumerate() {
                column.push(median(samples.times(i)) * 1e9 / samples.cycles as f64);
            }
            let plain = ns_per_cycle[0].last().expect("pushed");
            write!(out, "{:<22} {:>6} {:>7.1}", kernel.name, samples.cycles, plain).unwrap();
            for (i, column) in ratios.iter_mut().enumerate().skip(1) {
                let r = samples.median_ratio(i, 0);
                let ns = ns_per_cycle[i].last().expect("pushed");
                write!(out, " {ns:>7.1} {:>6.1}%", (r - 1.0) * 100.0).unwrap();
                column.push(r);
            }
            writeln!(out).unwrap();
        }
    }
    let geo_ovh = |i: usize| (geomean(&ratios[i]) - 1.0) * 100.0;
    writeln!(out, "{rule}").unwrap();
    let means: Vec<String> = (0..NAMES.len())
        .map(|i| format!("{} {:.1}", NAMES[i], geomean(&ns_per_cycle[i])))
        .collect();
    writeln!(out, "geometric-mean ns/cycle: {}", means.join(", ")).unwrap();
    let means: Vec<String> =
        (1..NAMES.len()).map(|i| format!("{} {:.1}%", NAMES[i], geo_ovh(i))).collect();
    writeln!(out, "geometric-mean overheads vs plain: {}", means.join(", ")).unwrap();

    // Raw boundary-publish cost: how long one `publish_metrics` takes
    // once this thread holds the series handles.
    let (_, wb, suite) = &suites[0];
    let mut sim = kernels::load_kernel(wb, &suite[0], SimMode::Ops).expect("kernel loads");
    wb.run_to_halt(&mut sim, suite[0].max_steps).expect("kernel halts");
    sim.publish_metrics(&registry);
    let publishes = 10_000u32;
    let t = Instant::now();
    for _ in 0..publishes {
        sim.publish_metrics(&registry);
    }
    let per_publish = t.elapsed() / publishes;
    writeln!(out, "per-publish boundary cost: {per_publish:?} (amortized over a whole run)")
        .unwrap();
    out.push_str(
        "\nnotes: `off` re-measures `plain` (nothing installed, one Option-is-none branch per\n\
         event site), so it is the disabled path every run pays. `metrics` (a run-boundary\n\
         publish) and `spans-off` (a span scope on a disabled recorder) are the other paths\n\
         a run pays without arming an observer; these three are gated at 2%. The other\n\
         columns arm one observer each; `empty` and `profile` (what every /v1/simulate\n\
         request pays) are gated too. See the module docs of table_observer_overhead.rs.\n\n",
    );
    writeln!(out, "Regenerate: cargo run --release -p lisa-bench --bin table_observer_overhead")
        .unwrap();
    let measured: Vec<String> = GATED
        .iter()
        .map(|&(i, bound)| format!("{} {:.2}% (< {bound}%)", NAMES[i], geo_ovh(i)))
        .collect();
    writeln!(out, "acceptance gates, geomean overhead: {}", measured.join(", ")).unwrap();

    print!("{out}");

    if GATED.iter().any(|&(i, bound)| geo_ovh(i) >= bound) {
        eprintln!("OBSERVER-OVERHEAD GATE FAILED: {}", measured.join(", "));
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
