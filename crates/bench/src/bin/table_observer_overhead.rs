//! Experiments E10, E12, E14 and E16: cost of observing a simulation —
//! trace sinks (`lisa-trace`), boundary metrics (`lisa-metrics`),
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
//! * **ring** — a ring-buffer trace sink keeping the last 4096 events.
//! * **jsonl** — JSON-lines streaming to a null writer.
//! * **empty** — a probe runtime compiled from the empty spec: no probe
//!   can match and nothing is counted. Gated.
//! * **silent** — armed watch/break probes that never fire (an
//!   unreachable breakpoint PC plus a watch on the top data-memory
//!   cell), so the cost is pure matching, not hit emission.
//! * **profile** — the architecture profile (instructions, hot PCs,
//!   stage occupancy/stalls/flushes, op/unit counters, heatmaps), the
//!   observation every `/v1/simulate` request pays. Gated.
//!
//! Methodology: a round times one run of every configuration, back to
//! back, each on a fresh simulator right after an untimed run of its
//! own configuration (see [`sample`]). Per kernel there are `repeats` times
//! as many rounds as plain runs fit a 10 ms budget (at most 64 per
//! repeat). A cell's overhead is the median over rounds of its run time
//! over the `plain` time of the same round: pairing within a round
//! cancels the host's speed phases (seconds to minutes long), and the
//! median drops millisecond bursts.
//!
//! Acceptance gates on the geometric-mean overheads (the process exits 1
//! past any of them, so CI can hold the line): `off`, `metrics` and
//! `spans-off` each < 2%, `empty` < 10% and `profile` < 18%. The armed
//! bounds sit well above the highest of six `--quick` runs on a 2-vCPU
//! Xeon VM (`empty` 4.4–5.7%, `profile` 8.8–12.3%).
//!
//! `--quick` shrinks repeats and the budget (5 ms) for CI.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa_bench::write_report;
use lisa_core::ast::ResourceClass;
use lisa_metrics::Registry;
use lisa_models::{accu16, kernels, vliw62, Workbench};
use lisa_sim::{JsonLinesSink, ProbeSet, ProbeSpec, RingBufferSink, SimMode, Simulator};
use lisa_spans::{SpanRecorder, SpanScope};

/// The observation configurations under test, in table order. `plain`
/// and `off` both install nothing; `off` is the gated re-measurement.
const CONFIGS: [&str; 10] = [
    "plain",
    "off",
    "metrics",
    "spans-off",
    "spans-on",
    "ring",
    "jsonl",
    "empty",
    "silent",
    "profile",
];

/// Gated columns: `(index into [`CONFIGS`], bound in %)`. The paths a
/// run pays without arming an observer (`off`, `metrics`, `spans-off`)
/// are held under 2%; the armed `empty` runtime and `profile` under
/// their own bounds.
const GATED: [(usize, f64); 5] = [(1, 2.0), (2, 2.0), (3, 2.0), (7, 10.0), (9, 18.0)];

/// Shared across samples: the warm registry the `metrics` runs publish
/// into, and the recorder behind the two span configurations.
struct Observers {
    registry: Registry,
    spans: Arc<SpanRecorder>,
}

/// A watch on the last cell of the model's first data memory plus a
/// breakpoint on a PC value no program ever reaches: every write is
/// matched, nothing ever hits.
fn silent_spec(wb: &Workbench) -> ProbeSpec {
    let watch = wb
        .model()
        .resources()
        .iter()
        .find(|r| r.class == ResourceClass::DataMemory)
        .map(|r| format!("watch {}[{}]; ", r.name, r.element_count().saturating_sub(1)))
        .unwrap_or_default();
    ProbeSpec::parse(&format!("{watch}break -2")).expect("silent spec parses")
}

fn configure(wb: &Workbench, obs: &Observers, sim: &mut Simulator<'_>, config: &str) {
    match config {
        "plain" | "off" | "metrics" => {}
        "spans-off" | "spans-on" => {
            obs.spans.set_enabled(config == "spans-on");
            sim.set_spans(Some(SpanScope::new(Arc::clone(&obs.spans), obs.spans.new_trace())));
        }
        "ring" => sim.set_sink(Box::new(RingBufferSink::new(4096))),
        "jsonl" => {
            let names = sim.name_table();
            sim.set_sink(Box::new(JsonLinesSink::new(std::io::sink(), names)));
        }
        "empty" => sim.set_probes(ProbeSet::empty(sim.model())),
        "silent" => {
            let set = silent_spec(wb).compile(sim.model()).expect("silent spec compiles");
            sim.set_probes(set);
        }
        "profile" => sim.enable_arch_profile(),
        other => unreachable!("unknown config {other}"),
    }
}

/// One sample: the run time of a fresh simulation of the kernel under
/// one configuration (setup and verification excluded). It is taken
/// right after an untimed run of the same configuration, so whatever
/// the previous configuration left behind (a dropped sink or profile,
/// a cold registry) lands in the untimed run.
fn sample(wb: &Workbench, obs: &Observers, kernel: &kernels::Kernel, config: &str) -> f64 {
    let publish = (config == "metrics").then_some(&obs.registry);
    let mut elapsed = Duration::ZERO;
    for _ in 0..2 {
        let mut sim = kernels::load_kernel(wb, kernel, SimMode::Ops).expect("kernel loads");
        configure(wb, obs, &mut sim, config);
        let t = Instant::now();
        wb.run_to_halt(&mut sim, kernel.max_steps).expect("kernel halts");
        if let Some(registry) = publish {
            sim.publish_metrics(registry);
        }
        elapsed = t.elapsed();
        kernels::verify_kernel(wb, kernel, &sim);
        if config == "silent" {
            assert_eq!(sim.probe_hits(), 0, "silent probes must not fire");
        }
    }
    elapsed.as_secs_f64()
}

/// The upper median (rounds come in any count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let repeats: usize = if quick { 7 } else { 9 };
    let budget = Duration::from_millis(if quick { 5 } else { 10 });

    let obs = Observers { registry: Registry::new(), spans: Arc::new(SpanRecorder::new(1 << 12)) };

    let mut out = String::new();
    writeln!(
        out,
        "E10/E12/E14/E16 — observer overhead (ops mode, median of paired rounds, {repeats} x {budget:?} per kernel)"
    )
    .unwrap();
    writeln!(out).unwrap();
    write!(out, "{:<22} {:>6} {:>12}", "kernel", "cycles", "plain c/s").unwrap();
    for name in &CONFIGS[1..] {
        write!(out, " {name:>9}").unwrap();
    }
    writeln!(out).unwrap();
    let rule = "-".repeat(42 + 10 * (CONFIGS.len() - 1));
    writeln!(out, "{rule}").unwrap();

    let suites: [(Workbench, Vec<kernels::Kernel>); 2] = [
        (vliw62::workbench().expect("vliw62 builds"), kernels::vliw_suite()),
        (accu16::workbench().expect("accu16 builds"), kernels::accu_suite()),
    ];
    // Per-config sums of ln(time ratio vs plain) for the geometric means.
    let mut ln_sums = [0.0f64; CONFIGS.len()];
    let mut n = 0.0f64;
    for (wb, suite) in &suites {
        for kernel in suite {
            // Calibrate the round count off one warm run: `repeats`
            // times the runs that fit the budget, capped at 64 per repeat.
            let mut sim = kernels::load_kernel(wb, kernel, SimMode::Ops).expect("kernel loads");
            let t = Instant::now();
            let cycles = wb.run_to_halt(&mut sim, kernel.max_steps).expect("kernel halts");
            let once = t.elapsed().max(Duration::from_micros(1));
            let per_repeat = (budget.as_nanos() / once.as_nanos()).clamp(1, 64) as usize;

            // Each round samples every configuration back to back, so slow
            // drift (host speed phases, thermal, frequency scaling) hits
            // the whole round alike and cancels in its ratios.
            let rounds: Vec<[f64; CONFIGS.len()]> = (0..repeats * per_repeat)
                .map(|_| CONFIGS.map(|config| sample(wb, &obs, kernel, config)))
                .collect();
            let ratio = |i: usize| median(rounds.iter().map(|r| r[i] / r[0]).collect());
            let best_plain = rounds.iter().map(|r| r[0]).fold(f64::INFINITY, f64::min);

            let cps = cycles as f64 / best_plain;
            write!(out, "{:<22} {:>6} {:>12.0}", kernel.name, cycles, cps).unwrap();
            for (i, ln_sum) in ln_sums.iter_mut().enumerate().skip(1) {
                let r = ratio(i);
                write!(out, " {:>8.1}%", (r - 1.0) * 100.0).unwrap();
                *ln_sum += r.ln();
            }
            writeln!(out).unwrap();
            n += 1.0;
        }
    }
    let geo_ovh = |i: usize| ((ln_sums[i] / n).exp() - 1.0) * 100.0;
    writeln!(out, "{rule}").unwrap();
    let means: Vec<String> =
        (1..CONFIGS.len()).map(|i| format!("{} {:.1}%", CONFIGS[i], geo_ovh(i))).collect();
    writeln!(out, "geometric-mean overheads vs plain: {}", means.join(", ")).unwrap();

    // Raw boundary-publish cost: how long one `publish_metrics` takes
    // once this thread holds the series handles.
    let (wb, suite) = &suites[0];
    let mut sim = kernels::load_kernel(wb, &suite[0], SimMode::Ops).expect("kernel loads");
    wb.run_to_halt(&mut sim, suite[0].max_steps).expect("kernel halts");
    sim.publish_metrics(&obs.registry);
    let publishes = 10_000u32;
    let t = Instant::now();
    for _ in 0..publishes {
        sim.publish_metrics(&obs.registry);
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
        .map(|&(i, bound)| format!("{} {:.2}% (< {bound}%)", CONFIGS[i], geo_ovh(i)))
        .collect();
    writeln!(out, "acceptance gates, geomean overhead: {}", measured.join(", ")).unwrap();

    write_report("observer_overhead.txt", &out);

    if GATED.iter().any(|&(i, bound)| geo_ovh(i) >= bound) {
        eprintln!("OBSERVER-OVERHEAD GATE FAILED: {}", measured.join(", "));
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
