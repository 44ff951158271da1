//! Experiments E10 and E16: cost of observing a simulation — trace
//! sinks (`lisa-trace`), probes and the architecture profile
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
//! * **ring** — a ring-buffer trace sink keeping the last 4096 events.
//! * **jsonl** — JSON-lines streaming to a null writer.
//! * **empty** — a probe runtime compiled from the empty spec: events
//!   flow through it and match against zero probes.
//! * **silent** — armed watch/break probes that never fire (an
//!   unreachable breakpoint PC plus a watch on the top data-memory
//!   cell), so the cost is pure matching, not hit emission.
//! * **profile** — the architecture profile (instructions, hot PCs,
//!   stage occupancy/stalls/flushes, op/unit counters, heatmaps).
//!
//! Methodology: per kernel, one sample is the summed run time over a
//! calibrated iteration count (~5 ms of simulation), configurations
//! are interleaved within every repeat so clock drift lands on all
//! columns equally, and each cell keeps its best sample.
//!
//! Acceptance gate: observation-disabled geometric-mean overhead < 2%
//! (process exits 1 past the gate, so CI can hold the line).
//!
//! `--quick` shrinks repeats and the per-sample budget for CI.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lisa_bench::write_report;
use lisa_core::ast::ResourceClass;
use lisa_models::{accu16, kernels, vliw62, Workbench};
use lisa_sim::{JsonLinesSink, ProbeSet, ProbeSpec, RingBufferSink, SimMode, Simulator};

/// The observation configurations under test, in table order. `plain`
/// and `off` both install nothing; `off` is the gated re-measurement.
const CONFIGS: [&str; 7] = ["plain", "off", "ring", "jsonl", "empty", "silent", "profile"];

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

fn configure(wb: &Workbench, sim: &mut Simulator<'_>, config: &str) {
    match config {
        "plain" | "off" => {}
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

/// One sample: summed run time over `iters` fresh simulations of the
/// kernel under one configuration (setup and verification excluded).
fn sample(wb: &Workbench, kernel: &kernels::Kernel, config: &str, iters: u32) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let mut sim = kernels::load_kernel(wb, kernel, SimMode::Ops).expect("kernel loads");
        configure(wb, &mut sim, config);
        let t = Instant::now();
        wb.run_to_halt(&mut sim, kernel.max_steps).expect("kernel halts");
        total += t.elapsed();
        kernels::verify_kernel(wb, kernel, &sim);
        if config == "silent" {
            assert_eq!(sim.probe_hits(), 0, "silent probes must not fire");
        }
    }
    total
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let repeats: u32 = if quick { 3 } else { 6 };
    let budget = Duration::from_millis(if quick { 2 } else { 5 });

    let mut out = String::new();
    writeln!(out, "E10/E16 — observer overhead (ops mode, best of {repeats})").unwrap();
    writeln!(out).unwrap();
    write!(out, "{:<22} {:>6} {:>12}", "kernel", "cycles", "plain c/s").unwrap();
    for name in &CONFIGS[1..] {
        write!(out, " {name:>8}").unwrap();
    }
    writeln!(out).unwrap();
    let rule = "-".repeat(42 + 9 * (CONFIGS.len() - 1));
    writeln!(out, "{rule}").unwrap();

    let suites: [(Workbench, Vec<kernels::Kernel>); 2] = [
        (vliw62::workbench().expect("vliw62 builds"), kernels::vliw_suite()),
        (accu16::workbench().expect("accu16 builds"), kernels::accu_suite()),
    ];
    // ln-sums per config for the geometric means.
    let mut ln_sums = [0.0f64; CONFIGS.len()];
    let mut n = 0.0f64;
    for (wb, suite) in &suites {
        for kernel in suite {
            // Calibrate the per-sample iteration count off one warm run.
            let mut sim = kernels::load_kernel(wb, kernel, SimMode::Ops).expect("kernel loads");
            let t = Instant::now();
            let cycles = wb.run_to_halt(&mut sim, kernel.max_steps).expect("kernel halts");
            let once = t.elapsed().max(Duration::from_micros(1));
            let iters =
                u32::try_from(budget.as_nanos() / once.as_nanos()).unwrap_or(u32::MAX).clamp(1, 64);

            // Interleave configurations within each repeat so slow
            // drift (thermal, frequency scaling) hits every column.
            let mut best = [Duration::MAX; CONFIGS.len()];
            for _ in 0..repeats {
                for (i, config) in CONFIGS.iter().enumerate() {
                    best[i] = best[i].min(sample(wb, kernel, config, iters));
                }
            }

            let work = f64::from(iters) * cycles as f64;
            let cps = |d: Duration| work / d.as_secs_f64();
            write!(out, "{:<22} {:>6} {:>12.0}", kernel.name, cycles, cps(best[0])).unwrap();
            for b in &best[1..] {
                write!(out, " {:>7.1}%", (cps(best[0]) / cps(*b) - 1.0) * 100.0).unwrap();
            }
            writeln!(out).unwrap();
            for (i, b) in best.iter().enumerate() {
                ln_sums[i] += cps(*b).ln();
            }
            n += 1.0;
        }
    }
    let geo_ovh = |i: usize| ((ln_sums[0] / n).exp() / (ln_sums[i] / n).exp() - 1.0) * 100.0;
    let off_overhead = geo_ovh(1);
    writeln!(out, "{rule}").unwrap();
    let means: Vec<String> =
        (1..CONFIGS.len()).map(|i| format!("{} {:.1}%", CONFIGS[i], geo_ovh(i))).collect();
    writeln!(out, "geometric-mean overheads vs plain: {}", means.join(", ")).unwrap();
    writeln!(out).unwrap();
    out.push_str(
        "notes: `off` re-measures `plain` (nothing installed, one Option-is-none branch per\n\
         event site), so it is the disabled path every run pays. The other columns arm one\n\
         observer each; see the module docs of table_observer_overhead.rs.\n\n",
    );
    writeln!(out, "Regenerate: cargo run --release -p lisa-bench --bin table_observer_overhead")
        .unwrap();
    writeln!(
        out,
        "acceptance gate: observation-disabled geomean overhead < 2% (measured {off_overhead:.2}%)"
    )
    .unwrap();

    write_report("observer_overhead.txt", &out);

    if off_overhead >= 2.0 {
        eprintln!("OBSERVER-OVERHEAD GATE FAILED: disabled-path overhead {off_overhead:.2}% >= 2%");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
