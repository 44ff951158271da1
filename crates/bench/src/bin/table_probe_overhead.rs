//! Experiment E16: cost of the architectural-probe layer (`lisa-probe`).
//!
//! The probe hooks in both backends sit behind the same single
//! `Option`-is-some branch as tracing (E10), so with no probes armed a
//! simulation must run at the fast-path speed. This table measures
//! compiled-mode throughput on the kernel suite under each probe
//! configuration:
//!
//! * **plain** — no probe runtime installed: the disabled path every
//!   user pays by default. Measured twice; the second pass is the
//!   gated "off" column, so the gate also bounds measurement noise
//!   honestly.
//! * **empty** — a probe runtime compiled from the empty spec and
//!   installed. Events now flow through the runtime, which matches
//!   them against zero probes.
//! * **silent** — armed watch/break probes that never fire (an
//!   unreachable breakpoint PC plus a watch on the top data-memory
//!   cell), so the cost is pure matching, not hit emission.
//! * **arch** — full architecture profiling (stage occupancy,
//!   operation/unit utilization, memory heatmaps).
//!
//! Methodology: per kernel, one sample is the summed run time over a
//! calibrated iteration count (~5 ms of simulation), configurations
//! are interleaved within every repeat so clock drift lands on all
//! columns equally, and each cell keeps its best sample.
//!
//! Acceptance gate: probes-disabled geometric-mean overhead < 2%
//! (process exits 1 past the gate, so CI can hold the line).
//!
//! `--quick` shrinks repeats and the per-sample budget for CI.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lisa_bench::write_report;
use lisa_core::ast::ResourceClass;
use lisa_models::{accu16, kernels, vliw62, Workbench};
use lisa_sim::{ProbeSpec, SimMode, Simulator};

/// The probe configurations under test, in table order.
#[derive(Clone, Copy, PartialEq)]
enum Config {
    /// First plain pass: the reference column.
    Plain,
    /// Second plain pass: the gated disabled path.
    Disabled,
    /// Empty probe set installed — runtime attached, nothing to match.
    Empty,
    /// Armed probes that never fire.
    Silent,
    /// Architecture profiling on.
    Arch,
}

const CONFIGS: [Config; 5] =
    [Config::Plain, Config::Disabled, Config::Empty, Config::Silent, Config::Arch];

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

fn configure(wb: &Workbench, sim: &mut Simulator<'_>, config: Config) {
    match config {
        Config::Plain | Config::Disabled => {}
        Config::Empty => {
            let set = ProbeSpec::parse("").expect("empty spec").compile(sim.model());
            sim.set_probes(set.expect("empty spec compiles"));
        }
        Config::Silent => {
            let set = silent_spec(wb).compile(sim.model()).expect("silent spec compiles");
            sim.set_probes(set);
        }
        Config::Arch => sim.enable_arch_profile(),
    }
}

/// One sample: summed run time over `iters` fresh simulations of the
/// kernel under one configuration (setup and verification excluded).
fn sample(wb: &Workbench, kernel: &kernels::Kernel, config: Config, iters: u32) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let mut sim = kernels::load_kernel(wb, kernel, SimMode::Ops).expect("kernel loads");
        configure(wb, &mut sim, config);
        let t = Instant::now();
        wb.run_to_halt(&mut sim, kernel.max_steps).expect("kernel halts");
        total += t.elapsed();
        kernels::verify_kernel(wb, kernel, &sim);
        if config == Config::Silent {
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
    writeln!(out, "E16 — architectural-probe overhead (compiled mode, best of {repeats})").unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<18} {:>8} {:>12} {:>8} {:>8} {:>8} {:>8}",
        "kernel", "cycles", "plain c/s", "off", "empty", "silent", "arch"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(78)).unwrap();

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
                    best[i] = best[i].min(sample(wb, kernel, *config, iters));
                }
            }

            let work = f64::from(iters) * cycles as f64;
            let cps = |d: Duration| work / d.as_secs_f64();
            let ovh = |d: Duration| (cps(best[0]) / cps(d) - 1.0) * 100.0;
            writeln!(
                out,
                "{:<18} {:>8} {:>12.0} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
                kernel.name,
                cycles,
                cps(best[0]),
                ovh(best[1]),
                ovh(best[2]),
                ovh(best[3]),
                ovh(best[4]),
            )
            .unwrap();
            for (i, b) in best.iter().enumerate() {
                ln_sums[i] += cps(*b).ln();
            }
            n += 1.0;
        }
    }
    let geo_ovh = |i: usize| ((ln_sums[0] / n).exp() / (ln_sums[i] / n).exp() - 1.0) * 100.0;
    let off_overhead = geo_ovh(1);
    writeln!(out, "{}", "-".repeat(78)).unwrap();
    writeln!(
        out,
        "geometric-mean overheads vs plain: off {off_overhead:.1}%, empty {:.1}%, silent {:.1}%, arch {:.1}%",
        geo_ovh(2),
        geo_ovh(3),
        geo_ovh(4),
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(out, "notes: `off` re-measures the plain configuration, so it is the").unwrap();
    writeln!(out, "disabled path users pay when no probes are armed — the probe").unwrap();
    writeln!(out, "runtime is simply absent and the hot loop takes the same").unwrap();
    writeln!(out, "Option-is-none branch as before the probe layer existed. `empty`").unwrap();
    writeln!(out, "and `silent` bound the armed-but-quiet cost (event construction").unwrap();
    writeln!(out, "plus matching against zero or never-firing probes); `arch` adds").unwrap();
    writeln!(out, "stage/operation counters and memory heatmaps.").unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "acceptance gate: probes-disabled geomean overhead < 2% (measured {off_overhead:.2}%)"
    )
    .unwrap();

    write_report("e16_probe_overhead.txt", &out);

    if off_overhead >= 2.0 {
        eprintln!("E16 GATE FAILED: probes-disabled overhead {off_overhead:.2}% >= 2%");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
