//! Experiment E12: cost of the always-on metrics layer (`lisa-metrics`).
//!
//! The simulators keep their hot path on plain `u64` counters
//! (`SimStats`) and export to the lock-free registry only at run
//! boundaries (`publish_metrics`), so instrumented runs should cost the
//! same as uninstrumented ones up to a constant per-run publish. This
//! table measures compiled-mode throughput on the kernel suite with and
//! without boundary publishing (the publish time is *included* in the
//! instrumented wall clock), plus the raw per-publish cost.
//!
//! Acceptance gate: geometric-mean overhead < 2%.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lisa_bench::write_report;
use lisa_metrics::Registry;
use lisa_models::{accu16, kernels, vliw62, Workbench};
use lisa_sim::SimMode;

/// Best-of-`repeats` wall time for one kernel, publishing the run's
/// stats into `registry` (timed) when one is given.
fn measure(
    wb: &Workbench,
    kernel: &kernels::Kernel,
    registry: Option<&Registry>,
    repeats: u32,
) -> (u64, Duration) {
    let mut best = Duration::MAX;
    let mut cycles = 0;
    for _ in 0..repeats {
        let mut sim = kernels::load_kernel(wb, kernel, SimMode::Ops).expect("kernel loads");
        let t = Instant::now();
        cycles = wb.run_to_halt(&mut sim, kernel.max_steps).expect("kernel halts");
        if let Some(reg) = registry {
            sim.publish_metrics(reg);
        }
        best = best.min(t.elapsed());
        kernels::verify_kernel(wb, kernel, &sim);
    }
    (cycles, best)
}

fn main() {
    let repeats: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(5);
    let registry = Registry::new();
    let mut out = String::new();
    writeln!(out, "E12 — metrics overhead (compiled mode, best of {repeats})").unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<18} {:>8} {:>14} {:>14} {:>9}",
        "kernel", "cycles", "plain c/s", "metrics c/s", "overhead"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(68)).unwrap();

    let suites: [(Workbench, Vec<kernels::Kernel>); 2] = [
        (vliw62::workbench().expect("vliw62 builds"), kernels::vliw_suite()),
        (accu16::workbench().expect("accu16 builds"), kernels::accu_suite()),
    ];
    let mut plain_total = 0.0f64;
    let mut metrics_total = 0.0f64;
    for (wb, suite) in &suites {
        for kernel in suite {
            let (cycles, plain) = measure(wb, kernel, None, repeats);
            let (_, with_metrics) = measure(wb, kernel, Some(&registry), repeats);
            let plain_cps = cycles as f64 / plain.as_secs_f64();
            let metrics_cps = cycles as f64 / with_metrics.as_secs_f64();
            writeln!(
                out,
                "{:<18} {:>8} {:>14.0} {:>14.0} {:>8.1}%",
                kernel.name,
                cycles,
                plain_cps,
                metrics_cps,
                (plain_cps / metrics_cps - 1.0) * 100.0,
            )
            .unwrap();
            plain_total += plain_cps.ln();
            metrics_total += metrics_cps.ln();
        }
    }
    let n = suites.iter().map(|(_, s)| s.len()).sum::<usize>() as f64;
    let overhead = ((plain_total / n).exp() / (metrics_total / n).exp() - 1.0) * 100.0;
    writeln!(out, "{}", "-".repeat(68)).unwrap();
    writeln!(
        out,
        "geometric means: plain {:.0} c/s, metrics {:.0} c/s ({overhead:.1}% overhead)",
        (plain_total / n).exp(),
        (metrics_total / n).exp(),
    )
    .unwrap();

    // Raw boundary-publish cost: how long one `publish_metrics` takes
    // once the series handles exist in the registry.
    let wb = vliw62::workbench().expect("vliw62 builds");
    let kernel = &kernels::vliw_suite()[0];
    let mut sim = kernels::load_kernel(&wb, kernel, SimMode::Ops).expect("loads");
    wb.run_to_halt(&mut sim, kernel.max_steps).expect("halts");
    sim.publish_metrics(&registry); // warm the interned handles
    let publishes = 10_000u32;
    let t = Instant::now();
    for _ in 0..publishes {
        sim.publish_metrics(&registry);
    }
    let per_publish = t.elapsed() / publishes;
    writeln!(out, "per-publish boundary cost: {per_publish:?} (amortized over a whole run)")
        .unwrap();
    writeln!(out).unwrap();
    writeln!(out, "acceptance gate: instrumented runs within 2% of plain runs — the hot").unwrap();
    writeln!(out, "path stays on plain u64 SimStats; atomics are touched only per run.").unwrap();
    write_report("e12_metrics_overhead.txt", &out);
}
