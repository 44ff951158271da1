//! Experiment E10: cost of the observability layer (`lisa-trace`).
//!
//! The tracing hooks in the simulators are guarded by a single
//! `Option`-is-some check, so with observability off a simulation should
//! run at the same speed as before the hooks existed. This table
//! measures compiled-mode throughput on the kernel suite under each
//! observability configuration: disabled, ring-buffer sink (last 4096
//! events), profile aggregation, and JSON-lines streaming to a null
//! writer.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lisa_bench::write_report;
use lisa_models::{accu16, kernels, vliw62, Workbench};
use lisa_sim::{JsonLinesSink, RingBufferSink, SimMode, Simulator};

/// The observability configurations under test, in table order.
const CONFIGS: [&str; 4] = ["off", "ring", "profile", "jsonl"];

fn configure(sim: &mut Simulator<'_>, config: &str) {
    match config {
        "off" => {}
        "ring" => sim.set_sink(Box::new(RingBufferSink::new(4096))),
        "profile" => sim.enable_profile(),
        "jsonl" => {
            let names = sim.name_table();
            sim.set_sink(Box::new(JsonLinesSink::new(std::io::sink(), names)));
        }
        other => unreachable!("unknown config {other}"),
    }
}

/// Best-of-`repeats` wall time for one kernel under one configuration.
fn measure(
    wb: &Workbench,
    kernel: &kernels::Kernel,
    config: &str,
    repeats: u32,
) -> (u64, Duration) {
    let mut best = Duration::MAX;
    let mut cycles = 0;
    for _ in 0..repeats {
        let mut sim = kernels::load_kernel(wb, kernel, SimMode::Ops).expect("kernel loads");
        configure(&mut sim, config);
        let t = Instant::now();
        cycles = wb.run_to_halt(&mut sim, kernel.max_steps).expect("kernel halts");
        best = best.min(t.elapsed());
        kernels::verify_kernel(wb, kernel, &sim);
    }
    (cycles, best)
}

fn main() {
    let repeats: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(3);
    let mut out = String::new();
    writeln!(out, "E10 — tracing overhead (compiled mode, best of {repeats})").unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<18} {:>8} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "kernel", "cycles", "off c/s", "ring c/s", "profile c/s", "jsonl c/s", "ring ovh"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(90)).unwrap();

    let suites: [(Workbench, Vec<kernels::Kernel>); 2] = [
        (vliw62::workbench().expect("vliw62 builds"), kernels::vliw_suite()),
        (accu16::workbench().expect("accu16 builds"), kernels::accu_suite()),
    ];
    let mut off_total = 0.0f64;
    let mut ring_total = 0.0f64;
    for (wb, suite) in &suites {
        for kernel in suite {
            let mut cps = [0.0f64; 4];
            let mut cycles = 0;
            for (slot, config) in CONFIGS.iter().enumerate() {
                let (c, best) = measure(wb, kernel, config, repeats);
                cycles = c;
                cps[slot] = c as f64 / best.as_secs_f64();
            }
            writeln!(
                out,
                "{:<18} {:>8} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>7.1}%",
                kernel.name,
                cycles,
                cps[0],
                cps[1],
                cps[2],
                cps[3],
                (cps[0] / cps[1] - 1.0) * 100.0,
            )
            .unwrap();
            off_total += cps[0].ln();
            ring_total += cps[1].ln();
        }
    }
    let n = suites.iter().map(|(_, s)| s.len()).sum::<usize>() as f64;
    writeln!(out, "{}", "-".repeat(90)).unwrap();
    writeln!(
        out,
        "geometric means: off {:.0} c/s, ring {:.0} c/s ({:.1}% overhead)",
        (off_total / n).exp(),
        (ring_total / n).exp(),
        ((off_total / n).exp() / (ring_total / n).exp() - 1.0) * 100.0,
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(out, "acceptance gate: with observability off, throughput must match the").unwrap();
    writeln!(out, "pre-lisa-trace baseline within noise (<3%) — see docs/e10_trace_overhead.txt.")
        .unwrap();
    write_report("e10_trace_overhead.txt", &out);
}
