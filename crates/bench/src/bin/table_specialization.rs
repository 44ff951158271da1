//! Experiment E5: compile-time SWITCH/CASE specialisation versus run-time
//! operand side checks (paper §3.4, Example 6).

use std::fmt::Write as _;

use lisa_bench::specialization::{run_workload, workbench};
use lisa_bench::write_report;
use lisa_sim::SimMode;

fn main() {
    let mut out = String::new();
    writeln!(out, "E5 — SWITCH/CASE specialisation vs run-time checks (paper Example 6)").unwrap();
    writeln!(out).unwrap();
    let iterations = 20_000;
    let spec = workbench(true).expect("specialized machine builds");
    let rt = workbench(false).expect("runtime machine builds");

    writeln!(out, "{:<24} {:>10} {:>14} {:>14}", "machine", "cycles", "wall (best)", "cycles/s")
        .unwrap();
    writeln!(out, "{}", "-".repeat(66)).unwrap();
    let mut times = Vec::new();
    for (name, wb) in [("switch-specialised", &spec), ("run-time checks", &rt)] {
        let mut best = std::time::Duration::MAX;
        let mut cycles = 0;
        for _ in 0..3 {
            let (c, t) = run_workload(wb, iterations, SimMode::Ops).expect("runs");
            cycles = c;
            best = best.min(t);
        }
        writeln!(
            out,
            "{:<24} {:>10} {:>14} {:>14.0}",
            name,
            cycles,
            lisa_bench::fmt_duration(best),
            cycles as f64 / best.as_secs_f64()
        )
        .unwrap();
        times.push(best);
    }
    writeln!(out, "{}", "-".repeat(66)).unwrap();
    writeln!(
        out,
        "run-time checks cost {:.1}% extra wall time for the same cycle count",
        (times[1].as_secs_f64() / times[0].as_secs_f64() - 1.0) * 100.0
    )
    .unwrap();
    write_report("e5_specialization.txt", &out);
}
