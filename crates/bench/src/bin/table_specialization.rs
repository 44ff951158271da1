//! Experiment E5: compile-time SWITCH/CASE specialisation versus run-time
//! operand side checks (paper §3.4, Example 6).
//!
//! Methodology: [`sample_rounds`] with two ops arms, one per machine, on
//! the same kernel; the extra cost is the median over rounds of the
//! run-time-check machine's time over the specialised machine's time in
//! the same round.

use std::fmt::Write as _;

use lisa_bench::sampler::{median, sample_rounds, Arm, BUDGET_CYCLES};
use lisa_bench::specialization::{kernel, workbench};
use lisa_sim::SimMode;

/// Loop iterations per run (9 cycles each).
const ITERATIONS: u32 = 20_000;
/// Repeats; a run of this kernel overruns [`BUDGET_CYCLES`], so each
/// repeat is one round.
const REPEATS: usize = 15;

fn main() {
    let spec = workbench(true).expect("specialized machine builds");
    let rt = workbench(false).expect("runtime machine builds");
    let kernel = kernel(ITERATIONS);
    let arms = [Arm::new(SimMode::Ops).on(&spec), Arm::new(SimMode::Ops).on(&rt)];
    let s = sample_rounds(&spec, &kernel, &arms, REPEATS, BUDGET_CYCLES);

    let mut out = String::new();
    writeln!(
        out,
        "E5 — SWITCH/CASE specialisation vs run-time checks (paper Example 6; ops backend, median of {} paired rounds)",
        s.rounds.len()
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(out, "{:<24} {:>10} {:>14} {:>14}", "machine", "cycles", "wall (median)", "cycles/s")
        .unwrap();
    writeln!(out, "{}", "-".repeat(66)).unwrap();
    for (arm, name) in ["switch-specialised", "run-time checks"].into_iter().enumerate() {
        let wall = median(s.times(arm));
        writeln!(
            out,
            "{:<24} {:>10} {:>14} {:>14.0}",
            name,
            s.cycles,
            lisa_bench::fmt_duration(std::time::Duration::from_secs_f64(wall)),
            s.cycles as f64 / wall
        )
        .unwrap();
    }
    writeln!(out, "{}", "-".repeat(66)).unwrap();
    let mut ratios: Vec<f64> = s.rounds.iter().map(|r| r[1] / r[0]).collect();
    ratios.sort_by(f64::total_cmp);
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    writeln!(
        out,
        "run-time checks cost {:.1}% extra wall time for the same cycle count\n\
         (median paired ratio; quartiles {:.1}% and {:.1}%)",
        pct(s.median_ratio(1, 0)),
        pct(ratios[ratios.len() / 4]),
        pct(ratios[3 * ratios.len() / 4])
    )
    .unwrap();
    print!("{out}");
}
