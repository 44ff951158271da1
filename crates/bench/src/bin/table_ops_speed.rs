//! Experiments E3 and E15: the ops backend (the paper's compiled
//! simulation) vs the interpretive backend on the DSP kernel suite. The
//! ops backend lowers every decoded instruction instance to a flat
//! array of three-address micro-ops at translate time (labels folded,
//! SWITCH arms resolved, register cells pre-indexed), so the cycle loop
//! is a tight dispatch over contiguous ops — this table measures what
//! that buys over interpretation.
//!
//! The report is **gated** at two levels. [`FLOOR`] is the hard
//! regression gate: the geometric-mean ops-over-interpretive speedup
//! must stay above it or the process exits non-zero, so CI catches a
//! regressed translator. [`PAPER_TARGET`] is the DAC'99 §3.3
//! paper-parity goal (>2 orders of magnitude there, scaled here to 20x)
//! and is reported honestly — the builtin models are small enough that
//! the shared engine floor (scheduling, pipeline bookkeeping, resource
//! storage) dominates the cycle budget in every backend, so the
//! measured headroom over an already-fast Rust tree-walker is ~9x, not
//! 20x. See EXPERIMENTS.md E15 for the full analysis.
//!
//! Methodology: [`sample_rounds`] with an interpretive and an ops arm. A
//! kernel's speedup is the median over rounds of the interpretive over
//! the ops time of the same round; the c/s columns use median rounds.

use std::fmt::Write as _;

use lisa_bench::sampler::{geomean, median, sample_rounds, Arm};
use lisa_bench::{model_suites, write_report};
use lisa_sim::SimMode;

/// Repeats per kernel, each holding as many rounds as runs of the
/// kernel fit [`BUDGET_CYCLES`] (at most 64).
const REPEATS: usize = 9;
/// Simulated cycles per repeat: every kernel gets at least the median
/// round count of the 10 ms wall-clock budget this replaced.
const BUDGET_CYCLES: u64 = 4_000;

/// Hard gate: minimum geometric-mean ops-over-interpretive speedup.
/// Six runs of the paired-median sampler read 9.9-10.4x on the
/// 12-kernel suite (best-of-3 cold runs had read 10.5-10.9x); 7.8 keeps
/// at least the 25% noise margin every earlier floor kept (6.5 under
/// ~8.7x, 5.3 under ~7.1x, 3.8 under ~5.1x), while still catching a
/// translator that stops paying for itself.
const FLOOR: f64 = 7.8;

/// Aspirational paper-parity target (DAC'99 §3.3 claims >100x against a
/// naive interpretive simulator). Reported, not gated.
const PAPER_TARGET: f64 = 20.0;

fn main() {
    let mut out = String::new();
    writeln!(
        out,
        "E3/E15 — compiled (ops) vs interpretive simulation speed (median of paired rounds, {REPEATS} x {BUDGET_CYCLES} cycles per kernel)"
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<18} {:>8} {:>12} {:>12} {:>9}",
        "kernel", "cycles", "interp c/s", "ops c/s", "ops/intp"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(63)).unwrap();

    let arms = [Arm::new(SimMode::Interpretive), Arm::new(SimMode::Ops)];
    let mut speedups = Vec::new();
    for (_, wb, suite) in model_suites(false) {
        for kernel in &suite {
            let s = sample_rounds(&wb, kernel, &arms, REPEATS, BUDGET_CYCLES);
            let cps = |arm: usize| s.cycles as f64 / median(s.times(arm));
            let speedup = s.median_ratio(0, 1);
            writeln!(
                out,
                "{:<18} {:>8} {:>12.0} {:>12.0} {:>8.1}x",
                kernel.name,
                s.cycles,
                cps(0),
                cps(1),
                speedup
            )
            .unwrap();
            speedups.push(speedup);
        }
    }
    writeln!(out, "{}", "-".repeat(63)).unwrap();

    let over_interp = geomean(&speedups);
    writeln!(out, "geometric-mean ops speedup over interpretive: {over_interp:.1}x").unwrap();
    writeln!(out).unwrap();
    let floor_verdict = if over_interp >= FLOOR { "PASS" } else { "FAIL" };
    writeln!(out, "regression gate: geomean >= {FLOOR:.1}x — {floor_verdict}").unwrap();
    let parity = if over_interp >= PAPER_TARGET { "met" } else { "not met" };
    writeln!(out, "paper-parity target ({PAPER_TARGET:.0}x): {parity} at {over_interp:.1}x")
        .unwrap();
    out.push_str(
        "\npaper claim: compiled simulation > 100x over interpretive (DAC'99 §3.3 / [13]),\n\
         measured against a fully naive interpretive simulator. Here the baseline\n\
         is itself a Rust tree-walker sharing the engine's scheduler and\n\
         storage, so the remaining headroom is behavior evaluation only — see\n\
         EXPERIMENTS.md E15 for the breakdown.\n",
    );
    write_report("e15_ops_speed.txt", &out);

    if over_interp < FLOOR {
        eprintln!("E15 regression gate failed: {over_interp:.2}x < {FLOOR:.1}x");
        std::process::exit(1);
    }
}
