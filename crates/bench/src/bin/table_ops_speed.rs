//! Experiments E3 and E15: the ops backend (the paper's compiled
//! simulation) vs the interpretive backend on the DSP kernel suite. The
//! ops backend lowers every decoded instruction instance to a flat
//! array of three-address micro-ops at translate time (labels folded,
//! SWITCH arms resolved, register cells pre-indexed), so the cycle loop
//! is a tight dispatch over contiguous ops — this table measures what
//! that buys over interpretation.
//!
//! The report is **gated** by [`e15_verdict`]: the geometric-mean
//! ops-over-interpretive speedup must reach [`lisa_bench::E15_FLOOR`],
//! which catches a regressed translator, and four kernels' best
//! interpretive rounds must reach their absolute floors
//! ([`E15_INTERP_FLOORS`]), which catch a slowdown that hits both
//! backends alike and leaves the ratio unchanged; the process exits
//! non-zero when any gate fails. [`PAPER_TARGET`] is the DAC'99 §3.3
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

use lisa_bench::sampler::{geomean, median, sample_rounds, Arm, BUDGET_CYCLES};
use lisa_bench::{e15_verdict, model_suites, E15_INTERP_FLOORS};
use lisa_sim::SimMode;

/// Repeats per kernel, each holding as many rounds as runs of the
/// kernel fit [`BUDGET_CYCLES`] (at most 64).
const REPEATS: usize = 9;

/// Aspirational paper-parity target (DAC'99 §3.3 claims >100x against a
/// naive interpretive simulator). Reported, not gated.
const PAPER_TARGET: f64 = 20.0;

fn main() {
    let suites = model_suites(false);
    let width =
        suites.iter().flat_map(|(_, _, suite)| suite).map(|k| k.name.len()).max().unwrap_or(0);
    let rule = "-".repeat(width + 45);
    let mut out = String::new();
    writeln!(
        out,
        "E3/E15 — compiled (ops) vs interpretive simulation speed (median of paired rounds, {REPEATS} x {BUDGET_CYCLES} cycles per kernel)"
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<width$} {:>8} {:>12} {:>12} {:>9}",
        "kernel", "cycles", "interp c/s", "ops c/s", "ops/intp"
    )
    .unwrap();
    writeln!(out, "{rule}").unwrap();

    let arms = [Arm::new(SimMode::Interpretive), Arm::new(SimMode::Ops)];
    let mut speedups = Vec::new();
    let mut interp_best = Vec::new();
    for (_, wb, suite) in &suites {
        for kernel in suite {
            let s = sample_rounds(wb, kernel, &arms, REPEATS, BUDGET_CYCLES);
            let cps = |arm: usize| s.cycles as f64 / median(s.times(arm));
            let speedup = s.median_ratio(0, 1);
            writeln!(
                out,
                "{:<width$} {:>8} {:>12.0} {:>12.0} {:>8.1}x",
                kernel.name,
                s.cycles,
                cps(0),
                cps(1),
                speedup
            )
            .unwrap();
            speedups.push(speedup);
            let best = s.times(0).into_iter().fold(f64::INFINITY, f64::min);
            interp_best.push((kernel.name.as_str(), s.cycles as f64 / best));
        }
    }
    writeln!(out, "{rule}").unwrap();

    let over_interp = geomean(&speedups);
    writeln!(out, "geometric-mean ops speedup over interpretive: {over_interp:.1}x").unwrap();
    writeln!(out).unwrap();
    let gates = e15_verdict(over_interp, &interp_best);
    writeln!(
        out,
        "regression gates (interp floors: half the 2026-08-08 best rounds of {} kernels):",
        E15_INTERP_FLOORS.len()
    )
    .unwrap();
    for (line, holds) in &gates {
        writeln!(out, "  {line} — {}", if *holds { "PASS" } else { "FAIL" }).unwrap();
    }
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
    print!("{out}");

    let failed: Vec<&str> =
        gates.iter().filter(|(_, holds)| !holds).map(|(line, _)| line.as_str()).collect();
    if !failed.is_empty() {
        eprintln!("E15 regression gate failed:\n  {}", failed.join("\n  "));
        std::process::exit(1);
    }
}
