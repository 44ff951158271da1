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

use std::fmt::Write as _;

use lisa_bench::{measure_sim_speed, write_report, SpeedRow};
use lisa_models::{accu16, kernels, scalar2, tinyrisc, vliw62};

/// Hard gate: minimum geometric-mean ops-over-interpretive speedup.
/// Three runs with cell operands as absolute indices into the flat state
/// arena measured 10.5-10.9x on the 12-kernel suite; 7.8 is 0.75 x the
/// lowest, rounded down, the 25% noise margin every earlier floor kept
/// (6.5 under ~8.7x, 5.3 under ~7.1x, 3.8 under ~5.1x), while still
/// catching a translator that stops paying for itself.
const FLOOR: f64 = 7.8;

/// Aspirational paper-parity target (DAC'99 §3.3 claims >100x against a
/// naive interpretive simulator). Reported, not gated.
const PAPER_TARGET: f64 = 20.0;

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|s| s.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn main() {
    let mut out = String::new();
    writeln!(out, "E3/E15 — compiled (ops) vs interpretive simulation speed").unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<18} {:>8} {:>12} {:>12} {:>9}",
        "kernel", "cycles", "interp c/s", "ops c/s", "ops/intp"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(63)).unwrap();

    let mut rows: Vec<SpeedRow> = Vec::new();
    let vliw = vliw62::workbench().expect("vliw62 builds");
    for kernel in kernels::vliw_suite() {
        rows.push(measure_sim_speed(&vliw, &kernel, 3));
    }
    let accu = accu16::workbench().expect("accu16 builds");
    for kernel in kernels::accu_suite() {
        rows.push(measure_sim_speed(&accu, &kernel, 3));
    }
    let tiny = tinyrisc::workbench().expect("tinyrisc builds");
    for kernel in kernels::tiny_suite() {
        rows.push(measure_sim_speed(&tiny, &kernel, 3));
    }
    let scalar = scalar2::workbench().expect("scalar2 builds");
    for kernel in kernels::scalar_suite() {
        rows.push(measure_sim_speed(&scalar, &kernel, 3));
    }

    for row in &rows {
        writeln!(
            out,
            "{:<18} {:>8} {:>12.0} {:>12.0} {:>8.1}x",
            row.kernel,
            row.cycles,
            row.interp_cps(),
            row.ops_cps(),
            row.speedup()
        )
        .unwrap();
    }
    writeln!(out, "{}", "-".repeat(63)).unwrap();

    let over_interp = geomean(&rows.iter().map(SpeedRow::speedup).collect::<Vec<_>>());
    writeln!(out, "geometric-mean ops speedup over interpretive: {over_interp:.1}x").unwrap();
    writeln!(out).unwrap();
    let floor_verdict = if over_interp >= FLOOR { "PASS" } else { "FAIL" };
    writeln!(out, "regression gate: geomean >= {FLOOR:.1}x — {floor_verdict}").unwrap();
    let parity = if over_interp >= PAPER_TARGET { "met" } else { "not met" };
    writeln!(out, "paper-parity target ({PAPER_TARGET:.0}x): {parity} at {over_interp:.1}x")
        .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "paper claim: compiled simulation > 100x over interpretive (DAC'99 §3.3 / [13]),"
    )
    .unwrap();
    writeln!(out, "measured against a fully naive interpretive simulator. Here the baseline")
        .unwrap();
    writeln!(out, "is itself a predecoded Rust tree-walker sharing the engine's scheduler and")
        .unwrap();
    writeln!(out, "storage, so the remaining headroom is behavior evaluation only — see").unwrap();
    writeln!(out, "EXPERIMENTS.md E15 for the breakdown.").unwrap();
    write_report("e15_ops_speed.txt", &out);

    if over_interp < FLOOR {
        eprintln!("E15 regression gate failed: {over_interp:.2}x < {FLOOR:.1}x");
        std::process::exit(1);
    }
}
