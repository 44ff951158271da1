//! Experiment harness reproducing the LISA paper's evaluation.
//!
//! Each experiment from `DESIGN.md` has a runner here; the `table_*`
//! binaries print the paper-versus-measured tables recorded in
//! `EXPERIMENTS.md`.
//!
//! * **E1** — model complexity statistics ([`model_stats_rows`]);
//! * **E2** — tool-generation time ([`toolgen_once`]);
//! * **E3/E15** — compiled (ops) vs interpretive simulation speed, like
//!   every kernel-speed number here (E5, the observer-overhead table,
//!   `lisa-tool bench` via [`trajectory`]), timed by the one kernel
//!   sampler, [`sampler::sample_rounds`], over [`model_suites`] and gated
//!   by [`e15_verdict`];
//! * **E5** — compile-time `SWITCH`/`CASE` specialisation versus run-time
//!   operand checks ([`specialization`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sampler;
pub mod specialization;
pub mod trajectory;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lisa_core::model::ModelStats;
use lisa_core::Model;
use lisa_models::kernels::Kernel;
use lisa_models::{accu16, kernels, scalar2, tinyrisc, vliw62, Workbench};
use lisa_sim::SimMode;

/// One row of the E1 model-statistics table.
#[derive(Debug, Clone)]
pub struct StatsRow {
    /// Model name.
    pub model: &'static str,
    /// The computed statistics.
    pub stats: ModelStats,
}

/// Builds every bundled model and returns its statistics (experiment E1).
///
/// # Panics
///
/// Panics if a bundled model fails to build (a bug, covered by tests).
#[must_use]
pub fn model_stats_rows() -> Vec<StatsRow> {
    model_suites(true)
        .into_iter()
        .map(|(model, wb, _)| StatsRow { model, stats: ModelStats::of(wb.model()) })
        .collect()
}

/// Timing of the tool-generation pipeline for one model (experiment E2 —
/// the paper reports 30 s for the C6201 model on a Sparc Ultra 10).
#[derive(Debug, Clone, Copy)]
pub struct ToolgenTiming {
    /// Parse + model-database construction, including the decoder and
    /// assembler tables.
    pub parse_and_analyze: Duration,
    /// Decoder and assembler table generation
    /// ([`lisa_core::model::ToolTables::generate`]), the part of
    /// `parse_and_analyze` that generates the instruction tools.
    pub tables: Duration,
    /// Compiled-simulator generation: the first ops simulator on the
    /// model builds the model's image (behavior lowering and
    /// default-variant micro-op translation).
    pub lower: Duration,
    /// Program pre-decoding (per instruction word of a loaded kernel).
    pub predecode: Duration,
}

impl ToolgenTiming {
    /// Total generation time (`tables` is part of `parse_and_analyze`).
    #[must_use]
    pub fn total(&self) -> Duration {
        self.parse_and_analyze + self.lower + self.predecode
    }
}

/// Runs the full tool-generation pipeline once for a LISA source.
///
/// # Panics
///
/// Panics if the source fails to build (bundled sources are covered by
/// tests).
#[must_use]
pub fn toolgen_once(source: &str) -> ToolgenTiming {
    let t0 = Instant::now();
    let desc = lisa_core::parse(source).expect("model parses");
    let model = Model::build(&desc).expect("model builds");
    let parse_and_analyze = t0.elapsed();

    // `Model::build` already generated the tables; time that step again
    // on its own. The parse tree stays alive until then, as it does
    // inside `Model::build`: freeing it first would charge the
    // allocator's clean-up to the tables.
    let t1 = Instant::now();
    let tables = lisa_core::model::ToolTables::generate(model.operations());
    let tables_time = t1.elapsed();
    drop(tables);
    drop(desc);

    // The first ops simulator on the fresh model builds its image:
    // lowering plus every operation's default-variant routine.
    let t2 = Instant::now();
    let sim = lisa_sim::Simulator::new(&model, SimMode::Ops).expect("lowering succeeds");
    let lower = t2.elapsed();

    let t3 = Instant::now();
    let mut sim = sim;
    sim.predecode_program_memory();
    let predecode = t3.elapsed();

    ToolgenTiming { parse_and_analyze, tables: tables_time, lower, predecode }
}

/// The builtin models paired with their kernel suites, in report order
/// (`quick` keeps each suite's first kernel). Every kernel-speed table
/// and `lisa-tool bench` draw their kernels from here.
///
/// # Panics
///
/// Panics if a bundled model fails to build (a bug, covered by tests).
#[must_use]
pub fn model_suites(quick: bool) -> Vec<(&'static str, Workbench, Vec<Kernel>)> {
    let mut suites = vec![
        ("vliw62", vliw62::workbench().expect("vliw62 builds"), kernels::vliw_suite()),
        ("accu16", accu16::workbench().expect("accu16 builds"), kernels::accu_suite()),
        ("scalar2", scalar2::workbench().expect("scalar2 builds"), kernels::scalar_suite()),
        ("tinyrisc", tinyrisc::workbench().expect("tinyrisc builds"), kernels::tiny_suite()),
    ];
    if quick {
        for (_, _, suite) in &mut suites {
            suite.truncate(1);
        }
    }
    suites
}

/// E15's ratio floor: the minimum geometric-mean ops-over-interpretive
/// speedup. Six runs of the paired-median sampler read 9.9-10.4x on the
/// 12-kernel suite (best-of-3 cold runs had read 10.5-10.9x); 7.8 keeps
/// at least the 25% noise margin every earlier floor kept (6.5 under
/// ~8.7x, 5.3 under ~7.1x, 3.8 under ~5.1x), while still catching a
/// translator that stops paying for itself.
pub const E15_FLOOR: f64 = 7.8;

/// E15's interpretive floors in cycles/s of a kernel's best interpretive
/// round: half the best round of the 2026-08-08 quick-matrix baseline
/// (558, 136, 150 and 108 cycles in 4486, 204, 394 and 147 µs), rounded
/// up. The same-round ratio cannot see a slowdown that hits both
/// backends alike; these absolute floors can.
pub const E15_INTERP_FLOORS: [(&str, f64); 4] = [
    ("vliw_dot_32", 62_194.0),
    ("accu_dot_32", 333_334.0),
    ("scalar_dot_24", 190_356.0),
    ("tiny_fib_20", 367_347.0),
];

/// E15's gates in report order, each a report line and whether it holds:
/// the geometric-mean speedup against [`E15_FLOOR`], then each kernel of
/// [`E15_INTERP_FLOORS`] against its floor. `interp_best_cps` maps kernel
/// names to best interpretive rounds in cycles/s; a floor kernel missing
/// from it fails.
#[must_use]
pub fn e15_verdict(geomean_speedup: f64, interp_best_cps: &[(&str, f64)]) -> Vec<(String, bool)> {
    let mut gates = vec![(
        format!("ratio floor: geomean ops/interp {geomean_speedup:.1}x >= {E15_FLOOR:.1}x"),
        geomean_speedup >= E15_FLOOR,
    )];
    for (kernel, floor) in E15_INTERP_FLOORS {
        let best = interp_best_cps.iter().find(|(k, _)| *k == kernel).map_or(0.0, |&(_, cps)| cps);
        gates.push((
            format!("interp floor: {kernel} best round {best:.0} c/s >= {floor:.0} c/s"),
            best >= floor,
        ));
    }
    gates
}

/// The repository's `docs/` directory, where every experiment table and
/// benchmark artifact belongs (resolved from this crate's manifest, so
/// it does not depend on the invocation directory).
#[must_use]
pub fn docs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs")
}

/// Prints an experiment report to stdout **and** writes it to
/// `docs/<file_name>`, so `table_*` binaries can never scatter their
/// output into whatever directory they were launched from.
///
/// # Panics
///
/// Panics when `docs/` is not writable — the binaries exist to record
/// results, so failing silently would defeat them.
pub fn write_report(file_name: &str, text: &str) {
    print!("{text}");
    let path = docs_dir().join(file_name);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("(written to {})", path.display());
}

/// Formats a duration in engineering units for the tables.
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_rows_cover_all_models() {
        let rows = model_stats_rows();
        assert_eq!(rows.len(), 4);
        let vliw = &rows[0];
        assert_eq!(vliw.model, "vliw62");
        assert!(vliw.stats.instructions >= 50);
        assert!(vliw.stats.lisa_lines > 500);
    }

    /// The gates pass on the numbers of the committed
    /// `docs/e15_ops_speed.txt` and fail on a low geomean or one slow
    /// interpretive kernel.
    #[test]
    fn e15_verdict_gates_the_ratio_and_each_interpretive_floor() {
        let committed = [
            ("vliw_dot_32", 112_864.0),
            ("accu_dot_32", 441_877.0),
            ("scalar_dot_24", 331_376.0),
            ("tiny_fib_20", 506_324.0),
        ];
        let holds = |gates: Vec<(String, bool)>| gates.iter().map(|g| g.1).collect::<Vec<_>>();
        assert_eq!(holds(e15_verdict(10.2, &committed)), [true; 5]);
        assert_eq!(holds(e15_verdict(7.7, &committed)), [false, true, true, true, true]);
        let mut slow = committed;
        slow[2].1 = 190_000.0;
        assert_eq!(holds(e15_verdict(10.2, &slow)), [true, true, true, false, true]);
        assert_eq!(holds(e15_verdict(10.2, &committed[1..])), [true, false, true, true, true]);
    }

    #[test]
    fn toolgen_completes_quickly() {
        let timing = toolgen_once(vliw62::SOURCE);
        // The paper took 30 s on 1998 hardware; anything under 5 s here
        // would still validate the claim, and we expect milliseconds.
        assert!(timing.total() < Duration::from_secs(5), "{timing:?}");
    }
}
