//! Experiment E9: batch-simulation throughput vs worker count.
//!
//! Runs the full models×kernels matrix (both backends) on the
//! `lisa-exec` worker pool at 1, 2, 4 and 8 workers, reporting aggregate
//! simulated cycles per second and the scaling factor over one worker.
//! Also verifies the engine's determinism contract: every worker count
//! must produce the identical per-job outcome list.

use std::fmt::Write as _;

use lisa_exec::BatchRunner;
use lisa_models::kernels::full_matrix;
use lisa_sim::SimMode;

fn main() {
    let matrix = full_matrix().expect("models build");
    let scenarios: Vec<_> = matrix
        .iter()
        .flat_map(|(wb, kernels)| {
            kernels.iter().flat_map(move |k| {
                [SimMode::Interpretive, SimMode::Ops]
                    .into_iter()
                    .map(move |mode| wb.scenario(k, mode))
            })
        })
        .collect();

    let mut out = String::new();
    writeln!(out, "E9 — batch-simulation throughput vs worker count").unwrap();
    writeln!(out, "({} jobs: 4 models x kernel suites x 2 backends)", scenarios.len()).unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<8} {:>12} {:>10} {:>14} {:>9}",
        "workers", "cycles", "time", "cycles/s", "scaling"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(58)).unwrap();

    let mut baseline_cps = 0.0;
    let mut reference_jobs = None;
    for workers in [1usize, 2, 4, 8] {
        // Best of three runs to damp scheduler noise.
        let report = (0..3)
            .map(|_| BatchRunner::new(workers).run(&scenarios))
            .min_by(|a, b| a.elapsed.cmp(&b.elapsed))
            .expect("three runs");
        assert!(report.all_passed(), "failures:\n{}", report.table());
        match &reference_jobs {
            None => reference_jobs = Some(report.jobs.clone()),
            Some(reference) => {
                assert_eq!(reference, &report.jobs, "job outcomes must not depend on worker count")
            }
        }
        let cps = report.cycles_per_sec();
        if workers == 1 {
            baseline_cps = cps;
        }
        writeln!(
            out,
            "{:<8} {:>12} {:>9.1?} {:>14.0} {:>8.2}x",
            workers,
            report.total_cycles(),
            report.elapsed,
            cps,
            if baseline_cps > 0.0 { cps / baseline_cps } else { 1.0 },
        )
        .unwrap();
    }
    writeln!(out, "{}", "-".repeat(58)).unwrap();
    writeln!(out, "identical job outcomes at every worker count (determinism contract).").unwrap();
    print!("{out}");
}
