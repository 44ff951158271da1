//! Integration tests of the `lisa-exec` batch engine through the
//! top-level facade: worker-count determinism, backend agreement, and
//! failure isolation on real models.

use lisa::exec::{BatchRunner, Scenario};
use lisa::models::kernels::{accu_dot_product, tiny_fib, vliw_dot_product};
use lisa::models::{accu16, tinyrisc, vliw62, Workbench};
use lisa::sim::SimMode;

/// A small cross-model matrix: three architectures, two backends each.
fn small_matrix() -> Vec<(Workbench, Vec<lisa::models::kernels::Kernel>)> {
    vec![
        (vliw62::workbench().expect("vliw62 builds"), vec![vliw_dot_product(8)]),
        (accu16::workbench().expect("accu16 builds"), vec![accu_dot_product(8)]),
        (tinyrisc::workbench().expect("tinyrisc builds"), vec![tiny_fib(12)]),
    ]
}

fn scenarios(matrix: &[(Workbench, Vec<lisa::models::kernels::Kernel>)]) -> Vec<Scenario<'_>> {
    matrix
        .iter()
        .flat_map(|(wb, kernels)| {
            kernels.iter().flat_map(move |k| {
                [SimMode::Interpretive, SimMode::Ops]
                    .into_iter()
                    .map(move |mode| wb.scenario(k, mode))
            })
        })
        .collect()
}

#[test]
fn batch_results_do_not_depend_on_worker_count() {
    let matrix = small_matrix();
    let scenarios = scenarios(&matrix);
    assert_eq!(scenarios.len(), 6);

    let solo = BatchRunner::new(1).run(&scenarios);
    let pooled = BatchRunner::new(4).run(&scenarios);
    assert!(solo.all_passed(), "failures:\n{}", solo.table());
    assert_eq!(solo.jobs, pooled.jobs, "job outcomes must not depend on worker count");
    assert_eq!(solo.workers, 1);
    assert_eq!(pooled.workers, 4);
}

#[test]
fn interpretive_and_compiled_backends_agree_within_a_batch() {
    let matrix = small_matrix();
    let scenarios = scenarios(&matrix);
    let report = BatchRunner::new(2).run(&scenarios);
    assert!(report.all_passed(), "failures:\n{}", report.table());

    // Scenarios come in (Interpretive, Ops) pairs per kernel; each
    // pair must agree on both cycle count and final state digest.
    for pair in report.jobs.chunks(2) {
        let interp = pair[0].result.as_ref().expect("interpretive job passed");
        let ops = pair[1].result.as_ref().expect("ops job passed");
        assert_eq!(interp.cycles, ops.cycles, "{}: cycle mismatch", pair[0].name);
        assert_eq!(interp.state_digest, ops.state_digest, "{}: state mismatch", pair[0].name);
    }
}

#[test]
fn a_failing_check_is_isolated_to_its_own_job() {
    let wb = tinyrisc::workbench().expect("tinyrisc builds");
    let kernel = tiny_fib(10);
    let good = wb.scenario(&kernel, SimMode::Interpretive);
    let mut bad = wb.scenario(&kernel, SimMode::Ops);
    for check in &mut bad.checks {
        check.expected += 1;
    }

    let report = BatchRunner::new(2).run(&[good, bad]);
    assert!(!report.all_passed());
    assert_eq!(report.failures().len(), 1);
    assert!(report.jobs[0].result.is_ok(), "good job must be unaffected");
    assert!(report.jobs[1].result.is_err());
    assert!(report.table().contains("FAIL"), "{}", report.table());
}
