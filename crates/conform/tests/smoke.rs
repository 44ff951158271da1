//! Bounded fuzzing smoke tests: every builtin model survives a short
//! oracle-checked fuzzing run, and the harness proves it can catch an
//! injected backend fault.

use lisa_conform::{Fault, FuzzConfig, Fuzzer, OracleKind};
use lisa_models::Workbench;

fn all_workbenches() -> Vec<(&'static str, Workbench)> {
    vec![
        ("tinyrisc", lisa_models::tinyrisc::workbench().unwrap()),
        ("scalar2", lisa_models::scalar2::workbench().unwrap()),
        ("accu16", lisa_models::accu16::workbench().unwrap()),
        ("vliw62", lisa_models::vliw62::workbench().unwrap()),
    ]
}

#[test]
fn short_fuzz_run_passes_on_every_model() {
    for (name, wb) in all_workbenches() {
        let config = FuzzConfig { seed: 0, iters: 25, ..FuzzConfig::default() };
        let fuzzer = Fuzzer::new(&wb, config).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = fuzzer.run();
        if let Some(failure) = &report.failure {
            panic!(
                "{name}: divergence at iteration {}: {}\n  original: {:?}\n  shrunk: {:?}",
                failure.iteration, failure.verdict, failure.original, failure.shrunk
            );
        }
        assert_eq!(report.iterations, 25, "{name}: run stopped early");
        assert!(
            report.halted + report.budget + report.errored == 25,
            "{name}: outcome counts inconsistent: {report:?}"
        );
    }
}

#[test]
fn injected_fault_is_caught_and_shrunk() {
    for (name, wb) in all_workbenches() {
        let failure =
            Fuzzer::self_check(&wb, 4).unwrap_or_else(|e| panic!("{name}: self-check failed: {e}"));
        assert!(
            failure.shrunk.len() <= 4,
            "{name}: shrunk to {} instructions",
            failure.shrunk.len()
        );
        // The flipped halt flag is a state divergence the lockstep
        // oracle reports with both backends' digests.
        let detail = &failure.verdict.detail;
        assert_eq!(failure.verdict.oracle, OracleKind::Lockstep, "{name}: {detail}");
        assert!(!detail.contains("  "), "{name}: run of spaces in `{detail}`");
        let (_, digests) = detail
            .split_once("state digest diverged: interpretive=0x")
            .unwrap_or_else(|| panic!("{name}: not a digest divergence: `{detail}`"));
        let (interp, ops) = digests
            .split_once(" ops=0x")
            .unwrap_or_else(|| panic!("{name}: no ops digest in `{detail}`"));
        assert_ne!(interp, ops, "{name}: the reported digests are equal");
    }
}

#[test]
fn fuzzer_metrics_count_iterations_firings_and_shrink_steps() {
    use lisa_metrics::{MetricKey, MetricValue, Registry};

    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let reg = Registry::new();
    let count =
        |reg: &Registry, name: &str| match reg.snapshot().metrics.get(&MetricKey::new(name, &[])) {
            Some(&MetricValue::Counter(n)) => n,
            other => panic!("{name}: {other:?}"),
        };

    // A clean run: every iteration counted, no firings, no shrinking.
    let config = FuzzConfig { seed: 0, iters: 10, ..FuzzConfig::default() };
    let report = Fuzzer::new(&wb, config).unwrap().with_metrics(&reg).run();
    assert!(report.passed());
    assert_eq!(count(&reg, "lisa_conform_iterations_total"), 10);
    assert_eq!(count(&reg, "lisa_conform_oracle_firings_total"), 0);
    assert_eq!(count(&reg, "lisa_conform_shrink_steps_total"), 0);

    // A faulty backend: the oracle fires once and shrinking re-runs it.
    let reg = Registry::new();
    let config = FuzzConfig {
        seed: 0,
        iters: 4,
        fault: Some(Fault { at_cycle: 0 }),
        ..FuzzConfig::default()
    };
    let report = Fuzzer::new(&wb, config).unwrap().with_metrics(&reg).run();
    let failure = report.failure.expect("injected fault caught");
    assert_eq!(count(&reg, "lisa_conform_iterations_total"), failure.iteration + 1);
    assert_eq!(count(&reg, "lisa_conform_oracle_firings_total"), 1);
    assert!(count(&reg, "lisa_conform_shrink_steps_total") > 0, "shrinking evaluated candidates");
}

#[test]
fn fault_at_later_cycle_is_also_caught() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let config = FuzzConfig {
        seed: 3,
        iters: 8,
        fault: Some(Fault { at_cycle: 5 }),
        ..FuzzConfig::default()
    };
    let fuzzer = Fuzzer::new(&wb, config).unwrap();
    let report = fuzzer.run();
    assert!(report.failure.is_some(), "fault at cycle 5 went undetected: {report:?}");
}

/// A model without the workbench's halt flag, whose halt instruction
/// assigns a *local* of that name, is an error for the generator, not a
/// panic (`lisa-tool fuzz <file.lisa>` runs untrusted models).
#[test]
fn generator_rejects_a_model_without_its_halt_flag() {
    let source = lisa_models::tinyrisc::SOURCE
        .replace("REGISTER bit halt;", "REGISTER bit stopped;")
        .replace("BEHAVIOR { halt = 1; }", "BEHAVIOR { int halt; halt = 1; stopped = 1; }")
        .replace("if (halt == 0)", "if (stopped == 0)");
    let wb = Workbench::from_source(&source, "pmem", "halt").expect("model builds");
    assert!(wb.model().resource_by_name("halt").is_none());
    let err = lisa_conform::ProgramGen::new(&wb).err().expect("no halt word");
    assert!(matches!(err, lisa_conform::GenError::NoHaltWord { .. }), "{err}");
}
