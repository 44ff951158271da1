//! Property test for the checkpoint/restore API: interrupting a run at
//! an arbitrary split point with [`Simulator::snapshot`] and resuming it
//! in a fresh simulator via [`Simulator::restore`] must be unobservable —
//! the resumed run's final architectural state and statistics equal an
//! uninterrupted run's, on every model and in both simulation modes.
//!
//! [`Simulator::snapshot`]: lisa_sim::Simulator::snapshot
//! [`Simulator::restore`]: lisa_sim::Simulator::restore

use lisa_models::kernels::{accu_dot_product, load_kernel, tiny_fib, Kernel};
use lisa_models::{accu16, tinyrisc, Workbench};
use lisa_sim::{SimMode, Simulator};
use proptest::prelude::*;

/// Runs the simulator to the halt flag, returning the steps taken — zero
/// when the restored snapshot was already past the halt point
/// (`run_until` checks the predicate only after stepping, so it would
/// otherwise execute one cycle beyond the reference run).
fn finish(wb: &Workbench, sim: &mut Simulator<'_>, max_steps: u64) -> u64 {
    let halt = wb.model().resource_by_name(wb.halt_flag()).expect("halt flag");
    if sim.state().read_int(halt, &[]).unwrap_or(0) != 0 {
        return 0;
    }
    wb.run_to_halt(sim, max_steps).expect("run to halt")
}

/// Runs `kernel` to completion uninterrupted, then again with a
/// snapshot/restore break after `split_seed % (total + 1)` steps, and
/// asserts the two executions are indistinguishable.
fn assert_split_is_unobservable(wb: &Workbench, kernel: &Kernel, mode: SimMode, split_seed: u64) {
    // Uninterrupted reference run.
    let mut reference = load_kernel(wb, kernel, mode).expect("kernel loads");
    let total = wb.run_to_halt(&mut reference, kernel.max_steps).expect("reference run");
    let reference_digest = reference.state().digest();
    let reference_stats = *reference.stats();

    // Interrupted run: advance k steps, checkpoint, throw the simulator
    // away, and resume from the snapshot in a brand-new one.
    let k = split_seed % (total + 1);
    let mut first_half = load_kernel(wb, kernel, mode).expect("kernel loads");
    first_half.run(k).expect("prefix runs");
    let snapshot = first_half.snapshot();
    drop(first_half);

    // A snapshot carries no word cache, so the fresh simulator binds the
    // restored program itself, as a fork that reloads its program does;
    // the decode-hit count then matches too.
    let mut resumed = wb.simulator(mode).expect("fresh simulator");
    resumed.restore(&snapshot).expect("snapshot restores");
    resumed.predecode_program_memory();
    let remaining = finish(wb, &mut resumed, kernel.max_steps);

    assert_eq!(
        k + remaining,
        total,
        "kernel `{}` ({mode:?}): split at {k} changed the cycle count",
        kernel.name
    );
    assert_eq!(
        resumed.state().digest(),
        reference_digest,
        "kernel `{}` ({mode:?}): split at {k} changed the final state",
        kernel.name
    );
    assert_eq!(
        *resumed.stats(),
        reference_stats,
        "kernel `{}` ({mode:?}): split at {k} changed the statistics",
        kernel.name
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tinyrisc_snapshot_restore_resume_matches_uninterrupted_run(
        n in 1usize..=20,
        split_seed in any::<u64>(),
        mode_seed in 0usize..2,
    ) {
        let wb = tinyrisc::workbench().expect("tinyrisc builds");
        let mode = [SimMode::Interpretive, SimMode::Ops][mode_seed];
        assert_split_is_unobservable(&wb, &tiny_fib(n), mode, split_seed);
    }

    #[test]
    fn accu16_snapshot_restore_resume_matches_uninterrupted_run(
        n in 1usize..=16,
        split_seed in any::<u64>(),
        mode_seed in 0usize..2,
    ) {
        let wb = accu16::workbench().expect("accu16 builds");
        let mode = [SimMode::Interpretive, SimMode::Ops][mode_seed];
        assert_split_is_unobservable(&wb, &accu_dot_product(n), mode, split_seed);
    }

    #[test]
    fn cross_mode_restore_reaches_the_same_final_state(
        n in 1usize..=12,
        split_seed in any::<u64>(),
    ) {
        // A snapshot taken from the interpretive backend resumes on the
        // ops backend; both backends are cycle-accurate over the
        // same model, so the final state and cycle count must agree.
        let wb = tinyrisc::workbench().expect("tinyrisc builds");
        let kernel = tiny_fib(n);

        let mut reference = load_kernel(&wb, &kernel, SimMode::Interpretive).expect("loads");
        let total = wb.run_to_halt(&mut reference, kernel.max_steps).expect("reference run");

        let k = split_seed % (total + 1);
        let mut first_half = load_kernel(&wb, &kernel, SimMode::Interpretive).expect("loads");
        first_half.run(k).expect("prefix runs");
        let snapshot = first_half.snapshot();

        let mut resumed = wb.simulator(SimMode::Ops).expect("ops sim");
        resumed.restore(&snapshot).expect("cross-mode restore");
        resumed.predecode_program_memory();
        let remaining = finish(&wb, &mut resumed, kernel.max_steps);

        prop_assert_eq!(k + remaining, total);
        prop_assert_eq!(resumed.state().digest(), reference.state().digest());
    }
}
