//! Pins the cross-mode snapshot/restore contract: a snapshot captured
//! in either backend restores into either backend and the continuation
//! is bit-exact, while a snapshot from a *different model* fails with
//! the typed [`SimError::SnapshotMismatch`]. This is the contract the
//! lisa-conform snapshot oracle fuzzes; these tests keep it pinned even
//! if the fuzz corpus ever rotates.

use lisa_models::Workbench;
use lisa_sim::{SimError, SimMode, Simulator};

fn all_workbenches() -> Vec<(&'static str, Workbench)> {
    vec![
        ("tinyrisc", lisa_models::tinyrisc::workbench().unwrap()),
        ("scalar2", lisa_models::scalar2::workbench().unwrap()),
        ("accu16", lisa_models::accu16::workbench().unwrap()),
        ("vliw62", lisa_models::vliw62::workbench().unwrap()),
    ]
}

/// A small program with register traffic, memory writes and a loop-free
/// tail, assembled per model via the workbench's kernel-free syntax.
fn demo_program(name: &str) -> Vec<&'static str> {
    match name {
        "tinyrisc" => {
            vec!["LDI R1, 7", "LDI R2, 5", "ADD R3, R1, R2", "MUL R4, R3, R1", "ST R4, R2", "HLT"]
        }
        "scalar2" => vec!["LDI R1, 9", "LDI R2, 4", "ADD R3, R1, R2", "MUL R4, R3, R2", "HLT"],
        "accu16" => vec!["MOVI r1, 11", "MOVI r2, 3", "MPY r1, r2", "SAT16", "HLT"],
        "vliw62" => vec!["MVK A1, 40", "MVK B1, 2", "ADD .L A2, A1, A1", "HALT"],
        other => panic!("no demo program for {other}"),
    }
}

fn boot<'w>(wb: &'w Workbench, mode: SimMode, words: &[u128]) -> Simulator<'w> {
    let mut sim = wb.simulator(mode).unwrap();
    sim.load_program(wb.program_memory(), words).unwrap();
    sim
}

/// Snapshot mid-run in `from` mode, restore into `to` mode, and require
/// the continuation to halt at the same cycle with the same digest as
/// the uninterrupted `from`-mode run.
fn check_cross(wb: &Workbench, name: &str, from: SimMode, to: SimMode) {
    let words = wb.assemble(&demo_program(name)).unwrap();

    let mut uninterrupted = boot(wb, from, &words);
    let total = wb.run_to_halt(&mut uninterrupted, 1000).unwrap();
    let want_digest = uninterrupted.state().digest();
    if total < 2 {
        panic!("{name}: demo program too short to snapshot mid-run");
    }

    let mut source = boot(wb, from, &words);
    source.run(total / 2).unwrap();
    let snap = source.snapshot();
    assert_eq!(snap.mode(), from);

    let mut resumed = wb.simulator(to).unwrap();
    resumed.restore(&snap).expect("cross-mode restore succeeds");
    assert_eq!(resumed.mode(), to, "restore must not change the simulator's own mode");
    assert_eq!(
        resumed.state().digest(),
        snap.state().digest(),
        "{name}: restore into {to:?} changed architectural state"
    );

    let rest = wb.run_to_halt(&mut resumed, 1000).unwrap();
    assert_eq!(
        total / 2 + rest,
        total,
        "{name}: {from:?}->{to:?} continuation halted at a different cycle"
    );
    assert_eq!(
        resumed.state().digest(),
        want_digest,
        "{name}: {from:?}->{to:?} continuation diverged from the uninterrupted run"
    );
}

#[test]
fn interpretive_snapshot_restores_into_compiled_bit_exactly() {
    for (name, wb) in all_workbenches() {
        check_cross(&wb, name, SimMode::Interpretive, SimMode::Ops);
    }
}

#[test]
fn compiled_snapshot_restores_into_interpretive_bit_exactly() {
    for (name, wb) in all_workbenches() {
        check_cross(&wb, name, SimMode::Ops, SimMode::Interpretive);
    }
}

#[test]
fn same_mode_restores_stay_bit_exact_too() {
    for (name, wb) in all_workbenches() {
        check_cross(&wb, name, SimMode::Interpretive, SimMode::Interpretive);
        check_cross(&wb, name, SimMode::Ops, SimMode::Ops);
    }
}

#[test]
fn compiled_snapshot_restores_into_the_interpreter_without_decoding_ahead() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let words = wb.assemble(&demo_program("tinyrisc")).unwrap();
    let mut ops = boot(&wb, SimMode::Ops, &words);
    ops.run(2).unwrap();
    let snap = ops.snapshot();
    let warm = snap.stats();
    assert!(warm.decodes > 0);
    assert_eq!(warm.decodes, warm.decode_cache_hits, "ops fetches hit its pre-decoded words");

    // An interpretive simulator accepts the snapshot, decodes nothing
    // ahead, and every later fetch is a fresh decode.
    let mut interp = wb.simulator(SimMode::Interpretive).unwrap();
    interp.restore(&snap).unwrap();
    assert_eq!(interp.predecode_program_memory(), 0);
    wb.run_to_halt(&mut interp, 1000).unwrap();
    assert!(interp.stats().decodes > warm.decodes);
    assert_eq!(interp.stats().decode_cache_hits, warm.decode_cache_hits);
}

/// The `lisa-exec` fork: a fresh ops simulator restored from an ops
/// snapshot and then loaded binds the program in its own word cache and
/// continues exactly as the uninterrupted run.
#[test]
fn fresh_ops_simulator_restored_and_loaded_matches_the_uninterrupted_run() {
    for (name, wb) in all_workbenches() {
        let words = wb.assemble(&demo_program(name)).unwrap();
        let mut uninterrupted = boot(&wb, SimMode::Ops, &words);
        let total = wb.run_to_halt(&mut uninterrupted, 1000).unwrap();

        let mut source = boot(&wb, SimMode::Ops, &words);
        source.run(total / 2).unwrap();
        let snap = source.snapshot();

        // The snapshot carries no word cache: the fresh simulator's own
        // is empty until it predecodes.
        let mut bare = wb.simulator(SimMode::Ops).unwrap();
        bare.restore(&snap).unwrap();
        assert!(bare.predecode_program_memory() > 0, "{name}: restore bound no word");

        let mut fork = wb.simulator(SimMode::Ops).unwrap();
        fork.restore(&snap).unwrap();
        fork.load_program(wb.program_memory(), &words).unwrap();
        let rest = wb.run_to_halt(&mut fork, 1000).unwrap();
        assert_eq!(total / 2 + rest, total, "{name}: cycles");
        assert_eq!(fork.state().digest(), uninterrupted.state().digest(), "{name}: digest");
        assert_eq!(fork.stats(), uninterrupted.stats(), "{name}: stats");
        let stats = fork.stats();
        assert_eq!(stats.decodes, stats.decode_cache_hits, "{name}: every fetch hits");
    }
}

#[test]
fn foreign_model_snapshot_fails_with_the_typed_error() {
    let tinyrisc = lisa_models::tinyrisc::workbench().unwrap();
    let scalar2 = lisa_models::scalar2::workbench().unwrap();
    let donor = tinyrisc.simulator(SimMode::Interpretive).unwrap();
    let snap = donor.snapshot();
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut sim = scalar2.simulator(mode).unwrap();
        match sim.restore(&snap) {
            Err(SimError::SnapshotMismatch) => {}
            other => panic!("expected SnapshotMismatch restoring into {mode:?}, got {other:?}"),
        }
    }
    assert_eq!(
        SimError::SnapshotMismatch.to_string(),
        "snapshot does not match this simulator's resource layout"
    );
}
