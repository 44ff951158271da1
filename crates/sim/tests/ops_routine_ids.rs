//! Pins the ops backend's routine-id handles at the two places they are
//! easiest to get wrong: snapshots taken while bound activations are in
//! flight (ids must round-trip through the portable decoded form), and a
//! translate-on-miss that appends to the routine store while an outer
//! routine (vliw62's `Dispatch`, which runs `decode;` in a loop) is still
//! executing.

use lisa_models::kernels::{self, Kernel};
use lisa_models::{vliw62, Workbench};
use lisa_sim::{SimMode, Simulator};

fn halt_flag(wb: &Workbench, sim: &Simulator<'_>) -> bool {
    let halt = wb.model().resource_by_name(wb.halt_flag()).expect("halt flag");
    sim.state().read_int(halt, &[]).expect("halt reads") != 0
}

/// Steps `sim` to halt and returns the cycle it halted at.
fn finish(wb: &Workbench, sim: &mut Simulator<'_>, kernel: &Kernel) -> u64 {
    wb.run_to_halt(sim, kernel.max_steps).expect("halts");
    sim.stats().cycles
}

#[test]
fn ops_snapshots_at_every_cycle_restore_into_any_simulator() {
    let wb = vliw62::workbench().expect("vliw62 builds");
    let kernel = kernels::vliw_dot_product(3);

    let mut reference = kernels::load_kernel(&wb, &kernel, SimMode::Ops).expect("loads");
    let total = finish(&wb, &mut reference, &kernel);
    let want = reference.state().digest();

    let mut live = kernels::load_kernel(&wb, &kernel, SimMode::Ops).expect("loads");
    let mut fresh_ops = wb.simulator(SimMode::Ops).expect("builds");
    let mut fresh_interp = wb.simulator(SimMode::Interpretive).expect("builds");
    let mut max_in_flight = 0;
    for cycle in 0..total {
        assert_eq!(live.stats().cycles, cycle);
        max_in_flight = max_in_flight.max(live.in_flight());
        let snap = live.snapshot();

        // Into the same simulator: run ahead to halt, rewind, carry on.
        assert_eq!(finish(&wb, &mut live, &kernel), total, "same sim from cycle {cycle}");
        assert_eq!(live.state().digest(), want, "same sim from cycle {cycle}");
        live.restore(&snap).expect("restores");

        for (label, sim) in [("fresh ops", &mut fresh_ops), ("interp", &mut fresh_interp)] {
            sim.restore(&snap).expect("restores");
            assert_eq!(finish(&wb, sim, &kernel), total, "{label} from cycle {cycle}");
            assert_eq!(sim.state().digest(), want, "{label} from cycle {cycle}");
        }

        live.step().expect("steps");
    }
    assert!(halt_flag(&wb, &live));
    assert!(max_in_flight > 0, "no activation was ever in flight at a snapshot");
}

#[test]
fn translate_on_miss_mid_run_matches_the_interpreter() {
    let wb = vliw62::workbench().expect("vliw62 builds");
    let kernel = kernels::vliw_dot_product(4);
    // A variant whose one changed word (the result address after the
    // loop) appears nowhere in the loaded program, so no predecode saw it.
    let mut patched = kernel.clone();
    patched.source = kernel.source.replace("MVK A11, 2048", "MVK A11, 2052");
    assert_ne!(patched.source, kernel.source);

    let pmem = wb.model().resource_by_name(wb.program_memory()).expect("pmem");
    let image = |k: &Kernel| {
        let sim = kernels::load_kernel(&wb, k, SimMode::Interpretive).expect("loads");
        let n = sim.state().element_count(pmem.id);
        (0..n as i64).map(|i| sim.state().read_int(pmem, &[i]).expect("reads")).collect::<Vec<_>>()
    };
    let (before, after) = (image(&kernel), image(&patched));
    let diffs: Vec<usize> = (0..before.len()).filter(|&i| before[i] != after[i]).collect();
    assert_eq!(diffs.len(), 1, "exactly one word differs");
    let (addr, word) = (diffs[0] as i64, after[diffs[0]]);

    let mut ops = kernels::load_kernel(&wb, &kernel, SimMode::Ops).expect("loads");
    let mut interp = kernels::load_kernel(&wb, &kernel, SimMode::Interpretive).expect("loads");
    let misses = |sim: &Simulator<'_>| sim.stats().decodes - sim.stats().decode_cache_hits;
    for cycle in 0..kernel.max_steps {
        if cycle == 3 {
            assert_eq!(misses(&ops), 0, "predecode covered every word");
            for sim in [&mut ops, &mut interp] {
                sim.state_mut().write_int(pmem, &[addr], word).expect("patches");
            }
        }
        ops.step().expect("ops steps");
        interp.step().expect("interp steps");
        assert_eq!(ops.state().digest(), interp.state().digest(), "diverged at cycle {cycle}");
        if halt_flag(&wb, &interp) {
            assert!(halt_flag(&wb, &ops));
            assert_eq!(misses(&ops), 1, "the patched word translated on its first fetch");
            let dmem = wb.model().resource_by_name("dmem").expect("dmem");
            let a9 = ops.state().read_int(wb.model().resource_by_name("A").expect("A"), &[9]);
            let low = ops.state().read_int(dmem, &[2052]).expect("stored");
            assert_eq!(low & 0xFF, a9.expect("A9") & 0xFF, "the patched store ran");
            return;
        }
    }
    panic!("the patched kernel never halted");
}

#[test]
fn predecode_keys_words_with_the_sign_bit_set_as_fetch_sees_them() {
    let wb = vliw62::workbench().expect("vliw62 builds");
    // The predicate sets bit 31, so the `int` program-memory cell holding
    // this word is negative.
    let program = ["[A1] MVK A3, 333", "HALT"];
    let words = wb.assemble(&program).expect("assembles");
    assert_eq!(words[0], 0x8686_029a);
    let sim = wb.run_program(&program, SimMode::Ops, 100).expect("runs");
    let stats = sim.stats();
    assert!(stats.decodes > 0);
    assert_eq!(stats.decodes, stats.decode_cache_hits, "every fetch hits a predecoded word");
}
