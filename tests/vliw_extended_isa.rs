//! Behavior tests for the extended vliw62 instructions (division step,
//! bit detection, SIMD halfword operations, address scaling, register
//! branches and register-offset memory), in both simulation backends.

use lisa::models::vliw62::{self, assemble_packets};
use lisa::models::Workbench;
use lisa::sim::{SimMode, Simulator};

fn run_both<'m>(wb: &'m Workbench, packets: &[&[&str]]) -> Vec<Simulator<'m>> {
    let (words, _) = assemble_packets(wb, packets).expect("assembles");
    let mut sims = Vec::new();
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut sim = wb.simulator(mode).expect("sim");
        sim.load_program("pmem", &words).unwrap();
        wb.run_to_halt(&mut sim, 5_000).expect("halts");
        sims.push(sim);
    }
    assert_eq!(sims[0].state(), sims[1].state(), "backends diverged");
    sims
}

fn a_reg(sim: &Simulator<'_>, wb: &Workbench, i: i64) -> i64 {
    sim.state().read_int(wb.model().resource_by_name("A").unwrap(), &[i]).unwrap()
}

#[test]
fn subc_implements_the_division_step() {
    let wb = vliw62::workbench().expect("builds");
    // 32 SUBC steps divide A2 by A3: 100 / 7 = 14 remainder 2.
    // Numerator pre-shifted into position: standard C62x division idiom is
    // iterative; here verify one step's arithmetic directly.
    let sims = run_both(
        &wb,
        &[
            &["MVK A2, 100"],
            &["MVK A3, 60"],
            &["SUBC A4, A2, A3"], // 100 >= 60 → ((100-60)<<1)+1 = 81
            &["SUBC A5, A3, A2"], // 60 < 100 → 60<<1 = 120
            &["HALT"],
        ],
    );
    assert_eq!(a_reg(&sims[0], &wb, 4), 81);
    assert_eq!(a_reg(&sims[0], &wb, 5), 120);
}

#[test]
fn lmbd_finds_the_leftmost_bit() {
    let wb = vliw62::workbench().expect("builds");
    let sims = run_both(
        &wb,
        &[
            &["MVK A2, 1"], // search for a 1 bit
            &["MVK A3, 0"], // search for a 0 bit
            &["MVK A4, 0x0F00"],
            &["ZERO A5"],
            &["LMBD A6, A2, A4"], // leftmost 1 of 0x0F00 is bit 11 → 20
            &["LMBD A7, A2, A5"], // no 1 bit → 32
            &["LMBD A8, A3, A4"], // leftmost 0 of 0x0F00 is bit 31 → 0
            &["HALT"],
        ],
    );
    assert_eq!(a_reg(&sims[0], &wb, 6), 20);
    assert_eq!(a_reg(&sims[0], &wb, 7), 32);
    assert_eq!(a_reg(&sims[0], &wb, 8), 0);
}

#[test]
fn sshl_saturates_on_overflow() {
    let wb = vliw62::workbench().expect("builds");
    let sims = run_both(
        &wb,
        &[
            &["MVK A2, 0x4000"],
            &["MVKH A2, 0x4000"], // A2 = 0x40004000
            &["SSHL A3, A2, 1"],  // overflows → 0x7FFFFFFF
            &["MVK A4, 3"],
            &["SSHL A5, A4, 2"], // in range → 12
            &["HALT"],
        ],
    );
    assert_eq!(a_reg(&sims[0], &wb, 3), i64::from(i32::MAX));
    assert_eq!(a_reg(&sims[0], &wb, 5), 12);
}

#[test]
fn simd_compares_and_minmax() {
    let wb = vliw62::workbench().expect("builds");
    let sims = run_both(
        &wb,
        &[
            &["MVK A2, 5"],
            &["MVKH A2, 0x1"], // A2 = {hi: 1, lo: 5}
            &["MVK A3, 5"],
            &["MVKH A3, 0x2"],      // A3 = {hi: 2, lo: 5}
            &["CMPEQ2 A4, A2, A3"], // lo equal (bit0), hi differ → 0b01
            &["CMPGT2 A5, A3, A2"], // lo not >, hi 2>1 → 0b10
            &["MAX2 A6, A2, A3"],   // {2, 5}
            &["MIN2 A7, A2, A3"],   // {1, 5}
            &["HALT"],
        ],
    );
    assert_eq!(a_reg(&sims[0], &wb, 4), 0b01);
    assert_eq!(a_reg(&sims[0], &wb, 5), 0b10);
    assert_eq!(a_reg(&sims[0], &wb, 6) as u32, 0x0002_0005);
    assert_eq!(a_reg(&sims[0], &wb, 7) as u32, 0x0001_0005);
}

#[test]
fn mixed_sign_multiplies() {
    let wb = vliw62::workbench().expect("builds");
    let sims = run_both(
        &wb,
        &[
            &["MVK A2, -2"], // low half 0xFFFE
            &["MVK A3, 3"],
            &["MPYSU A4, A2, A3"], // -2 * 3 = -6
            &["MPYUS A5, A2, A3"], // 0xFFFE * 3 = 196602
            &["NOP 2"],
            &["HALT"],
        ],
    );
    assert_eq!(a_reg(&sims[0], &wb, 4), -6);
    assert_eq!(a_reg(&sims[0], &wb, 5), 196_602);
}

#[test]
fn address_scaling_adds_and_subs() {
    let wb = vliw62::workbench().expect("builds");
    let sims = run_both(
        &wb,
        &[
            &["MVK A2, 1000"],
            &["MVK A3, 5"],
            &["ADDAB A4, A2, A3"], // 1005
            &["ADDAH A5, A2, A3"], // 1010
            &["ADDAW A6, A2, A3"], // 1020
            &["SUBAB A7, A2, A3"], // 995
            &["SUBAH A8, A2, A3"], // 990
            &["SUBAW A9, A2, A3"], // 980
            &["HALT"],
        ],
    );
    assert_eq!(
        (4..=9).map(|i| a_reg(&sims[0], &wb, i)).collect::<Vec<_>>(),
        vec![1005, 1010, 1020, 995, 990, 980]
    );
}

#[test]
fn register_offset_memory_round_trips() {
    let wb = vliw62::workbench().expect("builds");
    let sims = run_both(
        &wb,
        &[
            &["MVK A10, 256"],
            &["MVK A11, 3"], // register offset (scaled by 4)
            &["MVK A2, -777"],
            &["STW A2, *+ A10[A11]"],
            &["LDW *+ A10[A11], A3"],
            &["NOP 5"],
            &["HALT"],
        ],
    );
    assert_eq!(a_reg(&sims[0], &wb, 3), -777);
    // Verify the byte address actually used: 256 + 3*4 = 268.
    let dmem = wb.model().resource_by_name("dmem").unwrap();
    let lo = sims[0].state().read_int(dmem, &[268]).unwrap() & 0xFF;
    assert_eq!(lo, (-777i64) & 0xFF);
}

#[test]
fn register_branch_jumps_to_computed_target() {
    let wb = vliw62::workbench().expect("builds");
    let packets: Vec<&[&str]> = vec![
        &["MVK A2, 9"], // target address, computed in a register
        &["B A2"],      // register branch
        &["NOP 1"],
        &["NOP 1"],
        &["NOP 1"],
        &["NOP 1"],
        &["NOP 1"],     // 5 delay slots
        &["MVK A3, 1"], // annulled fall-through
        &["MVK A4, 1"], // annulled
        &["MVK A5, 1"], // word 9: the target
        &["HALT"],
    ];
    let sims = run_both(&wb, &packets);
    assert_eq!(a_reg(&sims[0], &wb, 3), 0, "fall-through annulled");
    assert_eq!(a_reg(&sims[0], &wb, 5), 1, "target executed");
}

#[test]
fn mvkl_alias_matches_mvk() {
    let wb = vliw62::workbench().expect("builds");
    let mvkl = wb.assemble(&["MVKL A1, 77"]).unwrap()[0];
    let mvk = wb.assemble(&["MVK A1, 77"]).unwrap()[0];
    assert_eq!(mvkl, mvk);
    assert_eq!(wb.disassemble(mvkl).unwrap(), "MVK A1, 77");
}

#[test]
fn extended_isa_raises_model_statistics() {
    let wb = vliw62::workbench().expect("builds");
    let stats = lisa::core::model::ModelStats::of(wb.model());
    assert!(stats.instructions >= 72, "{stats}");
    assert!(stats.aliases >= 3, "{stats}");
    assert!(stats.operations >= 100, "{stats}");
}

/// Known deviation 4 (EXPERIMENTS.md): slots of one execute packet run
/// in slot order, so a later slot reads the value an earlier slot of the
/// same packet just wrote. The C62x reads all operands before any write
/// and would leave A2 = 7 + 7 = 14; this test pins today's semantics and
/// is meant to flip when the deviation is fixed.
#[test]
fn later_slot_sees_an_earlier_slot_write_in_the_same_packet() {
    let wb = vliw62::workbench().expect("builds");
    let sims = run_both(&wb, &[&["MVK A1, 7"], &["MVK A1, 5", "ADD .L A2, A1, A1"], &["HALT"]]);
    for sim in &sims {
        assert_eq!(a_reg(sim, &wb, 1), 5, "{:?}", sim.mode());
        assert_eq!(a_reg(sim, &wb, 2), 10, "{:?}: ADD saw the new A1", sim.mode());
    }
}
