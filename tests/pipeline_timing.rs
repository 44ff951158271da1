//! Experiment E7 — pipeline mechanism timing on the vliw62 model: fetch
//! pipeline fill, load/multiply delay slots, branch delay slots, and the
//! multicycle-NOP stall of paper Example 5. Each test pins the exact
//! cycle distances the model exhibits, which are also the C62x's
//! documented values.

use lisa::models::vliw62::{self, assemble_packets};
use lisa::models::Workbench;
use lisa::sim::{SimMode, Simulator};

fn run<'m>(wb: &'m Workbench, packets: &[&[&str]]) -> Simulator<'m> {
    let (words, _) = assemble_packets(wb, packets).expect("assembles");
    let mut sim = wb.simulator(SimMode::Interpretive).expect("sim");
    sim.load_program("pmem", &words).unwrap();
    wb.run_to_halt(&mut sim, 5_000).expect("halts");
    sim
}

fn a_reg(sim: &Simulator<'_>, wb: &Workbench, i: i64) -> i64 {
    sim.state().read_int(wb.model().resource_by_name("A").unwrap(), &[i]).unwrap()
}

/// Cycle cost of an empty program: the fetch pipeline fill plus the
/// dispatch-to-E1 skew. Pinning it catches accidental pipeline-depth
/// changes.
#[test]
fn empty_program_cost_is_the_pipeline_fill() {
    let wb = vliw62::workbench().expect("builds");
    let sim = run(&wb, &[&["HALT"]]);
    // PG..DP fill (4 inter-stage cycles) + DC→E1 activation skew (2) +
    // the halt-observing step itself.
    assert_eq!(sim.stats().cycles, 7, "pipeline fill depth changed");
}

/// Every extra serial execute packet costs exactly one cycle.
#[test]
fn serial_dispatch_is_one_packet_per_cycle() {
    let wb = vliw62::workbench().expect("builds");
    let mut last = 0;
    for n in [1usize, 4, 9, 17] {
        let mut packets: Vec<&[&str]> = Vec::new();
        for _ in 0..n {
            packets.push(&["NOP 1"]);
        }
        packets.push(&["HALT"]);
        let sim = run(&wb, &packets);
        let cycles = sim.stats().cycles;
        if last != 0 {
            // Difference between consecutive sizes is the packet count delta.
            assert_eq!(cycles - last, (n - last_n(n)) as u64, "n={n}");
        }
        last = cycles;
    }

    fn last_n(n: usize) -> usize {
        match n {
            4 => 1,
            9 => 4,
            17 => 9,
            _ => 0,
        }
    }
}

/// A fully parallel packet (8 slots) costs one cycle, like one serial
/// instruction.
#[test]
fn parallel_packet_costs_one_cycle() {
    let wb = vliw62::workbench().expect("builds");
    let serial = run(&wb, &[&["MVK A2, 1"], &["HALT"]]);
    let parallel = run(
        &wb,
        &[
            &[
                "MVK A2, 1",
                "MVK A3, 2",
                "MVK A4, 3",
                "MVK A5, 4",
                "MVK B4, 5",
                "MVK B5, 6",
                "MVK B6, 7",
            ],
            &["HALT"],
        ],
    );
    assert_eq!(serial.stats().cycles, parallel.stats().cycles);
    assert_eq!(a_reg(&parallel, &wb, 5), 4);
}

/// MPY: exactly one delay slot (C62x value).
#[test]
fn multiply_delay_is_exactly_one_cycle() {
    let wb = vliw62::workbench().expect("builds");
    let sim = run(
        &wb,
        &[
            &["MVK A2, 21"],
            &["MPY A3, A2, A2"],
            &["MV .L A4, A3"], // delay slot: old value
            &["MV .L A5, A3"], // first visible
            &["HALT"],
        ],
    );
    assert_eq!(a_reg(&sim, &wb, 4), 0);
    assert_eq!(a_reg(&sim, &wb, 5), 441);
}

/// LDW: exactly four delay slots (C62x value).
#[test]
fn load_delay_is_exactly_four_cycles() {
    let wb = vliw62::workbench().expect("builds");
    let (words, _) = assemble_packets(
        &wb,
        &[
            &["MVK A10, 128"],
            &["LDW *+A10[0], A2"],
            &["MV .L A3, A2"],
            &["MV .L A4, A2"],
            &["MV .L A5, A2"],
            &["MV .L A6, A2"],
            &["MV .L A7, A2"],
            &["HALT"],
        ],
    )
    .expect("assembles");
    let mut sim = wb.simulator(SimMode::Interpretive).expect("sim");
    sim.load_program("pmem", &words).unwrap();
    let dmem = wb.model().resource_by_name("dmem").unwrap().clone();
    sim.state_mut().write_int(&dmem, &[128], 0x5A).unwrap();
    wb.run_to_halt(&mut sim, 5_000).expect("halts");
    assert_eq!(
        [
            a_reg(&sim, &wb, 3),
            a_reg(&sim, &wb, 4),
            a_reg(&sim, &wb, 5),
            a_reg(&sim, &wb, 6),
            a_reg(&sim, &wb, 7)
        ],
        [0, 0, 0, 0, 0x5A],
        "exactly four delay slots"
    );
}

/// Branch: exactly five delay-slot execute packets run; the sixth
/// fall-through packet is annulled (C62x value).
#[test]
fn branch_executes_exactly_five_delay_slots() {
    let wb = vliw62::workbench().expect("builds");
    let packets: Vec<&[&str]> = vec![
        &["MVK B2, 1"], // predicate source
        &["[B2] B 9"],  // taken branch; target = packet `land` below
        &["MVK A2, 1"], // ds 1
        &["MVK A3, 1"], // ds 2
        &["MVK A4, 1"], // ds 3
        &["MVK A5, 1"], // ds 4
        &["MVK A6, 1"], // ds 5 — last executed fall-through
        &["MVK A7, 1"], // annulled
        &["MVK A8, 1"], // annulled
        &["MVK A9, 1"], // land: target (word address 9)
        &["HALT"],
    ];
    let (words, labels) = assemble_packets(&wb, &packets).expect("assembles");
    assert_eq!(labels[9], 9, "branch target address");
    let mut sim = wb.simulator(SimMode::Interpretive).expect("sim");
    sim.load_program("pmem", &words).unwrap();
    wb.run_to_halt(&mut sim, 5_000).expect("halts");
    assert_eq!(
        (1..=8).map(|i| a_reg(&sim, &wb, i)).collect::<Vec<_>>(),
        vec![0, 1, 1, 1, 1, 1, 0, 0],
        "A2..A6 (five delay slots) execute; A7..A8 are annulled"
    );
    assert_eq!(a_reg(&sim, &wb, 9), 1, "execution continues at the target");
}

/// A not-taken branch annuls nothing.
#[test]
fn untaken_branch_falls_through() {
    let wb = vliw62::workbench().expect("builds");
    let sim = run(
        &wb,
        &[
            &["MVK B2, 0"],
            &["[B2] B 0"], // never taken
            &["MVK A2, 7"],
            &["HALT"],
        ],
    );
    assert_eq!(a_reg(&sim, &wb, 2), 7);
    assert_eq!(sim.stats().flushes, 0, "an untaken branch flushes nothing");
}

/// NOP n stalls dispatch for n-1 cycles beyond NOP 1 (paper Example 5's
/// multicycle NOP).
#[test]
fn multicycle_nop_scales_linearly() {
    let wb = vliw62::workbench().expect("builds");
    let base = run(&wb, &[&["NOP 1"], &["HALT"]]).stats().cycles;
    for n in 2..=9 {
        let nop = format!("NOP {n}");
        let first: [&str; 1] = [nop.as_str()];
        let packets: Vec<&[&str]> = vec![&first, &["HALT"]];
        let cycles = run(&wb, &packets).stats().cycles;
        assert_eq!(cycles - base, (n - 1) as u64, "NOP {n}");
    }
}

/// Stall statistics are recorded while the multicycle NOP holds DP/DC.
#[test]
fn stall_statistics_reflect_the_nop() {
    let wb = vliw62::workbench().expect("builds");
    let sim = run(&wb, &[&["NOP 5"], &["HALT"]]);
    assert_eq!(sim.stats().stalls, 8, "two stall calls per held cycle");
}

/// Back-to-back loads pipeline through the in-flight queue without
/// interfering (queue depth covers 4 concurrent loads).
#[test]
fn overlapping_loads_all_retire() {
    let wb = vliw62::workbench().expect("builds");
    let (words, _) = assemble_packets(
        &wb,
        &[
            &["MVK A10, 64"],
            &["LDW *+A10[0], A2"],
            &["LDW *+A10[1], A3"],
            &["LDW *+A10[2], A4"],
            &["LDW *+A10[3], A5"],
            &["NOP 5"],
            &["HALT"],
        ],
    )
    .expect("assembles");
    let mut sim = wb.simulator(SimMode::Ops).expect("sim");
    sim.load_program("pmem", &words).unwrap();
    let dmem = wb.model().resource_by_name("dmem").unwrap().clone();
    for i in 0..4 {
        sim.state_mut().write_int(&dmem, &[64 + 4 * i], 10 + i).unwrap();
    }
    wb.run_to_halt(&mut sim, 5_000).expect("halts");
    assert_eq!(
        [a_reg(&sim, &wb, 2), a_reg(&sim, &wb, 3), a_reg(&sim, &wb, 4), a_reg(&sim, &wb, 5)],
        [10, 11, 12, 13]
    );
}

/// Two loads in one execute packet (the two D units): both retire after
/// the same four delay slots via the dual in-flight queues.
#[test]
fn dual_issued_loads_both_retire() {
    let wb = vliw62::workbench().expect("builds");
    let (words, _) = assemble_packets(
        &wb,
        &[
            &["MVK A10, 64", "MVK B10, 96"],
            &["LDW *+A10[0], A2", "LDW *+B10[0], B6"],
            &["MV .L A3, A2", "MV .L B7, B6"], // last delay slot pair sees 0
            &["NOP 3"],
            &["MV .L A4, A2", "MV .L B8, B6"], // after the delay slots
            &["HALT"],
        ],
    )
    .expect("assembles");
    let mut sim = wb.simulator(SimMode::Interpretive).expect("sim");
    sim.load_program("pmem", &words).unwrap();
    let dmem = wb.model().resource_by_name("dmem").unwrap().clone();
    sim.state_mut().write_int(&dmem, &[64], 0x11).unwrap();
    sim.state_mut().write_int(&dmem, &[96], 0x22).unwrap();
    wb.run_to_halt(&mut sim, 5_000).expect("halts");
    let b = wb.model().resource_by_name("B").unwrap().clone();
    assert_eq!(a_reg(&sim, &wb, 3), 0, "A-side delay slot");
    assert_eq!(sim.state().read_int(&b, &[7]).unwrap(), 0, "B-side delay slot");
    assert_eq!(a_reg(&sim, &wb, 4), 0x11, "A-side load retires");
    assert_eq!(sim.state().read_int(&b, &[8]).unwrap(), 0x22, "B-side load retires");
}
