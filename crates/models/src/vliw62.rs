//! `vliw62` — a TMS320C62xx-shaped 8-issue VLIW DSP, the reproduction of
//! the paper's §4 test case.
//!
//! What the model covers (and how it maps to the real C62x):
//!
//! * **Register files**: two sides, `A[16]` and `B[16]`, selected by the
//!   operand's side bit — the paper's Example 6 `SWITCH (Side)` pattern,
//!   verbatim.
//! * **Fetch pipeline**: `PG PS PW PR DP` exactly as paper Example 2,
//!   with one fetch packet (8 × 32-bit words) in flight per stage and
//!   behavioral back-pressure (a stage holds until downstream drains).
//! * **Dispatch**: execute packets are chains of instructions whose
//!   p-bit (word bit 0) links the next slot; one execute packet issues
//!   per cycle; multicycle `NOP n` stalls dispatch (paper Example 5's
//!   `multicycle_nop` stall of `DP`/`DC`).
//! * **Execute pipeline**: the decode root sits `IN execute_pipe.DC`; its
//!   `ACTIVATION { Instruction }` launches the decoded instruction into
//!   `E1` one shift later, carrying the operand binding.
//! * **Predication**: every instruction has a 3-bit predicate field
//!   (`[B0]`, `[!B0]`, `[A1]`, …) evaluated at E1.
//! * **Delay slots**: loads (4), multiplies (1) and branches are modelled
//!   with architectural in-flight queues advanced once per control step,
//!   so results appear the exact number of cycles later the C62x
//!   documents; branch redirection happens at the fetch stage while
//!   in-flight fall-through packets execute as delay slots.
//!
//! Instruction word (32 bits, custom encoding — we do not claim TI bit
//! compatibility): `pred[31:29] opcode[28:22] fields[21:1] p[0]`.

use crate::{Workbench, WorkbenchError};

/// Number of 32-bit words per fetch packet.
pub const FETCH_PACKET: usize = 8;

/// The LISA description of the core. See the module docs for the
/// architecture summary.
pub const SOURCE: &str = include_str!("vliw62.lisa");

/// Builds the workbench for `vliw62`.
///
/// # Errors
///
/// Returns [`WorkbenchError::Lisa`] if the embedded source fails to build
/// (a bug, covered by tests).
pub fn workbench() -> Result<Workbench, WorkbenchError> {
    let mut wb = Workbench::from_source(SOURCE, "pmem", "halt")?;
    wb.packet = Some(FETCH_PACKET);
    Ok(wb)
}

/// Assembles a program given as *execute packets* (each inner slice is a
/// set of instructions issued in parallel), applying the C62x packing
/// rules: p-bits chain the slots of an execute packet, and an execute
/// packet may not span a fetch-packet boundary (padding `NOP`s are
/// inserted).
///
/// Returns the packed program words and the word address of each execute
/// packet (usable as branch targets).
///
/// # Errors
///
/// Propagates assembly errors for any statement.
///
/// # Panics
///
/// Panics if an execute packet holds more than [`FETCH_PACKET`] slots.
pub fn assemble_packets(
    wb: &Workbench,
    packets: &[&[&str]],
) -> Result<(Vec<u128>, Vec<u64>), WorkbenchError> {
    let mut words: Vec<u128> = Vec::new();
    let mut labels = Vec::with_capacity(packets.len());
    let nop = wb.assemble(&["NOP 1"])?[0];
    for packet in packets {
        let mut encoded = wb.assemble(packet)?;
        assert!(
            encoded.len() <= FETCH_PACKET,
            "execute packet of {} slots exceeds the fetch packet",
            encoded.len()
        );
        // Pad to the next fetch-packet boundary if the execute packet
        // would straddle one.
        let pos = words.len() % FETCH_PACKET;
        if pos + encoded.len() > FETCH_PACKET {
            for _ in pos..FETCH_PACKET {
                words.push(nop);
            }
        }
        labels.push(words.len() as u64);
        // Set the p-bit on every slot but the last to chain the packet.
        let n = encoded.len();
        for (i, w) in encoded.iter_mut().enumerate() {
            if i + 1 < n {
                *w |= 1;
            }
        }
        words.extend(encoded);
    }
    // Pad the final fetch packet.
    while !words.len().is_multiple_of(FETCH_PACKET) {
        words.push(nop);
    }
    Ok((words, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_core::model::ModelStats;
    use lisa_sim::{SimMode, Simulator};

    fn run<'m>(wb: &'m Workbench, packets: &[&[&str]], mode: SimMode, max: u64) -> Simulator<'m> {
        let (words, _) = assemble_packets(wb, packets).expect("assembles");
        let mut sim = wb.simulator(mode).expect("sim builds");
        sim.load_program("pmem", &words).expect("loads");
        wb.run_to_halt(&mut sim, max).expect("halts");
        sim
    }

    fn a_reg(sim: &Simulator<'_>, wb: &Workbench, i: i64) -> i64 {
        sim.state().read_int(wb.model().resource_by_name("A").unwrap(), &[i]).unwrap()
    }

    fn b_reg(sim: &Simulator<'_>, wb: &Workbench, i: i64) -> i64 {
        sim.state().read_int(wb.model().resource_by_name("B").unwrap(), &[i]).unwrap()
    }

    #[test]
    fn model_builds_with_c62x_shape() {
        let wb = workbench().expect("builds");
        let model = wb.model();
        let fetch = model.pipelines().iter().find(|p| p.name == "fetch_pipe").expect("fetch pipe");
        assert_eq!(fetch.stages, ["PG", "PS", "PW", "PR", "DP"]);
        let exec =
            model.pipelines().iter().find(|p| p.name == "execute_pipe").expect("execute pipe");
        assert_eq!(exec.stages[0], "DC");
        let stats = ModelStats::of(model);
        assert!(stats.instructions >= 50, "broad ISA: {stats}");
        assert!(stats.aliases >= 2, "aliases present: {stats}");
        assert!(stats.operations >= 70, "operation count: {stats}");
    }

    #[test]
    fn serial_arithmetic_executes() {
        let wb = workbench().expect("builds");
        let sim = run(
            &wb,
            &[
                &["MVK A1, 6"],
                &["MVK A2, 7"],
                &["ADD .L A3, A1, A2"],
                &["SUB .L A4, A3, A1"],
                &["HALT"],
            ],
            SimMode::Interpretive,
            200,
        );
        assert_eq!(a_reg(&sim, &wb, 3), 13);
        assert_eq!(a_reg(&sim, &wb, 4), 7);
    }

    #[test]
    fn parallel_issue_executes_both_sides() {
        let wb = workbench().expect("builds");
        let sim = run(
            &wb,
            &[&["MVK A1, 5", "MVK B1, 11"], &["ADD .L A2, A1, A1", "ADD .L B2, B1, B1"], &["HALT"]],
            SimMode::Ops,
            200,
        );
        assert_eq!(a_reg(&sim, &wb, 2), 10);
        assert_eq!(b_reg(&sim, &wb, 2), 22);
    }

    #[test]
    fn multiply_has_one_delay_slot() {
        let wb = workbench().expect("builds");
        let sim = run(
            &wb,
            &[
                &["MVK A1, 6"],
                &["MVK A2, 7"],
                &["MPY A3, A1, A2"],
                &["MV .L A4, A3"], // delay slot: still old (0)
                &["MV .L A5, A3"], // after delay slot: 42
                &["HALT"],
            ],
            SimMode::Interpretive,
            200,
        );
        assert_eq!(a_reg(&sim, &wb, 4), 0, "delay slot sees the old value");
        assert_eq!(a_reg(&sim, &wb, 5), 42, "result lands after one delay slot");
        assert_eq!(a_reg(&sim, &wb, 3), 42);
    }

    #[test]
    fn load_has_four_delay_slots() {
        let wb = workbench().expect("builds");
        let (words, _) = assemble_packets(
            &wb,
            &[
                &["MVK A10, 256"], // byte address
                &["LDW *+A10[0], A1"],
                &["MV .L A2, A1"], // ds 1
                &["MV .L A3, A1"], // ds 2
                &["MV .L A4, A1"], // ds 3
                &["MV .L A5, A1"], // ds 4
                &["MV .L A6, A1"], // first consumer that sees it
                &["HALT"],
            ],
        )
        .expect("assembles");
        let mut sim = wb.simulator(SimMode::Interpretive).expect("sim");
        sim.load_program("pmem", &words).unwrap();
        // Preload little-endian 0x0000002A at byte address 256.
        let dmem = wb.model().resource_by_name("dmem").unwrap().clone();
        sim.state_mut().write_int(&dmem, &[256], 0x2A).unwrap();
        wb.run_to_halt(&mut sim, 500).expect("halts");
        assert_eq!(a_reg(&sim, &wb, 2), 0, "delay slot 1");
        assert_eq!(a_reg(&sim, &wb, 3), 0, "delay slot 2");
        assert_eq!(a_reg(&sim, &wb, 4), 0, "delay slot 3");
        assert_eq!(a_reg(&sim, &wb, 5), 0, "delay slot 4");
        assert_eq!(a_reg(&sim, &wb, 6), 42, "visible after four delay slots");
    }

    #[test]
    fn predication_gates_execution() {
        let wb = workbench().expect("builds");
        let sim = run(
            &wb,
            &[
                &["MVK B0, 1"],
                &["MVK B1, 0"],
                &["NOP 2"],             // let the MVKs land before predicates read them
                &["[B0] MVK A1, 111"],  // B0 != 0: executes
                &["[B1] MVK A2, 222"],  // B1 == 0: annulled
                &["[!B1] MVK A3, 333"], // !B1: executes
                &["HALT"],
            ],
            SimMode::Ops,
            300,
        );
        assert_eq!(a_reg(&sim, &wb, 1), 111);
        assert_eq!(a_reg(&sim, &wb, 2), 0);
        assert_eq!(a_reg(&sim, &wb, 3), 333);
    }

    #[test]
    fn branch_with_delay_slots_loops() {
        let wb = workbench().expect("builds");
        // Count B1 down from 5, accumulating B2 += B1 each iteration.
        let packets: Vec<Vec<&str>> = vec![
            vec!["MVK B1, 5"],
            vec!["MVK B2, 0"],
            vec!["MVK B3, 1"],
            vec!["ADD .L B2, B2, B1", "SUB .L B1, B1, B3"], // loop head
            vec!["[B1] B 3"],                               // back to the loop head while B1 != 0
            vec!["NOP 1"],
            vec!["NOP 1"],
            vec!["NOP 1"],
            vec!["NOP 1"],
            vec!["NOP 1"], // delay-slot cycles
            vec!["HALT"],
        ];
        let packet_refs: Vec<&[&str]> = packets.iter().map(|p| p.as_slice()).collect();
        let (words, labels) = assemble_packets(&wb, &packet_refs).expect("assembles");
        assert_eq!(labels[3], 3, "loop head address used by the branch");
        let mut sim = wb.simulator(SimMode::Interpretive).expect("sim");
        sim.load_program("pmem", &words).unwrap();
        wb.run_to_halt(&mut sim, 2000).expect("halts");
        assert_eq!(b_reg(&sim, &wb, 2), 15, "5+4+3+2+1");
        assert_eq!(b_reg(&sim, &wb, 1), 0);
    }

    #[test]
    fn multicycle_nop_stalls_dispatch() {
        let wb = workbench().expect("builds");
        let short = run(&wb, &[&["MVK A1, 1"], &["NOP 1"], &["HALT"]], SimMode::Interpretive, 300);
        let long = run(&wb, &[&["MVK A1, 1"], &["NOP 7"], &["HALT"]], SimMode::Interpretive, 300);
        let d = long.stats().cycles as i64 - short.stats().cycles as i64;
        assert_eq!(d, 6, "NOP 7 costs six extra cycles over NOP 1");
        assert!(long.stats().stalls > short.stats().stalls);
    }

    #[test]
    fn both_modes_agree_on_a_mixed_program() {
        let wb = workbench().expect("builds");
        let packets: Vec<Vec<&str>> = vec![
            vec!["MVK A1, 1000"],
            vec!["MVK A2, -7", "MVK B1, 3"],
            vec!["MPY A3, A1, A2"],
            vec!["NOP 2"],
            vec!["ADD .L A4, A3, A1", "SHL B2, B1, 4"],
            vec!["SADD A5, A4, A4"],
            vec!["AND .L B3, B1, B2", "OR .L B4, B1, B2"],
            vec!["CMPGT A6, A1, A2"],
            vec!["NORM A7, A1"],
            vec!["HALT"],
        ];
        let packet_refs: Vec<&[&str]> = packets.iter().map(|p| p.as_slice()).collect();
        let (words, _) = assemble_packets(&wb, &packet_refs).expect("assembles");
        let mut interp = wb.simulator(SimMode::Interpretive).unwrap();
        let mut ops = wb.simulator(SimMode::Ops).unwrap();
        interp.load_program("pmem", &words).unwrap();
        ops.load_program("pmem", &words).unwrap();
        for cycle in 0..60 {
            interp.step().unwrap();
            ops.step().unwrap();
            assert_eq!(interp.state(), ops.state(), "diverged at cycle {cycle}");
        }
    }

    #[test]
    fn store_and_load_round_trip_memory() {
        let wb = workbench().expect("builds");
        let sim = run(
            &wb,
            &[
                &["MVK A10, 512"],
                &["MVK A1, -12345"],
                &["STW A1, *+A10[3]"],
                &["LDW *+A10[3], B1"],
                &["NOP 5"],
                &["MV .L B2, B1"],
                &["HALT"],
            ],
            SimMode::Ops,
            300,
        );
        assert_eq!(b_reg(&sim, &wb, 2), -12345);
    }

    #[test]
    fn byte_and_halfword_accesses_extend_correctly() {
        let wb = workbench().expect("builds");
        let sim = run(
            &wb,
            &[
                &["MVK A10, 640"],
                &["MVK A1, -2"], // 0xFFFFFFFE
                &["STB A1, *+A10[0]"],
                &["STH A1, *+A10[1]"], // halfword at byte 642
                &["LDB *+A10[0], B1"],
                &["LDBU *+A10[0], B2"],
                &["LDH *+A10[1], B3"],
                &["LDHU *+A10[1], B4"],
                &["NOP 6"],
                &["HALT"],
            ],
            SimMode::Interpretive,
            400,
        );
        assert_eq!(b_reg(&sim, &wb, 1), -2, "LDB sign-extends");
        assert_eq!(b_reg(&sim, &wb, 2), 0xFE, "LDBU zero-extends");
        assert_eq!(b_reg(&sim, &wb, 3), -2, "LDH sign-extends");
        assert_eq!(b_reg(&sim, &wb, 4), 0xFFFE, "LDHU zero-extends");
    }

    #[test]
    fn simd_add2_and_saturating_ops() {
        let wb = workbench().expect("builds");
        let sim = run(
            &wb,
            &[
                &["MVK A1, 0x7FFF"],
                &["MVKH A1, 0x0001"], // A1 = 0x00017FFF
                &["MVK A2, 1"],
                &["MVKH A2, 0x0001"], // A2 = 0x00010001
                &["ADD2 A3, A1, A2"],
                &["MVK B1, 0x7FFF"],
                &["MVKH B1, 0x7FFF"], // B1 = 0x7FFF7FFF
                &["SADD B2, B1, B1"], // saturates at 0x7FFFFFFF
                &["HALT"],
            ],
            SimMode::Ops,
            300,
        );
        // high: 0x0001+0x0001 = 0x0002; low: 0x7FFF+0x0001 = 0x8000.
        assert_eq!(a_reg(&sim, &wb, 3) as u32, 0x0002_8000);
        assert_eq!(b_reg(&sim, &wb, 2), i64::from(i32::MAX));
    }

    #[test]
    fn disassembly_round_trips_representative_instructions() {
        let wb = workbench().expect("builds");
        for stmt in [
            "ADD .L A1, A2, A3",
            "ADD .S B1, B2, B3",
            "ADD .D A4, A5, A6",
            "SUB .L B7, B8, B9",
            "AND .L A1, A2, A3",
            "CMPGT A1, A2, A3",
            "CMPLTU B1, B2, B3",
            "SADD A1, A2, A3",
            "ABS A1, A2",
            "NORM B5, B6",
            "MPY A3, A1, A2",
            "MPYH B3, B1, B2",
            "SMPY A3, A1, A2",
            "MVK A1, -32768",
            "MVKH A1, 0x7fff",
            "ADDK A1, 100",
            "SHL A1, A2, 7",
            "SHR B1, B2, 3",
            "EXT A1, A2, 12",
            "SET A1, A2, 5",
            "LDW *+ A10[2], A1",
            "STH B1, *+ B10[4]",
            "[B0] MVK A1, 7",
            "[!A1] ADD .L B1, B2, B3",
            "B 64",
            "NOP 3",
            "HALT",
        ] {
            let words = wb.assemble(&[stmt]).expect(stmt);
            let text = wb.disassemble(words[0]).expect(stmt);
            assert_eq!(text, stmt, "round trip");
        }
    }

    #[test]
    fn aliases_map_to_canonical_encodings() {
        let wb = workbench().expect("builds");
        let mv = wb.assemble(&["MV .L A1, A2"]).unwrap()[0];
        let or = wb.assemble(&["OR .L A1, A2, A2"]).unwrap()[0];
        assert_eq!(mv, or, "MV is OR d,s,s");
        let zero = wb.assemble(&["ZERO A5"]).unwrap()[0];
        let xor = wb.assemble(&["XOR .L A5, A5, A5"]).unwrap()[0];
        assert_eq!(zero, xor, "ZERO is XOR d,d,d");
        assert_eq!(wb.disassemble(mv).unwrap(), "OR .L A1, A2, A2");
    }
}
