//! Memory-interface timing on vliw62 (paper §4: the C6201 model includes
//! the memory interface): accesses to the configured external region
//! stall the pipeline for the programmed number of wait states, visible
//! as exact cycle-count differences.

use lisa::models::vliw62::{self, assemble_packets};
use lisa::models::Workbench;
use lisa::sim::SimMode;

fn cycles_for(wb: &Workbench, packets: &[&[&str]]) -> (u64, i64) {
    let (words, _) = assemble_packets(wb, packets).expect("assembles");
    let mut sim = wb.simulator(SimMode::Ops).expect("sim");
    sim.load_program("pmem", &words).unwrap();
    // Preload a recognisable word in both regions.
    let dmem = wb.model().resource_by_name("dmem").unwrap().clone();
    for base in [128i64, 3072] {
        sim.state_mut().write_int(&dmem, &[base], 0x77).unwrap();
    }
    let halt = wb.model().resource_by_name("halt").unwrap().clone();
    let cycles =
        sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 5_000).expect("halts").cycles;
    let a = wb.model().resource_by_name("A").unwrap();
    (cycles, sim.state().read_int(a, &[3]).unwrap())
}

/// One internal load vs one external load: the difference is exactly the
/// configured wait states.
#[test]
fn external_accesses_cost_exact_wait_states() {
    let wb = vliw62::workbench().expect("builds");
    for ws in [1i64, 3, 7] {
        let ldext = format!("LDEXT 8, {ws}"); // external at byte 2048+
        let ldext_packet: [&str; 1] = [ldext.as_str()];
        let internal: Vec<&[&str]> = vec![
            &ldext_packet,
            &["MVK A10, 128"], // internal address
            &["LDW *+A10[0], A3"],
            &["NOP 5"],
            &["HALT"],
        ];
        let external: Vec<&[&str]> = vec![
            &ldext_packet,
            &["MVK A10, 3072"], // external address
            &["LDW *+A10[0], A3"],
            &["NOP 5"],
            &["HALT"],
        ];
        let (fast, v1) = cycles_for(&wb, &internal);
        let (slow, v2) = cycles_for(&wb, &external);
        assert_eq!(v1, 0x77, "internal load result");
        assert_eq!(v2, 0x77, "external load result");
        assert_eq!(slow - fast, ws as u64, "external access must cost exactly {ws} extra cycles");
    }
}

/// Wait states apply to stores too, and zero wait states are free.
#[test]
fn store_wait_states_and_zero_config() {
    let wb = vliw62::workbench().expect("builds");
    // Trailing packets after the store make the dispatch stall visible
    // (instructions already in flight when the store executes are not
    // affected, exactly like the multicycle NOP).
    let baseline: Vec<&[&str]> = vec![
        &["LDEXT 8, 0"],
        &["MVK A10, 3072"],
        &["MVK A2, 5"],
        &["STW A2, *+A10[0]"],
        &["MVK A3, 1"],
        &["MVK A4, 1"],
        &["MVK A5, 1"],
        &["HALT"],
    ];
    let with_ws: Vec<&[&str]> = vec![
        &["LDEXT 8, 4"],
        &["MVK A10, 3072"],
        &["MVK A2, 5"],
        &["STW A2, *+A10[0]"],
        &["MVK A3, 1"],
        &["MVK A4, 1"],
        &["MVK A5, 1"],
        &["HALT"],
    ];
    let (fast, _) = cycles_for(&wb, &baseline);
    let (slow, _) = cycles_for(&wb, &with_ws);
    assert_eq!(slow - fast, 4, "store to external memory pays the wait states");
}

/// With no external region configured (reset state), nothing stalls.
#[test]
fn unconfigured_memory_interface_is_transparent() {
    let wb = vliw62::workbench().expect("builds");
    let plain: Vec<&[&str]> =
        vec![&["MVK A10, 3072"], &["LDW *+A10[0], A3"], &["NOP 5"], &["HALT"]];
    let (c1, v) = cycles_for(&wb, &plain);
    assert_eq!(v, 0x77);
    // Same program with an explicit zero-wait-state external region.
    let zero_ws: Vec<&[&str]> =
        vec![&["LDEXT 8, 0"], &["MVK A10, 3072"], &["LDW *+A10[0], A3"], &["NOP 5"], &["HALT"]];
    let (c2, _) = cycles_for(&wb, &zero_ws);
    assert_eq!(c2, c1 + 1, "only the extra LDEXT packet differs");
}

/// Backends agree cycle-by-cycle with wait states active.
#[test]
fn backends_agree_with_wait_states() {
    let wb = vliw62::workbench().expect("builds");
    let packets: Vec<&[&str]> = vec![
        &["LDEXT 8, 3"],
        &["MVK A10, 3072"],
        &["LDW *+A10[0], A3"],
        &["STW A3, *+A10[4]"],
        &["NOP 5"],
        &["HALT"],
    ];
    let (words, _) = assemble_packets(&wb, &packets).expect("assembles");
    let mut interp = wb.simulator(SimMode::Interpretive).unwrap();
    let mut ops = wb.simulator(SimMode::Ops).unwrap();
    for sim in [&mut interp, &mut ops] {
        sim.load_program("pmem", &words).unwrap();
    }
    for cycle in 0..40 {
        interp.step().unwrap();
        ops.step().unwrap();
        assert_eq!(interp.state(), ops.state(), "diverged at cycle {cycle}");
    }
}
