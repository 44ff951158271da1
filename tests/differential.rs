//! Experiment E4 — differential verification, the stand-in for the
//! paper's cross-check against TI's `sim62x` (§4.1: "The realized
//! simulator was successfully verified against the simulator sim62x from
//! Texas Instruments based on a number of typical DSP applications").
//!
//! The two independently-implemented backends (interpretive AST walking
//! vs compiled micro-op execution) must agree bit-by-bit and
//! cycle-by-cycle on every kernel, and both must match golden results
//! computed in plain Rust.

use lisa::models::{accu16, kernels, vliw62};
use lisa::sim::SimMode;

#[test]
fn vliw_suite_agrees_cycle_by_cycle() {
    let wb = vliw62::workbench().expect("builds");
    for kernel in kernels::vliw_suite() {
        let mut interp =
            kernels::load_kernel(&wb, &kernel, SimMode::Interpretive).expect("interp loads");
        let mut ops = kernels::load_kernel(&wb, &kernel, SimMode::Ops).expect("ops loads");
        let halt = wb.model().resource_by_name("halt").unwrap().clone();
        let mut cycle = 0u64;
        loop {
            interp.step().expect("interp step");
            ops.step().expect("ops step");
            cycle += 1;
            assert_eq!(
                interp.state(),
                ops.state(),
                "kernel {} diverged at cycle {cycle}",
                kernel.name
            );
            if interp.state().read_int(&halt, &[]).unwrap() != 0 {
                break;
            }
            assert!(cycle < kernel.max_steps, "kernel {} never halts", kernel.name);
        }
        kernels::verify_kernel(&wb, &kernel, &interp);
        kernels::verify_kernel(&wb, &kernel, &ops);
    }
}

#[test]
fn accu_suite_agrees_cycle_by_cycle() {
    let wb = accu16::workbench().expect("builds");
    for kernel in kernels::accu_suite() {
        let mut interp =
            kernels::load_kernel(&wb, &kernel, SimMode::Interpretive).expect("interp loads");
        let mut ops = kernels::load_kernel(&wb, &kernel, SimMode::Ops).expect("ops loads");
        let halt = wb.model().resource_by_name("halt").unwrap().clone();
        let mut cycle = 0u64;
        loop {
            interp.step().expect("interp step");
            ops.step().expect("ops step");
            cycle += 1;
            assert_eq!(
                interp.state(),
                ops.state(),
                "kernel {} diverged at cycle {cycle}",
                kernel.name
            );
            if interp.state().read_int(&halt, &[]).unwrap() != 0 {
                break;
            }
            assert!(cycle < kernel.max_steps, "kernel {} never halts", kernel.name);
        }
        kernels::verify_kernel(&wb, &kernel, &interp);
        kernels::verify_kernel(&wb, &kernel, &ops);
    }
}

#[test]
fn statistics_agree_between_backends() {
    let wb = vliw62::workbench().expect("builds");
    let kernel = kernels::vliw_dot_product(16);
    let (interp, c1) = kernels::run_kernel(&wb, &kernel, SimMode::Interpretive).unwrap();
    let (ops, c2) = kernels::run_kernel(&wb, &kernel, SimMode::Ops).unwrap();
    assert_eq!(c1, c2);
    let (si, sc) = (interp.stats(), ops.stats());
    assert_eq!(si.cycles, sc.cycles);
    assert_eq!(si.executed_ops, sc.executed_ops);
    assert_eq!(si.decodes, sc.decodes);
    assert_eq!(si.activations, sc.activations);
    assert_eq!(si.stalls, sc.stalls);
    assert_eq!(si.flushes, sc.flushes);
    // The only permitted difference: the ops backend's decode cache.
    assert_eq!(si.decode_cache_hits, 0);
    assert_eq!(sc.decode_cache_hits, sc.decodes);
}

/// `SimMode::Compiled` is the paper's name for the ops backend: a
/// simulator built with it is an ops simulator in every observable way.
#[test]
fn compiled_mode_is_an_alias_of_ops() {
    for (wb, suite) in kernels::full_matrix().expect("models build") {
        let kernel = &suite[0];
        let (alias, c1) = kernels::run_kernel(&wb, kernel, SimMode::Compiled).unwrap();
        let (ops, c2) = kernels::run_kernel(&wb, kernel, SimMode::Ops).unwrap();
        assert_eq!(c1, c2, "{}", kernel.name);
        assert_eq!(alias.state().digest(), ops.state().digest(), "{}", kernel.name);
        assert_eq!(alias.stats(), ops.stats(), "{}", kernel.name);
        assert_eq!(alias.mode(), SimMode::Ops, "{}", kernel.name);
        assert_eq!(ops.mode(), SimMode::Ops, "{}", kernel.name);
    }
}

#[test]
fn random_programs_agree_between_backends() {
    // Generate random (but valid) straight-line programs over the safe
    // arithmetic subset and compare final state across backends.
    let wb = vliw62::workbench().expect("builds");
    let mnemonics = ["ADD .L", "SUB .L", "AND .L", "OR .L", "XOR .L", "SADD", "SSUB"];
    let mut seed = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for round in 0..8 {
        let mut packets: Vec<Vec<String>> = Vec::new();
        // Seed registers (skip A1/B0/B1/B2, which are predicate registers).
        for r in 2..8 {
            packets.push(vec![format!("MVK A{r}, {}", (next() % 2000) as i64 - 1000)]);
            packets.push(vec![format!("MVK B{r}, {}", (next() % 2000) as i64 - 1000)]);
        }
        for _ in 0..24 {
            let m = mnemonics[(next() % mnemonics.len() as u64) as usize];
            let side = |v: u64| if v.is_multiple_of(2) { "A" } else { "B" };
            let d = 2 + next() % 12;
            let s1 = 2 + next() % 12;
            let s2 = 2 + next() % 12;
            packets.push(vec![format!(
                "{m} {}{d}, {}{s1}, {}{s2}",
                side(next()),
                side(next()),
                side(next())
            )]);
        }
        packets.push(vec!["HALT".to_owned()]);
        let packet_strs: Vec<Vec<&str>> =
            packets.iter().map(|p| p.iter().map(String::as_str).collect()).collect();
        let packet_refs: Vec<&[&str]> = packet_strs.iter().map(|p| p.as_slice()).collect();
        let (words, _) = vliw62::assemble_packets(&wb, &packet_refs).expect("assembles");

        let mut sims = Vec::new();
        for mode in [SimMode::Interpretive, SimMode::Ops] {
            let mut sim = wb.simulator(mode).expect("sim");
            sim.load_program("pmem", &words).unwrap();
            let halt = wb.model().resource_by_name("halt").unwrap().clone();
            sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 10_000).expect("halts");
            sims.push(sim);
        }
        assert_eq!(sims[0].state(), sims[1].state(), "random program round {round} diverged");
    }
}

/// `(first kernel, State::new digest, end-of-kernel digest)` per model of
/// `full_matrix()`, recorded with the byte-at-a-time FNV-1a digest. A
/// faster digest must reproduce these exactly, so `state_digest` values
/// in reports and API responses stay comparable across versions.
const GOLDEN_DIGESTS: [(&str, u64, u64); 4] = [
    ("vliw_dot_32", 0x3b25_a363_ec36_40cd, 0x6ad8_656a_2ae0_3301),
    ("accu_dot_32", 0xc12b_1dd3_84d1_9f2d, 0xd9e5_004f_11ff_26d3),
    ("scalar_dot_24", 0xc573_9c23_c85a_32a4, 0x4c51_9139_16e0_005a),
    ("tiny_fib_20", 0xfafa_8e67_3382_8a05, 0x5162_773a_2058_1e52),
];

#[test]
fn state_digests_match_recorded_values() {
    let matrix = kernels::full_matrix().expect("models build");
    for ((wb, suite), &(name, zero, end)) in matrix.iter().zip(&GOLDEN_DIGESTS) {
        let kernel = &suite[0];
        assert_eq!(kernel.name, name);
        assert_eq!(lisa::sim::State::new(wb.model()).digest(), zero, "{name}: zero state");
        for mode in [SimMode::Interpretive, SimMode::Ops] {
            let (sim, _) = kernels::run_kernel(wb, kernel, mode).unwrap();
            assert_eq!(sim.state().digest(), end, "{name}: end state in {mode:?}");
        }
    }
}
