//! Probe integration tests: watchpoints surface as `ProbeHit` trace
//! events, `break` probes stop `run_until` with a `Breakpoint` reason,
//! and the architectural profile is identical across both backends.

use lisa_core::model::ResourceId;
use lisa_core::Model;
use lisa_sim::{ArchProfile, ProbeSpec, SimMode, Simulator, StopReason, TraceEvent};

const TOY: &str = r#"
RESOURCE {
    PROGRAM_COUNTER int pc;
    CONTROL_REGISTER int ir;
    REGISTER int R[8];
    REGISTER bit halt;
    DATA_MEMORY int dmem[32];
    PROGRAM_MEMORY int pmem[64];
}

OPERATION reg {
    DECLARE { LABEL index; }
    CODING { index:0bx[3] }
    SYNTAX { "R" index:#u }
    EXPRESSION { R[index] }
}

OPERATION imm6 {
    DECLARE { LABEL value; }
    CODING { value:0bx[6] }
    SYNTAX { value:#s }
    EXPRESSION { sext(value, 6) }
}

OPERATION ldi {
    DECLARE { GROUP Dest = { reg }; GROUP Val = { imm6 }; }
    CODING { 0b0001 Dest Val 0bx[3] }
    SYNTAX { "LDI" Dest "," Val }
    BEHAVIOR { Dest = Val; }
}

OPERATION add {
    DECLARE { GROUP Dest, Src1, Src2 = { reg }; }
    CODING { 0b0010 Dest Src1 Src2 0bx[3] }
    SYNTAX { "ADD" Dest "," Src1 "," Src2 }
    BEHAVIOR { Dest = Src1 + Src2; }
}

OPERATION st {
    DECLARE { GROUP Addr = { imm6 }; GROUP Src = { reg }; }
    CODING { 0b0100 Src Addr 0bx[3] }
    SYNTAX { "ST" Src "," Addr }
    BEHAVIOR { dmem[Addr] = Src; }
}

OPERATION ld {
    DECLARE { GROUP Dest = { reg }; GROUP Addr = { imm6 }; }
    CODING { 0b0101 Dest Addr 0bx[3] }
    SYNTAX { "LD" Dest "," Addr }
    BEHAVIOR { Dest = dmem[Addr]; }
}

OPERATION bnz {
    DECLARE { GROUP Cond = { reg }; GROUP Target = { imm6 }; }
    CODING { 0b0110 Cond Target 0bx[3] }
    SYNTAX { "BNZ" Cond "," Target }
    BEHAVIOR {
        if (Cond != 0) {
            pc = Target - 1;
        }
    }
}

OPERATION hlt {
    CODING { 0b0111 0bx[12] }
    SYNTAX { "HLT" }
    BEHAVIOR { halt = 1; }
}

OPERATION decode {
    DECLARE { GROUP Instruction = { ldi || add || st || ld || bnz || hlt }; }
    CODING { ir == Instruction }
    SYNTAX { Instruction }
    BEHAVIOR { Instruction; }
}

OPERATION fetch {
    BEHAVIOR {
        ir = pmem[pc];
    }
}

OPERATION main {
    BEHAVIOR {
        if (halt == 0) {
            fetch;
            decode;
            pc = pc + 1;
        }
    }
}
"#;

const MODES: [SimMode; 2] = [SimMode::Interpretive, SimMode::Ops];

/// R1 counts down from 3; stores the countdown into dmem[5] each pass.
const LOOP: [&str; 7] = [
    "LDI R1, 3",
    "LDI R3, -1",
    "ST R1, 5", // address 2: loop body
    "ADD R1, R1, R3",
    "BNZ R1, 2",
    "LD R2, 5",
    "HLT",
];

fn boot<'m>(model: &'m Model, mode: SimMode, program: &[&str]) -> Simulator<'m> {
    let decoder = lisa_isa::Decoder::new(model).expect("decoder builds");
    let asm = lisa_isa::Assembler::new(model, &decoder);
    let words: Vec<u128> = program
        .iter()
        .map(|stmt| {
            asm.assemble_instruction(stmt)
                .unwrap_or_else(|e| panic!("assemble `{stmt}`: {e}"))
                .encode(model)
                .expect("encodes")
        })
        .collect();
    let mut sim = Simulator::new(model, mode).expect("simulator builds");
    sim.load_program("pmem", &words).expect("program fits");
    sim
}

fn run_to_halt(sim: &mut Simulator<'_>, model: &Model, max: u64) -> StopReason {
    let halt = model.resource_by_name("halt").unwrap().clone();
    sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, max).expect("run ok").reason
}

fn compile_spec(model: &Model, text: &str) -> lisa_sim::ProbeSet {
    ProbeSpec::parse(text).expect("spec parses").compile(model).expect("spec compiles")
}

#[test]
fn watchpoint_hits_appear_in_trace_stream() {
    let model = Model::from_source(TOY).expect("model builds");
    for mode in MODES {
        let mut sim = boot(&model, mode, &LOOP);
        sim.set_trace(true);
        sim.set_probes(compile_spec(&model, "watch dmem[4..6]"));
        assert_eq!(run_to_halt(&mut sim, &model, 200), StopReason::Halted, "{mode:?}");
        // Three `ST R1, 5` passes write dmem[5] = 3, 2, 1.
        assert_eq!(sim.probe_hits(), 3, "{mode:?}");
        let events = sim.take_events();
        let hits: Vec<(u16, u64, i64)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ProbeHit { probe, addr, value, .. } => Some((*probe, *addr, *value)),
                _ => None,
            })
            .collect();
        assert_eq!(hits, [(0, 5, 3), (0, 5, 2), (0, 5, 1)], "{mode:?}");
        // Each hit rides directly behind the MemoryAccess that caused it.
        for (i, e) in events.iter().enumerate() {
            if matches!(e, TraceEvent::ProbeHit { .. }) {
                assert!(
                    matches!(events[i - 1], TraceEvent::MemoryAccess { .. }),
                    "{mode:?}: hit not adjacent to its access"
                );
            }
        }
    }
}

/// The `(probe, resource, addr, value)` of every probe hit in `events`.
fn hits(events: &[TraceEvent]) -> Vec<(u16, ResourceId, u64, i64)> {
    events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::ProbeHit { probe, resource, addr, value, .. } => {
                Some((probe, resource, addr, value))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn watch_hits_only_inside_its_half_open_range() {
    let model = Model::from_source(TOY).expect("model builds");
    let dmem = model.resource_by_name("dmem").unwrap().id;
    for mode in MODES {
        let program = ["LDI R1, 7", "ST R1, 7", "ST R1, 8", "ST R1, 16", "HLT"];
        let mut sim = boot(&model, mode, &program);
        sim.set_trace(true);
        sim.set_probes(compile_spec(&model, "watch dmem[8..16]"));
        assert_eq!(run_to_halt(&mut sim, &model, 50), StopReason::Halted, "{mode:?}");
        assert_eq!(hits(&sim.take_events()), [(0, dmem, 8, 7)], "{mode:?}");
        assert_eq!(sim.probe_report(), [("watch dmem[8..16]".to_owned(), 1)], "{mode:?}");
        assert_eq!(sim.probe_hits(), 1, "{mode:?}");
    }
}

#[test]
fn overlapping_watches_each_hit() {
    let model = Model::from_source(TOY).expect("model builds");
    let dmem = model.resource_by_name("dmem").unwrap().id;
    for mode in MODES {
        let mut sim = boot(&model, mode, &["LDI R1, 1", "ST R1, 9", "HLT"]);
        sim.set_trace(true);
        sim.set_probes(compile_spec(&model, "watch dmem[0..16]; watch dmem[8..32]"));
        assert_eq!(run_to_halt(&mut sim, &model, 50), StopReason::Halted, "{mode:?}");
        assert_eq!(hits(&sim.take_events()), [(0, dmem, 9, 1), (1, dmem, 9, 1)], "{mode:?}");
        let counts: Vec<u64> = sim.probe_report().into_iter().map(|(_, n)| n).collect();
        assert_eq!(counts, [1, 1], "{mode:?}");
    }
}

#[test]
fn pc_probes_match_only_program_counter_writes() {
    let model = Model::from_source(TOY).expect("model builds");
    let pc = model.resource_by_name("pc").unwrap().id;
    // `R1 = 5` and `R2 = 3` write the probed values to other registers.
    let program = ["LDI R1, 5", "LDI R2, 3", "LDI R3, 0", "LDI R3, 0", "LDI R3, 0", "HLT"];
    for mode in MODES {
        let mut sim = boot(&model, mode, &program);
        sim.set_trace(true);
        sim.set_probes(compile_spec(&model, "break 5; trace 3"));
        // The tracepoint hits without stopping; the breakpoint stops.
        let reason = run_to_halt(&mut sim, &model, 50);
        assert_eq!(reason, StopReason::Breakpoint { probe: 0, pc: 5 }, "{mode:?}");
        assert_eq!(hits(&sim.take_events()), [(1, pc, 0, 3), (0, pc, 0, 5)], "{mode:?}");
        // The stop is cleared once taken: resuming runs on to the halt.
        assert_eq!(run_to_halt(&mut sim, &model, 50), StopReason::Halted, "{mode:?}");
        let report = [("break 5".to_owned(), 1), ("trace 3".to_owned(), 1)];
        assert_eq!(sim.probe_report(), report, "{mode:?}");
    }
}

#[test]
fn register_probe_counts_writes() {
    let model = Model::from_source(TOY).expect("model builds");
    for mode in MODES {
        let mut sim = boot(&model, mode, &LOOP);
        sim.set_probes(compile_spec(&model, "reg R[1]; reg R[2]"));
        assert_eq!(run_to_halt(&mut sim, &model, 200), StopReason::Halted, "{mode:?}");
        let report = sim.probe_report();
        // R1: LDI + three ADD decrements; R2: one LD.
        assert_eq!(report[0], ("reg R[1]".to_string(), 4), "{mode:?}");
        assert_eq!(report[1], ("reg R[2]".to_string(), 1), "{mode:?}");
    }
}

#[test]
fn profile_sums_hits_of_probes_with_equal_labels() {
    let model = Model::from_source(TOY).expect("model builds");
    for mode in MODES {
        let mut sim = boot(&model, mode, &LOOP);
        sim.set_probes(compile_spec(&model, "watch dmem; watch dmem"));
        sim.enable_arch_profile();
        assert_eq!(run_to_halt(&mut sim, &model, 200), StopReason::Halted, "{mode:?}");
        // Three `ST R1, 5` passes, seen by each of the two probes.
        assert_eq!(sim.probe_hits(), 6, "{mode:?}");
        let profile = sim.arch_profile().expect("profile on");
        assert_eq!(profile.probe_hits(), sim.probe_hits(), "{mode:?}");
        assert_eq!(profile.hits.len(), 1, "{mode:?}: one label");
    }
}

#[test]
fn breakpoint_stops_run_until_and_resumes() {
    let model = Model::from_source(TOY).expect("model builds");
    for mode in MODES {
        let mut sim = boot(&model, mode, &LOOP);
        // Break on the loop back-edge target (address 2).
        sim.set_probes(compile_spec(&model, "break 2"));
        let r1 = model.resource_by_name("R").unwrap().clone();

        // First stop: at the first arrival, before address 2 re-executes.
        let reason = run_to_halt(&mut sim, &model, 200);
        assert_eq!(reason, StopReason::Breakpoint { probe: 0, pc: 2 }, "{mode:?}");
        assert_eq!(sim.state().read_int(&r1, &[1]).unwrap(), 3, "{mode:?}");

        // Resuming trips the breakpoint on each loop pass, then halts.
        let mut stops = 0;
        loop {
            match run_to_halt(&mut sim, &model, 200) {
                StopReason::Breakpoint { pc: 2, .. } => stops += 1,
                StopReason::Halted => break,
                other => panic!("{mode:?}: unexpected stop {other:?}"),
            }
        }
        assert_eq!(stops, 2, "{mode:?}: loop re-entries");
        assert_eq!(sim.state().read_int(&r1, &[2]).unwrap(), 1, "{mode:?}");
    }
}

#[test]
fn plain_run_ignores_breakpoints() {
    let model = Model::from_source(TOY).expect("model builds");
    let mut sim = boot(&model, SimMode::Ops, &LOOP);
    sim.set_probes(compile_spec(&model, "break 2; trace 4"));
    for _ in 0..40 {
        sim.run(1).expect("steps");
    }
    let halt = model.resource_by_name("halt").unwrap();
    assert_eq!(sim.state().read_int(halt, &[]).unwrap(), 1, "ran to completion");
    // The breakpoint still counted every arrival even though nothing stopped.
    assert!(sim.probe_hits() >= 3);
    // A later run_until must not report the stale latched stop.
    let reason =
        sim.run_until(|st| st.read_int(halt, &[]).unwrap_or(0) != 0, 10).expect("ok").reason;
    assert_eq!(reason, StopReason::Halted);
}

#[test]
fn arch_profile_is_mode_independent() {
    let model = Model::from_source(TOY).expect("model builds");
    let mut profiles = Vec::new();
    for mode in MODES {
        let mut sim = boot(&model, mode, &LOOP);
        sim.enable_arch_profile();
        assert_eq!(run_to_halt(&mut sim, &model, 200), StopReason::Halted, "{mode:?}");
        let profile = sim.arch_profile().expect("profile on");
        assert!(profile.cycles > 0, "{mode:?}");
        assert!(!profile.op_execs.is_empty(), "{mode:?}");
        assert_eq!(profile.instructions, sim.stats().instructions_retired, "{mode:?}");
        assert_eq!(profile.hot_pcs.values().sum::<u64>(), profile.instructions, "{mode:?}");
        assert_eq!(profile.hot_pcs[&2], 3, "{mode:?}: the loop body entered three times");
        profiles.push((mode, profile));
    }
    let (_, reference) = &profiles[0];
    for (mode, profile) in &profiles[1..] {
        assert_eq!(profile, reference, "{mode:?} vs Interpretive");
    }
}

#[test]
fn arch_profile_sees_memory_traffic() {
    let model = Model::from_source(TOY).expect("model builds");
    let mut sim = boot(&model, SimMode::Ops, &LOOP);
    sim.enable_arch_profile();
    assert_eq!(run_to_halt(&mut sim, &model, 200), StopReason::Halted);
    let profile = sim.arch_profile().expect("profile on");
    // Three ST passes write dmem; one LD plus the BNZ re-reads hit it too.
    assert_eq!(profile.write_heat.get("dmem").map(lisa_sim::Heatmap::total), Some(3));
    assert!(profile.read_heat.get("dmem").is_some_and(|h| h.total() >= 1));
    // Every fetch reads pmem.
    assert!(profile.read_heat.get("pmem").is_some_and(|h| h.total() >= LOOP.len() as u64));
    // The profile merges with itself without losing anything.
    let mut doubled = profile.clone();
    doubled.merge(&profile);
    assert_eq!(doubled.cycles, profile.cycles * 2);
    assert_eq!(doubled.write_heat.get("dmem").map(lisa_sim::Heatmap::total), Some(6),);
}

#[test]
fn clearing_probes_stops_hit_emission() {
    let model = Model::from_source(TOY).expect("model builds");
    let mut sim = boot(&model, SimMode::Interpretive, &LOOP);
    sim.set_trace(true);
    sim.set_probes(compile_spec(&model, "watch dmem"));
    assert!(sim.probing());
    sim.clear_probes();
    assert!(!sim.probing());
    assert_eq!(run_to_halt(&mut sim, &model, 200), StopReason::Halted);
    assert_eq!(sim.probe_hits(), 0);
    assert!(
        sim.take_events().iter().all(|e| !matches!(e, TraceEvent::ProbeHit { .. })),
        "no hits after clear_probes"
    );
}

/// One step of a profiling sequence.
#[derive(Debug, Clone, Copy)]
enum Step {
    Run(u64),
    Enable,
    Snap,
    Restore,
    Watch,
    /// A register probe on `R[2]`, which only `LD R2, 5` writes.
    Reg,
    /// A breakpoint on a PC the program never reaches.
    Break,
    Trace(bool),
}

fn play(model: &Model, mode: SimMode, steps: &[Step]) -> ArchProfile {
    let mut sim = boot(model, mode, &LOOP);
    let mut snapshot = None;
    for step in steps {
        match *step {
            Step::Run(n) => {
                sim.run(n).expect("runs");
            }
            Step::Enable => sim.enable_arch_profile(),
            Step::Snap => snapshot = Some(sim.snapshot()),
            Step::Restore => sim.restore(snapshot.as_ref().expect("snapshot taken")).expect("ok"),
            Step::Watch => sim.set_probes(compile_spec(model, "watch dmem")),
            Step::Reg => sim.set_probes(compile_spec(model, "reg R[2]")),
            Step::Break => sim.set_probes(compile_spec(model, "break 40")),
            Step::Trace(on) => sim.set_trace(on),
        }
    }
    sim.arch_profile().expect("profile on")
}

#[test]
fn profile_span_follows_enable_restore_and_set_probes() {
    use Step::{Break, Enable, Reg, Restore, Run, Snap, Trace, Watch};
    // Each sequence must read exactly like a reference run that turns
    // profiling (and probes) on where the profile should start: restore
    // restarts it at the restored cycle, re-enabling restarts it from
    // zero, and set_probes restarts only hit counts. `main` runs once
    // per cycle; `ST` (a dmem write) executes at cycles 2 and 5, and
    // `LD R2, 5` at cycle 11.
    //
    // The last four move resources between the ops backend's plain
    // counters and the observer's probe matcher mid-run: a register
    // probe on a register the loop writes, a breakpoint (every PC write
    // is then matched), and a trace sink (every event is then built),
    // so counts taken on both paths must add up.
    let cases: [(&str, &[Step], &[Step]); 8] = [
        ("restore", &[Enable, Run(3), Snap, Run(2), Restore, Run(2)], &[Run(3), Enable, Run(2)]),
        ("re-enable", &[Enable, Run(3), Enable, Run(2)], &[Run(3), Enable, Run(2)]),
        ("set_probes keeps counters", &[Enable, Run(2), Watch, Run(4)], &[Watch, Enable, Run(6)]),
        ("hit reset", &[Watch, Enable, Run(3), Watch, Run(3)], &[Enable, Run(3), Watch, Run(3)]),
        ("reg probe mid-run", &[Enable, Run(3), Reg, Run(10)], &[Reg, Enable, Run(13)]),
        ("break mid-run", &[Enable, Run(4), Break, Run(6)], &[Break, Enable, Run(10)]),
        (
            "trace on and off",
            &[Enable, Run(3), Trace(true), Run(4), Trace(false), Run(5)],
            &[Enable, Run(12)],
        ),
        (
            "all paths",
            &[
                Enable,
                Run(2),
                Reg,
                Run(2),
                Trace(true),
                Run(3),
                Break,
                Run(2),
                Trace(false),
                Run(4),
            ],
            &[Trace(true), Break, Enable, Run(13)],
        ),
    ];
    let model = Model::from_source(TOY).expect("model builds");
    for (name, steps, reference) in cases {
        let runs = MODES.map(|mode| {
            let got = play(&model, mode, steps);
            assert_eq!(got, play(&model, mode, reference), "{mode:?}: {name}");
            assert_eq!(got.op_execs["main"], got.cycles, "{mode:?}: {name}");
            assert!(got.register_writes > got.cycles, "{mode:?}: {name}: {got:?}");
            got
        });
        assert_eq!(runs[0], runs[1], "{name}: interpretive vs ops");
    }
}

#[test]
fn register_writes_count_constant_and_run_time_indices_alike() {
    // `R[1]` has a constant index and `R[i]` a run-time one, so the ops
    // backend stores them through different paths; with `i` and `pc`
    // every cycle writes four registers.
    let model = Model::from_source(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int i; REGISTER int R[4]; }
        OPERATION main {
            BEHAVIOR { R[1] = R[1] + 1; R[i] = pc; i = (i + 1) % 4; pc = pc + 1; }
        }
        "#,
    )
    .expect("model builds");
    let profiles = [false, true].map(|traced| {
        MODES.map(|mode| {
            let mut sim = Simulator::new(&model, mode).expect("simulator builds");
            sim.set_trace(traced);
            sim.enable_arch_profile();
            sim.run(10).expect("runs");
            sim.arch_profile().expect("profile on")
        })
    });
    for profile in profiles.iter().flatten() {
        assert_eq!(profile.register_writes, 40, "{profile:?}");
        assert_eq!(profile, &profiles[0][0]);
    }
}

#[test]
fn execution_stage_and_activation_counts_fold_by_name() {
    // `main` runs every cycle and activates `ex` in `p.EX` on its first
    // four; each activation executes `ex` one cycle later, so in ten
    // cycles `main` runs 10 times, `ex` is activated and runs 4 times,
    // all in `p.EX`, and the registers take 10 `pc` and 4 `acc` writes.
    let model = Model::from_source(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int acc; PIPELINE p = { ID; EX }; }
        OPERATION ex IN p.EX { BEHAVIOR { acc = acc + 1; } }
        OPERATION main {
            BEHAVIOR { pc = pc + 1; }
            ACTIVATION { if (pc <= 4) { ex } p.shift() }
        }
        "#,
    )
    .expect("model builds");
    for traced in [false, true] {
        for mode in MODES {
            let mut sim = Simulator::new(&model, mode).expect("simulator builds");
            sim.set_trace(traced);
            sim.enable_arch_profile();
            sim.run(10).expect("runs");
            let profile = sim.arch_profile().expect("profile on");
            let ctx = format!("{mode:?}, traced {traced}: {profile:?}");
            assert_eq!(profile.op_execs.len(), 2, "{ctx}");
            assert_eq!(profile.op_execs["main"], 10, "{ctx}");
            assert_eq!(profile.op_execs["ex"], 4, "{ctx}");
            assert_eq!(profile.stage_busy.len(), 1, "{ctx}");
            assert_eq!(profile.stage_busy["p.EX"], 4, "{ctx}");
            assert_eq!(profile.unit_activations.len(), 1, "{ctx}");
            assert_eq!(profile.unit_activations["ex"], 4, "{ctx}");
            assert_eq!(profile.register_writes, 14, "{ctx}");
        }
    }
}

/// Every cycle decodes one instruction at the current `pc` (the model
/// fetches no word, so `pc` may leave `pmem[4..19]`), reads `dmem[200]`
/// and `dmem[201]` and the register `acc`, writes `acc`, `dmem[2]` and
/// `pc`, and stalls and flushes stage `FE` alone and the whole pipeline.
const COUNTED: &str = r#"
RESOURCE {
    PROGRAM_COUNTER int pc;
    CONTROL_REGISTER int ir;
    REGISTER int acc;
    DATA_MEMORY int dmem[256];
    PROGRAM_MEMORY int pmem[4..19];
    PIPELINE pipe = { FE; EX };
}
OPERATION nop {
    CODING { 0bx[16] }
    SYNTAX { "NOP" }
    BEHAVIOR { acc = acc + dmem[200] + dmem[201]; dmem[2] = acc; }
}
OPERATION decode {
    DECLARE { GROUP Instruction = { nop }; }
    CODING { ir == Instruction }
    SYNTAX { Instruction }
    BEHAVIOR { Instruction; }
}
OPERATION main {
    BEHAVIOR { decode; pc = pc + 1; }
    ACTIVATION { pipe.FE.stall(), pipe.stall(), pipe.flush(), pipe.FE.flush() }
}
"#;

#[test]
fn arch_profile_counts_every_event_kind_by_name() {
    let model = Model::from_source(COUNTED).expect("model builds");
    for mode in MODES {
        let mut sim = Simulator::new(&model, mode).expect("simulator builds");
        sim.set_probes(compile_spec(&model, "watch dmem[0..4]"));
        sim.enable_arch_profile();
        sim.run(22).expect("runs");
        let profile = sim.arch_profile().expect("profile on");
        assert_eq!(profile.cycles, 22, "{mode:?}");
        // PCs 0..=3 and 20..=21 lie outside `pmem[4..19]`: instructions,
        // not hot PCs.
        assert_eq!(profile.instructions, 22, "{mode:?}");
        let hot: Vec<(i64, u64)> = profile.hot_pcs.clone().into_iter().collect();
        assert_eq!(hot, (4..=19).map(|pc| (pc, 1)).collect::<Vec<_>>(), "{mode:?}");
        // `dmem` is a memory: its accesses are heat, not register writes;
        // `acc` and `pc` are registers, and register reads make no heat.
        assert_eq!(profile.register_writes, 44, "{mode:?}");
        assert_eq!(profile.read_heat.keys().collect::<Vec<_>>(), ["dmem"], "{mode:?}");
        assert_eq!(profile.read_heat["dmem"].total(), 44, "{mode:?}");
        assert_eq!(profile.write_heat.keys().collect::<Vec<_>>(), ["dmem"], "{mode:?}");
        assert_eq!(profile.write_heat["dmem"].total(), 22, "{mode:?}");
        assert_eq!(profile.write_heat["dmem"].bucket_size, 4, "{mode:?}: 256 cells, 64 buckets");
        assert_eq!(profile.hits["watch dmem[0..4]"], 22, "{mode:?}");
        assert_eq!(profile.probe_hits(), 22, "{mode:?}");
        // A stage stall or flush holds `FE`; a whole-pipeline one both.
        for per_stage in [&profile.stage_stalls, &profile.stage_flushes] {
            let rows: Vec<(&str, u64)> = per_stage.iter().map(|(k, n)| (k.as_str(), *n)).collect();
            assert_eq!(rows, [("pipe.EX", 22), ("pipe.FE", 44)], "{mode:?}");
        }
    }
}

#[test]
fn probes_match_without_a_profile() {
    let model = Model::from_source(COUNTED).expect("model builds");
    for mode in MODES {
        let mut sim = Simulator::new(&model, mode).expect("simulator builds");
        sim.set_probes(compile_spec(&model, "watch dmem"));
        sim.run(5).expect("runs");
        assert!(sim.arch_profile().is_none(), "{mode:?}: profiling is off");
        assert_eq!(sim.probe_report(), [("watch dmem".to_owned(), 5)], "{mode:?}");
    }
}

#[test]
fn a_profile_needs_no_probe_set() {
    let model = Model::from_source(TOY).expect("model builds");
    for mode in MODES {
        let mut bare = boot(&model, mode, &LOOP);
        bare.enable_arch_profile();
        assert!(!bare.probing(), "{mode:?}: the profile installs no probes");
        let mut empty = boot(&model, mode, &LOOP);
        empty.set_probes(lisa_sim::ProbeSet::empty(&model));
        empty.enable_arch_profile();
        for sim in [&mut bare, &mut empty] {
            assert_eq!(run_to_halt(sim, &model, 200), StopReason::Halted, "{mode:?}");
        }
        assert_eq!(bare.arch_profile(), empty.arch_profile(), "{mode:?}");
        assert!(!bare.probing(), "{mode:?}");
    }
}

#[test]
fn clearing_probes_keeps_the_profile_counting() {
    let model = Model::from_source(TOY).expect("model builds");
    for mode in MODES {
        // The profile covers the whole run; the probe's hits end with it.
        let mut sim = boot(&model, mode, &LOOP);
        sim.enable_arch_profile();
        sim.set_probes(compile_spec(&model, "watch dmem"));
        sim.run(3).expect("runs");
        assert_eq!(sim.probe_hits(), 1, "{mode:?}: the first ST");
        sim.clear_probes();
        assert_eq!(run_to_halt(&mut sim, &model, 200), StopReason::Halted, "{mode:?}");
        let cleared = sim.arch_profile().expect("the profile outlives the probes");
        assert!(cleared.hits.is_empty(), "{mode:?}: {cleared:?}");
        let mut plain = boot(&model, mode, &LOOP);
        plain.enable_arch_profile();
        assert_eq!(run_to_halt(&mut plain, &model, 200), StopReason::Halted, "{mode:?}");
        assert_eq!(cleared, plain.arch_profile().expect("profile on"), "{mode:?}");
    }
}
