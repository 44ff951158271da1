//! End-to-end simulator tests on a small but complete stored-program
//! machine written in LISA: fetch, decode (coding-tree root), execute,
//! with both interpretive and ops backends, plus pipeline timing
//! (activation delays, stall, flush, shift).

use lisa_core::Model;
use lisa_sim::{SimError, SimMode, Simulator};

/// A complete 16-bit accumulator machine: IR fetch from program memory,
/// decode through the coding tree, ALU ops on registers, a branch, and a
/// halt flag.
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

OPERATION mul {
    DECLARE { GROUP Dest, Src1, Src2 = { reg }; }
    CODING { 0b0011 Dest Src1 Src2 0bx[3] }
    SYNTAX { "MUL" Dest "," Src1 "," Src2 }
    BEHAVIOR { Dest = Src1 * Src2; }
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
    DECLARE { GROUP Instruction = { ldi || add || mul || st || ld || bnz || hlt }; }
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

fn assemble_program(model: &Model, program: &[&str]) -> Vec<u128> {
    let decoder = lisa_isa::Decoder::new(model).expect("decoder builds");
    let asm = lisa_isa::Assembler::new(model, &decoder);
    program
        .iter()
        .map(|stmt| {
            asm.assemble_instruction(stmt)
                .unwrap_or_else(|e| panic!("assemble `{stmt}`: {e}"))
                .encode(model)
                .expect("encodes")
        })
        .collect()
}

fn run_program<'m>(model: &'m Model, mode: SimMode, program: &[&str], max: u64) -> Simulator<'m> {
    let words = assemble_program(model, program);
    let mut sim = Simulator::new(model, mode).expect("simulator builds");
    sim.load_program("pmem", &words).expect("program fits");
    // Loading pre-decodes automatically in ops mode (and the interpreter
    // decodes nothing ahead), so an explicit call binds nothing new.
    assert_eq!(sim.predecode_program_memory(), 0, "load pre-decoded the program");
    let halt = model.resource_by_name("halt").unwrap().clone();
    sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, max).expect("program halts");
    if mode == SimMode::Ops {
        let stats = sim.stats();
        assert!(stats.decodes > 0);
        assert_eq!(stats.decodes, stats.decode_cache_hits, "every fetch hits a pre-decoded word");
    }
    sim
}

fn reg(sim: &Simulator<'_>, model: &Model, i: i64) -> i64 {
    let r = model.resource_by_name("R").unwrap();
    sim.state().read_int(r, &[i]).unwrap()
}

#[test]
fn straight_line_arithmetic_both_modes() {
    let model = Model::from_source(TOY).expect("model builds");
    let program = ["LDI R1, 6", "LDI R2, 7", "MUL R3, R1, R2", "ADD R4, R3, R1", "HLT"];
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let sim = run_program(&model, mode, &program, 100);
        assert_eq!(reg(&sim, &model, 3), 42, "{mode:?}");
        assert_eq!(reg(&sim, &model, 4), 48, "{mode:?}");
    }
}

#[test]
fn negative_immediates_sign_extend() {
    let model = Model::from_source(TOY).expect("model builds");
    let program = ["LDI R1, -5", "LDI R2, 3", "ADD R3, R1, R2", "HLT"];
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let sim = run_program(&model, mode, &program, 100);
        assert_eq!(reg(&sim, &model, 1), -5, "{mode:?}");
        assert_eq!(reg(&sim, &model, 3), -2, "{mode:?}");
    }
}

#[test]
fn memory_store_load_round_trip() {
    let model = Model::from_source(TOY).expect("model builds");
    let program = ["LDI R1, 29", "ST R1, 5", "LD R2, 5", "HLT"];
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let sim = run_program(&model, mode, &program, 100);
        assert_eq!(reg(&sim, &model, 2), 29, "{mode:?}");
        let dmem = model.resource_by_name("dmem").unwrap();
        assert_eq!(sim.state().read_int(dmem, &[5]).unwrap(), 29);
    }
}

#[test]
fn loop_with_backward_branch() {
    // R1 counts down from 5; R2 accumulates 5+4+3+2+1 = 15.
    let model = Model::from_source(TOY).expect("model builds");
    let program = [
        "LDI R1, 5",
        "LDI R2, 0",
        "LDI R3, -1",
        "ADD R2, R2, R1", // address 3: loop body
        "ADD R1, R1, R3",
        "BNZ R1, 3",
        "HLT",
    ];
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let sim = run_program(&model, mode, &program, 1000);
        assert_eq!(reg(&sim, &model, 2), 15, "{mode:?}");
        assert_eq!(reg(&sim, &model, 1), 0, "{mode:?}");
    }
}

#[test]
fn both_modes_agree_cycle_by_cycle() {
    let model = Model::from_source(TOY).expect("model builds");
    let program = [
        "LDI R1, 13",
        "LDI R2, -9",
        "ADD R3, R1, R2",
        "MUL R4, R3, R3",
        "ST R4, 0",
        "LD R5, 0",
        "HLT",
    ];
    let words = assemble_program(&model, &program);
    let mut interp = Simulator::new(&model, SimMode::Interpretive).unwrap();
    let mut ops = Simulator::new(&model, SimMode::Ops).unwrap();
    interp.load_program("pmem", &words).unwrap();
    ops.load_program("pmem", &words).unwrap();
    for cycle in 0..20 {
        interp.step().unwrap();
        ops.step().unwrap();
        assert_eq!(interp.state(), ops.state(), "state diverged at cycle {cycle}");
    }
}

#[test]
fn compiled_mode_hits_decode_cache() {
    let model = Model::from_source(TOY).expect("model builds");
    let program = ["LDI R1, 1", "LDI R2, 2", "ADD R3, R1, R2", "HLT"];
    let sim = run_program(&model, SimMode::Ops, &program, 100);
    let stats = sim.stats();
    assert!(stats.decodes > 0);
    assert_eq!(
        stats.decode_cache_hits, stats.decodes,
        "every runtime decode should hit the pre-decoded cache"
    );
}

#[test]
fn interpretive_mode_redecodes_every_time() {
    let model = Model::from_source(TOY).expect("model builds");
    let program = ["LDI R1, 1", "LDI R2, 2", "ADD R3, R1, R2", "HLT"];
    let sim = run_program(&model, SimMode::Interpretive, &program, 100);
    assert_eq!(sim.stats().decode_cache_hits, 0);
    assert!(sim.stats().decodes >= 4);
}

#[test]
fn step_limit_is_reported() {
    let model = Model::from_source(TOY).expect("model builds");
    let words = assemble_program(&model, &["LDI R1, 1", "BNZ R1, 0"]); // infinite loop
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    sim.load_program("pmem", &words).unwrap();
    let halt = model.resource_by_name("halt").unwrap().clone();
    let err = sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 50).unwrap_err();
    assert!(matches!(err, SimError::StepLimit { limit: 50 }));
}

#[test]
fn trace_records_execution() {
    let model = Model::from_source(TOY).expect("model builds");
    let words = assemble_program(&model, &["LDI R1, 3", "HLT"]);
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    sim.load_program("pmem", &words).unwrap();
    sim.set_trace(true);
    sim.run(2).unwrap();
    let trace = sim.take_trace();
    assert!(trace.iter().any(|l| l.contains("exec main")));
    assert!(trace.iter().any(|l| l.contains("write R")));
}

// ---------------------------------------------------------------------------
// Pipeline timing
// ---------------------------------------------------------------------------

/// A model exercising activation delays and pipeline control: main
/// activates a three-stage chain each cycle; a `stall_req` resource holds
/// the pipe; `flush_req` kills in-flight activations.
const PIPE: &str = r#"
RESOURCE {
    PROGRAM_COUNTER int pc;
    REGISTER int mark_f;
    REGISTER int mark_d;
    REGISTER int mark_e;
    REGISTER int stall_req;
    REGISTER int flush_req;
    PIPELINE pipe = { FE; DE; EX };
}

OPERATION do_fetch IN pipe.FE {
    BEHAVIOR { mark_f = mark_f + 1; }
}

OPERATION do_decode IN pipe.DE {
    BEHAVIOR { mark_d = mark_d + 1; }
}

OPERATION do_execute IN pipe.EX {
    BEHAVIOR { mark_e = mark_e + 1; }
}

OPERATION main {
    ACTIVATION {
        do_fetch, do_decode, do_execute
        if (stall_req != 0) {
            pipe.DE.stall()
        }
        if (flush_req != 0) {
            pipe.flush()
        }
        pipe.shift()
    }
    BEHAVIOR { pc = pc + 1; }
}
"#;

fn read_marks(sim: &Simulator<'_>, model: &Model) -> (i64, i64, i64) {
    let get =
        |name: &str| sim.state().read_int(model.resource_by_name(name).unwrap(), &[]).unwrap();
    (get("mark_f"), get("mark_d"), get("mark_e"))
}

#[test]
fn spatial_distance_delays_stage_operations() {
    let model = Model::from_source(PIPE).expect("model builds");
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    // Cycle 1: only FE (distance 0) runs; DE lags 1 cycle, EX lags 2.
    sim.step().unwrap();
    assert_eq!(read_marks(&sim, &model), (1, 0, 0));
    sim.step().unwrap();
    assert_eq!(read_marks(&sim, &model), (2, 1, 0));
    sim.step().unwrap();
    assert_eq!(read_marks(&sim, &model), (3, 2, 1));
    // Steady state: all three advance together.
    sim.step().unwrap();
    assert_eq!(read_marks(&sim, &model), (4, 3, 2));
}

#[test]
fn stall_holds_upstream_stages() {
    let model = Model::from_source(PIPE).expect("model builds");
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    let stall_req = model.resource_by_name("stall_req").unwrap().clone();
    sim.run(3).unwrap();
    assert_eq!(read_marks(&sim, &model), (3, 2, 1));
    // Request a DE-stage stall for two cycles: activations bound for FE/DE
    // stop advancing, EX keeps draining.
    sim.state_mut().write_int(&stall_req, &[], 1).unwrap();
    sim.step().unwrap();
    let after_one = read_marks(&sim, &model);
    sim.step().unwrap();
    let after_two = read_marks(&sim, &model);
    sim.state_mut().write_int(&stall_req, &[], 0).unwrap();
    // FE keeps executing (main re-activates each cycle at distance 0), but
    // the DE-bound work stalls: mark_d advances more slowly than mark_f.
    assert!(
        after_two.0 - after_two.1 > after_one.0 - after_one.1 || after_two.1 == after_one.1,
        "stall should open a gap between FE and DE: {after_one:?} -> {after_two:?}"
    );
    // Resume: pipeline drains again.
    sim.run(4).unwrap();
    let resumed = read_marks(&sim, &model);
    assert!(resumed.1 > after_two.1);
    assert!(sim.stats().stalls >= 2);
}

#[test]
fn flush_discards_in_flight_activations() {
    let model = Model::from_source(PIPE).expect("model builds");
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    let flush_req = model.resource_by_name("flush_req").unwrap().clone();
    sim.run(3).unwrap();
    assert!(sim.in_flight() > 0);
    sim.state_mut().write_int(&flush_req, &[], 1).unwrap();
    sim.step().unwrap();
    sim.state_mut().write_int(&flush_req, &[], 0).unwrap();
    // All DE/EX work in flight was discarded; the next two cycles re-fill.
    let (f, d, e) = read_marks(&sim, &model);
    sim.step().unwrap();
    let (f2, d2, e2) = read_marks(&sim, &model);
    assert_eq!(f2, f + 1);
    // DE was flushed, so the step right after the flush has no DE work.
    assert_eq!(d2, d);
    assert_eq!(e2, e);
    assert!(sim.stats().flushes >= 1);
}

#[test]
fn delayed_activation_via_semicolons() {
    let model = Model::from_source(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int t0; REGISTER int later; }
        OPERATION mark_now { BEHAVIOR { t0 = pc; } }
        OPERATION mark_later { BEHAVIOR { later = pc; } }
        OPERATION kick {
            ACTIVATION { mark_now; ; mark_later }
        }
        OPERATION main {
            BEHAVIOR {
                pc = pc + 1;
                if (pc == 1) { kick; }
            }
        }
        "#,
    )
    .expect("model builds");
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    sim.run(6).unwrap();
    let t0 = sim.state().read_int(model.resource_by_name("t0").unwrap(), &[]).unwrap();
    let later = sim.state().read_int(model.resource_by_name("later").unwrap(), &[]).unwrap();
    // mark_now ran one control step after the kick (delay 1 from `;`),
    // mark_later three steps after (delay 3 from `;;;`).
    assert_eq!(later - t0, 2, "t0={t0} later={later}");
}

#[test]
fn unknown_name_in_behavior_errors() {
    let model = Model::from_source(
        "RESOURCE { PROGRAM_COUNTER int pc; } OPERATION main { BEHAVIOR { pc = bogus; } }",
    )
    .unwrap();
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    let err = sim.step().unwrap_err();
    assert!(matches!(err, SimError::UnknownName { ref name, .. } if name == "bogus"));
    // Ops mode rejects the model at lowering time.
    assert!(matches!(Simulator::new(&model, SimMode::Ops), Err(SimError::UnknownName { .. })));
}

#[test]
fn out_of_bounds_memory_access_errors() {
    let model = Model::from_source(
        r#"RESOURCE { PROGRAM_COUNTER int pc; DATA_MEMORY int m[4]; }
        OPERATION main { BEHAVIOR { m[9] = 1; } }"#,
    )
    .unwrap();
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut sim = Simulator::new(&model, mode).unwrap();
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::IndexOutOfBounds { .. }), "{mode:?}");
    }
}

#[test]
fn division_by_zero_errors() {
    let model = Model::from_source(
        r#"RESOURCE { PROGRAM_COUNTER int pc; REGISTER int r; }
        OPERATION main { BEHAVIOR { r = 5 / pc; } }"#,
    )
    .unwrap();
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut sim = Simulator::new(&model, mode).unwrap();
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::DivisionByZero { .. }), "{mode:?}");
    }
}

#[test]
fn behavior_c_constructs_work_in_both_modes() {
    let model = Model::from_source(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int out; REGISTER int acc; }
        OPERATION main {
            BEHAVIOR {
                int sum = 0;
                for (int i = 1; i <= 4; i++) { sum += i; }
                int j = 0;
                while (j < 3) { j++; }
                do { j--; } while (j > 1);
                switch (j) {
                    case 1: sum += 100; break;
                    default: sum += 1000;
                }
                acc = sum > 100 ? sum : -sum;
                out = acc + max(1, 2) + min(1, 2) + abs(0 - 7)
                    + saturate(300, 8) + sext(0b1111, 4) + zext(15, 4) + norm(1, 32);
                pc = pc + 1;
            }
        }
        "#,
    )
    .expect("model builds");
    // sum = 10 + 100 = 110; acc = 110;
    // out = 110 + 2 + 1 + 7 + 127 + (-1) + 15 + 30 = 291.
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut sim = Simulator::new(&model, mode).unwrap();
        sim.step().unwrap();
        let out = sim.state().read_int(model.resource_by_name("out").unwrap(), &[]).unwrap();
        assert_eq!(out, 291, "{mode:?}");
    }
}
