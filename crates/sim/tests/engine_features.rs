//! Engine feature coverage: activation `switch`, delayed conditional
//! activation, op-reference bindings, expression lvalues through
//! references, and behavior-language corner cases in both backends.

use lisa_core::Model;
use lisa_sim::{SimMode, Simulator};

/// Builds the model, runs `steps` in both modes, asserts identical state,
/// and returns the ops simulator for inspection.
fn run_both(model: &Model, steps: u64) -> Simulator<'_> {
    let mut interp = Simulator::new(model, SimMode::Interpretive).expect("interp");
    let mut ops = Simulator::new(model, SimMode::Ops).expect("ops");
    interp.run(steps).expect("interp runs");
    ops.run(steps).expect("ops runs");
    assert_eq!(interp.state(), ops.state(), "backends diverged");
    ops
}

fn read(sim: &Simulator<'_>, name: &str) -> i64 {
    sim.state().read_int(sim.model().resource_by_name(name).expect(name), &[]).expect(name)
}

#[test]
fn activation_switch_selects_by_resource_value() {
    let model = Model::from_source(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int mode; REGISTER int mark_a; REGISTER int mark_b; REGISTER int mark_d; }
        OPERATION do_a { BEHAVIOR { mark_a = mark_a + 1; } }
        OPERATION do_b { BEHAVIOR { mark_b = mark_b + 1; } }
        OPERATION do_default { BEHAVIOR { mark_d = mark_d + 1; } }
        OPERATION main {
            BEHAVIOR { pc = pc + 1; mode = pc % 3; }
            ACTIVATION {
                switch (mode) {
                    case 1: { do_a }
                    case 2: { do_b }
                    default: { do_default }
                }
            }
        }
        "#,
    )
    .expect("builds");
    let sim = run_both(&model, 9);
    // pc runs 1..=9; mode = pc%3 cycles 1,2,0 three times each.
    assert_eq!(read(&sim, "mark_a"), 3);
    assert_eq!(read(&sim, "mark_b"), 3);
    assert_eq!(read(&sim, "mark_d"), 3);
}

#[test]
fn delayed_activation_inside_conditionals() {
    let model = Model::from_source(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int fired_at; }
        OPERATION late { BEHAVIOR { fired_at = pc; } }
        OPERATION main {
            BEHAVIOR { pc = pc + 1; }
            ACTIVATION {
                if (pc == 1) { ;; late }
            }
        }
        "#,
    )
    .expect("builds");
    let sim = run_both(&model, 6);
    // Activated at the end of cycle 0 (pc just became 1) with delay 2 →
    // executes during the cycle where pc becomes 3.
    assert_eq!(read(&sim, "fired_at"), 3);
}

#[test]
fn op_reference_bindings_flow_through_coding() {
    // `user` embeds `imm4` directly (not via a group); its behavior reads
    // and writes through the reference.
    let model = Model::from_source(
        r#"
        RESOURCE {
            PROGRAM_COUNTER int pc;
            CONTROL_REGISTER int ir;
            REGISTER int out;
            REGISTER int cell[16];
        }
        OPERATION imm4 {
            DECLARE { LABEL v; }
            CODING { v:0bx[4] }
            SYNTAX { v:#u }
            EXPRESSION { cell[v] }
        }
        OPERATION user {
            DECLARE { REFERENCE imm4; }
            CODING { 0b1010 imm4 }
            SYNTAX { "USER" imm4 }
            BEHAVIOR {
                imm4 = imm4 + 7;
                out = imm4;
            }
        }
        OPERATION decode {
            DECLARE { GROUP Instruction = { user }; }
            CODING { ir == Instruction }
            SYNTAX { Instruction }
            BEHAVIOR { Instruction; }
        }
        OPERATION main {
            BEHAVIOR {
                if (pc == 0) {
                    ir = 0b10100011;   // USER 3
                    decode;
                }
                pc = pc + 1;
            }
        }
        "#,
    )
    .expect("builds");
    let sim = run_both(&model, 2);
    assert_eq!(read(&sim, "out"), 7, "cell[3] incremented then read");
    let cell = sim.model().resource_by_name("cell").unwrap();
    assert_eq!(sim.state().read_int(cell, &[3]).unwrap(), 7);
}

#[test]
fn behavior_corner_cases_match_across_backends() {
    let model = Model::from_source(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int out; REGISTER int trace_val; }
        OPERATION main {
            BEHAVIOR {
                int x = 0;
                // continue skips, break exits.
                for (int i = 0; i < 10; i++) {
                    if (i % 2 == 0) { continue; }
                    if (i > 6) { break; }
                    x += i;           // 1 + 3 + 5
                }
                // do-while runs at least once.
                int guard = 0;
                do { guard++; } while (guard < 0);
                // nested blocks shadow locals.
                int y = 1;
                {
                    int y = 100;
                    x += y;
                }
                x += y;
                // compound assignments.
                x <<= 1;
                x |= 1;
                x ^= 2;
                x &= 255;
                out = x + guard;
                trace_val = print(out);
                pc = pc + 1;
            }
        }
        "#,
    )
    .expect("builds");
    let sim = run_both(&model, 1);
    // x = 9 + 100 + 1 = 110; <<1 = 220; |1 = 221; ^2 = 223; &255 = 223.
    assert_eq!(read(&sim, "out"), 224);
    assert_eq!(read(&sim, "trace_val"), 224);
}

#[test]
fn whole_pipe_stall_and_flush_from_behavior() {
    let model = Model::from_source(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int got; PIPELINE p = { S0; S1; S2 }; }
        OPERATION staged IN p.S2 { BEHAVIOR { got = got + 1; } }
        OPERATION main {
            BEHAVIOR { pc = pc + 1; }
            ACTIVATION {
                // pc has already been incremented by the behavior, so the
                // activation of cycle N sees pc == N + 1.
                if (pc == 1) { staged }
                if (pc == 2) { p.stall() }
                if (pc == 10) { staged }
                if (pc == 11) { p.flush() }
                p.shift()
            }
        }
        "#,
    )
    .expect("builds");
    let sim = run_both(&model, 20);
    // First activation (distance 2) is held one extra cycle by the stall
    // but still lands; the second is flushed before reaching S2.
    assert_eq!(read(&sim, "got"), 1);
    assert_eq!(sim.stats().flushes, 1);
    assert_eq!(sim.stats().stalls, 1);
}

#[test]
fn ternary_and_logical_short_circuit() {
    let model = Model::from_source(
        r#"
        RESOURCE { PROGRAM_COUNTER int pc; REGISTER int out; DATA_MEMORY int m[4]; }
        OPERATION main {
            BEHAVIOR {
                // Short-circuit prevents the out-of-bounds access.
                int safe = 0;
                if (pc < 4 && m[pc] == 0) { safe = 1; }
                if (pc >= 4 || m[pc % 4] == 0) { safe = safe + 2; }
                out = pc == 0 ? safe : 0 - safe;
                pc = pc + 1;
            }
        }
        "#,
    )
    .expect("builds");
    let sim = run_both(&model, 1);
    assert_eq!(read(&sim, "out"), 3);
}

#[test]
fn execute_decoded_injects_instructions_directly() {
    let model = Model::from_source(
        r#"
        RESOURCE { CONTROL_REGISTER int ir; REGISTER int r[4]; }
        OPERATION reg {
            DECLARE { LABEL i; }
            CODING { i:0bx[2] }
            SYNTAX { "r" i:#u }
            EXPRESSION { r[i] }
        }
        OPERATION inc {
            DECLARE { GROUP Dst = { reg }; }
            CODING { 0b01 Dst }
            SYNTAX { "INC" Dst }
            BEHAVIOR { Dst = Dst + 1; }
        }
        OPERATION decode {
            DECLARE { GROUP Instruction = { inc }; }
            CODING { ir == Instruction }
            SYNTAX { Instruction }
            BEHAVIOR { Instruction; }
        }
        "#,
    )
    .expect("builds");
    let decoder = lisa_isa::Decoder::new(&model).expect("decoder");
    let decoded = decoder.decode(0b0110).expect("INC r2");
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut sim = Simulator::new(&model, mode).expect("sim");
        sim.execute_decoded(&decoded).expect("executes");
        sim.execute_decoded(&decoded).expect("executes");
        let r = model.resource_by_name("r").unwrap();
        assert_eq!(sim.state().read_int(r, &[2]).unwrap(), 2, "{mode:?}");
    }
}
