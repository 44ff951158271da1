//! Simulator public-API coverage: loader errors, trace lifecycle,
//! pre-decode counting, mode/stats accessors, and run_until edge cases.

use lisa_core::Model;
use lisa_sim::{SimError, SimMode, Simulator, TraceEvent};

fn model() -> Model {
    Model::from_source(
        r#"
        RESOURCE {
            PROGRAM_COUNTER int pc;
            CONTROL_REGISTER int ir;
            REGISTER int acc;
            REGISTER bit halt;
            PROGRAM_MEMORY int pmem[16];
        }
        OPERATION addi {
            DECLARE { LABEL v; }
            CODING { 0b01 v:0bx[6] }
            SYNTAX { "ADDI" v:#s }
            BEHAVIOR { acc = acc + sext(v, 6); }
        }
        OPERATION done {
            CODING { 0b11 0bx[6] }
            SYNTAX { "DONE" }
            BEHAVIOR { halt = 1; }
        }
        OPERATION decode {
            DECLARE { GROUP Instruction = { addi || done }; }
            CODING { ir == Instruction }
            SYNTAX { Instruction }
            BEHAVIOR { Instruction; }
        }
        OPERATION main {
            BEHAVIOR {
                if (halt == 0) {
                    ir = pmem[pc & 15];
                    decode;
                    pc = pc + 1;
                }
            }
        }
        "#,
    )
    .expect("model builds")
}

#[test]
fn loader_rejects_unknown_memory_and_overflow() {
    let model = model();
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    let err = sim.load_program("nowhere", &[0]).unwrap_err();
    assert!(matches!(err, SimError::UnknownName { .. }));
    let too_big = vec![0u128; 17];
    let err = sim.load_program("pmem", &too_big).unwrap_err();
    assert!(matches!(err, SimError::IndexOutOfBounds { .. }));
    assert!(sim.load_program("pmem", &vec![0u128; 16]).is_ok());
}

/// Three distinct decodable words (ADDI 1, ADDI 2, DONE) plus a repeat
/// and an undecodable word (opcode 0b10); the rest of pmem is zeros, and
/// 0b00_... does not decode either.
const DISTINCT_THREE: [u128; 5] = [0b01_000001, 0b01_000010, 0b01_000001, 0b11_000000, 0b10_000000];

/// Writes `words` into pmem through the state, which predecodes nothing.
fn poke_program(sim: &mut Simulator<'_>, model: &Model, words: &[u128]) {
    let pmem = model.resource_by_name("pmem").unwrap().clone();
    for (i, &word) in words.iter().enumerate() {
        sim.state_mut().write_int(&pmem, &[i as i64], word as i64).unwrap();
    }
}

#[test]
fn predecode_counts_distinct_instruction_words() {
    let model = model();
    let mut sim = Simulator::new(&model, SimMode::Ops).unwrap();
    poke_program(&mut sim, &model, &DISTINCT_THREE);
    // Distinct decodable words only; a further call adds nothing.
    assert_eq!(sim.predecode_program_memory(), 3);
    assert_eq!(sim.predecode_program_memory(), 0);

    // Loading pre-decodes automatically in ops mode, so an explicit call
    // after it adds nothing and every fetch hits.
    let mut loaded = Simulator::new(&model, SimMode::Ops).unwrap();
    loaded.load_program("pmem", &DISTINCT_THREE).unwrap();
    assert_eq!(loaded.predecode_program_memory(), 0);
    let halt = model.resource_by_name("halt").unwrap().clone();
    loaded.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 100).expect("halts");
    let stats = loaded.stats();
    assert_eq!((stats.decodes, stats.decode_cache_hits), (4, 4));
}

#[test]
fn the_interpreter_decodes_nothing_ahead() {
    let model = model();
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    poke_program(&mut sim, &model, &DISTINCT_THREE);
    let before = *sim.stats();
    assert_eq!(sim.predecode_program_memory(), 0, "no word cache to fill");
    assert_eq!(sim.stats(), &before);
    // It decodes on every fetch instead, and no fetch is a hit.
    sim.load_program("pmem", &DISTINCT_THREE).unwrap();
    assert_eq!(sim.stats(), &before, "loading decodes nothing either");
    let halt = model.resource_by_name("halt").unwrap().clone();
    sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 100).expect("halts");
    assert_eq!((sim.stats().decodes, sim.stats().decode_cache_hits), (4, 0));
}

#[test]
fn trace_lifecycle() {
    let model = model();
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    sim.load_program("pmem", &[0b01_000011, 0b11_000000]).unwrap();
    sim.run(1).unwrap();
    assert!(sim.take_trace().is_empty(), "trace off by default");
    sim.set_trace(true);
    sim.run(2).unwrap();
    let cycles: Vec<u64> = sim.take_events().iter().map(TraceEvent::cycle).collect();
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "recorded in order: {cycles:?}");
    assert!(cycles.first() < cycles.last(), "both steps recorded: {cycles:?}");
    assert!(sim.take_events().is_empty(), "take drains");
    sim.run(1).unwrap();
    let trace = sim.take_trace();
    assert!(!trace.is_empty());
    assert!(sim.take_trace().is_empty(), "take drains");
    sim.set_trace(false);
    sim.run(1).unwrap();
    assert!(sim.take_trace().is_empty());
}

#[test]
fn run_until_counts_steps_taken() {
    let model = model();
    let mut sim = Simulator::new(&model, SimMode::Ops).unwrap();
    sim.load_program("pmem", &[0b01_000001, 0b01_000001, 0b11_000000]).unwrap();
    sim.predecode_program_memory();
    let halt = model.resource_by_name("halt").unwrap().clone();
    let steps = sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 100).expect("halts");
    assert_eq!(steps.cycles, 3);
    assert_eq!(sim.stats().cycles, 3);
    assert_eq!(sim.mode(), SimMode::Ops);
    // A predicate that is already true still takes one step (checked
    // after stepping).
    let steps = sim.run_until(|_| true, 100).expect("immediate");
    assert_eq!(steps.cycles, 1);
}

#[test]
fn stats_display_and_cache_rate() {
    let model = model();
    let mut sim = Simulator::new(&model, SimMode::Ops).unwrap();
    sim.load_program("pmem", &[0b01_000001, 0b11_000000]).unwrap();
    sim.predecode_program_memory();
    let halt = model.resource_by_name("halt").unwrap().clone();
    sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, 100).unwrap();
    let stats = *sim.stats();
    assert_eq!(stats.decodes, 2);
    assert_eq!(stats.decode_cache_hits, stats.decodes);
    let text = stats.to_string();
    assert!(text.contains("cycles=2"));
    assert!(text.contains("decodes=2 (hits=2)"));
}

#[test]
fn state_reset_clears_everything() {
    let model = model();
    let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
    sim.load_program("pmem", &[0b01_000011, 0b11_000000]).unwrap();
    sim.run(3).unwrap();
    let acc = model.resource_by_name("acc").unwrap().clone();
    assert_eq!(sim.state().read_int(&acc, &[]).unwrap(), 3);
    sim.state_mut().reset();
    assert_eq!(sim.state().read_int(&acc, &[]).unwrap(), 0);
    let pmem = model.resource_by_name("pmem").unwrap();
    assert_eq!(sim.state().read_int(pmem, &[0]).unwrap(), 0, "program cleared too");
}

#[test]
fn models_without_decoder_still_simulate() {
    // No decode root: simulation works, decoding errors out.
    let model = Model::from_source(
        "RESOURCE { PROGRAM_COUNTER int pc; } OPERATION main { BEHAVIOR { pc = pc + 1; } }",
    )
    .unwrap();
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut sim = Simulator::new(&model, mode).unwrap();
        sim.run(5).unwrap();
        let pc = model.resource_by_name("pc").unwrap();
        assert_eq!(sim.state().read_int(pc, &[]).unwrap(), 5, "{mode:?}");
        assert_eq!(sim.predecode_program_memory(), 0);
    }
}
