//! Manual hot-path probe: micro-models that isolate the fixed per-step
//! engine overhead from decode and behavior-evaluation cost, on both
//! backends. Kernel speed is E15's (`table_ops_speed`).

use lisa_core::Model;
use lisa_sim::{SimMode, Simulator};
use std::time::Instant;

fn time_micro(name: &str, source: &str, steps: u64) {
    let model = Model::from_source(source).expect("micro model builds");
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut sim = Simulator::new(&model, mode).expect("sim builds");
        sim.predecode_program_memory();
        let t = Instant::now();
        sim.run(steps).expect("runs");
        let dt = t.elapsed();
        println!("{name:<24} {mode:?}: {:.0} ns/cycle", dt.as_secs_f64() * 1e9 / steps as f64);
    }
}

fn main() {
    // Pure step overhead: a main with an empty behavior.
    time_micro(
        "empty-main",
        r#"RESOURCE { PROGRAM_COUNTER int pc; }
           OPERATION main { BEHAVIOR { } }"#,
        200_000,
    );
    // One statement of behavior.
    time_micro(
        "counter-main",
        r#"RESOURCE { PROGRAM_COUNTER int pc; REGISTER int r0; }
           OPERATION main { BEHAVIOR { r0 = r0 + 1; pc = pc + 1; } }"#,
        200_000,
    );
    // Fetch + decode of a constant word through the decode path.
    time_micro(
        "fetch-decode",
        r#"RESOURCE {
               PROGRAM_COUNTER int pc;
               CONTROL_REGISTER int ir;
               REGISTER int r0;
               PROGRAM_MEMORY int prog_mem[16];
           }
           OPERATION nopi {
               CODING { 0b0000000000000000 }
               SYNTAX { "NOPI" }
               BEHAVIOR { r0 = r0 + 1; }
           }
           OPERATION decode {
               DECLARE { GROUP insn = { nopi }; }
               CODING { ir == insn }
               SYNTAX { insn }
               BEHAVIOR { insn; }
           }
           OPERATION main {
               BEHAVIOR { ir = prog_mem[pc & 15]; decode; pc = pc + 1; }
           }"#,
        200_000,
    );
}
