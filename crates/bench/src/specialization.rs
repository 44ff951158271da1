//! Experiment E5: compile-time `SWITCH`/`CASE` specialisation versus
//! run-time operand checks.
//!
//! Paper §3.4 (Example 6): "The selection of the respective syntax and
//! expression can already be determined at compile-time thus avoiding to
//! check the bit at run-time of the simulation." This module builds two
//! models of the *same* two-sided register machine:
//!
//! * [`SPECIALIZED`] — the register operand uses the paper's
//!   `SWITCH (Side)` structuring, so the A/B file selection is resolved
//!   when the instruction is decoded (once, in compiled mode);
//! * [`RUNTIME`] — the register operand exposes the raw register number
//!   and every instruction behavior re-tests the side bit with `if`/`?:`
//!   on every execution.
//!
//! Both models share the encoding, the ISA and the cycle structure, so
//! any wall-clock difference is the cost of the run-time checks.

use std::time::{Duration, Instant};

use lisa_models::{Workbench, WorkbenchError};
use lisa_sim::SimMode;

/// Shared model text: resources, control flow, fetch/decode driver.
/// `{REG_OP}` and the instruction behaviors differ per variant.
macro_rules! machine {
    ($reg_op:expr, $add:expr, $sub:expr, $xor:expr, $mvk:expr) => {
        concat!(
            r#"
RESOURCE {
    PROGRAM_COUNTER int pc;
    CONTROL_REGISTER int ir;
    REGISTER int A[16];
    REGISTER int B[16];
    REGISTER int cnt;
    REGISTER bit halt;
    PROGRAM_MEMORY int pmem[256];
}

OPERATION side_a { CODING { 0b0 } SYNTAX { "a" } }
OPERATION side_b { CODING { 0b1 } SYNTAX { "b" } }
"#,
            $reg_op,
            r#"
OPERATION imm8 {
    DECLARE { LABEL value; }
    CODING { value:0bx[8] }
    SYNTAX { value:#s }
    EXPRESSION { sext(value, 8) }
}

OPERATION addr8 {
    DECLARE { LABEL value; }
    CODING { value:0bx[8] }
    SYNTAX { value:#u }
    EXPRESSION { value }
}

OPERATION count16 {
    DECLARE { LABEL value; }
    CODING { value:0bx[16] }
    SYNTAX { value:#u }
    EXPRESSION { value }
}

OPERATION add {
    DECLARE { GROUP Dst, S1, S2 = { reg }; }
    CODING { 0b0001 Dst S1 S2 0bx[9] }
    SYNTAX { "ADD" Dst "," S1 "," S2 }
"#,
            $add,
            r#"
}

OPERATION sub {
    DECLARE { GROUP Dst, S1, S2 = { reg }; }
    CODING { 0b0010 Dst S1 S2 0bx[9] }
    SYNTAX { "SUB" Dst "," S1 "," S2 }
"#,
            $sub,
            r#"
}

OPERATION xor_op {
    DECLARE { GROUP Dst, S1, S2 = { reg }; }
    CODING { 0b0011 Dst S1 S2 0bx[9] }
    SYNTAX { "XOR" Dst "," S1 "," S2 }
"#,
            $xor,
            r#"
}

OPERATION mvk {
    DECLARE { GROUP Dst = { reg }; GROUP Val = { imm8 }; }
    CODING { 0b0100 Dst Val 0bx[11] }
    SYNTAX { "MVK" Dst "," Val }
"#,
            $mvk,
            r#"
}

OPERATION ldc {
    DECLARE { GROUP Val = { count16 }; }
    CODING { 0b0101 Val 0bx[8] }
    SYNTAX { "LDC" Val }
    BEHAVIOR { cnt = Val; }
}

OPERATION dbnz {
    DECLARE { GROUP Target = { addr8 }; }
    CODING { 0b0110 Target 0bx[16] }
    SYNTAX { "DBNZ" Target }
    BEHAVIOR {
        cnt = cnt - 1;
        if (cnt != 0) { pc = Target - 1; }
    }
}

OPERATION hlt {
    CODING { 0b0111 0bx[24] }
    SYNTAX { "HLT" }
    BEHAVIOR { halt = 1; }
}

OPERATION decode {
    DECLARE { GROUP Instruction = { add || sub || xor_op || mvk || ldc || dbnz || hlt }; }
    CODING { ir == Instruction }
    SYNTAX { Instruction }
    BEHAVIOR { Instruction; }
}

OPERATION main {
    BEHAVIOR {
        if (halt == 0) {
            ir = pmem[pc];
            decode;
            pc = pc + 1;
        }
    }
}
"#
        )
    };
}

/// The specialised machine: paper Example 6's `SWITCH (Side)` operand.
pub const SPECIALIZED: &str = machine!(
    r#"
OPERATION reg {
    DECLARE { GROUP Side = { side_a || side_b }; LABEL index; }
    CODING { Side index:0bx[4] }
    SWITCH (Side) {
        CASE side_a: { SYNTAX { "A" index:#u } EXPRESSION { A[index] } }
        CASE side_b: { SYNTAX { "B" index:#u } EXPRESSION { B[index] } }
    }
}
"#,
    "    BEHAVIOR { Dst = S1 + S2; }",
    "    BEHAVIOR { Dst = S1 - S2; }",
    "    BEHAVIOR { Dst = S1 ^ S2; }",
    "    BEHAVIOR { Dst = Val; }"
);

/// The run-time-check machine: the operand is the raw register number and
/// every behavior tests the side bit on every execution.
pub const RUNTIME: &str = machine!(
    r#"
OPERATION reg {
    DECLARE { GROUP Side = { side_a || side_b }; LABEL index; }
    CODING { Side index:0bx[4] }
    SWITCH (Side) {
        CASE side_a: { SYNTAX { "A" index:#u } EXPRESSION { index } }
        CASE side_b: { SYNTAX { "B" index:#u } EXPRESSION { 16 + index } }
    }
}
"#,
    r#"    BEHAVIOR {
        int v = ((S1 >= 16) ? B[S1 - 16] : A[S1]) + ((S2 >= 16) ? B[S2 - 16] : A[S2]);
        if (Dst >= 16) { B[Dst - 16] = v; } else { A[Dst] = v; }
    }"#,
    r#"    BEHAVIOR {
        int v = ((S1 >= 16) ? B[S1 - 16] : A[S1]) - ((S2 >= 16) ? B[S2 - 16] : A[S2]);
        if (Dst >= 16) { B[Dst - 16] = v; } else { A[Dst] = v; }
    }"#,
    r#"    BEHAVIOR {
        int v = ((S1 >= 16) ? B[S1 - 16] : A[S1]) ^ ((S2 >= 16) ? B[S2 - 16] : A[S2]);
        if (Dst >= 16) { B[Dst - 16] = v; } else { A[Dst] = v; }
    }"#,
    r#"    BEHAVIOR {
        if (Dst >= 16) { B[Dst - 16] = Val; } else { A[Dst] = Val; }
    }"#
);

/// The benchmark workload: an arithmetic loop mixing both register sides,
/// `iterations` times around.
#[must_use]
pub fn workload(iterations: u32) -> String {
    format!(
        r#"
        MVK A2, 1
        MVK B2, 2
        MVK A3, 3
        MVK B3, 5
        LDC {iterations}
loop:   ADD A4, A2, B2
        ADD B4, A3, B3
        SUB A5, A4, B4
        XOR B5, A4, A5
        ADD A2, A2, B5
        SUB B2, B2, A5
        ADD A3, A3, B4
        XOR B3, B3, A4
        DBNZ loop
        HLT
"#
    )
}

/// Builds the workbench for one of the two machines.
///
/// # Errors
///
/// Returns the usual workbench errors (the sources are covered by tests).
pub fn workbench(specialized: bool) -> Result<Workbench, WorkbenchError> {
    Workbench::from_source(if specialized { SPECIALIZED } else { RUNTIME }, "pmem", "halt")
}

/// Runs the workload once in the given mode, returning cycles and wall
/// time.
///
/// # Errors
///
/// Propagates assembly/simulation errors.
pub fn run_workload(
    wb: &Workbench,
    iterations: u32,
    mode: SimMode,
) -> Result<(u64, Duration), WorkbenchError> {
    let program = lisa_asm::Assembler::new(wb.model())
        .assemble(&workload(iterations))
        .expect("workload assembles");
    let mut sim = wb.simulator(mode)?;
    sim.load_program("pmem", &program.words)?;
    let t = Instant::now();
    let cycles = wb.run_to_halt(&mut sim, 64 * u64::from(iterations) + 1000)?;
    Ok((cycles, t.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_machines_compute_identical_results() {
        let spec = workbench(true).expect("specialized builds");
        let rt = workbench(false).expect("runtime builds");
        let program = workload(10);
        let mut results = Vec::new();
        for wb in [&spec, &rt] {
            let image = lisa_asm::Assembler::new(wb.model()).assemble(&program).expect("assembles");
            let mut sim = wb.simulator(SimMode::Ops).expect("sim");
            sim.load_program("pmem", &image.words).unwrap();
            wb.run_to_halt(&mut sim, 10_000).expect("halts");
            let a = wb.model().resource_by_name("A").unwrap();
            let b = wb.model().resource_by_name("B").unwrap();
            let snapshot: Vec<i64> = (0..16)
                .map(|i| sim.state().read_int(a, &[i]).unwrap())
                .chain((0..16).map(|i| sim.state().read_int(b, &[i]).unwrap()))
                .collect();
            results.push(snapshot);
        }
        assert_eq!(results[0], results[1], "machines diverged");
        assert!(results[0].iter().any(|&v| v != 0), "workload did something");
    }

    #[test]
    fn cycle_counts_match_between_machines() {
        let spec = workbench(true).unwrap();
        let rt = workbench(false).unwrap();
        let (c1, _) = run_workload(&spec, 20, SimMode::Ops).unwrap();
        let (c2, _) = run_workload(&rt, 20, SimMode::Ops).unwrap();
        assert_eq!(c1, c2, "specialisation must not change cycle counts");
    }
}
