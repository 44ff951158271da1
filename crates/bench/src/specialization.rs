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
//! any wall-clock difference is the cost of the run-time checks: E5
//! times [`kernel`] on the two machines as two ops arms of the kernel
//! sampler.

use lisa_models::kernels::{Check, Kernel};
use lisa_models::{Workbench, WorkbenchError};

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

/// The benchmark kernel: an arithmetic loop mixing both register sides,
/// `iterations` times around (1..=65535, the `LDC` range), checked
/// against the final A/B register values computed here in Rust.
///
/// # Panics
///
/// Panics when `iterations` is out of range.
#[must_use]
pub fn kernel(iterations: u32) -> Kernel {
    assert!((1..=0xFFFF).contains(&iterations), "iterations out of LDC range");
    // The registers the loop writes, as 32-bit `int`s.
    let (mut a2, mut b2, mut a3, mut b3) = (1i32, 2i32, 3i32, 5i32);
    let (mut a4, mut b4, mut a5, mut b5) = (0i32, 0i32, 0i32, 0i32);
    for _ in 0..iterations {
        a4 = a2.wrapping_add(b2);
        b4 = a3.wrapping_add(b3);
        a5 = a4.wrapping_sub(b4);
        b5 = a4 ^ a5;
        a2 = a2.wrapping_add(b5);
        b2 = b2.wrapping_sub(a5);
        a3 = a3.wrapping_add(b4);
        b3 ^= a4;
    }
    let checks = [("A", [a2, a3, a4, a5]), ("B", [b2, b3, b4, b5])]
        .into_iter()
        .flat_map(|(resource, values)| {
            (2..).zip(values).map(move |(index, value)| Check::Reg {
                resource,
                index,
                value: i64::from(value),
            })
        })
        .collect();
    let source = format!(
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
    );
    Kernel {
        name: format!("e5_loop_{iterations}"),
        source,
        data: Vec::new(),
        checks,
        max_steps: 64 * u64::from(iterations) + 1000,
    }
}

/// Builds the workbench for one of the two machines.
///
/// # Errors
///
/// Returns the usual workbench errors (the sources are covered by tests).
pub fn workbench(specialized: bool) -> Result<Workbench, WorkbenchError> {
    Workbench::from_source(if specialized { SPECIALIZED } else { RUNTIME }, "pmem", "halt")
}

#[cfg(test)]
mod tests {
    use lisa_sim::SimMode;

    use super::*;
    use crate::sampler::{sample_rounds, Arm};

    /// Both machines meet the kernel's golden values in the same cycles
    /// on both backends (the sampler checks every run against both).
    #[test]
    fn both_machines_meet_the_golden_values_in_the_same_cycles() {
        let spec = workbench(true).expect("specialized builds");
        let rt = workbench(false).expect("runtime builds");
        let kernel = kernel(20);
        let arms = [SimMode::Ops, SimMode::Interpretive]
            .map(|mode| [Arm::new(mode).on(&spec), Arm::new(mode).on(&rt)]);
        let samples = sample_rounds(&spec, &kernel, arms.as_flattened(), 1, 0);
        assert_eq!(samples.cycles, 9 * 20 + 6);
        assert!(kernel.checks.iter().any(|c| matches!(c, Check::Reg { value, .. } if *value != 0)));
    }
}
