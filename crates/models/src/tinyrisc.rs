//! `tinyrisc` — a 16-bit, 8-register teaching core.
//!
//! The smallest complete LISA model in the suite: one instruction per
//! 16-bit word, no pipeline, fetch-decode-execute driven from `main`.
//! Used by the quickstart example and as a fast target for tool tests.

use crate::{Workbench, WorkbenchError};

/// The LISA description of the core.
pub const SOURCE: &str = r#"
// tinyrisc: 16-bit teaching core.
// Format (msb..lsb): opcode[4] | fields[12].

RESOURCE {
    PROGRAM_COUNTER int pc;
    CONTROL_REGISTER int ir;
    REGISTER int R[8];
    REGISTER bit halt;
    REGISTER bit zflag;
    DATA_MEMORY int dmem[256];
    PROGRAM_MEMORY int pmem[256];
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

OPERATION addr8 {
    DECLARE { LABEL value; }
    CODING { value:0bx[8] }
    SYNTAX { value:#u }
    EXPRESSION { value }
}

OPERATION ldi {
    DECLARE { GROUP Dest = { reg }; GROUP Val = { imm6 }; }
    CODING { 0b0001 Dest Val 0bx[3] }
    SYNTAX { "LDI" Dest "," Val }
    SEMANTICS { LOAD_IMMEDIATE(Dest, Val) }
    BEHAVIOR { Dest = Val; zflag = Dest == 0; }
}

OPERATION add {
    DECLARE { GROUP Dest, Src1, Src2 = { reg }; }
    CODING { 0b0010 Dest Src1 Src2 0bx[3] }
    SYNTAX { "ADD" Dest "," Src1 "," Src2 }
    SEMANTICS { ADD(Dest, Src1, Src2) }
    BEHAVIOR { Dest = Src1 + Src2; zflag = Dest == 0; }
}

OPERATION sub {
    DECLARE { GROUP Dest, Src1, Src2 = { reg }; }
    CODING { 0b0011 Dest Src1 Src2 0bx[3] }
    SYNTAX { "SUB" Dest "," Src1 "," Src2 }
    SEMANTICS { SUB(Dest, Src1, Src2) }
    BEHAVIOR { Dest = Src1 - Src2; zflag = Dest == 0; }
}

OPERATION mul {
    DECLARE { GROUP Dest, Src1, Src2 = { reg }; }
    CODING { 0b0100 Dest Src1 Src2 0bx[3] }
    SYNTAX { "MUL" Dest "," Src1 "," Src2 }
    SEMANTICS { MUL(Dest, Src1, Src2) }
    BEHAVIOR { Dest = Src1 * Src2; zflag = Dest == 0; }
}

OPERATION and_op {
    DECLARE { GROUP Dest, Src1, Src2 = { reg }; }
    CODING { 0b0101 Dest Src1 Src2 0bx[3] }
    SYNTAX { "AND" Dest "," Src1 "," Src2 }
    SEMANTICS { AND(Dest, Src1, Src2) }
    BEHAVIOR { Dest = Src1 & Src2; zflag = Dest == 0; }
}

OPERATION or_op {
    DECLARE { GROUP Dest, Src1, Src2 = { reg }; }
    CODING { 0b0110 Dest Src1 Src2 0bx[3] }
    SYNTAX { "OR" Dest "," Src1 "," Src2 }
    SEMANTICS { OR(Dest, Src1, Src2) }
    BEHAVIOR { Dest = Src1 | Src2; zflag = Dest == 0; }
}

OPERATION xor_op {
    DECLARE { GROUP Dest, Src1, Src2 = { reg }; }
    CODING { 0b0111 Dest Src1 Src2 0bx[3] }
    SYNTAX { "XOR" Dest "," Src1 "," Src2 }
    SEMANTICS { XOR(Dest, Src1, Src2) }
    BEHAVIOR { Dest = Src1 ^ Src2; zflag = Dest == 0; }
}

// MV is pure instruction aliasing: OR Rd, Rs, Rs.
OPERATION mv ALIAS {
    DECLARE { GROUP Dest, Src = { reg }; }
    CODING { 0b0110 Dest Src Src 0bx[3] }
    SYNTAX { "MV" Dest "," Src }
    SEMANTICS { MOVE(Dest, Src) }
}

OPERATION shl {
    DECLARE { GROUP Dest, Src = { reg }; GROUP Amount = { imm6 }; }
    CODING { 0b1000 Dest Src Amount }
    SYNTAX { "SHL" Dest "," Src "," Amount:#u }
    SEMANTICS { SHIFT_LEFT(Dest, Src, Amount) }
    BEHAVIOR { Dest = Src << Amount; zflag = Dest == 0; }
}

OPERATION ld {
    DECLARE { GROUP Dest = { reg }; GROUP Base = { reg }; }
    CODING { 0b1001 Dest Base 0bx[6] }
    SYNTAX { "LD" Dest "," Base }
    SEMANTICS { LOAD(Dest, Base) }
    BEHAVIOR { Dest = dmem[Base & 255]; zflag = Dest == 0; }
}

OPERATION st {
    DECLARE { GROUP Src = { reg }; GROUP Base = { reg }; }
    CODING { 0b1010 Src Base 0bx[6] }
    SYNTAX { "ST" Src "," Base }
    SEMANTICS { STORE(Src, Base) }
    BEHAVIOR { dmem[Base & 255] = Src; }
}

OPERATION bz {
    DECLARE { GROUP Target = { addr8 }; }
    CODING { 0b1011 Target 0bx[4] }
    SYNTAX { "BZ" Target }
    SEMANTICS { BRANCH_IF_ZERO(Target) }
    BEHAVIOR { if (zflag) { pc = Target - 1; } }
}

OPERATION bnz {
    DECLARE { GROUP Target = { addr8 }; }
    CODING { 0b1100 Target 0bx[4] }
    SYNTAX { "BNZ" Target }
    SEMANTICS { BRANCH_IF_NOT_ZERO(Target) }
    BEHAVIOR { if (!zflag) { pc = Target - 1; } }
}

OPERATION jmp {
    DECLARE { GROUP Target = { addr8 }; }
    CODING { 0b1101 Target 0bx[4] }
    SYNTAX { "JMP" Target }
    SEMANTICS { JUMP(Target) }
    BEHAVIOR { pc = Target - 1; }
}

OPERATION hlt {
    CODING { 0b1111 0bx[12] }
    SYNTAX { "HLT" }
    SEMANTICS { HALT() }
    BEHAVIOR { halt = 1; }
}

OPERATION nop {
    CODING { 0b0000 0bx[12] }
    SYNTAX { "NOP" }
    SEMANTICS { NO_OPERATION() }
    BEHAVIOR { }
}

OPERATION decode {
    DECLARE {
        GROUP Instruction = {
            nop || ldi || add || sub || mul || and_op || or_op || xor_op ||
            mv || shl || ld || st || bz || bnz || jmp || hlt
        };
    }
    CODING { ir == Instruction }
    SYNTAX { Instruction }
    BEHAVIOR { Instruction; }
}

OPERATION fetch {
    BEHAVIOR { ir = pmem[pc]; }
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

/// Builds the workbench for `tinyrisc`.
///
/// # Errors
///
/// Returns [`WorkbenchError::Lisa`] if the embedded source fails to build
/// (a bug, covered by tests).
pub fn workbench() -> Result<Workbench, WorkbenchError> {
    Workbench::from_source(SOURCE, "pmem", "halt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_core::model::ModelStats;
    use lisa_sim::SimMode;

    #[test]
    fn model_builds_with_expected_shape() {
        let wb = workbench().expect("builds");
        let stats = ModelStats::of(wb.model());
        assert_eq!(stats.instructions, 15, "15 real instructions");
        assert_eq!(stats.aliases, 1, "MV is an alias");
        assert!(
            wb.model().warnings().iter().all(|w| {
                !matches!(w, lisa_core::model::ModelWarning::UnreachableOperation { .. })
            }),
            "no unreachable operations: {:?}",
            wb.model().warnings()
        );
    }

    #[test]
    fn fibonacci_runs_identically_in_both_modes() {
        let wb = workbench().expect("builds");
        // R1,R2 = fib pair; R3 = counter; computes fib(10) = 55 into R1.
        let program = [
            "LDI R1, 0",
            "LDI R2, 1",
            "LDI R3, 10",
            "LDI R4, -1",
            "ADD R5, R1, R2", // loop @4
            "MV R1, R2",
            "MV R2, R5",
            "ADD R3, R3, R4",
            "BNZ 4",
            "HLT",
        ];
        for mode in [SimMode::Interpretive, SimMode::Ops] {
            let sim = wb.run_program(&program, mode, 10_000).expect("halts");
            let r = wb.model().resource_by_name("R").unwrap();
            assert_eq!(sim.state().read_int(r, &[1]).unwrap(), 55, "{mode:?}");
        }
    }

    #[test]
    fn alias_assembles_and_disassembles_canonically() {
        let wb = workbench().expect("builds");
        let words = wb.assemble(&["MV R3, R5"]).expect("assembles");
        // MV encodes as OR R3, R5, R5 and disassembles to the canonical OR.
        let text = wb.disassemble(words[0]).expect("decodes");
        assert_eq!(text, "OR R3, R5, R5");
    }

    #[test]
    fn round_trips_every_instruction() {
        let wb = workbench().expect("builds");
        for stmt in [
            "NOP",
            "LDI R7, -32",
            "ADD R1, R2, R3",
            "SUB R4, R5, R6",
            "MUL R0, R1, R1",
            "AND R2, R3, R4",
            "OR R5, R6, R7",
            "XOR R1, R1, R2",
            "SHL R3, R4, 5",
            "LD R1, R2",
            "ST R3, R4",
            "BZ 17",
            "BNZ 200",
            "JMP 0",
            "HLT",
        ] {
            let words = wb.assemble(&[stmt]).expect(stmt);
            let text = wb.disassemble(words[0]).expect(stmt);
            assert_eq!(text, stmt, "round trip");
        }
    }
}
