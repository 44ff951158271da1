//! `scalar2` — a dual-issue in-order superscalar core.
//!
//! The paper's target class "includes SIMD, VLIW, and superscalar
//! architectures of real products currently on the market" (§3);
//! `vliw62` covers VLIW+SIMD, this model covers superscalar: the issue
//! logic lives in the *description*. Each control step the dispatcher
//! examines the next two instruction words, decodes their register
//! fields directly from the bits, and issues both only when
//!
//! * both are simple ALU operations (no memory, control flow or halt),
//! * the second does not read or write the first's destination
//!   (RAW/WAW hazards force single issue).
//!
//! Instruction word (32 bits, msb..lsb):
//! `opcode[6] | dst[4] | src1[4] | src2[4] | imm14[14]`.

use crate::{Workbench, WorkbenchError};

/// The LISA description of the core.
pub const SOURCE: &str = r#"
// scalar2: dual-issue in-order superscalar RISC.

RESOURCE {
    PROGRAM_COUNTER int pc;
    CONTROL_REGISTER int ir;
    REGISTER int R[16];
    REGISTER bit halt;
    REGISTER int issued;        // retired-instruction counter (for IPC)
    REGISTER int dual_cycles;   // cycles that issued two instructions
    DATA_MEMORY int dmem[256];
    PROGRAM_MEMORY int pmem[512];
}

// ---------------------------------------------------------------- operands

OPERATION reg {
    DECLARE { LABEL index; }
    CODING { index:0bx[4] }
    SYNTAX { "R" index:#u }
    EXPRESSION { R[index] }
}

OPERATION imm14 {
    DECLARE { LABEL value; }
    CODING { value:0bx[14] }
    SYNTAX { value:#s }
    EXPRESSION { sext(value, 14) }
}

OPERATION addr14 {
    DECLARE { LABEL value; }
    CODING { value:0bx[14] }
    SYNTAX { value:#u }
    EXPRESSION { value }
}

// ------------------------------------------------------------- ALU (dual-issue)

OPERATION add {
    DECLARE { GROUP Dst, Src1, Src2 = { reg }; }
    CODING { 0b000001 Dst Src1 Src2 0bx[14] }
    SYNTAX { "ADD" Dst "," Src1 "," Src2 }
    SEMANTICS { ADD(Dst, Src1, Src2) }
    BEHAVIOR { Dst = Src1 + Src2; }
}

OPERATION sub {
    DECLARE { GROUP Dst, Src1, Src2 = { reg }; }
    CODING { 0b000010 Dst Src1 Src2 0bx[14] }
    SYNTAX { "SUB" Dst "," Src1 "," Src2 }
    SEMANTICS { SUB(Dst, Src1, Src2) }
    BEHAVIOR { Dst = Src1 - Src2; }
}

OPERATION and_op {
    DECLARE { GROUP Dst, Src1, Src2 = { reg }; }
    CODING { 0b000011 Dst Src1 Src2 0bx[14] }
    SYNTAX { "AND" Dst "," Src1 "," Src2 }
    SEMANTICS { AND(Dst, Src1, Src2) }
    BEHAVIOR { Dst = Src1 & Src2; }
}

OPERATION or_op {
    DECLARE { GROUP Dst, Src1, Src2 = { reg }; }
    CODING { 0b000100 Dst Src1 Src2 0bx[14] }
    SYNTAX { "OR" Dst "," Src1 "," Src2 }
    SEMANTICS { OR(Dst, Src1, Src2) }
    BEHAVIOR { Dst = Src1 | Src2; }
}

OPERATION xor_op {
    DECLARE { GROUP Dst, Src1, Src2 = { reg }; }
    CODING { 0b000101 Dst Src1 Src2 0bx[14] }
    SYNTAX { "XOR" Dst "," Src1 "," Src2 }
    SEMANTICS { XOR(Dst, Src1, Src2) }
    BEHAVIOR { Dst = Src1 ^ Src2; }
}

OPERATION mul {
    DECLARE { GROUP Dst, Src1, Src2 = { reg }; }
    CODING { 0b000110 Dst Src1 Src2 0bx[14] }
    SYNTAX { "MUL" Dst "," Src1 "," Src2 }
    SEMANTICS { MUL(Dst, Src1, Src2) }
    BEHAVIOR { Dst = Src1 * Src2; }
}

OPERATION ldi {
    DECLARE { GROUP Dst = { reg }; GROUP Val = { imm14 }; }
    CODING { 0b000111 Dst 0bx[8] Val }
    SYNTAX { "LDI" Dst "," Val }
    SEMANTICS { LOAD_IMMEDIATE(Dst, Val) }
    BEHAVIOR { Dst = Val; }
}

OPERATION shl {
    DECLARE { GROUP Dst, Src = { reg }; GROUP Amount = { addr14 }; }
    CODING { 0b001000 Dst Src 0bx[4] Amount }
    SYNTAX { "SHL" Dst "," Src "," Amount:#u }
    SEMANTICS { SHIFT_LEFT(Dst, Src, Amount) }
    BEHAVIOR { Dst = Src << Amount; }
}

// --------------------------------------------------- single-issue instructions

OPERATION ld {
    DECLARE { GROUP Dst, Base = { reg }; }
    CODING { 0b010000 Dst Base 0bx[18] }
    SYNTAX { "LD" Dst "," Base }
    SEMANTICS { LOAD(Dst, dmem[Base]) }
    BEHAVIOR { Dst = dmem[Base & 255]; }
}

OPERATION st {
    DECLARE { GROUP Src, Base = { reg }; }
    CODING { 0b010001 Src Base 0bx[18] }
    SYNTAX { "ST" Src "," Base }
    SEMANTICS { STORE(dmem[Base], Src) }
    BEHAVIOR { dmem[Base & 255] = Src; }
}

OPERATION bnz {
    DECLARE { GROUP Cond = { reg }; GROUP Target = { addr14 }; }
    CODING { 0b010010 Cond 0bx[8] Target }
    SYNTAX { "BNZ" Cond "," Target }
    SEMANTICS { BRANCH_NOT_ZERO(Cond, Target) }
    BEHAVIOR { if (Cond != 0) { pc = Target; } }
}

OPERATION jmp {
    DECLARE { GROUP Target = { addr14 }; }
    CODING { 0b010011 0bx[12] Target }
    SYNTAX { "JMP" Target }
    SEMANTICS { JUMP(Target) }
    BEHAVIOR { pc = Target; }
}

OPERATION hlt {
    CODING { 0b010100 0bx[26] }
    SYNTAX { "HLT" }
    SEMANTICS { HALT() }
    BEHAVIOR { halt = 1; }
}

OPERATION nop {
    CODING { 0b000000 0bx[26] }
    SYNTAX { "NOP" }
    SEMANTICS { NO_OPERATION() }
    BEHAVIOR { }
}

// ------------------------------------------------------------------ control

OPERATION decode {
    DECLARE {
        GROUP Instruction = {
            nop || add || sub || and_op || or_op || xor_op || mul || ldi ||
            shl || ld || st || bnz || jmp || hlt
        };
    }
    CODING { ir == Instruction }
    SYNTAX { Instruction }
    BEHAVIOR { Instruction; }
}

// The dual-issue dispatcher: the superscalar issue rule, written in the
// description. ALU opcodes are 1..=8; dst is bits [25:22], src1 [21:18],
// src2 [17:14]. LDI and SHL read fewer registers but checking their
// src fields is conservative, never wrong.
OPERATION main {
    BEHAVIOR {
        if (halt == 0) {
            int w0 = pmem[pc & 511];
            int op0 = zext(w0 >> 26, 6);
            int alu0 = op0 >= 1 && op0 <= 8;
            int taken = pc;
            ir = w0;
            decode;
            issued = issued + 1;
            // A control-flow instruction that redirected pc issues alone.
            if (pc == taken) {
                pc = pc + 1;
                if (alu0 != 0) {
                    int w1 = pmem[pc & 511];
                    int op1 = zext(w1 >> 26, 6);
                    int alu1 = op1 >= 1 && op1 <= 8;
                    if (alu1 != 0) {
                        int dst0 = zext(w0 >> 22, 4);
                        int dst1 = zext(w1 >> 22, 4);
                        int s1a = zext(w1 >> 18, 4);
                        int s1b = zext(w1 >> 14, 4);
                        if (dst0 != dst1 && dst0 != s1a && dst0 != s1b) {
                            ir = w1;
                            decode;
                            issued = issued + 1;
                            dual_cycles = dual_cycles + 1;
                            pc = pc + 1;
                        }
                    }
                }
            } else {
                // Branch taken: pc already redirected by the behavior.
            }
        }
    }
}
"#;

/// Builds the workbench for `scalar2`.
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
    use lisa_sim::{SimMode, Simulator};

    fn snapshot(sim: &Simulator<'_>) -> Vec<i64> {
        let r = sim.model().resource_by_name("R").unwrap();
        (0..16).map(|i| sim.state().read_int(r, &[i]).unwrap()).collect()
    }

    fn run_full(program: &str, mode: SimMode) -> (u64, i64, i64, Vec<i64>) {
        let wb = workbench().expect("builds");
        let image = lisa_asm::Assembler::new(wb.model()).assemble(program).expect("assembles");
        let mut sim = wb.simulator(mode).expect("sim");
        sim.load_program("pmem", &image.words).unwrap();
        let cycles = wb.run_to_halt(&mut sim, 10_000).expect("halts");
        let issued =
            sim.state().read_int(wb.model().resource_by_name("issued").unwrap(), &[]).unwrap();
        let dual =
            sim.state().read_int(wb.model().resource_by_name("dual_cycles").unwrap(), &[]).unwrap();
        let regs = snapshot(&sim);
        (cycles, issued, dual, regs)
    }

    #[test]
    fn independent_alu_pairs_dual_issue() {
        // Eight independent ALU instructions: 4 dual-issue cycles.
        let program = r#"
            LDI R1, 1
            LDI R2, 2
            ADD R3, R1, R2
            ADD R4, R1, R1
            SUB R5, R2, R1
            XOR R6, R1, R2
            OR R7, R1, R2
            AND R8, R1, R2
            HLT
        "#;
        let (cycles, issued, dual, regs) = run_full(program, SimMode::Ops);
        assert_eq!(issued, 9);
        assert_eq!(dual, 4, "four dual-issue cycles");
        assert_eq!(cycles, 5, "four dual-issue cycles plus the HLT cycle");
        assert_eq!(regs[3], 3);
        assert_eq!(regs[8], 0);
    }

    #[test]
    fn raw_hazards_force_single_issue() {
        // A dependency chain: every instruction reads the previous dst.
        let program = r#"
            LDI R1, 1
            ADD R2, R1, R1
            ADD R3, R2, R2
            ADD R4, R3, R3
            ADD R5, R4, R4
            HLT
        "#;
        let (_, issued, dual, regs) = run_full(program, SimMode::Interpretive);
        assert_eq!(issued, 6);
        assert_eq!(dual, 0, "the chain never dual-issues");
        assert_eq!(regs[5], 16);
    }

    #[test]
    fn waw_hazards_force_single_issue() {
        let program = r#"
            LDI R1, 7
            LDI R2, 5
            ADD R3, R1, R1
            SUB R3, R2, R1
            HLT
        "#;
        let (_, _, dual, regs) = run_full(program, SimMode::Ops);
        // LDI/LDI dual-issues; ADD/SUB write the same register → single.
        assert_eq!(dual, 1);
        assert_eq!(regs[3], -2, "program order preserved under WAW");
    }

    #[test]
    fn loops_and_memory_work_and_backends_agree() {
        // Sum dmem[0..8) into R2 via pointer walk.
        let program = r#"
            LDI R1, 0       ; pointer
            LDI R2, 0       ; sum
            LDI R3, 8       ; counter
            LDI R4, 1
    loop:   LD R5, R1
            ADD R2, R2, R5
            ADD R1, R1, R4
            SUB R3, R3, R4
            BNZ R3, loop
            HLT
        "#;
        let wb = workbench().expect("builds");
        let image = lisa_asm::Assembler::new(wb.model()).assemble(program).expect("assembles");
        let mut results = Vec::new();
        for mode in [SimMode::Interpretive, SimMode::Ops] {
            let mut sim = wb.simulator(mode).expect("sim");
            sim.load_program("pmem", &image.words).unwrap();
            let dmem = wb.model().resource_by_name("dmem").unwrap().clone();
            for i in 0..8 {
                sim.state_mut().write_int(&dmem, &[i], 10 * (i + 1)).unwrap();
            }
            let cycles = wb.run_to_halt(&mut sim, 10_000).expect("halts");
            let r = wb.model().resource_by_name("R").unwrap();
            results.push((cycles, sim.state().read_int(r, &[2]).unwrap()));
        }
        assert_eq!(results[0], results[1], "backends agree");
        assert_eq!(results[0].1, 360, "sum of 10..=80");
    }

    #[test]
    fn dual_issue_beats_single_issue_in_cycles() {
        // The same eight-instruction workload, once paired independent,
        // once as a chain — the superscalar advantage is measurable.
        let independent = r#"
            LDI R1, 1
            LDI R2, 2
            ADD R3, R1, R2
            ADD R4, R1, R1
            SUB R5, R2, R1
            XOR R6, R1, R2
            OR R7, R1, R2
            AND R8, R1, R2
            HLT
        "#;
        let chain = r#"
            LDI R1, 1
            ADD R2, R1, R1
            ADD R3, R2, R1
            ADD R4, R3, R1
            ADD R5, R4, R1
            ADD R6, R5, R1
            ADD R7, R6, R1
            ADD R8, R7, R1
            HLT
        "#;
        let (fast, ..) = run_full(independent, SimMode::Ops);
        let (slow, ..) = run_full(chain, SimMode::Ops);
        assert!(fast < slow, "independent code must finish in fewer cycles ({fast} vs {slow})");
    }
}
