//! `accu16` — an accumulator DSP in the style of paper Example 1.
//!
//! The resource section mirrors the paper's: a program counter, an
//! instruction register, a wide accumulator (`bit[40]`), a carry bit, a
//! linear data memory, a *banked* data memory
//! (`data_mem2[2]([256])` — two banks of 256 words, the paper's
//! `data_mem2[4]([0x20000])` shape), and a program memory with an address
//! *range* (`prog_mem[0x100..0x4ff]`). The ISA is a classic MAC-oriented
//! fixed-point DSP: multiply-accumulate with optional saturation,
//! normalisation (`NORM`), accumulator shifts, and a hardware loop
//! counter.
//!
//! Instruction word: 24 bits, `opcode[6] | fields[18]`.

use crate::{Workbench, WorkbenchError};

/// The LISA description of the DSP.
pub const SOURCE: &str = r#"
// accu16: 16-bit fixed-point accumulator DSP with a 40-bit accumulator.

RESOURCE {
    PROGRAM_COUNTER int pc;
    CONTROL_REGISTER int ir;
    REGISTER bit[40] accu;
    REGISTER bit carry;
    REGISTER bit sat_mode;
    REGISTER bit halt;
    REGISTER bit started;
    REGISTER short r[4];        // x0, x1, y0, y1
    REGISTER short result;
    REGISTER int lc;            // hardware loop counter
    REGISTER int ar[2];         // address registers
    DATA_MEMORY short data_mem1[0x1000];
    DATA_MEMORY short data_mem2[2]([256]);
    PROGRAM_MEMORY int prog_mem[0x100..0x4ff];
}

// ---------------------------------------------------------------- operands

OPERATION reg4 {
    DECLARE { LABEL index; }
    CODING { index:0bx[2] }
    SYNTAX { "r" index:#u }
    EXPRESSION { r[index] }
}

OPERATION areg {
    DECLARE { LABEL index; }
    CODING { index:0bx[1] }
    SYNTAX { "a" index:#u }
    EXPRESSION { ar[index] }
}

OPERATION addr12 {
    DECLARE { LABEL value; }
    CODING { value:0bx[12] }
    SYNTAX { value:#u }
    EXPRESSION { value }
}

OPERATION bank1 {
    DECLARE { LABEL value; }
    CODING { value:0bx[1] }
    SYNTAX { value:#u }
    EXPRESSION { value }
}

OPERATION addr8 {
    DECLARE { LABEL value; }
    CODING { value:0bx[8] }
    SYNTAX { value:#u }
    EXPRESSION { value }
}

OPERATION imm16 {
    DECLARE { LABEL value; }
    CODING { value:0bx[16] }
    SYNTAX { value:#s }
    EXPRESSION { sext(value, 16) }
}

OPERATION sh6 {
    DECLARE { LABEL value; }
    CODING { value:0bx[6] }
    SYNTAX { value:#s }
    EXPRESSION { sext(value, 6) }
}

// ------------------------------------------------------------- instructions

OPERATION clr {
    CODING { 0b000001 0bx[18] }
    SYNTAX { "CLR" }
    SEMANTICS { CLEAR(accu) }
    BEHAVIOR { accu = 0; carry = 0; }
}

OPERATION movi {
    DECLARE { GROUP Dest = { reg4 }; GROUP Val = { imm16 }; }
    CODING { 0b000010 Dest Val }
    SYNTAX { "MOVI" Dest "," Val }
    SEMANTICS { LOAD_IMMEDIATE(Dest, Val) }
    BEHAVIOR { Dest = Val; }
}

OPERATION movx {
    DECLARE { GROUP Dest = { reg4 }; GROUP Addr = { addr12 }; }
    CODING { 0b000011 Dest Addr 0bx[4] }
    SYNTAX { "MOVX" Dest "," Addr }
    SEMANTICS { LOAD(Dest, data_mem1[Addr]) }
    BEHAVIOR { Dest = data_mem1[Addr]; }
}

OPERATION movb {
    DECLARE { GROUP Dest = { reg4 }; GROUP Bank = { bank1 }; GROUP Addr = { addr8 }; }
    CODING { 0b000100 Dest Bank Addr 0bx[7] }
    SYNTAX { "MOVB" Dest "," Bank "," Addr }
    SEMANTICS { LOAD(Dest, data_mem2[Bank][Addr]) }
    BEHAVIOR { Dest = data_mem2[Bank][Addr]; }
}

// Indirect load with post-increment through an address register.
OPERATION movp {
    DECLARE { GROUP Dest = { reg4 }; GROUP Ptr = { areg }; }
    CODING { 0b000101 Dest Ptr 0bx[15] }
    SYNTAX { "MOVP" Dest "," Ptr }
    SEMANTICS { LOAD_POSTINC(Dest, data_mem1[Ptr]) }
    BEHAVIOR { Dest = data_mem1[Ptr & 4095]; Ptr = Ptr + 1; }
}

OPERATION stx {
    DECLARE { GROUP Src = { reg4 }; GROUP Addr = { addr12 }; }
    CODING { 0b000110 Src Addr 0bx[4] }
    SYNTAX { "STX" Src "," Addr }
    SEMANTICS { STORE(data_mem1[Addr], Src) }
    BEHAVIOR { data_mem1[Addr] = Src; }
}

OPERATION lar {
    DECLARE { GROUP Dest = { areg }; GROUP Addr = { addr12 }; }
    CODING { 0b000111 Dest Addr 0bx[5] }
    SYNTAX { "LAR" Dest "," Addr }
    SEMANTICS { LOAD_ADDRESS(Dest, Addr) }
    BEHAVIOR { Dest = Addr; }
}

OPERATION mpy {
    DECLARE { GROUP SrcX, SrcY = { reg4 }; }
    CODING { 0b001000 SrcX SrcY 0bx[14] }
    SYNTAX { "MPY" SrcX "," SrcY }
    SEMANTICS { MULTIPLY(accu, SrcX, SrcY) }
    BEHAVIOR { accu = SrcX * SrcY; }
}

OPERATION mac {
    DECLARE { GROUP SrcX, SrcY = { reg4 }; }
    CODING { 0b001001 SrcX SrcY 0bx[14] }
    SYNTAX { "MAC" SrcX "," SrcY }
    SEMANTICS { MULTIPLY_ACCUMULATE(accu, SrcX, SrcY) }
    BEHAVIOR {
        long sum = sext(accu, 40) + SrcX * SrcY;
        if (sat_mode) {
            accu = saturate(sum, 40);
        } else {
            accu = sum;
        }
    }
}

OPERATION mas {
    DECLARE { GROUP SrcX, SrcY = { reg4 }; }
    CODING { 0b001010 SrcX SrcY 0bx[14] }
    SYNTAX { "MAS" SrcX "," SrcY }
    SEMANTICS { MULTIPLY_SUBTRACT(accu, SrcX, SrcY) }
    BEHAVIOR {
        long diff = sext(accu, 40) - SrcX * SrcY;
        if (sat_mode) {
            accu = saturate(diff, 40);
        } else {
            accu = diff;
        }
    }
}

OPERATION adda {
    DECLARE { GROUP Src = { reg4 }; }
    CODING { 0b001011 Src 0bx[16] }
    SYNTAX { "ADDA" Src }
    SEMANTICS { ADD(accu, Src) }
    BEHAVIOR {
        long sum = sext(accu, 40) + Src;
        carry = sum > 549755813887 || sum < -549755813888;
        accu = sum;
    }
}

OPERATION ash {
    DECLARE { GROUP Amount = { sh6 }; }
    CODING { 0b001100 Amount 0bx[12] }
    SYNTAX { "ASH" Amount }
    SEMANTICS { ARITH_SHIFT(accu, Amount) }
    BEHAVIOR {
        long v = sext(accu, 40);
        if (Amount >= 0) {
            accu = v << Amount;
        } else {
            accu = v >> (0 - Amount);
        }
    }
}

OPERATION norm_op {
    CODING { 0b001101 0bx[18] }
    SYNTAX { "NORM" }
    SEMANTICS { NORMALIZE(accu) }
    BEHAVIOR {
        int n = norm(sext(accu, 40), 40);
        accu = sext(accu, 40) << n;
        result = n;
    }
}

// Round and saturate the accumulator into the 16-bit result register.
OPERATION sat16 {
    CODING { 0b001110 0bx[18] }
    SYNTAX { "SAT16" }
    SEMANTICS { SATURATE_16(result, accu) }
    BEHAVIOR { result = saturate(sext(accu, 40), 16); }
}

OPERATION sta {
    DECLARE { GROUP Addr = { addr12 }; }
    CODING { 0b001111 Addr 0bx[6] }
    SYNTAX { "STA" Addr }
    SEMANTICS { STORE(data_mem1[Addr], accu) }
    BEHAVIOR { data_mem1[Addr] = sext(accu, 40); }
}

OPERATION ssat {
    DECLARE { GROUP Mode = { bank1 }; }
    CODING { 0b010000 Mode 0bx[17] }
    SYNTAX { "SSAT" Mode }
    SEMANTICS { SET_SATURATION(Mode) }
    BEHAVIOR { sat_mode = Mode; }
}

OPERATION ldlc {
    DECLARE { GROUP Count = { addr12 }; }
    CODING { 0b010001 Count 0bx[6] }
    SYNTAX { "LDLC" Count }
    SEMANTICS { LOAD_LOOP_COUNT(Count) }
    BEHAVIOR { lc = Count; }
}

// Decrement the loop counter and branch while it is not zero.
OPERATION dbnz {
    DECLARE { GROUP Target = { addr12 }; }
    CODING { 0b010010 Target 0bx[6] }
    SYNTAX { "DBNZ" Target }
    SEMANTICS { DEC_BRANCH_NOT_ZERO(lc, Target) }
    BEHAVIOR {
        lc = lc - 1;
        if (lc != 0) { pc = Target - 1; }
    }
}

OPERATION jmp {
    DECLARE { GROUP Target = { addr12 }; }
    CODING { 0b010011 Target 0bx[6] }
    SYNTAX { "JMP" Target }
    SEMANTICS { JUMP(Target) }
    BEHAVIOR { pc = Target - 1; }
}

OPERATION hlt {
    CODING { 0b010100 0bx[18] }
    SYNTAX { "HLT" }
    SEMANTICS { HALT() }
    BEHAVIOR { halt = 1; }
}

OPERATION nop {
    CODING { 0b000000 0bx[18] }
    SYNTAX { "NOP" }
    SEMANTICS { NO_OPERATION() }
    BEHAVIOR { }
}


OPERATION nega {
    CODING { 0b010101 0bx[18] }
    SYNTAX { "NEGA" }
    SEMANTICS { NEGATE(accu) }
    BEHAVIOR { accu = 0 - sext(accu, 40); }
}

OPERATION tfr {
    DECLARE { GROUP Dest, Src = { reg4 }; }
    CODING { 0b010110 Dest Src 0bx[14] }
    SYNTAX { "TFR" Dest "," Src }
    SEMANTICS { TRANSFER(Dest, Src) }
    BEHAVIOR { Dest = Src; }
}

// Store a register into the banked memory (the write half of MOVB).
OPERATION movy {
    DECLARE { GROUP Src = { reg4 }; GROUP Bank = { bank1 }; GROUP Addr = { addr8 }; }
    CODING { 0b010111 Src Bank Addr 0bx[7] }
    SYNTAX { "MOVY" Src "," Bank "," Addr }
    SEMANTICS { STORE(data_mem2[Bank][Addr], Src) }
    BEHAVIOR { data_mem2[Bank][Addr] = Src; }
}

// Store with post-increment through an address register (the write
// counterpart of MOVP).
OPERATION stp {
    DECLARE { GROUP Src = { reg4 }; GROUP Ptr = { areg }; }
    CODING { 0b011001 Src Ptr 0bx[15] }
    SYNTAX { "STP" Src "," Ptr }
    SEMANTICS { STORE_POSTINC(data_mem1[Ptr], Src) }
    BEHAVIOR { data_mem1[Ptr & 4095] = Src; Ptr = Ptr + 1; }
}

// Branch while the accumulator is not zero.
OPERATION bnza {
    DECLARE { GROUP Target = { addr12 }; }
    CODING { 0b011010 Target 0bx[6] }
    SYNTAX { "BNZA" Target }
    SEMANTICS { BRANCH_ACCU_NOT_ZERO(Target) }
    BEHAVIOR { if (sext(accu, 40) != 0) { pc = Target - 1; } }
}

// ------------------------------------------------------------------ control


OPERATION decode {
    DECLARE {
        GROUP Instruction = {
            nop || clr || movi || movx || movb || movp || stx || lar ||
            mpy || mac || mas || adda || ash || norm_op || sat16 || sta ||
            ssat || ldlc || dbnz || jmp || hlt ||
            nega || tfr || movy || stp || bnza
        };
    }
    CODING { ir == Instruction }
    SYNTAX { Instruction }
    BEHAVIOR { Instruction; }
}

OPERATION fetch {
    BEHAVIOR { ir = prog_mem[pc]; }
}

OPERATION main {
    BEHAVIOR {
        if (started == 0) {
            // Reset: execution begins at the program-memory base address.
            pc = 0x100;
            started = 1;
        }
        if (halt == 0) {
            fetch;
            decode;
            pc = pc + 1;
        }
    }
}
"#;

/// Base address of program memory (reset vector).
pub const PROGRAM_BASE: i64 = 0x100;

/// Builds the workbench for `accu16`.
///
/// # Errors
///
/// Returns [`WorkbenchError::Lisa`] if the embedded source fails to build
/// (a bug, covered by tests).
pub fn workbench() -> Result<Workbench, WorkbenchError> {
    Workbench::from_source(SOURCE, "prog_mem", "halt")
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
        assert_eq!(stats.instructions, 26);
        assert_eq!(stats.aliases, 0);
        let accu = wb.model().resource_by_name("accu").unwrap();
        assert_eq!(accu.ty.width(), 40);
        let banked = wb.model().resource_by_name("data_mem2").unwrap();
        assert_eq!(banked.element_count(), 512);
    }

    #[test]
    fn mac_loop_computes_dot_product() {
        let wb = workbench().expect("builds");
        // dot([1,2,3,4], [5,6,7,8]) = 70, via MOVI + MAC.
        let program = [
            "CLR",
            "MOVI r0, 1",
            "MOVI r1, 5",
            "MAC r0, r1",
            "MOVI r0, 2",
            "MOVI r1, 6",
            "MAC r0, r1",
            "MOVI r0, 3",
            "MOVI r1, 7",
            "MAC r0, r1",
            "MOVI r0, 4",
            "MOVI r1, 8",
            "MAC r0, r1",
            "SAT16",
            "HLT",
        ];
        for mode in [SimMode::Interpretive, SimMode::Ops] {
            let sim = wb.run_program(&program, mode, 10_000).expect("halts");
            let result = wb.model().resource_by_name("result").unwrap();
            assert_eq!(sim.state().read_int(result, &[]).unwrap(), 70, "{mode:?}");
        }
    }

    #[test]
    fn saturation_mode_clamps_accumulator() {
        let wb = workbench().expect("builds");
        // 32767 * 32767 accumulated 3 times overflows 40-bit when repeated
        // enough; with SSAT 1 the accumulator rails instead of wrapping.
        let mut program = vec!["SSAT 1", "CLR", "MOVI r0, 32767", "MOVI r1, 32767"];
        program.extend(std::iter::repeat_n("MAC r0, r1", 600));
        program.push("HLT");
        let sim = wb.run_program(&program, SimMode::Ops, 10_000).expect("halts");
        let accu = wb.model().resource_by_name("accu").unwrap();
        let raw = sim.state().read(accu, &[]).unwrap();
        assert_eq!(raw.to_i128(), (1i128 << 39) - 1, "accumulator saturated at +max");
    }

    #[test]
    fn hardware_loop_with_pointer_addressing() {
        let wb = workbench().expect("builds");
        // Sum data_mem1[0..8) via MOVP post-increment and DBNZ.
        let mut program = vec![
            "CLR",
            "SSAT 0",
            "LAR a0, 0",
            "LDLC 8",
            // loop body at PROGRAM_BASE + 4:
            "MOVP r0, a0",
            "MOVI r1, 1",
            "MAC r0, r1",
            "DBNZ 260", // 0x104
            "SAT16",
            "HLT",
        ];
        let words = wb.assemble(&program).expect("assembles");
        let mut sim = wb.simulator(SimMode::Interpretive).expect("sim");
        sim.load_program("prog_mem", &words).unwrap();
        let dmem = wb.model().resource_by_name("data_mem1").unwrap().clone();
        for i in 0..8 {
            sim.state_mut().write_int(&dmem, &[i], (i + 1) * 10).unwrap();
        }
        wb.run_to_halt(&mut sim, 10_000).expect("halts");
        let result = wb.model().resource_by_name("result").unwrap();
        assert_eq!(sim.state().read_int(result, &[]).unwrap(), 360);
        program.clear();
    }

    #[test]
    fn norm_normalises_accumulator() {
        let wb = workbench().expect("builds");
        let program = ["CLR", "MOVI r0, 1", "MOVI r1, 1", "MAC r0, r1", "NORM", "HLT"];
        let sim = wb.run_program(&program, SimMode::Interpretive, 1000).expect("halts");
        let result = wb.model().resource_by_name("result").unwrap();
        // accu = 1 in 40 bits: 38 redundant sign bits.
        assert_eq!(sim.state().read_int(result, &[]).unwrap(), 38);
        let accu = wb.model().resource_by_name("accu").unwrap();
        let raw = sim.state().read(accu, &[]).unwrap();
        assert_eq!(raw.to_i128(), 1i128 << 38);
    }

    #[test]
    fn extended_ops_transfer_store_and_branch() {
        let wb = workbench().expect("builds");
        // TFR + STP + MOVY + NEGA + BNZA: copy a register through memory
        // and count the accumulator down with the accu branch.
        let program = [
            "MOVI r0, -42",
            "TFR r3, r0", // r3 = -42
            "LAR a1, 100",
            "STP r3, a1",    // data_mem1[100] = -42; a1 -> 101
            "STP r3, a1",    // data_mem1[101] = -42
            "MOVY r3, 1, 9", // data_mem2[1][9] = -42
            "CLR",
            "MOVI r1, 3",
            "ADDA r1", // accu = 3
            // countdown: accu += -1 until zero
            "MOVI r2, -1",
            "ADDA r2",
            "BNZA 266", // 0x10A = address of the ADDA r2 line
            "NEGA",     // accu = 0 -> stays 0
            "SAT16",
            "HLT",
        ];
        for mode in [SimMode::Interpretive, SimMode::Ops] {
            let sim = wb.run_program(&program, mode, 10_000).expect("halts");
            let d1 = wb.model().resource_by_name("data_mem1").unwrap();
            assert_eq!(sim.state().read_int(d1, &[100]).unwrap(), -42, "{mode:?}");
            assert_eq!(sim.state().read_int(d1, &[101]).unwrap(), -42, "{mode:?}");
            let d2 = wb.model().resource_by_name("data_mem2").unwrap();
            assert_eq!(sim.state().read_int(d2, &[1, 9]).unwrap(), -42, "{mode:?}");
            let ar = wb.model().resource_by_name("ar").unwrap();
            assert_eq!(sim.state().read_int(ar, &[1]).unwrap(), 102, "{mode:?}");
            let result = wb.model().resource_by_name("result").unwrap();
            assert_eq!(sim.state().read_int(result, &[]).unwrap(), 0, "{mode:?}");
        }
    }

    #[test]
    fn banked_memory_load() {
        let wb = workbench().expect("builds");
        let words = wb.assemble(&["MOVB r2, 1, 17", "STX r2, 99", "HLT"]).unwrap();
        let mut sim = wb.simulator(SimMode::Ops).expect("sim");
        sim.load_program("prog_mem", &words).unwrap();
        let bank = wb.model().resource_by_name("data_mem2").unwrap().clone();
        sim.state_mut().write_int(&bank, &[1, 17], -123).unwrap();
        wb.run_to_halt(&mut sim, 100).expect("halts");
        let dmem = wb.model().resource_by_name("data_mem1").unwrap();
        assert_eq!(sim.state().read_int(dmem, &[99]).unwrap(), -123);
    }
}
