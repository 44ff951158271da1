//! Property-based tests over the generated ISA tools (experiment E6):
//! encode/decode and assemble/disassemble inverses on the vliw62 model,
//! with randomly generated operands.

use lisa::isa::{Assembler, Decoder};
use lisa::models::{tinyrisc, vliw62};
use proptest::prelude::*;

fn reg_name(side: bool, idx: u8) -> String {
    format!("{}{}", if side { "B" } else { "A" }, idx % 16)
}

/// Random three-register statements over the vliw62 L/S/M/D units.
fn three_reg_statement() -> impl Strategy<Value = String> {
    let mnemonic = prop_oneof![
        Just("ADD .L"),
        Just("SUB .L"),
        Just("AND .L"),
        Just("OR .L"),
        Just("XOR .L"),
        Just("CMPEQ"),
        Just("CMPGT"),
        Just("CMPLT"),
        Just("CMPGTU"),
        Just("CMPLTU"),
        Just("SADD"),
        Just("SSUB"),
        Just("ADD .S"),
        Just("SUB .S"),
        Just("ADD .D"),
        Just("SUB .D"),
        Just("MPY"),
        Just("MPYU"),
        Just("MPYH"),
        Just("SMPY"),
        Just("ADD2"),
        Just("SUB2"),
        Just("SUBC"),
        Just("LMBD"),
        Just("AND .S"),
        Just("OR .S"),
        Just("XOR .S"),
        Just("CMPEQ2"),
        Just("CMPGT2"),
        Just("MAX2"),
        Just("MIN2"),
        Just("MPYSU"),
        Just("MPYUS"),
        Just("ADDAB"),
        Just("ADDAH"),
        Just("ADDAW"),
        Just("SUBAB"),
        Just("SUBAH"),
        Just("SUBAW"),
    ];
    (mnemonic, any::<(bool, u8)>(), any::<(bool, u8)>(), any::<(bool, u8)>()).prop_map(
        |(m, d, s1, s2)| {
            format!(
                "{m} {}, {}, {}",
                reg_name(d.0, d.1),
                reg_name(s1.0, s1.1),
                reg_name(s2.0, s2.1)
            )
        },
    )
}

fn predicated_statement() -> impl Strategy<Value = String> {
    let pred = prop_oneof![
        Just(""),
        Just("[B0] "),
        Just("[B1] "),
        Just("[B2] "),
        Just("[A1] "),
        Just("[!B0] "),
        Just("[!B1] "),
        Just("[!A1] "),
    ];
    (pred, three_reg_statement()).prop_map(|(p, s)| format!("{p}{s}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// assemble → encode → decode → disassemble is the identity on
    /// canonical statements.
    #[test]
    fn vliw_statement_round_trip(stmt in predicated_statement()) {
        let wb = vliw62::workbench().expect("builds");
        let decoder = Decoder::new(wb.model()).expect("decoder");
        let asm = Assembler::new(wb.model(), &decoder);
        let decoded = asm.assemble_instruction(&stmt).expect("assembles");
        let word = decoded.encode(wb.model()).expect("encodes");
        let back = decoder.decode(word).expect("decodes");
        prop_assert_eq!(asm.disassemble(&back), stmt);
    }

    /// Signed 16-bit immediates round-trip through MVK/ADDK.
    #[test]
    fn vliw_imm16_round_trip(dst in any::<(bool, u8)>(), imm in -32768i32..=32767) {
        let wb = vliw62::workbench().expect("builds");
        let decoder = Decoder::new(wb.model()).expect("decoder");
        let asm = Assembler::new(wb.model(), &decoder);
        for m in ["MVK", "ADDK"] {
            let stmt = format!("{m} {}, {imm}", reg_name(dst.0, dst.1));
            let decoded = asm.assemble_instruction(&stmt).expect("assembles");
            let word = decoded.encode(wb.model()).expect("encodes");
            let back = decoder.decode(word).expect("decodes");
            prop_assert_eq!(asm.disassemble(&back), stmt);
        }
    }

    /// Memory operands round-trip with scaled unsigned offsets.
    #[test]
    fn vliw_memory_round_trip(
        dst in any::<(bool, u8)>(),
        base in any::<(bool, u8)>(),
        off in 0u8..32,
        op in prop_oneof![Just("LDW"), Just("LDH"), Just("LDB"), Just("LDHU"), Just("LDBU")],
    ) {
        let wb = vliw62::workbench().expect("builds");
        let decoder = Decoder::new(wb.model()).expect("decoder");
        let asm = Assembler::new(wb.model(), &decoder);
        let stmt = format!(
            "{op} *+ {}[{off}], {}",
            reg_name(base.0, base.1),
            reg_name(dst.0, dst.1)
        );
        let decoded = asm.assemble_instruction(&stmt).expect("assembles");
        let word = decoded.encode(wb.model()).expect("encodes");
        let back = decoder.decode(word).expect("decodes");
        prop_assert_eq!(asm.disassemble(&back), stmt);
    }

    /// Every 32-bit word either fails to decode or decodes to something
    /// that re-encodes to a word decoding to the same instruction
    /// (decode∘encode is idempotent even for non-canonical free bits).
    #[test]
    fn vliw_decode_encode_idempotent(word in any::<u32>()) {
        let wb = vliw62::workbench().expect("builds");
        let decoder = Decoder::new(wb.model()).expect("decoder");
        if let Ok(decoded) = decoder.decode(u128::from(word)) {
            let encoded = decoded.encode(wb.model()).expect("encodes");
            let again = decoder.decode(encoded).expect("re-decodes");
            prop_assert_eq!(&decoded, &again, "decode is stable under re-encoding");
        }
    }

    /// The tinyrisc assembler never panics on arbitrary printable input.
    #[test]
    fn assembler_is_total(input in "\\PC{0,60}") {
        let wb = tinyrisc::workbench().expect("builds");
        let decoder = Decoder::new(wb.model()).expect("decoder");
        let asm = Assembler::new(wb.model(), &decoder);
        let _ = asm.assemble_instruction(&input);
    }

    /// The program assembler never panics on arbitrary multi-line input.
    #[test]
    fn program_assembler_is_total(input in "[ -~\\n]{0,120}") {
        let wb = tinyrisc::workbench().expect("builds");
        let asm = lisa::asm::Assembler::new(wb.model());
        let _ = asm.assemble(&input);
    }

    /// tinyrisc: every 16-bit word with a valid opcode decodes, and the
    /// disassembly re-assembles to an instruction with identical
    /// architectural effect (same canonical encoding).
    #[test]
    fn tinyrisc_word_canonicalisation(word in any::<u16>()) {
        let wb = tinyrisc::workbench().expect("builds");
        let decoder = Decoder::new(wb.model()).expect("decoder");
        let asm = Assembler::new(wb.model(), &decoder);
        if let Ok(decoded) = decoder.decode(u128::from(word)) {
            let text = asm.disassemble(&decoded);
            let re = asm.assemble_instruction(&text)
                .unwrap_or_else(|e| panic!("canonical text must re-assemble: {text:?}: {e}"));
            let canon1 = decoded.encode(wb.model()).expect("encodes");
            let canon2 = re.encode(wb.model()).expect("encodes");
            prop_assert_eq!(canon1, canon2, "text: {}", text);
        }
    }
}
