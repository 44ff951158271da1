//! Error-path coverage for the program-level assembler: every rejected
//! source construct must come back as a typed [`AsmError`] pointing at
//! the offending line, with the message asserted — no panics.

use lisa_asm::{AsmError, Assembler};

#[test]
fn duplicate_label_names_the_label_and_line() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let asm = Assembler::new(wb.model());
    let err = asm.assemble("x: NOP\nx: NOP\n").unwrap_err();
    assert_eq!(err.line(), 2);
    assert_eq!(err.to_string(), "line 2: duplicate label `x`");
    assert!(matches!(err, AsmError::DuplicateLabel { ref label, .. } if label == "x"));
}

#[test]
fn unknown_directive_is_reported_verbatim() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let asm = Assembler::new(wb.model());
    let err = asm.assemble(".bogus 3\n").unwrap_err();
    assert_eq!(err.line(), 1);
    assert_eq!(err.to_string(), "line 1: bad directive `.bogus 3`");
}

#[test]
fn bad_mnemonic_points_at_its_source_line() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let asm = Assembler::new(wb.model());
    let err = asm.assemble("NOP\nFROB 1\nNOP\n").unwrap_err();
    assert_eq!(err.line(), 2);
    assert_eq!(err.to_string(), "line 2: no instruction syntax matches `FROB 1`");
    assert!(matches!(err, AsmError::Instruction { .. }));
}

#[test]
fn out_of_range_operand_points_at_its_source_line() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let asm = Assembler::new(wb.model());
    // LDI's immediate is 8 bits; 99999 cannot encode.
    let err = asm.assemble("NOP\nNOP\nLDI R1, 99999\n").unwrap_err();
    assert_eq!(err.line(), 3);
    assert_eq!(err.to_string(), "line 3: no instruction syntax matches `LDI R1, 99999`");
}

#[test]
fn errors_quote_the_statement_as_written() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let asm = Assembler::new(wb.model());
    let err = asm.assemble("LDI Ré, 2\n").unwrap_err();
    assert_eq!(err.to_string(), "line 1: no instruction syntax matches `LDI Ré, 2`");
    let err = asm.assemble("top: JMP top 3\n").unwrap_err();
    assert_eq!(err.to_string(), "line 1: trailing input `3` after assembling `JMP top 3`");
}

#[test]
fn dangling_parallel_bar_is_rejected() {
    let wb = lisa_models::vliw62::workbench().unwrap();
    let asm = Assembler::with_packet(wb.model(), lisa_models::vliw62::FETCH_PACKET, 1);
    let err = asm.assemble("|| ADD .L1 A1, A2, A3\n").unwrap_err();
    assert_eq!(err.line(), 1);
    assert_eq!(err.to_string(), "line 1: `||` with no instruction to join");
    assert!(matches!(err, AsmError::DanglingParallelBar { .. }));
}

#[test]
fn org_going_backwards_reports_both_addresses() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let asm = Assembler::new(wb.model());
    let err = asm.assemble("NOP\nNOP\n.org 1\nNOP\n").unwrap_err();
    assert_eq!(err.line(), 3);
    assert_eq!(err.to_string(), "line 3: .org 0x1 is behind the current address 0x2");
    assert!(matches!(err, AsmError::OrgBackwards { requested: 1, current: 2, .. }));
}

#[test]
fn errors_are_diagnostics_not_panics_across_junk_sources() {
    let wb = lisa_models::tinyrisc::workbench().unwrap();
    let asm = Assembler::new(wb.model());
    for source in [
        "",
        "\n\n\n",
        ":",
        "x:",
        "x: y: NOP",
        ".org\n",
        ".org zzz\n",
        "|| NOP\n",
        "LDI R1,\n",
        "LDI , 1\n",
        "\u{fffd}\u{fffd}\n",
    ] {
        // Ok or Err are both acceptable; panicking is not.
        let _ = asm.assemble(source);
    }
}
