//! API-level tests for the decoded-operation tree: introspection helpers
//! and the encode error paths for hand-built trees.

use lisa_core::Model;
use lisa_isa::{Decoded, Decoder, IsaError};

fn model() -> Model {
    Model::from_source(
        r#"
        RESOURCE { CONTROL_REGISTER int ir; REGISTER int R[8]; }
        OPERATION reg {
            DECLARE { LABEL i; }
            CODING { i:0bx[3] }
            SYNTAX { "R" i:#u }
            EXPRESSION { R[i] }
        }
        OPERATION imm5 {
            DECLARE { LABEL v; }
            CODING { 0b1 v:0bx[4] }
            SYNTAX { v:#u }
        }
        OPERATION add {
            DECLARE { GROUP Dst, Src = { reg }; GROUP Val = { imm5 }; }
            CODING { 0b01 Dst Src Val }
            SYNTAX { "ADD" Dst "," Src "," Val:#u }
            BEHAVIOR { Dst = Src + Val; }
        }
        OPERATION decode {
            DECLARE { GROUP Instruction = { add }; }
            CODING { ir == Instruction }
            SYNTAX { Instruction }
            BEHAVIOR { Instruction; }
        }
        "#,
    )
    .expect("model builds")
}

#[test]
#[allow(clippy::unusual_byte_groupings)] // grouped by instruction field
fn node_count_and_group_choices() {
    let model = model();
    let decoder = Decoder::new(&model).expect("decoder");
    // ADD R3, R5, 9 → 01 011 101 1 1001.
    let word = 0b01_011_101_1_1001u128;
    let decoded = decoder.decode(word).expect("decodes");
    // Tree: decode → add → (reg, reg, imm5) = 5 nodes.
    assert_eq!(decoded.node_count(), 5);

    let add = decoded.children[0].as_deref().expect("add child");
    let choices = add.group_choices(&model);
    assert_eq!(choices.len(), 3);
    let reg = model.operation_by_name("reg").unwrap().id;
    let imm = model.operation_by_name("imm5").unwrap().id;
    assert_eq!(choices[0], Some(reg));
    assert_eq!(choices[1], Some(reg));
    assert_eq!(choices[2], Some(imm));

    assert_eq!(add.group_child(&model, 0).unwrap().labels[0], 3);
    assert_eq!(add.group_child(&model, 1).unwrap().labels[0], 5);
    assert_eq!(add.group_child(&model, 2).unwrap().labels[0], 9);
    assert!(add.group_child(&model, 7).is_none(), "out-of-range group");
}

#[test]
fn encode_rejects_label_overflow() {
    let model = model();
    let reg = model.operation_by_name("reg").unwrap();
    let mut decoded = Decoded::new(&model, reg.id, 0);
    decoded.labels[0] = 0b1111; // 4 bits into a 3-bit field
    let err = decoded.encode(&model).unwrap_err();
    assert!(matches!(err, IsaError::LabelValueTooWide { .. }), "{err}");
}

#[test]
fn encode_rejects_fixed_bit_conflict() {
    let model = model();
    let imm = model.operation_by_name("imm5").unwrap();
    // imm5's coding is `0b1 v:0bx[4]` — one field of 5 bits? No: two
    // fields. The label field itself is all-x, so any 4-bit value works;
    // conflict needs a pattern with fixed bits inside the label field.
    // Build such a model inline:
    let conflicted = Model::from_source(
        r#"
        OPERATION odd {
            DECLARE { LABEL v; }
            CODING { v:0b1xx }
            SYNTAX { "ODD" v:#u }
        }
        "#,
    )
    .expect("builds");
    let odd = conflicted.operation_by_name("odd").unwrap();
    let mut decoded = Decoded::new(&conflicted, odd.id, 0);
    decoded.labels[0] = 0b011; // top bit must be 1
    let err = decoded.encode(&conflicted).unwrap_err();
    assert!(matches!(err, IsaError::LabelFixedBitConflict { .. }), "{err}");
    decoded.labels[0] = 0b111;
    assert_eq!(decoded.encode(&conflicted).unwrap(), 0b111);
    let _ = imm;
}

#[test]
fn encode_rejects_missing_children() {
    let model = model();
    let add = model.operation_by_name("add").unwrap();
    let decoded = Decoded::new(&model, add.id, 0); // no children filled
    let err = decoded.encode(&model).unwrap_err();
    assert!(matches!(err, IsaError::MalformedDecoded { missing: "an operand child", .. }));
}

#[test]
fn decoder_exposes_model_and_width() {
    let model = model();
    let decoder = Decoder::new(&model).expect("decoder");
    assert_eq!(decoder.word_width(), 13);
    assert!(std::ptr::eq(decoder.model(), &model));
    let root_op = model.operation(decoder.root());
    assert_eq!(root_op.name, "decode");
}

#[test]
fn decode_op_on_non_root_operations() {
    let model = model();
    let decoder = Decoder::new(&model).expect("decoder");
    let reg = model.operation_by_name("reg").unwrap().id;
    let decoded = decoder.decode_op(reg, 0b101).expect("decodes a bare operand");
    assert_eq!(decoded.labels[0], 0b101);
    // imm5 requires its fixed leading 1.
    let imm = model.operation_by_name("imm5").unwrap().id;
    assert!(decoder.decode_op(imm, 0b01111).is_none(), "fixed bit mismatch");
    assert!(decoder.decode_op(imm, 0b11111).is_some());
}
