//! Paper-conformance suite: each of the DAC 1999 paper's code examples
//! (Examples 1–6), as close to verbatim as the OCR'd text allows, must
//! parse — and where an example describes semantics, those semantics are
//! checked. Deviations from the printed text are noted inline.

use lisa::core::ast::{CodingElement, OpItem};
use lisa::core::model::ModelStats;
use lisa::core::{parser::parse, Model};

/// Example 1: declaration of resources. Verbatim except for the trailing
/// semicolons the paper's typesetting dropped.
#[test]
fn example_1_resource_declarations() {
    let desc = parse(
        r#"
        RESOURCE {
            PROGRAM_COUNTER int pc;
            CONTROL_REGISTER int instruction_register;
            REGISTER bit[48] accu;
            REGISTER bit carry;
            DATA_MEMORY int data_mem1[0x80000];
            DATA_MEMORY int data_mem2[4]([0x20000]);
            PROGRAM_MEMORY int prog_mem[0x100..0xffff];
        }
        "#,
    )
    .expect("Example 1 parses");
    assert_eq!(desc.resources.len(), 7);
    let accu = &desc.resources[2];
    assert_eq!(accu.ty.width(), 48);
    let banked = &desc.resources[5];
    assert_eq!(banked.dims.len(), 2, "data_mem2 is 4 banks of 0x20000");
    let prog = &desc.resources[6];
    assert_eq!(prog.dims[0].base(), 0x100, "address-range program memory");
    assert_eq!(prog.dims[0].len(), 0xff00);
}

/// Example 2: pipeline definition — the TMS320C6201's fetch and execute
/// pipelines, verbatim.
#[test]
fn example_2_pipeline_definitions() {
    let desc = parse(
        r#"
        RESOURCE {
            PIPELINE fetch_pipe = { PG; PS; PW; PR; DP };
            PIPELINE execute_pipe = { DC; E1; E2; E3; E4; E5 };
        }
        "#,
    )
    .expect("Example 2 parses");
    assert_eq!(desc.pipelines.len(), 2);
    let stages: Vec<&str> = desc.pipelines[0].stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(stages, ["PG", "PS", "PW", "PR", "DP"]);
    assert_eq!(desc.pipelines[1].stages.len(), 6);
}

/// Example 3: the root of the coding tree. The paper's member list is
/// `abs || add || and || …` (the OCR lost the or-bars).
#[test]
fn example_3_coding_tree_root() {
    let model = Model::from_source(
        r#"
        RESOURCE { CONTROL_REGISTER int instruction_register; }
        OPERATION abs  { CODING { 0b0000 } SYNTAX { "ABS" } }
        OPERATION add  { CODING { 0b0001 } SYNTAX { "ADD" } }
        OPERATION and  { CODING { 0b0010 } SYNTAX { "AND" } }
        OPERATION cmp  { CODING { 0b0011 } SYNTAX { "CMP" } }
        OPERATION ld   { CODING { 0b0100 } SYNTAX { "LD" } }
        OPERATION mul  { CODING { 0b0101 } SYNTAX { "MUL" } }
        OPERATION mv   { CODING { 0b0110 } SYNTAX { "MV" } }
        OPERATION norm { CODING { 0b0111 } SYNTAX { "NORM" } }
        OPERATION not  { CODING { 0b1000 } SYNTAX { "NOT" } }
        OPERATION or   { CODING { 0b1001 } SYNTAX { "OR" } }
        OPERATION sat  { CODING { 0b1010 } SYNTAX { "SAT" } }
        OPERATION sub  { CODING { 0b1011 } SYNTAX { "SUB" } }
        OPERATION st   { CODING { 0b1100 } SYNTAX { "ST" } }
        OPERATION xor  { CODING { 0b1101 } SYNTAX { "XOR" } }
        OPERATION decode {
            DECLARE {
                GROUP Instruction = {
                    abs || add || and || cmp || ld || mul || mv ||
                    norm || not || or || sat || sub || st || xor
                };
            }
            CODING { instruction_register == Instruction }
            SYNTAX { Instruction }
            BEHAVIOR { Instruction; }
        }
        "#,
    )
    .expect("Example 3 builds");
    let decode = model.operation_by_name("decode").expect("decode exists");
    assert_eq!(decode.groups[0].members.len(), 14, "the paper's 14 alternatives");
    assert!(decode.decode_root.is_some(), "root compares instruction_register");
    let stats = ModelStats::of(&model);
    assert_eq!(stats.instructions, 14);
}

/// Example 4: operation groups, labels and the translation rule — and the
/// paper's concrete claim: "the assembler statement ADD.D A4, A3, A15
/// would be translated into the binary code 0100 1111 0001 11000 0010 000"
/// (our field layout matches the example's structure: Dest Src2 Src1
/// opcode-bits; the exact printed bit string in the paper contains OCR
/// damage, so the checked property is encode∘decode identity plus field
/// placement).
#[test]
fn example_4_operation_groups_and_translation_rule() {
    let model = Model::from_source(
        r#"
        RESOURCE { CONTROL_REGISTER int ir; REGISTER int A[16]; }
        OPERATION register {
            DECLARE { LABEL index; }
            CODING { 0bx index:0bx[4] }
            SYNTAX { "A" index:#u }
            EXPRESSION { A[index] }
        }
        OPERATION add_d {
            DECLARE { GROUP Dest, Src1, Src2 = { register }; }
            CODING { Dest Src2 Src1 0b1000000 0b10000 }
            SYNTAX { "ADD" ".D" Src1 "," Src2 "," Dest }
            BEHAVIOR { Dest = Src1 + Src2; }
        }
        OPERATION decode {
            DECLARE { GROUP Instruction = { add_d }; }
            CODING { ir == Instruction }
            SYNTAX { Instruction }
            BEHAVIOR { Instruction; }
        }
        "#,
    )
    .expect("Example 4 builds");
    let decoder = lisa::isa::Decoder::new(&model).expect("decoder");
    let asm = lisa::isa::Assembler::new(&model, &decoder);

    // The paper's assembly statement.
    let decoded = asm.assemble_instruction("ADD .D A4, A3, A15").expect("assembles");
    let word = decoded.encode(&model).expect("encodes");

    // Field placement: Dest(5) Src2(5) Src1(5) 0b1000000 0b10000.
    // Dest = A15 → index 15; Src2 = A3 → 3; Src1 = A4 → 4.
    assert_eq!(word & 0b11111, 0b10000, "trailing fixed bits");
    assert_eq!(word >> 5 & 0b1111111, 0b1000000, "opcode field");
    assert_eq!(word >> 12 & 0b1111, 4, "Src1 = A4 (label bits)");
    assert_eq!(word >> 17 & 0b1111, 3, "Src2 = A3");
    assert_eq!(word >> 22 & 0b1111, 15, "Dest = A15");

    // Round trip through the translation rule.
    let back = decoder.decode(word).expect("decodes");
    assert_eq!(asm.disassemble(&back), "ADD .D A4, A3, A15");
}

/// Example 4's semantics: "the assembly statement ADD.D A3, A4, A0 would
/// cause the following behavioral code to be executed during simulation:
/// A[0] = A[3] + A[4]".
#[test]
fn example_4_behavior_execution() {
    let model = Model::from_source(
        r#"
        RESOURCE { CONTROL_REGISTER int ir; REGISTER int A[16]; }
        OPERATION register {
            DECLARE { LABEL index; }
            CODING { 0bx index:0bx[4] }
            SYNTAX { "A" index:#u }
            EXPRESSION { A[index] }
        }
        OPERATION add_d {
            DECLARE { GROUP Dest, Src1, Src2 = { register }; }
            CODING { Dest Src2 Src1 0b1000000 0b10000 }
            SYNTAX { "ADD" ".D" Src1 "," Src2 "," Dest }
            BEHAVIOR { Dest = Src1 + Src2; }
        }
        OPERATION decode {
            DECLARE { GROUP Instruction = { add_d }; }
            CODING { ir == Instruction }
            SYNTAX { Instruction }
            BEHAVIOR { Instruction; }
        }
        "#,
    )
    .expect("builds");
    let decoder = lisa::isa::Decoder::new(&model).expect("decoder");
    let asm = lisa::isa::Assembler::new(&model, &decoder);
    let decoded = asm.assemble_instruction("ADD .D A3, A4, A0").expect("assembles");

    for mode in [lisa::sim::SimMode::Interpretive, lisa::sim::SimMode::Ops] {
        let mut sim = lisa::sim::Simulator::new(&model, mode).expect("sim");
        let a = model.resource_by_name("A").unwrap().clone();
        sim.state_mut().write_int(&a, &[3], 30).unwrap();
        sim.state_mut().write_int(&a, &[4], 12).unwrap();
        sim.execute_decoded(&decoded).expect("executes");
        assert_eq!(sim.state().read_int(&a, &[0]).unwrap(), 42, "{mode:?}: A[0] = A[3] + A[4]");
    }
}

/// Example 5: activation of operations — parses verbatim (modulo the `;`
/// statement separators inside the braces that the OCR collapsed).
#[test]
fn example_5_activation_section_parses() {
    let desc = parse(
        r#"
        RESOURCE {
            CONTROL_REGISTER int dispatch_complete;
            CONTROL_REGISTER int multicycle_nop;
            PIPELINE fetch_pipe = { PG; PS; PW; PR; DP };
            PIPELINE execute_pipe = { DC; E1 };
        }
        OPERATION Prog_Address_Generate IN fetch_pipe.PG { BEHAVIOR { } }
        OPERATION Prog_Address_Send IN fetch_pipe.PS { BEHAVIOR { } }
        OPERATION Prog_Access_Ready_Wait IN fetch_pipe.PW { BEHAVIOR { } }
        OPERATION Prog_Fetch_Packet_Receive IN fetch_pipe.PR { BEHAVIOR { } }
        OPERATION Dispatch IN fetch_pipe.DP { BEHAVIOR { } }
        OPERATION main {
            ACTIVATION {
                if (dispatch_complete && !multicycle_nop) {
                    Prog_Address_Generate, Prog_Address_Send,
                    Prog_Access_Ready_Wait, Prog_Fetch_Packet_Receive,
                    Dispatch
                }
                if (multicycle_nop) {
                    fetch_pipe.DP.stall(), execute_pipe.DC.stall()
                }
                fetch_pipe.shift(), execute_pipe.shift()
            }
        }
        "#,
    )
    .expect("Example 5 parses");
    let main = desc.operations.last().expect("main");
    let OpItem::Activation(act) = &main.items[0] else { panic!("ACTIVATION") };
    assert_eq!(act.items.len(), 4, "two conditionals + two shifts");
}

/// Example 6: conditional operation structuring — parses and specialises,
/// and the compile-time selection avoids any run-time bit check (the
/// selected variant carries the guard).
#[test]
fn example_6_switch_case_structuring() {
    let model = Model::from_source(
        r#"
        RESOURCE { CONTROL_REGISTER int ir; REGISTER int A[16]; REGISTER int B[16]; }
        OPERATION side1 { CODING { 0b0 } SYNTAX { "1" } }
        OPERATION side2 { CODING { 0b1 } SYNTAX { "2" } }
        OPERATION register {
            DECLARE {
                GROUP Side = { side1 || side2 };
                LABEL index;
            }
            CODING { Side index:0bx[4] }
            SWITCH (Side) {
                CASE side1: {
                    SYNTAX { "A" index:#u }
                    EXPRESSION { A[index] }
                }
                CASE side2: {
                    SYNTAX { "B" index:#u }
                    EXPRESSION { B[index] }
                }
            }
        }
        OPERATION use_reg {
            DECLARE { GROUP Src = { register }; }
            CODING { 0b101 Src }
            SYNTAX { "USE" Src }
            BEHAVIOR { ir = Src; }
        }
        OPERATION decode {
            DECLARE { GROUP Instruction = { use_reg }; }
            CODING { ir == Instruction }
            SYNTAX { Instruction }
            BEHAVIOR { Instruction; }
        }
        "#,
    )
    .expect("Example 6 builds");
    let register = model.operation_by_name("register").expect("register");
    assert_eq!(register.variants.len(), 2, "one specialised variant per side");
    for variant in &register.variants {
        assert_eq!(variant.guard.len(), 1, "each variant is guard-selected");
        assert!(variant.expression.is_some());
        assert!(variant.syntax.is_some());
    }
    // Both variants share the same coding (declared outside the SWITCH).
    let widths: Vec<u32> =
        register.variants.iter().map(|v| v.coding.as_ref().expect("coding").width()).collect();
    assert_eq!(widths, vec![5, 5]);
}

/// The coding element `0bx[4]` used throughout the examples expands to
/// four don't-care bits.
#[test]
fn pattern_repetition_matches_paper_notation() {
    let desc = parse("OPERATION x { CODING { 0bx[4] 0b01[2] } }").expect("parses");
    let OpItem::Coding(coding) = &desc.operations[0].items[0] else { panic!() };
    let CodingElement::Pattern(p0, _) = &coding.elements[0] else { panic!() };
    assert_eq!(p0.to_string(), "0bxxxx");
    let CodingElement::Pattern(p1, _) = &coding.elements[1] else { panic!() };
    assert_eq!(p1.to_string(), "0b0101");
}
