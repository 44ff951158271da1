//! Cross-crate toolchain integration: the pretty-printer round-trips the
//! full bundled models, the documentation covers every instruction, and
//! the model statistics survive a print → re-parse cycle.

use lisa::core::model::ModelStats;
use lisa::core::{parser::parse, printer::print, Model};
use lisa::models::{accu16, scalar2, tinyrisc, vliw62};

fn sources() -> Vec<(&'static str, &'static str)> {
    vec![
        ("vliw62", vliw62::SOURCE),
        ("accu16", accu16::SOURCE),
        ("scalar2", scalar2::SOURCE),
        ("tinyrisc", tinyrisc::SOURCE),
    ]
}

#[test]
fn printer_round_trips_all_bundled_models() {
    for (name, source) in sources() {
        let first = parse(source).unwrap_or_else(|e| panic!("{name} parses: {e}"));
        let printed = print(&first);
        let second = parse(&printed).unwrap_or_else(|e| panic!("{name} re-parses: {e}\n{printed}"));
        assert_eq!(print(&second), printed, "{name}: printer is a fixpoint");
    }
}

#[test]
fn printed_models_build_identical_statistics() {
    for (name, source) in sources() {
        let original = Model::from_source(source).expect(name);
        let printed = print(&parse(source).expect(name));
        let reparsed = Model::from_source(&printed).expect(name);
        let (a, b) = (ModelStats::of(&original), ModelStats::of(&reparsed));
        assert_eq!(a.operations, b.operations, "{name}");
        assert_eq!(a.instructions, b.instructions, "{name}");
        assert_eq!(a.aliases, b.aliases, "{name}");
        assert_eq!(a.resources, b.resources, "{name}");
        assert_eq!(a.variants, b.variants, "{name}");
    }
}

#[test]
fn printed_vliw_model_simulates_identically() {
    // The strongest printer test: run the same program on the original
    // and the printed-and-reparsed model and compare final state.
    let original = vliw62::workbench().expect("builds");
    let printed_src = print(&parse(vliw62::SOURCE).expect("parses"));
    let printed = lisa::models::Workbench::from_source(
        Box::leak(printed_src.into_boxed_str()),
        "pmem",
        "halt",
    )
    .expect("printed model builds");

    let program = ["MVK A2, 6", "MVK A3, 7", "MPY A4, A2, A3", "NOP 2", "SADD A5, A4, A4", "HALT"];
    let mut results = Vec::new();
    for wb in [&original, &printed] {
        let sim = wb.run_program(&program, lisa::sim::SimMode::Ops, 1000).expect("runs");
        let a = wb.model().resource_by_name("A").unwrap();
        let values: Vec<i64> = (0..16).map(|i| sim.state().read_int(a, &[i]).unwrap()).collect();
        results.push((sim.stats().cycles, values));
    }
    assert_eq!(results[0], results[1], "printed model behaves identically");
}

#[test]
fn manuals_document_every_instruction_and_alias() {
    for (name, source) in sources() {
        let model = Model::from_source(source).expect(name);
        let stats = ModelStats::of(&model);
        let manual = lisa::docgen::manual(&model, name);
        let sections = manual.matches("\n### `").count();
        assert_eq!(
            sections,
            stats.instructions + stats.aliases,
            "{name}: one manual section per instruction"
        );
        // Every pipeline is described.
        for pipe in model.pipelines() {
            assert!(manual.contains(&pipe.name), "{name}: pipeline {}", pipe.name);
        }
    }
}

#[test]
fn cli_binary_smoke_test() {
    // The CLI is exercised through its library path; here check the
    // builtin model specs resolve the same sources the workbenches use.
    let wb = tinyrisc::workbench().expect("builds");
    let program = lisa::asm::Assembler::new(wb.model())
        .assemble("LDI R1, 2\nADD R2, R1, R1\nHLT\n")
        .expect("assembles");
    assert_eq!(program.words.len(), 3);
    let listing = lisa::asm::Assembler::new(wb.model()).disassemble_listing(&program.words, 0);
    assert!(listing.contains("LDI R1, 2"));
    assert!(listing.contains("ADD R2, R1, R1"));
}
