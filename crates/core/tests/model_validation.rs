//! Analysis-layer validation: every class of model error must be caught
//! with a precise diagnostic, and the less-common language constructs
//! (IF/ELSE structuring, REFERENCE declarations, custom sections,
//! multiple groups per declaration) must resolve correctly.

use lisa_core::model::{ModelError, ModelWarning};
use lisa_core::{LisaError, Model};

fn build_err(source: &str) -> ModelError {
    match Model::from_source(source) {
        Err(LisaError::Model(e)) => e,
        Err(LisaError::Parse(e)) => panic!("expected model error, got parse error: {e}"),
        Ok(_) => panic!("expected model error, but the model built"),
    }
}

#[test]
fn duplicate_names_are_rejected() {
    assert!(matches!(
        build_err("RESOURCE { int a; int a; }"),
        ModelError::DuplicateResource { .. }
    ));
    assert!(matches!(
        build_err("RESOURCE { PIPELINE p = { A; B }; PIPELINE p = { C }; }"),
        ModelError::DuplicatePipeline { .. }
    ));
    assert!(matches!(
        build_err("OPERATION x { CODING { 0b1 } } OPERATION x { CODING { 0b0 } }"),
        ModelError::DuplicateOperation { .. }
    ));
    assert!(matches!(
        build_err("RESOURCE { PIPELINE p = { S; S }; }"),
        ModelError::DuplicateStage { .. }
    ));
}

#[test]
fn unknown_references_are_rejected() {
    assert!(matches!(
        build_err("OPERATION x { DECLARE { GROUP G = { nothing }; } CODING { G } }"),
        ModelError::UnknownName { .. }
    ));
    assert!(matches!(
        build_err("OPERATION x IN nowhere.S1 { CODING { 0b1 } }"),
        ModelError::UnknownStage { .. }
    ));
    assert!(matches!(
        build_err(
            "RESOURCE { PIPELINE p = { A; B }; } OPERATION x IN p.MISSING { CODING { 0b1 } }"
        ),
        ModelError::UnknownStage { .. }
    ));
    assert!(matches!(
        build_err("OPERATION x { CODING { ir == 0b1 } }"),
        ModelError::UnknownRootResource { .. }
    ));
    assert!(matches!(
        build_err("OPERATION x { DECLARE { LABEL l; } SYNTAX { other:#u } }"),
        ModelError::UnknownName { .. }
    ));
    assert!(matches!(
        build_err("OPERATION x { CODING { 0b1 missing_op } }"),
        ModelError::UnknownName { .. }
    ));
}

#[test]
fn array_decode_roots_are_rejected() {
    let err = build_err(
        "RESOURCE { REGISTER int words[2]; } \
         OPERATION x { CODING { words == 0b1 } }",
    );
    assert!(matches!(err, ModelError::NonScalarRoot { ref resource, .. } if resource == "words"));
    assert!(err.to_string().contains("array resource `words`"), "{err}");
}

#[test]
fn resources_wider_than_64_bits_are_rejected() {
    assert!(Model::from_source("RESOURCE { REGISTER bit[64] full; }").is_ok());
    let err = build_err("RESOURCE { REGISTER bit[65] wide; }");
    assert!(matches!(err, ModelError::ResourceTooWide { width: 65, .. }), "{err:?}");
    assert!(err.to_string().contains("`wide` is 65 bits wide"), "{err}");
}

#[test]
fn overflowing_element_counts_are_rejected() {
    let err = build_err("RESOURCE { DATA_MEMORY int m[0x100000000][0x100000000]; }");
    assert!(matches!(err, ModelError::TooManyCells { ref resource, .. } if resource == "m"));
}

#[test]
fn states_past_the_cell_cap_are_rejected() {
    use lisa_core::model::MAX_STATE_CELLS;
    let fits = format!(
        "RESOURCE {{ PROGRAM_COUNTER int pc; DATA_MEMORY char m[{}]; }}",
        MAX_STATE_CELLS - 1
    );
    assert!(Model::from_source(&fits).is_ok());
    // One scalar cell more than the cap allows, declared after the memory.
    let err = build_err(&format!(
        "RESOURCE {{ DATA_MEMORY char m[{MAX_STATE_CELLS}]; REGISTER int r; }}"
    ));
    assert!(matches!(err, ModelError::TooManyCells { ref resource, .. } if resource == "r"));
    assert!(err.to_string().contains(&MAX_STATE_CELLS.to_string()), "{err}");
}

#[test]
fn recursive_codings_are_rejected() {
    assert!(matches!(
        build_err("OPERATION x { CODING { 0b1 x } }"),
        ModelError::CodingCycle { .. }
    ));
    assert!(matches!(
        build_err("OPERATION a { CODING { 0b1 b } } OPERATION b { CODING { 0b0 a } }"),
        ModelError::CodingCycle { .. }
    ));
}

#[test]
fn width_inconsistencies_are_rejected() {
    // Group members with different coding widths.
    assert!(matches!(
        build_err(
            r#"
            OPERATION narrow { CODING { 0b01 } }
            OPERATION wide { CODING { 0b0111 } }
            OPERATION user {
                DECLARE { GROUP G = { narrow || wide }; }
                CODING { 0b1 G }
            }
            "#
        ),
        ModelError::GroupWidthMismatch { .. }
    ));
    // SWITCH variants with different coding widths.
    assert!(matches!(
        build_err(
            r#"
            OPERATION s1 { CODING { 0b0 } SYNTAX { "1" } }
            OPERATION s2 { CODING { 0b1 } SYNTAX { "2" } }
            OPERATION var {
                DECLARE { GROUP S = { s1 || s2 }; }
                SWITCH (S) {
                    CASE s1: { CODING { S 0b00 } }
                    CASE s2: { CODING { S 0b000 } }
                }
            }
            "#
        ),
        ModelError::VariantWidthMismatch { .. }
    ));
}

#[test]
fn structuring_errors_are_rejected() {
    assert!(matches!(
        build_err("OPERATION x { SWITCH (NoGroup) { CASE a: { } } }"),
        ModelError::SwitchOnUnknownGroup { .. }
    ));
    assert!(matches!(
        build_err(
            r#"
            OPERATION m { CODING { 0b1 } }
            OPERATION other { CODING { 0b0 } }
            OPERATION x {
                DECLARE { GROUP G = { m }; }
                SWITCH (G) { CASE other: { } }
            }
            "#
        ),
        ModelError::CaseNotInGroup { .. }
    ));
    assert!(matches!(
        build_err("OPERATION x { CODING { 0b1 } CODING { 0b0 } }"),
        ModelError::DuplicateSection { .. }
    ));
    // A section both outside and inside a SWITCH arm duplicates too.
    assert!(matches!(
        build_err(
            r#"
            OPERATION m { CODING { 0b1 } SYNTAX { "m" } }
            OPERATION x {
                DECLARE { GROUP G = { m }; }
                SYNTAX { "X" }
                SWITCH (G) { CASE m: { SYNTAX { "Y" } } }
            }
            "#
        ),
        ModelError::DuplicateSection { .. }
    ));
    assert!(matches!(
        build_err("OPERATION x { DECLARE { GROUP G = { x }; } CODING { 0bx label:0bx[4] } }"),
        ModelError::UnknownLabel { .. }
    ));
}

#[test]
fn if_else_structuring_builds_guarded_variants() {
    let model = Model::from_source(
        r#"
        OPERATION one { CODING { 0b0 } SYNTAX { "one" } }
        OPERATION two { CODING { 0b1 } SYNTAX { "two" } }
        OPERATION pick {
            DECLARE { GROUP Mode = { one || two }; }
            CODING { Mode 0bxx }
            IF (Mode == one) {
                SYNTAX { "FAST" }
            } ELSE {
                SYNTAX { "SLOW" }
            }
        }
        "#,
    )
    .expect("builds");
    let pick = model.operation_by_name("pick").expect("pick exists");
    assert_eq!(pick.variants.len(), 2, "one variant per IF branch outcome");
    assert!(pick.variants.iter().all(|v| v.guard.len() == 1));
    let one = model.operation_by_name("one").unwrap().id;
    let fast =
        pick.variants.iter().find(|v| v.guard[0].1 == one).expect("guarded variant for `one`");
    let syntax = fast.syntax.as_ref().expect("syntax");
    assert!(matches!(
        &syntax[0],
        lisa_core::model::SynElem::Literal(t) if t == "FAST"
    ));
}

#[test]
fn references_and_custom_sections_resolve() {
    let model = Model::from_source(
        r#"
        OPERATION helper { CODING { 0b11 } SYNTAX { "H" } BEHAVIOR { } }
        OPERATION user {
            DECLARE { REFERENCE helper; }
            CODING { 0b0 helper 0bx }
            SYNTAX { "U" helper }
            POWER { 1.5 mW typical }
            BEHAVIOR { helper; }
        }
        "#,
    )
    .expect("builds");
    let user = model.operation_by_name("user").unwrap();
    let helper = model.operation_by_name("helper").unwrap().id;
    assert_eq!(user.references, vec![helper]);
    assert_eq!(user.coding_width(), Some(4));
}

#[test]
fn overlapping_codings_warn_unless_aliased() {
    let overlapping = r#"
        RESOURCE { CONTROL_REGISTER int ir; }
        OPERATION a { CODING { 0b1x } SYNTAX { "a" } }
        OPERATION b { CODING { 0bx1 } SYNTAX { "b" } }
        OPERATION root {
            DECLARE { GROUP I = { a || b }; }
            CODING { ir == I }
            SYNTAX { I }
        }
    "#;
    let model = Model::from_source(overlapping).expect("builds with warning");
    assert!(
        model.warnings().iter().any(|w| matches!(w, ModelWarning::OverlappingCoding { .. })),
        "{:?}",
        model.warnings()
    );

    // Declaring one of them ALIAS silences the overlap warning.
    let aliased = overlapping.replace("OPERATION b", "OPERATION b ALIAS");
    let model = Model::from_source(&aliased).expect("builds");
    assert!(
        !model.warnings().iter().any(|w| matches!(w, ModelWarning::OverlappingCoding { .. })),
        "{:?}",
        model.warnings()
    );
}

#[test]
fn unreachable_operations_warn() {
    let model = Model::from_source(
        r#"
        OPERATION used { CODING { 0b1 } }
        OPERATION orphan { CODING { 0b0 } }
        OPERATION main { BEHAVIOR { used; } }
        "#,
    )
    .expect("builds");
    let unreachable: Vec<&str> = model
        .warnings()
        .iter()
        .filter_map(|w| match w {
            ModelWarning::UnreachableOperation { operation } => Some(operation.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(unreachable, vec!["orphan"]);
}

#[test]
fn bundled_vliw_model_has_no_unreachable_operations() {
    // Read from the models crate's file so this crate does not depend on
    // `lisa-models` (which depends on us).
    let source = include_str!("../../models/src/vliw62.lisa");
    let model = Model::from_source(source).expect("bundled model builds");
    let unreachable: Vec<_> = model
        .warnings()
        .iter()
        .filter(|w| matches!(w, ModelWarning::UnreachableOperation { .. }))
        .collect();
    assert!(unreachable.is_empty(), "{unreachable:?}");
}
