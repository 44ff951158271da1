//! API-guideline conformance checks: public types are Send/Sync where
//! expected, implement the common traits, and errors satisfy the
//! `Error + Send + Sync + 'static` bound callers need.

use lisa::bits::{BitPattern, Bits, BitsError};
use lisa::core::model::{Model, ModelError, ModelStats};
use lisa::core::{Description, LisaError, ParseError};
use lisa::isa::{Decoded, IsaError};
use lisa::sim::{SimError, SimStats};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
fn assert_clone_debug<T: Clone + std::fmt::Debug>() {}

#[test]
fn value_types_are_send_sync() {
    assert_send_sync::<Bits>();
    assert_send_sync::<BitPattern>();
    assert_send_sync::<Description>();
    assert_send_sync::<Model>();
    assert_send_sync::<Decoded>();
    assert_send_sync::<SimStats>();
    assert_send_sync::<ModelStats>();
    assert_send_sync::<lisa::asm::Program>();
    // The simulator itself is Send (single-threaded use, movable across
    // threads — e.g. one simulator per benchmark worker).
    fn assert_send<T: Send>() {}
    assert_send::<lisa::sim::Simulator<'static>>();
}

#[test]
fn error_types_satisfy_the_standard_bounds() {
    assert_error::<BitsError>();
    assert_error::<ParseError>();
    assert_error::<ModelError>();
    assert_error::<LisaError>();
    assert_error::<IsaError>();
    assert_error::<SimError>();
    assert_error::<lisa::asm::AsmError>();
    assert_send_sync::<lisa::models::WorkbenchError>();
}

#[test]
fn data_types_are_clone_and_debug() {
    assert_clone_debug::<Bits>();
    assert_clone_debug::<BitPattern>();
    assert_clone_debug::<Description>();
    assert_clone_debug::<Model>();
    assert_clone_debug::<Decoded>();
    assert_clone_debug::<SimStats>();
    assert_clone_debug::<ModelStats>();
}

#[test]
fn bits_implements_numeric_formatting() {
    let v = Bits::from_u128_wrapped(16, 0xBEEF);
    assert_eq!(format!("{v:x}"), "beef");
    assert_eq!(format!("{v:X}"), "BEEF");
    assert_eq!(format!("{v:o}"), "137357");
    assert_eq!(format!("{v:b}"), "1011111011101111");
    assert_eq!(v.to_string(), "16'hbeef");
}

#[test]
fn debug_representations_are_not_empty() {
    let model = Model::from_source(
        "RESOURCE { PROGRAM_COUNTER int pc; } OPERATION main { BEHAVIOR { pc = pc + 1; } }",
    )
    .unwrap();
    let sim = lisa::sim::Simulator::new(&model, lisa::sim::SimMode::Ops).unwrap();
    let dbg = format!("{sim:?}");
    assert!(dbg.contains("Simulator"), "{dbg}");
    assert!(dbg.contains("mode"), "{dbg}");
    assert!(!format!("{:?}", Bits::zero(8)).is_empty());
    assert!(!format!("{:?}", BitPattern::any(4)).is_empty());
}
