//! Ops-mode lowering must reject bad behavior code at simulator
//! *generation* time (the compile-time half of compiled simulation),
//! with the same error classes the interpretive backend reports at run
//! time.

use lisa_core::Model;
use lisa_sim::{SimError, SimMode, Simulator};

fn model(behavior: &str) -> Model {
    Model::from_source(&format!(
        "RESOURCE {{ PROGRAM_COUNTER int pc; REGISTER int r; PIPELINE p = {{ A; B }}; }} \
         OPERATION main {{ BEHAVIOR {{ {behavior} }} }}"
    ))
    .expect("model parses")
}

/// The ops-mode construction error for `m`. The model keeps a failed
/// image too, so a second simulator on it must return the same error.
fn lowering_error(m: &Model) -> SimError {
    let err = Simulator::new(m, SimMode::Ops).unwrap_err();
    assert_eq!(Simulator::new(m, SimMode::Ops).unwrap_err(), err, "second simulator on the model");
    err
}

#[test]
fn unknown_names_fail_at_lowering_time() {
    let m = model("r = missing;");
    let err = lowering_error(&m);
    assert!(matches!(err, SimError::UnknownName { ref name, .. } if name == "missing"));
    // Interpretive construction succeeds; the error surfaces at run time.
    let mut sim = Simulator::new(&m, SimMode::Interpretive).expect("builds");
    assert!(matches!(sim.step(), Err(SimError::UnknownName { .. })));
}

#[test]
fn builtin_arity_fails_at_lowering_time() {
    let m = model("r = sext(1);");
    let err = lowering_error(&m);
    assert!(
        matches!(err, SimError::BadArity { ref builtin, got: 1, expected: 2 } if builtin == "sext")
    );
}

#[test]
fn unknown_pipeline_actions_fail_at_lowering_time() {
    let m = model("p.explode();");
    let err = lowering_error(&m);
    assert!(matches!(err, SimError::UnknownPipeline { ref path } if path == "p.explode"));

    let m = model("p.C.stall();");
    let err = lowering_error(&m);
    assert!(matches!(err, SimError::UnknownPipeline { .. }), "unknown stage: {err}");
}

#[test]
fn unknown_dotted_calls_fail_at_lowering_time() {
    let m = model("q.shift();"); // `q` is not a pipeline
    let err = lowering_error(&m);
    assert!(matches!(err, SimError::UnknownCall { ref path, .. } if path == "q.shift"));
}

#[test]
fn error_messages_are_actionable() {
    let m = model("r = missing;");
    let err = lowering_error(&m);
    let text = err.to_string();
    assert!(text.contains("missing"), "{text}");
    assert!(text.contains("main"), "names the operation: {text}");
    // Errors chain sources where applicable and satisfy the usual bounds.
    fn check<T: std::error::Error + Send + Sync + 'static>() {}
    check::<SimError>();
}

#[test]
fn lisa_error_wrapping_displays_both_stages() {
    let parse_err = Model::from_source("RESOURCE {").unwrap_err();
    assert!(parse_err.to_string().starts_with("parse error:"), "{parse_err}");
    let model_err = Model::from_source("OPERATION x { CODING { 0b1 x } }").unwrap_err();
    assert!(model_err.to_string().starts_with("model error:"), "{model_err}");
    assert!(std::error::Error::source(&model_err).is_some());
}
