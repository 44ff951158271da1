//! VCD export determinism.
//!
//! The pipeline-timeline exporter promises byte-for-byte deterministic
//! output for a given event stream (its header is static and its body
//! depends only on the events). Two renders must be identical, and the
//! rendered document is pinned against a checked-in golden file so
//! accidental format drift shows up as a test failure.
//!
//! To bless an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p lisa-sim --test vcd_golden
//! ```

use lisa_core::model::{OpId, PipelineId};
use lisa_sim::{write_vcd, NameTable, TraceEvent};

/// A two-pipeline machine with distinct stage depths, exercising the
/// full variable layout (cpu.op + per-stage wires + stall/flush strobes).
fn names() -> NameTable {
    NameTable {
        ops: vec!["main".into(), "add".into(), "mul".into(), "br".into()],
        resources: vec![],
        pipelines: vec![
            ("ipipe".into(), vec!["FE".into(), "DC".into(), "EX".into()]),
            ("mac pipe".into(), vec!["RD".into(), "MAC".into()]),
        ],
    }
}

/// A fixed event stream covering the exporter's interesting paths:
/// staged and stage-less execution, simultaneous events in one cycle,
/// stall and flush strobes, a cycle gap (wires must clear in between),
/// and an out-of-range stage that falls back to the top-level wire.
fn events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Exec { cycle: 0, op: OpId(0), stage: None, pc: 0 },
        TraceEvent::Exec { cycle: 1, op: OpId(1), stage: Some((PipelineId(0), 0)), pc: 0 },
        TraceEvent::Exec { cycle: 2, op: OpId(1), stage: Some((PipelineId(0), 1)), pc: 0 },
        TraceEvent::Exec { cycle: 2, op: OpId(2), stage: Some((PipelineId(0), 0)), pc: 1 },
        TraceEvent::Exec { cycle: 2, op: OpId(3), stage: Some((PipelineId(1), 1)), pc: 2 },
        TraceEvent::Stall { cycle: 3, pipe: PipelineId(0), upto: 1 },
        TraceEvent::Exec { cycle: 3, op: OpId(1), stage: Some((PipelineId(0), 2)), pc: 0 },
        TraceEvent::Flush { cycle: 4, pipe: PipelineId(1), upto: None, discarded: 2 },
        // Cycle gap: 5 and 6 are idle, wires must drop to zero at 5.
        TraceEvent::Exec { cycle: 7, op: OpId(2), stage: Some((PipelineId(0), 99)), pc: 3 },
        TraceEvent::Exec { cycle: 8, op: OpId(0), stage: None, pc: 4 },
    ]
}

fn render() -> String {
    let mut out = Vec::new();
    write_vcd(&names(), &events(), &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("VCD is ASCII")
}

#[test]
fn two_exports_are_byte_identical() {
    assert_eq!(render(), render());
}

#[test]
fn export_matches_the_golden_file() {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pipeline.vcd");
    let rendered = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "VCD output drifted from tests/golden/pipeline.vcd; if intentional, \
         re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_stream_hits_every_wire_kind() {
    let text = render();
    // The gap at cycles 5–6 forces an idle reset timestamped #5.
    assert!(text.contains("#5\n"), "idle reset after the cycle gap: {text}");
    assert!(!text.contains("#6\n"), "nothing to emit in a fully idle cycle");
    // Whitespace in a pipeline name is sanitized in the header.
    assert!(text.contains("$scope module mac_pipe $end"), "{text}");
}
