//! JSONL export pinned across every event kind.
//!
//! The JSON-lines exporter names each event kind and renders its fields
//! through the model's name table. A fixed stream holding every
//! `TraceEvent` variant, with the optional fields both present and
//! absent and names that need escaping, is pinned against a checked-in
//! golden file so any drift in field order, kind names or escaping shows
//! up as a test failure.
//!
//! To bless an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p lisa-sim --test jsonl_golden
//! ```

use lisa_core::model::{OpId, PipelineId, ResourceId};
use lisa_sim::{events_to_jsonl, NameTable, TraceEvent};

/// Names with a quote, a backslash, a newline, a tab and a control
/// character in them, which the exporter must escape.
fn names() -> NameTable {
    NameTable {
        ops: vec!["main".into(), "add".into(), "we\"ird\\op".into(), "br\n\u{1}".into()],
        resources: vec!["pc".into(), "R".into(), "dmem".into(), "x\ty".into()],
        pipelines: vec![("pipe".into(), vec!["FE".into(), "EX".into()])],
    }
}

/// One event of each variant; `Decode`, `Exec` and `Flush` twice, to
/// cover both forms of their optional fields.
fn events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Fetch { cycle: 0, pc: 4, word: 0x1234 },
        TraceEvent::Decode { cycle: 0, pc: 4, word: 0x1234, op: OpId(1), cache_hit: false },
        TraceEvent::Decode { cycle: 1, pc: -1, word: u128::MAX, op: OpId(2), cache_hit: true },
        TraceEvent::Exec { cycle: 1, op: OpId(1), stage: Some((PipelineId(0), 1)), pc: 4 },
        TraceEvent::Exec { cycle: 1, op: OpId(3), stage: None, pc: 5 },
        TraceEvent::Activation { cycle: 2, from: OpId(0), to: OpId(2), delay: 3 },
        TraceEvent::Stall { cycle: 2, pipe: PipelineId(0), upto: 1 },
        TraceEvent::Flush { cycle: 3, pipe: PipelineId(0), upto: Some(0), discarded: 2 },
        TraceEvent::Flush { cycle: 3, pipe: PipelineId(0), upto: None, discarded: 0 },
        TraceEvent::MemoryAccess { cycle: 4, resource: ResourceId(2), addr: 17, value: -9 },
        TraceEvent::RegisterWrite { cycle: 4, resource: ResourceId(3), addr: 0, value: i64::MIN },
        TraceEvent::Print { cycle: 5, op: OpId(2), value: 42 },
        TraceEvent::ProbeHit { cycle: 6, probe: 7, resource: ResourceId(1), addr: 3, value: 1 },
    ]
}

#[test]
fn export_matches_the_golden_file() {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/events.jsonl");
    let rendered = events_to_jsonl(&names(), &events());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "JSONL output drifted from tests/golden/events.jsonl; if intentional, \
         re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn every_line_is_a_json_object_of_one_event() {
    let rendered = events_to_jsonl(&names(), &events());
    let lines: Vec<&str> = rendered.lines().collect();
    assert_eq!(lines.len(), events().len());
    for line in lines {
        let value = lisa_metrics::json::parse(line).expect("each line parses");
        assert!(value.get("cycle").and_then(|v| v.as_u64()).is_some(), "{line}");
        assert!(value.get("kind").and_then(|v| v.as_str()).is_some(), "{line}");
    }
}
