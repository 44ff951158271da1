//! Span export determinism.
//!
//! The exporters promise byte-for-byte deterministic output for a given
//! span list, and both documents are pinned against checked-in golden
//! files: the Chrome trace (Perfetto and `chrome://tracing` both consume
//! this format, so drift is a compatibility break) and the JSONL lines
//! `lisa-tool trace --spans` prints.
//!
//! To bless an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p lisa-spans --test chrome_golden
//! ```

use lisa_spans::export::{to_chrome_trace, to_jsonl};
use lisa_spans::{SpanKind, SpanRecord};

/// A fixed span tree covering the interesting paths: one full request
/// tree across all three layers, sub-microsecond durations (fractional
/// `ts`/`dur`), an infra-trace span, and a non-zero worker lane.
fn fixture() -> Vec<SpanRecord> {
    let span = |trace, span, parent, kind, worker, start_ns, dur_ns| SpanRecord {
        trace,
        span,
        parent,
        kind,
        worker,
        start_ns,
        dur_ns,
    };
    vec![
        span(1, 1, 0, SpanKind::Accept, 1, 1_000, 950_500),
        span(1, 2, 1, SpanKind::QueueWait, 1, 1_100, 20_000),
        span(1, 3, 1, SpanKind::Request, 1, 21_500, 900_000),
        span(1, 4, 3, SpanKind::Parse, 1, 21_500, 700),
        span(1, 5, 3, SpanKind::Route, 1, 22_300, 870_000),
        span(1, 6, 5, SpanKind::Assemble, 1, 23_000, 40_000),
        span(1, 7, 5, SpanKind::Run, 1, 63_500, 800_000),
        span(1, 8, 7, SpanKind::Predecode, 1, 63_600, 9_000),
        span(1, 9, 7, SpanKind::CycleChunk, 1, 73_000, 790_123),
        span(1, 10, 5, SpanKind::Serialize, 1, 864_000, 25_000),
        span(1, 11, 3, SpanKind::Write, 1, 890_000, 30_999),
        span(0, 12, 0, SpanKind::LockPush, 0, 500, 42),
    ]
}

#[test]
fn two_exports_are_byte_identical() {
    assert_eq!(to_chrome_trace(&fixture()), to_chrome_trace(&fixture()));
}

/// Compares `rendered` with `tests/golden/<name>`, or rewrites the file
/// under `UPDATE_GOLDEN`.
fn check_golden(name: &str, rendered: &str) {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "span export drifted from tests/golden/{name}; if intentional, re-bless with \
         UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_export_matches_the_golden_file() {
    check_golden("spans.json", &to_chrome_trace(&fixture()));
}

#[test]
fn jsonl_export_matches_the_golden_file() {
    check_golden("spans.jsonl", &to_jsonl(&fixture()));
}

#[test]
fn chrome_export_is_structurally_sound() {
    let text = to_chrome_trace(&fixture());
    let doc = lisa_metrics::json::parse(&text).expect("valid JSON");
    let lisa_metrics::json::Value::Arr(events) = doc else {
        panic!("Chrome trace must be a JSON array");
    };
    assert_eq!(events.len(), fixture().len());
    for event in &events {
        assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(event.get("name").is_some() && event.get("ts").is_some());
        // Sub-microsecond precision survives as fractional microseconds.
    }
    assert!(text.contains("\"dur\": 790.123"), "ns → µs conversion keeps precision: {text}");
}
