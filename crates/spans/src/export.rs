//! Span exporters: Chrome trace-event JSON and JSONL.
//!
//! The Chrome format is the JSON *array form* of the trace-event spec —
//! a bare array of complete (`"ph": "X"`) events with microsecond
//! timestamps — which both Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing` load directly (`format=chrome` on
//! `/v1/debug/spans`, `lisa-tool batch --spans`). [`span_json`] renders
//! one span as an object with raw nanosecond fields, the element of the
//! `/v1/debug/spans` array; [`to_jsonl`] writes one such object per line
//! (`lisa-tool trace --spans`).

use std::fmt::Write as _;

use crate::SpanRecord;

/// Microseconds with three decimals from a nanosecond count, rendered
/// deterministically (no float formatting).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders spans as a Chrome trace-event JSON array (Perfetto-loadable).
///
/// Each span becomes one complete event: `ts`/`dur` in microseconds,
/// `pid` fixed at 1, `tid` the worker ordinal (so workers get timeline
/// lanes), and the trace/span/parent ids carried in `args`.
#[must_use]
pub fn to_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
             \"pid\": 1, \"tid\": {}, \
             \"args\": {{\"trace\": {}, \"span\": {}, \"parent\": {}}}}}",
            s.kind.as_str(),
            s.kind.category().as_str(),
            micros(s.start_ns),
            micros(s.dur_ns),
            s.worker,
            s.trace,
            s.span,
            s.parent,
        );
    }
    out.push_str("\n]\n");
    out
}

/// Renders one span as a JSON object (raw nanosecond fields). Used for
/// both JSONL lines and the `/v1/debug/spans` response.
#[must_use]
pub fn span_json(s: &SpanRecord) -> String {
    format!(
        "{{\"trace\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \"cat\": \"{}\", \
         \"worker\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
        s.trace,
        s.span,
        s.parent,
        s.kind.as_str(),
        s.kind.category().as_str(),
        s.worker,
        s.start_ns,
        s.dur_ns,
    )
}

/// Renders spans as JSON lines (one object per line, trailing newline
/// when non-empty).
#[must_use]
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&span_json(s));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use lisa_metrics::json::{self, Value};

    use super::*;
    use crate::SpanKind;

    fn sample() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                trace: 7,
                span: 1,
                parent: 0,
                kind: SpanKind::Accept,
                worker: 0,
                start_ns: 1_000,
                dur_ns: 2_500,
            },
            SpanRecord {
                trace: 7,
                span: 2,
                parent: 1,
                kind: SpanKind::QueueWait,
                worker: 1,
                start_ns: 3_500,
                dur_ns: 123_456_789,
            },
        ]
    }

    #[test]
    fn chrome_export_is_a_valid_json_array() {
        let text = to_chrome_trace(&sample());
        let value = json::parse(&text).expect("valid JSON");
        let events = value.as_array().expect("array form");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(events[0].get("name").and_then(Value::as_str), Some("accept"));
        assert_eq!(events[1].get("cat").and_then(Value::as_str), Some("queue"));
        assert_eq!(events[1].get("tid").and_then(Value::as_u64), Some(1));
        // 123_456_789 ns = 123456.789 us, rendered without float drift.
        assert_eq!(events[1].get("dur").and_then(Value::as_f64), Some(123_456.789));
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn empty_exports_are_well_formed() {
        assert_eq!(json::parse(&to_chrome_trace(&[])).unwrap().as_array().unwrap().len(), 0);
        assert_eq!(to_jsonl(&[]), "");
    }
}
