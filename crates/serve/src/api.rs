//! JSON request/response bodies for the service endpoints.
//!
//! The wire format rides on `lisa_metrics::json` (the workspace's
//! dependency-free JSON reader/writer). Every request type has a
//! `from_json` that rejects unknown shapes with a message the handler
//! returns as a 400/422, and every response type has a deterministic
//! `to_json`; the property tests round-trip both directions.

use std::fmt::Write as _;

use lisa_metrics::json::{self, escape, Value};

/// `POST /v1/assemble` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembleRequest {
    /// Builtin model name (`tinyrisc`, `accu16`, `scalar2`, `vliw62`).
    pub model: String,
    /// Assembly source text (newline-separated statements).
    pub program: String,
}

/// `POST /v1/simulate` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulateRequest {
    /// Builtin model name.
    pub model: String,
    /// Assembly source text.
    pub program: String,
    /// Backend: `"interp"`, `"ops"` or `"compiled"` (default), the
    /// paper's name for the ops backend: it runs on ops and reports
    /// `ops`.
    pub mode: String,
    /// Control-step budget (default 100 000).
    pub max_cycles: u64,
    /// Resources to dump after the run: `[name, first_n]` pairs.
    pub dump: Vec<(String, usize)>,
    /// Probe-spec clauses (`watch dmem[0..16]`, `break 5`, `reg R`) to
    /// arm for the run; hit counts come back in the response.
    pub probes: Vec<String>,
}

/// `POST /v1/batch` body (all fields optional on the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// Backends: `"interp"`, `"compiled"` / `"ops"` (one backend), or
    /// `"both"` (default) / `"all"` (interpretive and ops).
    pub mode: String,
    /// Worker threads for the batch pool (default 2, capped at 16).
    pub workers: usize,
}

fn parse_object(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let value = json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    match value {
        Value::Obj(_) => Ok(value),
        _ => Err("body must be a JSON object".to_owned()),
    }
}

fn required_str(obj: &Value, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn optional_str(obj: &Value, key: &str, default: &str) -> Result<String, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default.to_owned()),
        Some(v) => {
            v.as_str().map(str::to_owned).ok_or_else(|| format!("field `{key}` must be a string"))
        }
    }
}

fn optional_u64(obj: &Value, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => {
            v.as_u64().ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
        }
    }
}

impl AssembleRequest {
    /// Parses the request body.
    ///
    /// # Errors
    ///
    /// A description of the first schema violation.
    pub fn from_json(body: &[u8]) -> Result<AssembleRequest, String> {
        let obj = parse_object(body)?;
        Ok(AssembleRequest {
            model: required_str(&obj, "model")?,
            program: required_str(&obj, "program")?,
        })
    }

    /// Serializes to the wire shape (used by tests and the bench client).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!("{{\"model\": {}, \"program\": {}}}", escape(&self.model), escape(&self.program))
    }
}

impl SimulateRequest {
    /// Parses the request body.
    ///
    /// # Errors
    ///
    /// A description of the first schema violation.
    pub fn from_json(body: &[u8]) -> Result<SimulateRequest, String> {
        let obj = parse_object(body)?;
        let mut dump = Vec::new();
        if let Some(v) = obj.get("dump") {
            let items = v.as_array().ok_or("field `dump` must be an array")?;
            for item in items {
                let pair = item.as_array().filter(|a| a.len() == 2);
                let (name, count) = match pair {
                    Some([n, c]) => (n.as_str(), c.as_u64()),
                    _ => (None, None),
                };
                match (name, count) {
                    (Some(n), Some(c)) => dump.push((n.to_owned(), c as usize)),
                    _ => return Err("`dump` entries must be [name, count] pairs".to_owned()),
                }
            }
        }
        let mut probes = Vec::new();
        match obj.get("probes") {
            None | Some(Value::Null) => {}
            Some(v) => {
                let items = v.as_array().ok_or("field `probes` must be an array of strings")?;
                for item in items {
                    let clause =
                        item.as_str().ok_or("`probes` entries must be strings".to_owned())?;
                    probes.push(clause.to_owned());
                }
            }
        }
        Ok(SimulateRequest {
            model: required_str(&obj, "model")?,
            program: required_str(&obj, "program")?,
            mode: optional_str(&obj, "mode", "compiled")?,
            max_cycles: optional_u64(&obj, "max_cycles", 100_000)?,
            dump,
            probes,
        })
    }

    /// Serializes to the wire shape.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"model\": {}, \"program\": {}, \"mode\": {}, \"max_cycles\": {}",
            escape(&self.model),
            escape(&self.program),
            escape(&self.mode),
            self.max_cycles
        );
        if !self.dump.is_empty() {
            out.push_str(", \"dump\": [");
            for (i, (name, count)) in self.dump.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{}, {count}]", escape(name));
            }
            out.push(']');
        }
        if !self.probes.is_empty() {
            out.push_str(", \"probes\": [");
            for (i, clause) in self.probes.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&escape(clause));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

impl BatchRequest {
    /// Parses the request body; an empty body means "all defaults".
    ///
    /// # Errors
    ///
    /// A description of the first schema violation.
    pub fn from_json(body: &[u8]) -> Result<BatchRequest, String> {
        if body.is_empty() {
            return Ok(BatchRequest { mode: "both".to_owned(), workers: 2 });
        }
        let obj = parse_object(body)?;
        let workers = optional_u64(&obj, "workers", 2)?;
        if workers == 0 || workers > 16 {
            return Err("field `workers` must be between 1 and 16".to_owned());
        }
        Ok(BatchRequest { mode: optional_str(&obj, "mode", "both")?, workers: workers as usize })
    }

    /// Serializes to the wire shape.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!("{{\"mode\": {}, \"workers\": {}}}", escape(&self.mode), self.workers)
    }
}

/// Renders an error body: `{"error": "<message>"}`.
#[must_use]
pub fn error_body(message: &str) -> String {
    format!("{{\"error\": {}}}", escape(message))
}

/// Renders the assemble response.
#[must_use]
pub fn assemble_body(origin: u64, words: &[u128], listing: &str) -> String {
    let mut out = format!("{{\"origin\": {origin}, \"words\": [");
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{w:#x}\"");
    }
    let _ = write!(out, "], \"listing\": {}}}", escape(listing));
    out
}

/// Everything the simulate endpoint reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulateOutcome {
    /// Control steps executed.
    pub cycles: u64,
    /// Whether the halt flag fired (false: budget exhausted).
    pub halted: bool,
    /// Instructions retired.
    pub instructions_retired: u64,
    /// Order-independent digest of the final architectural state.
    pub state_digest: u64,
    /// Requested resource dumps.
    pub dump: Vec<(String, Vec<i64>)>,
    /// Per-probe hit counts (label, hits), in probe order; empty when
    /// the request armed no probes.
    pub probes: Vec<(String, u64)>,
    /// The breakpoint that stopped the run, if one did: (label, pc).
    pub breakpoint: Option<(String, i64)>,
}

/// Renders the simulate response.
#[must_use]
pub fn simulate_body(outcome: &SimulateOutcome) -> String {
    let mut out = format!(
        "{{\"cycles\": {}, \"halted\": {}, \"instructions_retired\": {}, \"state_digest\": \"{:#018x}\"",
        outcome.cycles, outcome.halted, outcome.instructions_retired, outcome.state_digest
    );
    if !outcome.dump.is_empty() {
        out.push_str(", \"dump\": {");
        for (i, (name, values)) in outcome.dump.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: [", escape(name));
            for (j, v) in values.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        out.push('}');
    }
    if !outcome.probes.is_empty() {
        let total: u64 = outcome.probes.iter().map(|(_, n)| n).sum();
        let _ = write!(out, ", \"probe_hits\": {total}, \"probes\": {{");
        for (i, (label, hits)) in outcome.probes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {hits}", escape(label));
        }
        out.push('}');
    }
    if let Some((label, pc)) = &outcome.breakpoint {
        let _ = write!(out, ", \"breakpoint\": {{\"probe\": {}, \"pc\": {pc}}}", escape(label));
    }
    out.push('}');
    out
}

/// Renders the batch response.
#[must_use]
pub fn batch_body(jobs: usize, failed: usize, total_cycles: u64, elapsed_us: u64) -> String {
    format!(
        "{{\"jobs\": {jobs}, \"failed\": {failed}, \"total_cycles\": {total_cycles}, \
         \"elapsed_us\": {elapsed_us}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_request_round_trips() {
        let req = AssembleRequest {
            model: "tinyrisc".to_owned(),
            program: "LDI R1, 6\nHLT\n".to_owned(),
        };
        assert_eq!(AssembleRequest::from_json(req.to_json().as_bytes()).unwrap(), req);
    }

    #[test]
    fn simulate_request_defaults_and_round_trip() {
        let req =
            SimulateRequest::from_json(br#"{"model": "tinyrisc", "program": "HLT"}"#).unwrap();
        assert_eq!(req.mode, "compiled");
        assert_eq!(req.max_cycles, 100_000);
        assert!(req.dump.is_empty());

        let full = SimulateRequest {
            model: "vliw62".to_owned(),
            program: "HALT\n".to_owned(),
            mode: "interp".to_owned(),
            max_cycles: 42,
            dump: vec![("A".to_owned(), 4), ("B".to_owned(), 2)],
            probes: vec!["watch dmem[0..16]".to_owned(), "break 0x5".to_owned()],
        };
        assert_eq!(SimulateRequest::from_json(full.to_json().as_bytes()).unwrap(), full);
    }

    #[test]
    fn schema_violations_are_described() {
        for (body, needle) in [
            (&b"not json"[..], "bad JSON"),
            (b"[1, 2]", "must be a JSON object"),
            (b"{\"program\": \"HLT\"}", "`model`"),
            (b"{\"model\": \"t\", \"program\": 7}", "`program`"),
            (b"{\"model\": \"t\", \"program\": \"x\", \"max_cycles\": -3}", "`max_cycles`"),
            (b"{\"model\": \"t\", \"program\": \"x\", \"dump\": [[1, 2]]}", "dump"),
            (b"{\"model\": \"t\", \"program\": \"x\", \"probes\": \"watch\"}", "probes"),
            (b"{\"model\": \"t\", \"program\": \"x\", \"probes\": [7]}", "probes"),
            (b"\xff\xfe", "UTF-8"),
        ] {
            let err = SimulateRequest::from_json(body).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
        assert!(BatchRequest::from_json(b"{\"workers\": 0}").unwrap_err().contains("workers"));
        assert!(BatchRequest::from_json(b"{\"workers\": 17}").unwrap_err().contains("workers"));
    }

    #[test]
    fn batch_request_accepts_an_empty_body() {
        let req = BatchRequest::from_json(b"").unwrap();
        assert_eq!(req.mode, "both");
        assert_eq!(req.workers, 2);
        assert_eq!(BatchRequest::from_json(req.to_json().as_bytes()).unwrap(), req);
    }

    #[test]
    fn response_bodies_are_valid_json() {
        use lisa_metrics::json::parse;

        let body = assemble_body(2, &[0x1234, 0xffff_ffff], "L1:\n");
        let v = parse(&body).unwrap();
        assert_eq!(v.get("origin").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("words").unwrap().as_array().unwrap().len(), 2);

        let outcome = SimulateOutcome {
            cycles: 9,
            halted: true,
            instructions_retired: 7,
            state_digest: 0xdead_beef,
            dump: vec![("R".to_owned(), vec![0, -4, 42])],
            probes: vec![("watch dmem".to_owned(), 3), ("break 5".to_owned(), 1)],
            breakpoint: Some(("break 5".to_owned(), 5)),
        };
        let v = parse(&simulate_body(&outcome)).unwrap();
        assert_eq!(v.get("cycles").unwrap().as_u64(), Some(9));
        assert_eq!(v.get("halted").unwrap().as_bool(), Some(true));
        let dump = v.get("dump").unwrap().get("R").unwrap().as_array().unwrap();
        assert_eq!(dump[1].as_f64(), Some(-4.0));
        assert_eq!(v.get("probe_hits").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("probes").unwrap().get("watch dmem").unwrap().as_u64(), Some(3));
        let bp = v.get("breakpoint").unwrap();
        assert_eq!(bp.get("probe").unwrap().as_str(), Some("break 5"));
        assert_eq!(bp.get("pc").unwrap().as_f64(), Some(5.0));

        let v = parse(&batch_body(10, 1, 12345, 678)).unwrap();
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(1));

        let v = parse(&error_body("boom \"quoted\"")).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("boom \"quoted\""));
    }
}
