//! Typed trace events and the name table that renders them.

use std::fmt::Write as _;

use lisa_core::model::{Model, OpId, PipelineId, ResourceId};

/// One observable simulator action, stamped with the control step it
/// happened in. Events carry model *ids*, not names, so they are `Copy`
/// and allocation-free to record; resolve them through a [`NameTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// An instruction word was fetched from the decode-root resource.
    Fetch {
        /// Control step.
        cycle: u64,
        /// Program counter at fetch time.
        pc: i64,
        /// The raw instruction word.
        word: u128,
    },
    /// An instruction word was decoded (or served from the decode cache).
    Decode {
        /// Control step.
        cycle: u64,
        /// Program counter at decode time.
        pc: i64,
        /// The raw instruction word.
        word: u128,
        /// The operation the word decoded to.
        op: OpId,
        /// Whether the compiled-mode decode cache served the request.
        cache_hit: bool,
    },
    /// An operation's behavior ran.
    Exec {
        /// Control step.
        cycle: u64,
        /// The executed operation.
        op: OpId,
        /// Pipeline stage the operation is assigned to, if any.
        stage: Option<(PipelineId, u16)>,
        /// Program counter when execution started.
        pc: i64,
    },
    /// An operation scheduled another via its `ACTIVATION` section.
    Activation {
        /// Control step.
        cycle: u64,
        /// The activating operation.
        from: OpId,
        /// The activated operation.
        to: OpId,
        /// Control steps (or pipeline shifts) until it executes.
        delay: u32,
    },
    /// A pipeline stall request (`pipe.stall()` / `pipe.stage.stall()`).
    Stall {
        /// Control step.
        cycle: u64,
        /// The stalled pipeline.
        pipe: PipelineId,
        /// Stages `0..=upto` are held this control step.
        upto: u16,
    },
    /// A pipeline flush (`pipe.flush()` / `pipe.stage.flush()`).
    Flush {
        /// Control step.
        cycle: u64,
        /// The flushed pipeline.
        pipe: PipelineId,
        /// Stages `0..=upto` are flushed (`None` = whole pipeline).
        upto: Option<u16>,
        /// In-flight activations the flush discarded.
        discarded: u32,
    },
    /// A write to a memory-class resource (`DATA_MEMORY` /
    /// `PROGRAM_MEMORY`).
    MemoryAccess {
        /// Control step.
        cycle: u64,
        /// The written resource.
        resource: ResourceId,
        /// Flattened element index.
        addr: u64,
        /// Value written.
        value: i64,
    },
    /// A write to a register-class resource.
    RegisterWrite {
        /// Control step.
        cycle: u64,
        /// The written resource.
        resource: ResourceId,
        /// Flattened element index.
        addr: u64,
        /// Value written.
        value: i64,
    },
    /// The `print` builtin fired in a behavior.
    Print {
        /// Control step.
        cycle: u64,
        /// The operation whose behavior printed.
        op: OpId,
        /// The printed value.
        value: i64,
    },
    /// A probe matched: a watchpoint or register trace probe saw a
    /// write, or a PC tracepoint/breakpoint matched a program-counter
    /// update. Probe ids index into the compiled probe set's labels.
    ProbeHit {
        /// Control step.
        cycle: u64,
        /// Compiled probe id.
        probe: u16,
        /// The resource whose write triggered the hit.
        resource: ResourceId,
        /// Flattened element index written.
        addr: u64,
        /// Value written.
        value: i64,
    },
}

/// The discriminant of a [`TraceEvent`], for filtering and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// [`TraceEvent::Fetch`].
    Fetch,
    /// [`TraceEvent::Decode`].
    Decode,
    /// [`TraceEvent::Exec`].
    Exec,
    /// [`TraceEvent::Activation`].
    Activation,
    /// [`TraceEvent::Stall`].
    Stall,
    /// [`TraceEvent::Flush`].
    Flush,
    /// [`TraceEvent::MemoryAccess`].
    MemoryAccess,
    /// [`TraceEvent::RegisterWrite`].
    RegisterWrite,
    /// [`TraceEvent::Print`].
    Print,
    /// [`TraceEvent::ProbeHit`].
    ProbeHit,
}

impl TraceKind {
    /// Stable lowercase name, used by the JSONL exporter.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Fetch => "fetch",
            TraceKind::Decode => "decode",
            TraceKind::Exec => "exec",
            TraceKind::Activation => "activation",
            TraceKind::Stall => "stall",
            TraceKind::Flush => "flush",
            TraceKind::MemoryAccess => "memory_access",
            TraceKind::RegisterWrite => "register_write",
            TraceKind::Print => "print",
            TraceKind::ProbeHit => "probe",
        }
    }
}

impl TraceEvent {
    /// The control step the event happened in.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Fetch { cycle, .. }
            | TraceEvent::Decode { cycle, .. }
            | TraceEvent::Exec { cycle, .. }
            | TraceEvent::Activation { cycle, .. }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::Flush { cycle, .. }
            | TraceEvent::MemoryAccess { cycle, .. }
            | TraceEvent::RegisterWrite { cycle, .. }
            | TraceEvent::Print { cycle, .. }
            | TraceEvent::ProbeHit { cycle, .. } => cycle,
        }
    }

    /// The event's discriminant.
    #[must_use]
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceEvent::Fetch { .. } => TraceKind::Fetch,
            TraceEvent::Decode { .. } => TraceKind::Decode,
            TraceEvent::Exec { .. } => TraceKind::Exec,
            TraceEvent::Activation { .. } => TraceKind::Activation,
            TraceEvent::Stall { .. } => TraceKind::Stall,
            TraceEvent::Flush { .. } => TraceKind::Flush,
            TraceEvent::MemoryAccess { .. } => TraceKind::MemoryAccess,
            TraceEvent::RegisterWrite { .. } => TraceKind::RegisterWrite,
            TraceEvent::Print { .. } => TraceKind::Print,
            TraceEvent::ProbeHit { .. } => TraceKind::ProbeHit,
        }
    }
}

/// An owned snapshot of a model's name space: operation, resource and
/// pipeline-stage names by id. Decouples recorded events from the model
/// borrow so sinks, exporters and merged profiles are `'static`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NameTable {
    /// Operation names, indexed by [`OpId`].
    pub ops: Vec<String>,
    /// Resource names, indexed by [`ResourceId`].
    pub resources: Vec<String>,
    /// Pipeline names with their ordered stage names, indexed by
    /// [`PipelineId`].
    pub pipelines: Vec<(String, Vec<String>)>,
}

impl NameTable {
    /// Snapshots the names of a model.
    #[must_use]
    pub fn of(model: &Model) -> NameTable {
        NameTable {
            ops: model.operations().iter().map(|o| o.name.clone()).collect(),
            resources: model.resources().iter().map(|r| r.name.clone()).collect(),
            pipelines: model
                .pipelines()
                .iter()
                .map(|p| (p.name.clone(), p.stages.clone()))
                .collect(),
        }
    }

    /// Name of an operation (`"?"` for an unknown id).
    #[must_use]
    pub fn op(&self, id: OpId) -> &str {
        self.ops.get(id.0).map_or("?", String::as_str)
    }

    /// Name of a resource (`"?"` for an unknown id).
    #[must_use]
    pub fn resource(&self, id: ResourceId) -> &str {
        self.resources.get(id.0).map_or("?", String::as_str)
    }

    /// Name of a pipeline (`"?"` for an unknown id).
    #[must_use]
    pub fn pipeline(&self, id: PipelineId) -> &str {
        self.pipelines.get(id.0).map_or("?", |(n, _)| n.as_str())
    }

    /// Name of a pipeline stage (`"?"` when out of range).
    #[must_use]
    pub fn stage(&self, pipe: PipelineId, stage: usize) -> &str {
        self.pipelines
            .get(pipe.0)
            .and_then(|(_, stages)| stages.get(stage))
            .map_or("?", String::as_str)
    }

    /// `"pipe.stage"` attribution key used by architecture profiles.
    #[must_use]
    pub fn stage_key(&self, pipe: PipelineId, stage: usize) -> String {
        format!("{}.{}", self.pipeline(pipe), self.stage(pipe, stage))
    }

    /// Human-readable description of an event (no cycle prefix).
    #[must_use]
    pub fn describe(&self, event: &TraceEvent) -> String {
        match *event {
            TraceEvent::Fetch { pc, word, .. } => format!("fetch pc={pc} word={word:#x}"),
            TraceEvent::Decode { pc, word, op, cache_hit, .. } => {
                let hit = if cache_hit { " (cached)" } else { "" };
                format!("decode pc={pc} word={word:#x} -> {}{hit}", self.op(op))
            }
            TraceEvent::Exec { op, stage, .. } => match stage {
                Some((p, s)) => format!("exec {} @{}", self.op(op), self.stage_key(p, s as usize)),
                None => format!("exec {}", self.op(op)),
            },
            TraceEvent::Activation { from, to, delay, .. } => {
                format!("activate {} -> {} (delay {delay})", self.op(from), self.op(to))
            }
            TraceEvent::Stall { pipe, upto, .. } => {
                format!("stall {} upto {}", self.pipeline(pipe), self.stage(pipe, upto as usize))
            }
            TraceEvent::Flush { pipe, upto, discarded, .. } => match upto {
                Some(s) => format!(
                    "flush {} upto {} ({discarded} discarded)",
                    self.pipeline(pipe),
                    self.stage(pipe, s as usize)
                ),
                None => format!("flush {} ({discarded} discarded)", self.pipeline(pipe)),
            },
            TraceEvent::MemoryAccess { resource, addr, value, .. }
            | TraceEvent::RegisterWrite { resource, addr, value, .. } => {
                format!("write {}[{addr}] = {value}", self.resource(resource))
            }
            TraceEvent::Print { op, value, .. } => {
                format!("print {value} (from {})", self.op(op))
            }
            TraceEvent::ProbeHit { probe, resource, addr, value, .. } => {
                format!("probe #{probe} hit: {}[{addr}] = {value}", self.resource(resource))
            }
        }
    }

    /// The legacy one-line trace format: `[cycle] description`.
    #[must_use]
    pub fn line(&self, event: &TraceEvent) -> String {
        format!("[{}] {}", event.cycle(), self.describe(event))
    }

    /// One JSON object (a single line, no trailing newline) for an event.
    #[must_use]
    pub fn json(&self, event: &TraceEvent) -> String {
        let mut s = String::with_capacity(96);
        s.push('{');
        let _ = write!(s, "\"cycle\":{},\"kind\":\"{}\"", event.cycle(), event.kind().name());
        match *event {
            TraceEvent::Fetch { pc, word, .. } => {
                let _ = write!(s, ",\"pc\":{pc},\"word\":\"{word:#x}\"");
            }
            TraceEvent::Decode { pc, word, op, cache_hit, .. } => {
                let _ = write!(s, ",\"pc\":{pc},\"word\":\"{word:#x}\",\"op\":");
                json_string(&mut s, self.op(op));
                let _ = write!(s, ",\"cache_hit\":{cache_hit}");
            }
            TraceEvent::Exec { op, stage, pc, .. } => {
                s.push_str(",\"op\":");
                json_string(&mut s, self.op(op));
                let _ = write!(s, ",\"pc\":{pc}");
                if let Some((p, st)) = stage {
                    s.push_str(",\"pipe\":");
                    json_string(&mut s, self.pipeline(p));
                    s.push_str(",\"stage\":");
                    json_string(&mut s, self.stage(p, st as usize));
                }
            }
            TraceEvent::Activation { from, to, delay, .. } => {
                s.push_str(",\"from\":");
                json_string(&mut s, self.op(from));
                s.push_str(",\"to\":");
                json_string(&mut s, self.op(to));
                let _ = write!(s, ",\"delay\":{delay}");
            }
            TraceEvent::Stall { pipe, upto, .. } => {
                s.push_str(",\"pipe\":");
                json_string(&mut s, self.pipeline(pipe));
                s.push_str(",\"upto\":");
                json_string(&mut s, self.stage(pipe, upto as usize));
            }
            TraceEvent::Flush { pipe, upto, discarded, .. } => {
                s.push_str(",\"pipe\":");
                json_string(&mut s, self.pipeline(pipe));
                if let Some(st) = upto {
                    s.push_str(",\"upto\":");
                    json_string(&mut s, self.stage(pipe, st as usize));
                }
                let _ = write!(s, ",\"discarded\":{discarded}");
            }
            TraceEvent::MemoryAccess { resource, addr, value, .. }
            | TraceEvent::RegisterWrite { resource, addr, value, .. } => {
                s.push_str(",\"resource\":");
                json_string(&mut s, self.resource(resource));
                let _ = write!(s, ",\"addr\":{addr},\"value\":{value}");
            }
            TraceEvent::Print { op, value, .. } => {
                s.push_str(",\"op\":");
                json_string(&mut s, self.op(op));
                let _ = write!(s, ",\"value\":{value}");
            }
            TraceEvent::ProbeHit { probe, resource, addr, value, .. } => {
                let _ = write!(s, ",\"probe\":{probe},\"resource\":");
                json_string(&mut s, self.resource(resource));
                let _ = write!(s, ",\"addr\":{addr},\"value\":{value}");
            }
        }
        s.push('}');
        s
    }
}

/// Renders a slice of events as a JSON-lines document: one
/// [`NameTable::json`] object per line, trailing newline included when
/// non-empty.
#[must_use]
pub fn events_to_jsonl(names: &NameTable, events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&names.json(event));
        out.push('\n');
    }
    out
}

/// Appends `text` as a JSON string literal (quotes, backslashes and
/// control characters escaped — model names are identifiers, but the
/// exporter must never emit invalid JSON).
fn json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> NameTable {
        NameTable {
            ops: vec!["main".into(), "add".into()],
            resources: vec!["pc".into(), "R".into()],
            pipelines: vec![("pipe".into(), vec!["FE".into(), "EX".into()])],
        }
    }

    #[test]
    fn accessors_fall_back_on_unknown_ids() {
        let n = names();
        assert_eq!(n.op(OpId(1)), "add");
        assert_eq!(n.op(OpId(9)), "?");
        assert_eq!(n.resource(ResourceId(1)), "R");
        assert_eq!(n.stage(PipelineId(0), 1), "EX");
        assert_eq!(n.stage(PipelineId(0), 7), "?");
        assert_eq!(n.stage_key(PipelineId(0), 0), "pipe.FE");
    }

    #[test]
    fn legacy_line_format_is_preserved() {
        let n = names();
        let ev = TraceEvent::Exec { cycle: 3, op: OpId(0), stage: None, pc: 7 };
        assert_eq!(n.line(&ev), "[3] exec main");
        let wr = TraceEvent::RegisterWrite { cycle: 4, resource: ResourceId(1), addr: 2, value: 9 };
        assert_eq!(n.line(&wr), "[4] write R[2] = 9");
        let pr = TraceEvent::Print { cycle: 5, op: OpId(1), value: -2 };
        assert_eq!(n.line(&pr), "[5] print -2 (from add)");
    }

    #[test]
    fn json_lines_are_balanced_and_escaped() {
        let mut n = names();
        n.ops[0] = "we\"ird\\name".into();
        let ev = TraceEvent::Exec { cycle: 1, op: OpId(0), stage: Some((PipelineId(0), 1)), pc: 0 };
        let line = n.json(&ev);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"exec\""));
        assert!(line.contains("we\\\"ird\\\\name"));
        assert!(line.contains("\"stage\":\"EX\""));
        assert_eq!(events_to_jsonl(&n, &[ev, ev]), format!("{line}\n{line}\n"));
        assert_eq!(events_to_jsonl(&n, &[]), "");
    }

    #[test]
    fn event_accessors_expose_cycle_and_kind() {
        let ev = TraceEvent::Decode { cycle: 11, pc: 4, word: 0xff, op: OpId(1), cache_hit: true };
        assert_eq!(ev.cycle(), 11);
        assert_eq!(ev.kind(), TraceKind::Decode);
        assert_eq!(ev.kind().name(), "decode");
        let st = TraceEvent::Stall { cycle: 2, pipe: PipelineId(0), upto: 1 };
        assert_eq!(st.cycle(), 2);
        assert_eq!(st.kind(), TraceKind::Stall);
    }
}
