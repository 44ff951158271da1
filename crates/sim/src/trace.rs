//! Typed trace events and the name table that renders them.
//!
//! A traced simulator ([`Simulator::set_trace`]) records what the
//! simulated machine did, cycle by cycle, as [`TraceEvent`]s in one
//! ordered buffer its caller drains: fetch, decode, exec, activation,
//! stall, flush, memory and register writes, prints and probe hits, each
//! with its cycle, stage, program counter and operation attached. Events
//! carry raw model ids ([`OpId`] etc.), so they stay `Copy` and cheap to
//! record on the cycle path; a [`NameTable`], an owned snapshot of a
//! model's name space, renders them for humans and for the exporters:
//! [`events_to_jsonl`] for machine-readable traces and
//! [`write_vcd`](crate::write_vcd) for a pipeline timeline.
//!
//! [`Simulator::set_trace`]: crate::Simulator::set_trace

use std::fmt::Write as _;

use lisa_core::model::{Model, OpId, PipelineId, ResourceId};
use lisa_metrics::json::escape;

use crate::profile::stage_key;

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
        stage_key(self.pipeline(pipe), self.stage(pipe, stage))
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

    /// One JSON object (a single line, no trailing newline) for an event:
    /// its cycle, a lowercase `kind` naming the variant, then the
    /// variant's fields with ids rendered as (escaped) names.
    #[must_use]
    pub fn json(&self, event: &TraceEvent) -> String {
        let mut s = String::with_capacity(96);
        // Writing into a `String` cannot fail.
        let _ = self.write_json(&mut s, event);
        s
    }

    fn write_json(&self, s: &mut String, event: &TraceEvent) -> std::fmt::Result {
        write!(s, "{{\"cycle\":{},\"kind\":", event.cycle())?;
        match *event {
            TraceEvent::Fetch { pc, word, .. } => {
                write!(s, "\"fetch\",\"pc\":{pc},\"word\":\"{word:#x}\"")?;
            }
            TraceEvent::Decode { pc, word, op, cache_hit, .. } => {
                write!(s, "\"decode\",\"pc\":{pc},\"word\":\"{word:#x}\"")?;
                write!(s, ",\"op\":{},\"cache_hit\":{cache_hit}", escape(self.op(op)))?;
            }
            TraceEvent::Exec { op, stage, pc, .. } => {
                write!(s, "\"exec\",\"op\":{},\"pc\":{pc}", escape(self.op(op)))?;
                if let Some((p, st)) = stage {
                    let (pipe, stage) =
                        (escape(self.pipeline(p)), escape(self.stage(p, st.into())));
                    write!(s, ",\"pipe\":{pipe},\"stage\":{stage}")?;
                }
            }
            TraceEvent::Activation { from, to, delay, .. } => {
                let (from, to) = (escape(self.op(from)), escape(self.op(to)));
                write!(s, "\"activation\",\"from\":{from},\"to\":{to},\"delay\":{delay}")?;
            }
            TraceEvent::Stall { pipe, upto, .. } => {
                let (upto, pipe) =
                    (escape(self.stage(pipe, upto.into())), escape(self.pipeline(pipe)));
                write!(s, "\"stall\",\"pipe\":{pipe},\"upto\":{upto}")?;
            }
            TraceEvent::Flush { pipe, upto, discarded, .. } => {
                write!(s, "\"flush\",\"pipe\":{}", escape(self.pipeline(pipe)))?;
                if let Some(st) = upto {
                    write!(s, ",\"upto\":{}", escape(self.stage(pipe, st.into())))?;
                }
                write!(s, ",\"discarded\":{discarded}")?;
            }
            TraceEvent::MemoryAccess { resource, addr, value, .. } => {
                write!(s, "\"memory_access\",\"resource\":{}", escape(self.resource(resource)))?;
                write!(s, ",\"addr\":{addr},\"value\":{value}")?;
            }
            TraceEvent::RegisterWrite { resource, addr, value, .. } => {
                write!(s, "\"register_write\",\"resource\":{}", escape(self.resource(resource)))?;
                write!(s, ",\"addr\":{addr},\"value\":{value}")?;
            }
            TraceEvent::Print { op, value, .. } => {
                write!(s, "\"print\",\"op\":{},\"value\":{value}", escape(self.op(op)))?;
            }
            TraceEvent::ProbeHit { probe, resource, addr, value, .. } => {
                write!(s, "\"probe\",\"probe\":{probe},\"resource\":")?;
                write!(s, "{},\"addr\":{addr},\"value\":{value}", escape(self.resource(resource)))?;
            }
        }
        s.write_char('}')
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
    fn events_expose_their_cycle() {
        let ev = TraceEvent::Decode { cycle: 11, pc: 4, word: 0xff, op: OpId(1), cache_hit: true };
        assert_eq!(ev.cycle(), 11);
        let st = TraceEvent::Stall { cycle: 2, pipe: PipelineId(0), upto: 1 };
        assert_eq!(st.cycle(), 2);
    }
}
