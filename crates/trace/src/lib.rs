//! Structured observability for LISA simulators.
//!
//! The paper's whole value proposition is *cycle-accurate visibility*
//! into pipelined machines: its generated simulators let architects see
//! stalls, flushes and operation timing per control step (§3.4–3.5).
//! This crate is the reproduction's observability layer:
//!
//! * [`TraceEvent`] — a typed event stream (fetch, decode, exec,
//!   activation, stall, flush, memory access, register write) with the
//!   cycle, stage, program counter and operation identity attached. A
//!   traced simulator records them, in order, into one buffer
//!   (`Simulator::set_trace`) that its caller drains;
//! * exporters — [`events_to_jsonl`] for machine-readable traces and
//!   [`write_vcd`] for a pipeline-timeline dump loadable in waveform
//!   viewers.
//!
//! Events carry raw model ids ([`lisa_core::model::OpId`] etc.); a
//! [`NameTable`] — an owned snapshot of a model's name space — renders
//! them for humans and for the exporters, so events stay `Copy` and
//! cheap to record on the simulator's cycle path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod vcd;

pub use event::{events_to_jsonl, NameTable, TraceEvent, TraceKind};
pub use vcd::write_vcd;
