//! Cycle-accurate simulators generated from LISA model databases.
//!
//! This crate implements the simulation side of the paper's retargetable
//! tool environment: a **generic pipeline model** with operation
//! assignment to stages, activation with spatial-distance timing, and the
//! pipeline control operations *stall*, *flush* and *shift* (paper
//! §3.2.3); plus the two execution techniques the paper contrasts:
//!
//! * **interpretive simulation** — instruction words are decoded every
//!   time they execute and behaviors are evaluated directly on the AST;
//! * **compiled simulation** (§3.3, [`SimMode::Ops`]) — decoding moves
//!   to translate time and every decoded instruction is translated into
//!   flat micro-op code. The paper reports "speed-ups of more than two
//!   orders of magnitude" for this technique; experiments E3/E15 of the
//!   reproduction measure the same contrast. `lisa-conform`'s lockstep
//!   oracle holds it to the interpretive reference cycle by cycle.
//!
//! Simulator generation happens once per model: the first ops
//! [`Simulator`] on a [`lisa_core::Model`] lowers its behaviors and
//! translates every operation's default-variant routine into an
//! immutable image kept with the model. Every later ops simulator on
//! that model, on any thread, shares the image; a simulator holds only
//! run state plus the instance routines its own program binds.
//!
//! A simulator also makes the pipeline visible, at the same event
//! points in both backends: an ordered [`TraceEvent`] stream with JSONL
//! and VCD exporters, [`ProbeSpec`] watchpoints, breakpoints and
//! tracepoints, and the mergeable [`ArchProfile`] (IPC, hot PCs, stage
//! occupancy, stalls and flushes, unit utilization, memory heatmaps).
//! [`publish_stats`] and [`publish_arch`] export the counts into a
//! metrics registry.
//!
//! See [`Simulator`] for the entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod eval;
mod fasthash;
mod lower;
mod metrics;
mod ops;
mod probe;
mod profile;
mod snapshot;
mod state;
mod stats;
mod trace;
mod vcd;

pub use engine::{RunOutcome, SimMode, Simulator, StopReason};
pub use error::SimError;
pub use metrics::{publish_arch, publish_stats};
pub use probe::{Probe, ProbeError, ProbeSet, ProbeSpec};
pub use profile::{ArchCounts, ArchProfile, Heatmap};
pub use snapshot::Snapshot;
pub use state::State;
pub use stats::{SimStats, STALL_STAGE_BUCKETS};
pub use trace::{events_to_jsonl, NameTable, TraceEvent};
pub use vcd::write_vcd;
