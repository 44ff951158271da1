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
mod snapshot;
mod state;
mod stats;

pub use engine::{ArchCounts, RunOutcome, SimMode, Simulator, StopReason};
pub use error::SimError;
pub use metrics::publish_stats;
// Re-exported so simulator users can drive probes/arch-profiling without
// a separate `lisa-probe` dependency.
pub use lisa_probe::{publish_arch, ArchProfile, Heatmap, ProbeError, ProbeSet, ProbeSpec};
// Re-exported so simulator users can drive tracing without a separate
// `lisa-trace` dependency.
pub use lisa_trace::{events_to_jsonl, write_vcd, NameTable, TraceEvent, TraceKind};
pub use snapshot::Snapshot;
pub use state::State;
pub use stats::{SimStats, STALL_STAGE_BUCKETS};
