//! Architectural observability for LISA simulators.
//!
//! The paper's central claim is that one machine description generates
//! the *whole* development tool suite — not just a cycle-accurate
//! simulator but the debugger and profiler views a DSP developer needs
//! to see inside the pipeline. This crate is that fourth observability
//! layer (after trace events, metrics and spans): it observes the
//! **simulated architecture** rather than the simulator runtime.
//!
//! Three pieces:
//!
//! * [`ProbeSpec`] — a tiny debugger language (`watch MEM[0..64]`,
//!   `break 0x12`, `trace 7`, `reg ACC`) parsed from text and
//!   [compiled](ProbeSpec::compile) against a model into a [`ProbeSet`]
//!   of pre-resolved flat storage indices, so the hot loop never
//!   touches a name.
//! * [`ArchProfile`] — the one mergeable execution profile: IPC and hot
//!   PCs, per-stage occupancy, stalls and flushes, per-operation
//!   execution and activation utilization, and bucketed memory
//!   read/write [`Heatmap`]s. Merge is associative and commutative with
//!   the empty profile as identity, so per-run profiles fold into
//!   batch- or service-level views in any order.
//! * [`ProbeRuntime`] — the per-simulator probe matcher: the simulator
//!   hands it the writes a probe names, and it emits
//!   `TraceEvent::ProbeHit` records for matched probes, counts hits and
//!   latches breakpoint stops. It counts nothing else: every counter of
//!   the profile lives in the simulator, in one id-indexed home both
//!   backends bump, and the simulator folds them (with the runtime's
//!   hit counts) into an [`ArchProfile`] by name.
//!
//! The conformance harness asserts that probe hit streams and
//! `ArchProfile` contents are identical across the interpretive and the
//! translated micro-op backend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod heatmap;
mod runtime;
mod spec;

pub use arch::ArchProfile;
pub use heatmap::Heatmap;
pub use runtime::ProbeRuntime;
pub use spec::{Probe, ProbeError, ProbeSet, ProbeSpec};

use lisa_metrics::Registry;

/// Publishes a profile's utilization aggregates as gauges into a
/// metrics registry: `lisa_arch_stage_busy` (per stage),
/// `lisa_arch_op_execs` (per operation), `lisa_arch_unit_activations`
/// (per activation target), `lisa_arch_memory_reads` /
/// `lisa_arch_memory_writes` (per memory), and `lisa_arch_probe_hits`.
///
/// Values are cumulative counts from the (merged) profile; publishing
/// again overwrites with the latest aggregate.
pub fn publish_arch(registry: &Registry, profile: &ArchProfile) {
    registry
        .gauge("lisa_arch_cycles", "Control steps covered by the merged architecture profile", &[])
        .set(profile.cycles.min(i64::MAX as u64) as i64);
    registry
        .gauge("lisa_arch_probe_hits", "Probe hits recorded in the merged profile", &[])
        .set(profile.probe_hits().min(i64::MAX as u64) as i64);
    for (stage, busy) in &profile.stage_busy {
        registry
            .gauge(
                "lisa_arch_stage_busy",
                "Control steps in which the pipeline stage executed an operation",
                &[("stage", stage)],
            )
            .set((*busy).min(i64::MAX as u64) as i64);
    }
    for (op, execs) in &profile.op_execs {
        registry
            .gauge("lisa_arch_op_execs", "Behavior executions per operation", &[("op", op)])
            .set((*execs).min(i64::MAX as u64) as i64);
    }
    for (unit, n) in &profile.unit_activations {
        registry
            .gauge(
                "lisa_arch_unit_activations",
                "Activations scheduled per target operation (functional unit)",
                &[("unit", unit)],
            )
            .set((*n).min(i64::MAX as u64) as i64);
    }
    for (mem, heat) in &profile.read_heat {
        registry
            .gauge("lisa_arch_memory_reads", "Reads per memory resource", &[("memory", mem)])
            .set(heat.total().min(i64::MAX as u64) as i64);
    }
    for (mem, heat) in &profile.write_heat {
        registry
            .gauge("lisa_arch_memory_writes", "Writes per memory resource", &[("memory", mem)])
            .set(heat.total().min(i64::MAX as u64) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_exposes_utilization_gauges() {
        let mut p = ArchProfile::new();
        p.cycles = 10;
        p.stage_busy.insert("pipe.EX".into(), 7);
        p.op_execs.insert("add".into(), 3);
        p.unit_activations.insert("mac".into(), 2);
        let registry = Registry::new();
        publish_arch(&registry, &p);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("lisa_arch_cycles 10"));
        assert!(text.contains("lisa_arch_stage_busy{stage=\"pipe.EX\"} 7"));
        assert!(text.contains("lisa_arch_op_execs{op=\"add\"} 3"));
        assert!(text.contains("lisa_arch_unit_activations{unit=\"mac\"} 2"));
    }
}
