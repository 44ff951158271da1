//! Publishing simulator statistics and architecture profiles into a
//! `lisa-metrics` registry.
//!
//! The cycle path keeps accumulating into the plain-`u64` [`SimStats`]
//! counters and the profile's counts — no atomics, no branches added.
//! Metrics are published at *run boundaries* instead: [`publish_stats`]
//! adds one run's stats to the `lisa_sim_*` counters, and
//! [`publish_arch`] sets the `lisa_arch_*` gauges from a (merged)
//! profile.

use std::cell::RefCell;

use lisa_metrics::{Counter, Registry};

use crate::engine::SimMode;
use crate::profile::ArchProfile;
use crate::stats::SimStats;

/// Backend names accepted by [`SimMode`]'s parser.
const NAMES: &str = "interp|compiled|ops";

impl SimMode {
    /// The backend label used in exported metric series
    /// (`"interpretive"` / `"ops"`).
    #[must_use]
    pub fn metric_label(self) -> &'static str {
        match self {
            SimMode::Interpretive => "interpretive",
            _ => "ops",
        }
    }

    /// Parses a batch backend set: one backend name, or `"both"` /
    /// `"all"` for both backends.
    ///
    /// # Errors
    ///
    /// An `unknown mode` message listing the accepted names.
    pub fn parse_set(spec: &str) -> Result<&'static [SimMode], String> {
        match (spec, spec.parse()) {
            ("both" | "all", _) => Ok(&[SimMode::Interpretive, SimMode::Ops]),
            (_, Ok(SimMode::Interpretive)) => Ok(&[SimMode::Interpretive]),
            (_, Ok(_)) => Ok(&[SimMode::Ops]),
            (_, Err(_)) => Err(format!("unknown mode `{spec}` (expected {NAMES}|both|all)")),
        }
    }
}

impl std::str::FromStr for SimMode {
    type Err = String;

    /// Parses a backend name: `"interp"` / `"interpretive"`, or `"ops"` /
    /// `"compiled"` (the paper's name for ops).
    fn from_str(name: &str) -> Result<SimMode, String> {
        match name {
            "interp" | "interpretive" => Ok(SimMode::Interpretive),
            "ops" | "compiled" => Ok(SimMode::Ops),
            _ => Err(format!("unknown mode `{name}` (expected {NAMES})")),
        }
    }
}

/// The `lisa_sim_*` series labelled by backend alone, as (name, help),
/// in the order [`publish_stats`] adds to them.
const TOTALS: [(&str, &str); 7] = [
    ("lisa_sim_cycles_total", "Control steps executed."),
    ("lisa_sim_instructions_retired_total", "Decoded instructions fully executed."),
    ("lisa_sim_executed_ops_total", "Operation behaviors evaluated."),
    ("lisa_sim_decodes_total", "Instruction-decode requests (cache hits included)."),
    ("lisa_sim_decode_cache_hits_total", "Decode requests served from the ops-mode decode cache."),
    ("lisa_sim_activations_total", "Operation activations scheduled."),
    ("lisa_sim_flushes_total", "Pipeline flushes."),
];

thread_local! {
    /// [`TOTALS`] handles as (registry id, backend, counters) for the
    /// registry this thread last published into. A run-boundary publish
    /// is then seven atomic adds rather than seven registry lookups, each
    /// of which misses cache once the run in between evicted the registry.
    static TOTAL_HANDLES: RefCell<Vec<(u64, String, [Counter; 7])>> =
        const { RefCell::new(Vec::new()) };
}

/// Adds one [`SimStats`] worth of counts to `registry`, labelled with
/// the backend that produced them. Series names follow the Prometheus
/// conventions (`*_total` counters, base units).
pub fn publish_stats(registry: &Registry, stats: &SimStats, backend: &str) {
    let totals = [
        stats.cycles,
        stats.instructions_retired,
        stats.executed_ops,
        stats.decodes,
        stats.decode_cache_hits,
        stats.activations,
        stats.flushes,
    ];
    TOTAL_HANDLES.with_borrow_mut(|handles| {
        handles.retain(|(id, _, _)| *id == registry.id());
        let i = handles.iter().position(|(_, b, _)| b == backend).unwrap_or_else(|| {
            let labels: &[(&str, &str)] = &[("backend", backend)];
            let counters = TOTALS.map(|(name, help)| registry.counter(name, help, labels));
            handles.push((registry.id(), backend.to_owned(), counters));
            handles.len() - 1
        });
        for (counter, n) in handles[i].2.iter().zip(totals) {
            counter.add(n);
        }
    });
    // Stalls carry a second `stage` label so stage-pressure shows up in
    // the exposition without widening SimStats itself.
    for (stage, &count) in stats.stall_by_stage.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let stage_text = stage.to_string();
        registry
            .counter(
                "lisa_sim_stalls_total",
                "Pipeline stall requests by requested hold stage.",
                &[("backend", backend), ("stage", &stage_text)],
            )
            .add(count);
    }
}

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
    use lisa_metrics::{MetricKey, MetricValue};

    #[test]
    fn mode_names_parse_to_two_backends() {
        use SimMode::{Interpretive, Ops};
        // (name, as one backend, as a backend set); `None` = rejected.
        type Case = (&'static str, Option<SimMode>, Option<&'static [SimMode]>);
        let cases: [Case; 9] = [
            ("interp", Some(Interpretive), Some(&[Interpretive])),
            ("interpretive", Some(Interpretive), Some(&[Interpretive])),
            ("ops", Some(Ops), Some(&[Ops])),
            ("compiled", Some(Ops), Some(&[Ops])),
            ("both", None, Some(&[Interpretive, Ops])),
            ("all", None, Some(&[Interpretive, Ops])),
            ("sideways", None, None),
            ("", None, None),
            ("Ops", None, None),
        ];
        for (name, one, set) in cases {
            assert_eq!(name.parse::<SimMode>().ok(), one, "single `{name}`");
            assert_eq!(SimMode::parse_set(name).ok(), set, "set `{name}`");
        }
        let err = "sideways".parse::<SimMode>().unwrap_err();
        assert!(err.contains("unknown mode `sideways`") && err.contains("interp|compiled|ops"));
        let err = SimMode::parse_set("sideways").unwrap_err();
        assert!(err.contains("interp|compiled|ops|both|all"), "{err}");
    }

    #[test]
    fn publish_stats_labels_backend_and_stage() {
        let reg = Registry::new();
        let mut stats = SimStats { cycles: 100, stalls: 5, ..SimStats::default() };
        stats.stall_by_stage[1] = 5;
        publish_stats(&reg, &stats, "ops");
        publish_stats(&reg, &stats, "interpretive");
        let snap = reg.snapshot();
        assert_eq!(
            snap.metrics.get(&MetricKey::new("lisa_sim_cycles_total", &[("backend", "ops")])),
            Some(&MetricValue::Counter(100))
        );
        assert_eq!(
            snap.metrics.get(&MetricKey::new(
                "lisa_sim_stalls_total",
                &[("backend", "interpretive"), ("stage", "1")]
            )),
            Some(&MetricValue::Counter(5))
        );
    }

    #[test]
    fn publish_stats_lands_in_the_registry_it_is_given() {
        // Handles are cached per thread, keyed by registry: switching
        // back and forth, or a registry built after another is dropped,
        // must still count every publish in its own registry.
        let stats = SimStats { cycles: 7, ..SimStats::default() };
        let key = MetricKey::new("lisa_sim_cycles_total", &[("backend", "ops")]);
        let cycles = |reg: &Registry| reg.snapshot().metrics.get(&key).cloned();
        let (a, b) = (Registry::new(), Registry::new());
        for reg in [&a, &b, &a] {
            publish_stats(reg, &stats, "ops");
        }
        assert_eq!(cycles(&a), Some(MetricValue::Counter(14)));
        assert_eq!(cycles(&b), Some(MetricValue::Counter(7)));
        drop((a, b));
        let fresh = Registry::new();
        publish_stats(&fresh, &stats, "ops");
        assert_eq!(cycles(&fresh), Some(MetricValue::Counter(7)));
    }

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
