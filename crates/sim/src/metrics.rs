//! Publishing simulator statistics into a `lisa-metrics` registry.
//!
//! The cycle path keeps accumulating into the plain-`u64` [`SimStats`]
//! counters it always had — no atomics, no branches added. Metrics are
//! published at *run boundaries* instead: [`Simulator::publish_metrics`]
//! diffs the current stats against the last published baseline and adds
//! only the delta, so calling it after every `run`/`run_until` keeps a
//! registry current at effectively zero per-cycle cost, and calling it
//! twice in a row is a no-op.

use std::cell::RefCell;

use lisa_metrics::{Counter, Registry};

use crate::engine::{SimMode, Simulator};
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

impl SimStats {
    /// Per-field difference `self - baseline` (saturating, so a
    /// snapshot-restore that rewinds the counters publishes zero rather
    /// than wrapping).
    #[must_use]
    pub fn delta_since(&self, baseline: &SimStats) -> SimStats {
        let mut out = SimStats {
            cycles: self.cycles.saturating_sub(baseline.cycles),
            executed_ops: self.executed_ops.saturating_sub(baseline.executed_ops),
            decodes: self.decodes.saturating_sub(baseline.decodes),
            decode_cache_hits: self.decode_cache_hits.saturating_sub(baseline.decode_cache_hits),
            activations: self.activations.saturating_sub(baseline.activations),
            stalls: self.stalls.saturating_sub(baseline.stalls),
            flushes: self.flushes.saturating_sub(baseline.flushes),
            instructions_retired: self
                .instructions_retired
                .saturating_sub(baseline.instructions_retired),
            ..SimStats::default()
        };
        for (i, slot) in out.stall_by_stage.iter_mut().enumerate() {
            *slot = self.stall_by_stage[i].saturating_sub(baseline.stall_by_stage[i]);
        }
        out
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

impl Simulator<'_> {
    /// Publishes the statistics accumulated since the last call (or
    /// since construction) into `registry`, labelled with this
    /// simulator's backend.
    ///
    /// Call this at run boundaries; the per-cycle path is untouched, so
    /// metrics stay "always on" without measurable overhead.
    pub fn publish_metrics(&mut self, registry: &Registry) {
        let delta = self.stats.delta_since(&self.metrics_published);
        publish_stats(registry, &delta, self.mode.metric_label());
        self.metrics_published = self.stats;
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
    fn delta_since_is_per_field_and_saturating() {
        let mut now = SimStats { cycles: 10, stalls: 4, ..SimStats::default() };
        now.stall_by_stage[2] = 4;
        let mut base = SimStats { cycles: 3, stalls: 1, ..SimStats::default() };
        base.stall_by_stage[2] = 1;
        let d = now.delta_since(&base);
        assert_eq!(d.cycles, 7);
        assert_eq!(d.stalls, 3);
        assert_eq!(d.stall_by_stage[2], 3);
        // Rewound baseline (snapshot restore) publishes zero, not a wrap.
        assert_eq!(base.delta_since(&now).cycles, 0);
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
}
