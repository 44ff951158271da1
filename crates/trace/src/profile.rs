//! Per-instruction execution profiles aggregated from trace events.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{NameTable, TraceEvent};

/// Occupancy / stall / flush attribution for one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Control steps in which an operation executed in this stage.
    pub occupied: u64,
    /// Stall requests that held this stage.
    pub stalls: u64,
    /// Flushes that covered this stage.
    pub flushes: u64,
}

impl StageStat {
    fn add(&mut self, other: &StageStat) {
        self.occupied += other.occupied;
        self.stalls += other.stalls;
        self.flushes += other.flushes;
    }
}

/// An execution profile: name-keyed aggregates over a run (or over many
/// merged runs).
///
/// All counters are *additive*: [`Profile::merge`] is associative with
/// [`Profile::default`] as identity, and profiling a concatenation of
/// event streams equals merging the per-stream profiles — the property
/// that lets a batch runner fold per-job profiles into fleet statistics
/// without re-processing events.
///
/// Keys are names (not model ids) so profiles from *different* models
/// merge meaningfully in heterogeneous batches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Control steps covered (set by the producer, e.g. from simulator
    /// statistics; event streams do not carry a reliable total).
    pub cycles: u64,
    /// Instructions decoded/dispatched ([`TraceEvent::Decode`] events).
    pub instructions: u64,
    /// Decode requests served from the ops-mode decode cache.
    pub decode_cache_hits: u64,
    /// Activations scheduled.
    pub activations: u64,
    /// Writes to register-class resources.
    pub register_writes: u64,
    /// Writes to memory-class resources.
    pub memory_writes: u64,
    /// Behavior executions per operation name.
    pub op_execs: BTreeMap<String, u64>,
    /// Instruction dispatches per program-counter value.
    pub hot_pcs: BTreeMap<i64, u64>,
    /// Per-stage attribution, keyed `"pipeline.stage"`.
    pub stages: BTreeMap<String, StageStat>,
}

impl Profile {
    /// An empty profile (the merge identity).
    #[must_use]
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Profile::default()
    }

    /// Folds one event into the profile, resolving names through
    /// `names`.
    pub fn record(&mut self, names: &NameTable, event: &TraceEvent) {
        match *event {
            TraceEvent::Fetch { .. } => {}
            TraceEvent::Decode { pc, cache_hit, .. } => {
                self.instructions += 1;
                if cache_hit {
                    self.decode_cache_hits += 1;
                }
                *self.hot_pcs.entry(pc).or_insert(0) += 1;
            }
            TraceEvent::Exec { op, stage, .. } => {
                bump(&mut self.op_execs, names.op(op));
                if let Some((pipe, s)) = stage {
                    self.stage_mut(&names.stage_key(pipe, s as usize)).occupied += 1;
                }
            }
            TraceEvent::Activation { .. } => self.activations += 1,
            TraceEvent::Stall { pipe, upto, .. } => {
                for s in 0..=usize::from(upto) {
                    self.stage_mut(&names.stage_key(pipe, s)).stalls += 1;
                }
            }
            TraceEvent::Flush { pipe, upto, .. } => {
                let depth = names.pipelines.get(pipe.0).map_or(0, |(_, s)| s.len());
                let last = upto.map_or(depth.saturating_sub(1), usize::from);
                for s in 0..=last.min(depth.saturating_sub(1)) {
                    self.stage_mut(&names.stage_key(pipe, s)).flushes += 1;
                }
            }
            TraceEvent::MemoryAccess { .. } => self.memory_writes += 1,
            TraceEvent::RegisterWrite { .. } => self.register_writes += 1,
            TraceEvent::Print { .. } => {}
            // Probe hits are architectural observations, not simulator
            // work — they are aggregated by `lisa-probe`'s ArchProfile.
            TraceEvent::ProbeHit { .. } => {}
        }
    }

    /// Builds a profile from a finished event stream. `cycles` is left
    /// at zero — set it from simulator statistics if known.
    #[must_use]
    pub fn from_events(names: &NameTable, events: &[TraceEvent]) -> Profile {
        let mut profile = Profile::new();
        for event in events {
            profile.record(names, event);
        }
        profile
    }

    /// Adds another profile's counters into this one. Associative, with
    /// [`Profile::default`] as identity.
    pub fn merge(&mut self, other: &Profile) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.decode_cache_hits += other.decode_cache_hits;
        self.activations += other.activations;
        self.register_writes += other.register_writes;
        self.memory_writes += other.memory_writes;
        for (name, count) in &other.op_execs {
            *self.op_execs.entry(name.clone()).or_insert(0) += count;
        }
        for (pc, count) in &other.hot_pcs {
            *self.hot_pcs.entry(*pc).or_insert(0) += count;
        }
        for (key, stat) in &other.stages {
            self.stages.entry(key.clone()).or_default().add(stat);
        }
    }

    /// The `n` most-executed operations, descending (ties broken by
    /// name, so the ordering is deterministic).
    #[must_use]
    pub fn top_ops(&self, n: usize) -> Vec<(&str, u64)> {
        let mut rows: Vec<(&str, u64)> =
            self.op_execs.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }

    /// The `n` hottest program counters, descending by dispatch count.
    #[must_use]
    pub fn hottest_pcs(&self, n: usize) -> Vec<(i64, u64)> {
        let mut rows: Vec<(i64, u64)> = self.hot_pcs.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Instructions per control step (0.0 when no cycles recorded).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// A plain-text profile report: headline counters, the
    /// per-operation execution histogram, the hot-PC table, and
    /// per-stage occupancy / stall / flush attribution.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} cycles, {} instructions ({:.2} instr/cycle), {} activations",
            self.cycles,
            self.instructions,
            self.ipc(),
            self.activations,
        );
        let _ = writeln!(
            out,
            "writes: {} register, {} memory; decode cache hits: {}",
            self.register_writes, self.memory_writes, self.decode_cache_hits
        );

        let top = self.top_ops(usize::MAX);
        if !top.is_empty() {
            let _ = writeln!(out, "\nper-operation execution histogram:");
            let max = top.first().map_or(1, |r| r.1.max(1));
            let name_w = top.iter().map(|r| r.0.len()).max().unwrap_or(4).max(4);
            for (name, count) in &top {
                let bar = "#".repeat(((count * 40).div_ceil(max)) as usize);
                let _ = writeln!(out, "  {name:<name_w$} {count:>10}  {bar}");
            }
        }

        let hot = self.hottest_pcs(10);
        if !hot.is_empty() {
            let _ = writeln!(out, "\nhot PCs (top {}):", hot.len());
            for (pc, count) in &hot {
                let _ = writeln!(out, "  pc {pc:>6}  {count:>10}");
            }
        }

        if !self.stages.is_empty() {
            let key_w = self.stages.keys().map(String::len).max().unwrap_or(5).max(5);
            let _ = writeln!(
                out,
                "\n{:<key_w$} {:>10} {:>8} {:>8}",
                "stage", "occupied", "stalls", "flushes"
            );
            for (key, stat) in &self.stages {
                let _ = writeln!(
                    out,
                    "{:<key_w$} {:>10} {:>8} {:>8}",
                    key, stat.occupied, stat.stalls, stat.flushes
                );
            }
        }
        out
    }
}

fn bump(map: &mut BTreeMap<String, u64>, key: &str) {
    // Avoid allocating the key on the hot path once it exists.
    match map.get_mut(key) {
        Some(count) => *count += 1,
        None => {
            map.insert(key.to_owned(), 1);
        }
    }
}

impl Profile {
    fn stage_mut(&mut self, key: &str) -> &mut StageStat {
        if !self.stages.contains_key(key) {
            self.stages.insert(key.to_owned(), StageStat::default());
        }
        self.stages.get_mut(key).expect("just inserted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_core::model::{OpId, PipelineId, ResourceId};

    fn names() -> NameTable {
        NameTable {
            ops: vec!["main".into(), "add".into()],
            resources: vec!["pc".into(), "R".into()],
            pipelines: vec![("pipe".into(), vec!["FE".into(), "EX".into()])],
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Decode { cycle: 0, pc: 0, word: 1, op: OpId(1), cache_hit: false },
            TraceEvent::Exec { cycle: 0, op: OpId(0), stage: None, pc: 0 },
            TraceEvent::Exec { cycle: 0, op: OpId(1), stage: Some((PipelineId(0), 1)), pc: 0 },
            TraceEvent::Activation { cycle: 0, from: OpId(0), to: OpId(1), delay: 1 },
            TraceEvent::Stall { cycle: 1, pipe: PipelineId(0), upto: 1 },
            TraceEvent::Flush { cycle: 2, pipe: PipelineId(0), upto: None, discarded: 1 },
            TraceEvent::RegisterWrite { cycle: 2, resource: ResourceId(1), addr: 3, value: 9 },
            TraceEvent::MemoryAccess { cycle: 2, resource: ResourceId(1), addr: 0, value: 1 },
            TraceEvent::Decode { cycle: 3, pc: 1, word: 2, op: OpId(1), cache_hit: true },
            TraceEvent::Decode { cycle: 4, pc: 1, word: 2, op: OpId(1), cache_hit: true },
        ]
    }

    #[test]
    fn records_every_dimension() {
        let n = names();
        let p = Profile::from_events(&n, &sample_events());
        assert_eq!(p.instructions, 3);
        assert_eq!(p.decode_cache_hits, 2);
        assert_eq!(p.activations, 1);
        assert_eq!(p.register_writes, 1);
        assert_eq!(p.memory_writes, 1);
        assert_eq!(p.op_execs["main"], 1);
        assert_eq!(p.op_execs["add"], 1);
        assert_eq!(p.hot_pcs[&1], 2);
        assert_eq!(p.stages["pipe.EX"].occupied, 1);
        // The stall up to EX held both FE and EX.
        assert_eq!(p.stages["pipe.FE"].stalls, 1);
        assert_eq!(p.stages["pipe.EX"].stalls, 1);
        // A whole-pipeline flush covers every stage.
        assert_eq!(p.stages["pipe.FE"].flushes, 1);
        assert_eq!(p.stages["pipe.EX"].flushes, 1);
    }

    #[test]
    fn merge_equals_profiling_the_concatenation() {
        let n = names();
        let events = sample_events();
        let (a, b) = events.split_at(4);
        let mut merged = Profile::from_events(&n, a);
        merged.merge(&Profile::from_events(&n, b));
        assert_eq!(merged, Profile::from_events(&n, &events));
    }

    #[test]
    fn default_is_the_merge_identity() {
        let n = names();
        let p = Profile::from_events(&n, &sample_events());
        let mut left = Profile::new();
        left.merge(&p);
        assert_eq!(left, p);
        let mut right = p.clone();
        right.merge(&Profile::default());
        assert_eq!(right, p);
        assert!(Profile::new().is_empty());
        assert!(!p.is_empty());
    }

    #[test]
    fn top_tables_are_sorted_and_deterministic() {
        let n = names();
        let mut p = Profile::from_events(&n, &sample_events());
        p.cycles = 5;
        let top = p.top_ops(10);
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1);
        assert_eq!(p.hottest_pcs(1), vec![(1, 2)]);
        assert!((p.ipc() - 3.0 / 5.0).abs() < 1e-12);
        let report = p.report();
        assert!(report.contains("per-operation execution histogram"));
        assert!(report.contains("hot PCs"));
        assert!(report.contains("pipe.FE"));
    }
}
