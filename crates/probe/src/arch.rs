//! The mergeable architecture profile.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use lisa_metrics::json::escape;

use crate::heatmap::Heatmap;

/// Aggregated architectural activity over some number of control steps:
/// instructions and hot program counters, per-pipeline-stage occupancy,
/// stalls and flushes, per-operation execution and activation
/// (functional-unit utilization) counts, register writes, bucketed
/// memory read/write heatmaps, and per-probe hit counts.
///
/// The profile is an *aggregate*: merging profiles from different runs
/// (or service requests) is associative and commutative with
/// [`ArchProfile::default`] as identity, and profiling a concatenation
/// of event streams equals merging the per-stream profiles, so per-run
/// profiles fold into batch- or service-level views in any order. Keys are names,
/// not model ids, so profiles of different models merge meaningfully.
/// All maps are ordered, so two profiles of identical activity compare
/// equal — the property the conformance harness uses to assert backend
/// independence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArchProfile {
    /// Control steps covered.
    pub cycles: u64,
    /// Instructions decoded/dispatched (`TraceEvent::Decode` events).
    pub instructions: u64,
    /// Writes to register-class resources.
    pub register_writes: u64,
    /// Instruction dispatches per program-counter value (inside the
    /// model's program memory).
    pub hot_pcs: BTreeMap<i64, u64>,
    /// Operation executions per `"pipeline.stage"` key.
    pub stage_busy: BTreeMap<String, u64>,
    /// Stall requests that held each `"pipeline.stage"`.
    pub stage_stalls: BTreeMap<String, u64>,
    /// Flushes that covered each `"pipeline.stage"`.
    pub stage_flushes: BTreeMap<String, u64>,
    /// Behavior executions per operation.
    pub op_execs: BTreeMap<String, u64>,
    /// Activations scheduled per *target* operation — in a LISA model
    /// the activated operation stands for the functional unit it
    /// occupies, so this is unit utilization.
    pub unit_activations: BTreeMap<String, u64>,
    /// Read heatmap per memory-class resource.
    pub read_heat: BTreeMap<String, Heatmap>,
    /// Write heatmap per memory-class resource.
    pub write_heat: BTreeMap<String, Heatmap>,
    /// Hits per probe label.
    pub hits: BTreeMap<String, u64>,
}

fn merge_counts<K: Ord + Clone>(into: &mut BTreeMap<K, u64>, from: &BTreeMap<K, u64>) {
    for (key, n) in from {
        match into.get_mut(key) {
            Some(slot) => *slot += n,
            None => {
                into.insert(key.clone(), *n);
            }
        }
    }
}

/// `map`'s entries by descending count, ties by key.
fn ranked<K: Ord>(map: &BTreeMap<K, u64>) -> Vec<(&K, u64)> {
    let mut rows: Vec<(&K, u64)> = map.iter().map(|(k, n)| (k, *n)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    rows
}

impl ArchProfile {
    /// An empty profile (the merge identity).
    #[must_use]
    pub fn new() -> ArchProfile {
        ArchProfile::default()
    }

    /// Total probe hits across all probes.
    #[must_use]
    pub fn probe_hits(&self) -> u64 {
        self.hits.values().sum()
    }

    /// Writes to memory-class resources (every one has a write heatmap).
    #[must_use]
    pub fn memory_writes(&self) -> u64 {
        self.write_heat.values().map(Heatmap::total).sum()
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

    /// Whether the profile recorded nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == ArchProfile::default()
    }

    /// Adds another profile's counts into this one. Associative and
    /// commutative; [`ArchProfile::default`] is the identity.
    pub fn merge(&mut self, other: &ArchProfile) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.register_writes += other.register_writes;
        merge_counts(&mut self.hot_pcs, &other.hot_pcs);
        merge_counts(&mut self.stage_busy, &other.stage_busy);
        merge_counts(&mut self.stage_stalls, &other.stage_stalls);
        merge_counts(&mut self.stage_flushes, &other.stage_flushes);
        merge_counts(&mut self.op_execs, &other.op_execs);
        merge_counts(&mut self.unit_activations, &other.unit_activations);
        merge_counts(&mut self.hits, &other.hits);
        for (mem, heat) in &other.read_heat {
            self.read_heat.entry(mem.clone()).or_default().merge(heat);
        }
        for (mem, heat) in &other.write_heat {
            self.write_heat.entry(mem.clone()).or_default().merge(heat);
        }
    }

    /// Human-readable report: headline counters with IPC, the
    /// per-operation execution histogram, hot PCs, the per-stage
    /// occupancy / stall / flush table, unit utilization, one sparkline
    /// per memory heatmap, and probe hits.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        let execs: u64 = self.op_execs.values().sum();
        let acts: u64 = self.unit_activations.values().sum();
        let _ = writeln!(
            out,
            "architecture profile over {} control steps: {} instructions ({:.2} instr/cycle)",
            self.cycles,
            self.instructions,
            self.ipc()
        );
        let _ = writeln!(
            out,
            "{execs} operation executions, {acts} unit activations; \
             writes: {} register, {} memory",
            self.register_writes,
            self.memory_writes()
        );
        let ops = ranked(&self.op_execs);
        if let Some(&(_, max)) = ops.first() {
            let _ = writeln!(out, "\nper-operation execution histogram:");
            let name_w = ops.iter().map(|r| r.0.len()).max().unwrap_or(4).max(4);
            for (name, count) in &ops {
                let bar = "#".repeat((count * 40).div_ceil(max.max(1)) as usize);
                let _ = writeln!(out, "  {name:<name_w$} {count:>10}  {bar}");
            }
        }
        let hot: Vec<_> = ranked(&self.hot_pcs).into_iter().take(10).collect();
        if !hot.is_empty() {
            let _ = writeln!(out, "\nhot PCs (top {}):", hot.len());
            for (pc, count) in &hot {
                let _ = writeln!(out, "  pc {pc:>6}  {count:>10}");
            }
        }
        let stages: BTreeSet<&String> = self
            .stage_busy
            .keys()
            .chain(self.stage_stalls.keys())
            .chain(self.stage_flushes.keys())
            .collect();
        if !stages.is_empty() {
            let key_w = stages.iter().map(|k| k.len()).max().unwrap_or(5).max(5);
            let _ = writeln!(
                out,
                "\n{:<key_w$} {:>10} {:>8} {:>8} {:>8}",
                "stage", "occupied", "(%)", "stalls", "flushes"
            );
            let get = |map: &BTreeMap<String, u64>, key: &str| map.get(key).copied().unwrap_or(0);
            for key in stages {
                let busy = get(&self.stage_busy, key);
                let percent =
                    if self.cycles == 0 { 0.0 } else { busy as f64 * 100.0 / self.cycles as f64 };
                let _ = writeln!(
                    out,
                    "{key:<key_w$} {busy:>10} {:>8} {:>8} {:>8}",
                    format!("({percent:.1}%)"),
                    get(&self.stage_stalls, key),
                    get(&self.stage_flushes, key)
                );
            }
        }
        if !self.unit_activations.is_empty() {
            let _ = writeln!(out, "\nunit activations:");
            let units = ranked(&self.unit_activations);
            let name_w = units.iter().map(|r| r.0.len()).max().unwrap_or(0).max(18);
            for (unit, n) in units {
                let _ = writeln!(out, "  {unit:<name_w$} {n:>10}");
            }
        }
        for (title, heat) in
            [("memory reads:", &self.read_heat), ("memory writes:", &self.write_heat)]
        {
            if heat.is_empty() {
                continue;
            }
            let _ = writeln!(out, "\n{title}");
            for (mem, map) in heat {
                let _ = writeln!(
                    out,
                    "  {mem:<18} {:>10}  |{}|  ({} cells/bucket)",
                    map.total(),
                    map.sparkline(),
                    map.bucket_size
                );
            }
        }
        if !self.hits.is_empty() {
            let _ = writeln!(out, "\nprobe hits ({} total):", self.probe_hits());
            for (label, n) in &self.hits {
                let _ = writeln!(out, "  {label:<24} {n:>10}");
            }
        }
        out
    }

    /// The profile as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(s, "{{\"cycles\":{},\"probe_hits\":{}", self.cycles, self.probe_hits());
        for (key, map) in [
            ("stage_busy", &self.stage_busy),
            ("op_execs", &self.op_execs),
            ("unit_activations", &self.unit_activations),
            ("hits", &self.hits),
        ] {
            json_counts(&mut s, key, map);
        }
        for (key, heat) in [("read_heat", &self.read_heat), ("write_heat", &self.write_heat)] {
            let _ = write!(s, ",\"{key}\":{{");
            for (i, (mem, map)) in heat.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&escape(mem));
                let _ = write!(
                    s,
                    ":{{\"bucket_size\":{},\"total\":{},\"counts\":[",
                    map.bucket_size,
                    map.total()
                );
                for (j, c) in map.counts.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{c}");
                }
                s.push_str("]}");
            }
            s.push('}');
        }
        let _ = write!(
            s,
            ",\"instructions\":{},\"register_writes\":{}",
            self.instructions, self.register_writes
        );
        json_counts(&mut s, "stage_stalls", &self.stage_stalls);
        json_counts(&mut s, "stage_flushes", &self.stage_flushes);
        json_counts(&mut s, "hot_pcs", &self.hot_pcs);
        s.push('}');
        s
    }
}

/// Appends `,"key":{"name":n,...}`.
fn json_counts<K: std::fmt::Display>(out: &mut String, key: &str, map: &BTreeMap<K, u64>) {
    let _ = write!(out, ",\"{key}\":{{");
    for (i, (name, n)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape(&name.to_string()));
        let _ = write!(out, ":{n}");
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArchProfile {
        let mut p = ArchProfile::new();
        p.cycles = 100;
        p.instructions = 50;
        p.register_writes = 7;
        p.hot_pcs.insert(4, 30);
        p.hot_pcs.insert(5, 20);
        p.stage_busy.insert("pipe.EX".into(), 40);
        p.stage_stalls.insert("pipe.FE".into(), 2);
        p.stage_flushes.insert("pipe.FE".into(), 1);
        p.op_execs.insert("add".into(), 40);
        p.unit_activations.insert("mac".into(), 12);
        p.hits.insert("watch dmem".into(), 3);
        let mut heat = Heatmap::for_elements(256, 64);
        heat.record(0);
        heat.record(255);
        p.write_heat.insert("dmem".into(), heat);
        p
    }

    #[test]
    fn merge_adds_counts_and_heatmaps() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.cycles, 200);
        assert_eq!(a.instructions, 100);
        assert_eq!(a.register_writes, 14);
        assert_eq!(a.hot_pcs[&4], 60);
        assert_eq!(a.stage_busy["pipe.EX"], 80);
        assert_eq!(a.stage_stalls["pipe.FE"], 4);
        assert_eq!(a.stage_flushes["pipe.FE"], 2);
        assert_eq!(a.op_execs["add"], 80);
        assert_eq!(a.unit_activations["mac"], 24);
        assert_eq!(a.hits["watch dmem"], 6);
        assert_eq!(a.probe_hits(), 6);
        assert_eq!(a.write_heat["dmem"].total(), 4);
        assert_eq!(a.memory_writes(), 4);
    }

    #[test]
    fn default_is_the_merge_identity() {
        let mut left = sample();
        left.merge(&ArchProfile::default());
        assert_eq!(left, sample());
        let mut right = ArchProfile::default();
        right.merge(&sample());
        assert_eq!(right, sample());
        assert!(ArchProfile::default().is_empty());
        assert!(!sample().is_empty());
    }

    #[test]
    fn report_covers_every_section() {
        let text = sample().report();
        assert!(text.contains("100 control steps"));
        assert!(text.contains("50 instructions (0.50 instr/cycle)"));
        assert!(text.contains("writes: 7 register, 2 memory"));
        assert!(text.contains("per-operation execution histogram"));
        assert!(text.contains("hot PCs (top 2):\n  pc      4          30\n  pc      5"));
        assert!(text.contains("pipe.EX"));
        assert!(text.contains("(40.0%)"));
        let fe = text.lines().find(|l| l.starts_with("pipe.FE")).expect("stage row");
        assert_eq!(fe.split_whitespace().collect::<Vec<_>>(), ["pipe.FE", "0", "(0.0%)", "2", "1"]);
        assert!(text.contains("mac"));
        assert!(text.contains("dmem"));
        assert!(text.contains("watch dmem"));
        assert!(text.contains("cells/bucket"));
        for section in ["histogram", "hot PCs", "stalls", "unit activations:", "memory writes:"] {
            assert_eq!(text.matches(section).count(), 1, "{section} printed once:\n{text}");
        }
    }

    #[test]
    fn json_is_balanced_and_carries_heat_buckets() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cycles\":100"));
        assert!(json.contains("\"probe_hits\":3"));
        assert!(json.contains("\"pipe.EX\":40"));
        assert!(json.contains("\"bucket_size\":4"));
        assert!(json.contains("\"watch dmem\":3"));
        assert!(json.contains("\"instructions\":50,\"register_writes\":7"));
        assert!(json.contains("\"stage_stalls\":{\"pipe.FE\":2}"));
        assert!(json.contains("\"stage_flushes\":{\"pipe.FE\":1}"));
        assert!(json.contains("\"hot_pcs\":{\"4\":30,\"5\":20}"));
        let empty = ArchProfile::default().to_json();
        assert!(empty.contains("\"cycles\":0"));
        assert!(empty.contains("\"read_heat\":{}"));
    }
}
