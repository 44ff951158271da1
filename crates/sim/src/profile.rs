//! The architecture profile: what the simulated machine's resources
//! and pipeline did over a run, and the counters that collect it.
//!
//! A profile observes the *simulated architecture*, not the simulator:
//! the debugger and profiler view a DSP developer needs to see inside
//! the pipeline, generated from the same machine description as the
//! simulator itself. The simulator keeps every count in one
//! id-indexed [`ArchCounts`] that both backends bump at their event
//! points; [`ArchCounts::fold`] keys the counts by name into an
//! [`ArchProfile`] when the profile is read. Keyed by name, profiles of
//! runs, batches and service requests merge in any order, and the
//! conformance harness compares them across backends.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use lisa_core::ast::ResourceClass;
use lisa_core::model::{Model, OpId, PipelineId, ResourceId};
use lisa_metrics::json::escape;

/// `"pipeline.stage"`, the stage key of profiles and trace lines.
pub(crate) fn stage_key(pipeline: &str, stage: &str) -> String {
    format!("{pipeline}.{stage}")
}

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

/// A histogram of accesses over a resource's flat element indices.
///
/// Bucket sizes are always powers of two, so coarsening is *exact*:
/// bucket boundaries of a wider heatmap always align with boundaries of
/// a narrower one, and [`Heatmap::merge`] (coarsen both sides to the
/// larger bucket size, then add counts) is associative and commutative
/// with the empty heatmap as identity — the property that lets
/// per-run profiles fold into batch aggregates in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heatmap {
    /// Elements per bucket (a power of two).
    pub bucket_size: u64,
    /// Access counts; bucket `b` covers flat indices
    /// `[b * bucket_size, (b + 1) * bucket_size)`. Never ends with a
    /// zero bucket (trailing zeros are trimmed), so equal recordings
    /// compare equal regardless of growth history.
    pub counts: Vec<u64>,
}

impl Default for Heatmap {
    fn default() -> Heatmap {
        Heatmap { bucket_size: 1, counts: Vec::new() }
    }
}

impl Heatmap {
    /// An empty heatmap with single-element buckets (the merge identity).
    #[must_use]
    pub fn new() -> Heatmap {
        Heatmap::default()
    }

    /// An empty heatmap whose bucket size is chosen so a resource of
    /// `elements` flat cells spans at most `max_buckets` buckets.
    ///
    /// The chosen size is the smallest power of two `>=
    /// ceil(elements / max_buckets)`, so small register files get
    /// per-cell resolution while large memories stay bounded.
    #[must_use]
    pub fn for_elements(elements: u64, max_buckets: u64) -> Heatmap {
        let per = elements.div_ceil(max_buckets.max(1)).max(1);
        Heatmap { bucket_size: per.next_power_of_two(), counts: Vec::new() }
    }

    /// Records one access to flat index `addr`.
    #[inline]
    pub fn record(&mut self, addr: u64) {
        debug_assert!(self.bucket_size.is_power_of_two());
        let idx = (addr >> self.bucket_size.trailing_zeros()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Total accesses recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Re-buckets in place to a coarser power-of-two `bucket_size`.
    /// No-op when `bucket_size <= self.bucket_size`.
    pub fn coarsen_to(&mut self, bucket_size: u64) {
        debug_assert!(bucket_size.is_power_of_two(), "bucket sizes are powers of two");
        if bucket_size <= self.bucket_size {
            return;
        }
        let factor = (bucket_size / self.bucket_size) as usize;
        let mut merged = vec![0u64; self.counts.len().div_ceil(factor)];
        for (i, c) in self.counts.iter().enumerate() {
            merged[i / factor] += c;
        }
        self.bucket_size = bucket_size;
        self.counts = merged;
        self.trim();
    }

    /// Adds another heatmap's counts into this one, coarsening both
    /// sides to the larger bucket size first. Associative, commutative,
    /// with [`Heatmap::default`] as identity.
    pub fn merge(&mut self, other: &Heatmap) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            // An empty heatmap is the identity regardless of its own
            // bucket size — adopt the other side wholesale so merge
            // stays commutative.
            self.bucket_size = other.bucket_size;
            self.counts = other.counts.clone();
            return;
        }
        let target = self.bucket_size.max(other.bucket_size);
        self.coarsen_to(target);
        let factor = (target / other.bucket_size) as usize;
        let need = other.counts.len().div_ceil(factor);
        if need > self.counts.len() {
            self.counts.resize(need, 0);
        }
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i / factor] += c;
        }
        self.trim();
    }

    fn trim(&mut self) {
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
    }

    /// A one-line ASCII rendering: one density character per bucket
    /// (space = zero, `.` through `@` scaled to the hottest bucket).
    #[must_use]
    pub fn sparkline(&self) -> String {
        const RAMP: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return String::new();
        }
        self.counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    ' '
                } else {
                    // Map 1..=max onto the ramp, hottest bucket always '@'.
                    let slot = ((c as u128 * RAMP.len() as u128 - 1) / max as u128) as usize;
                    RAMP[slot.min(RAMP.len() - 1)]
                }
            })
            .collect()
    }
}

/// Cap on heatmap buckets per memory resource; bucket sizes scale with
/// the resource so small memories keep per-cell resolution.
const MAX_HEAT_BUCKETS: u64 = 64;

/// Cap on the hot-PC table: program counters past this many words of
/// program memory are counted as instructions but not attributed.
const MAX_HOT_PCS: u64 = 1 << 16;

/// The raw counts of an arch profile, id-indexed against one model:
/// cycles, instructions and hot PCs, register writes, behavior
/// executions and activations per operation, stalls and flushes per
/// stage, and read and write heat per memory. A simulator bumps one
/// while it runs; [`Simulator::add_arch_counts_into`] adds a run's
/// counts into a sum, so many runs of one model are summed with
/// elementwise adds and folded to names once, by [`ArchCounts::fold`],
/// when the profile is read.
///
/// A sum holds the counts of one model's runs: adding runs of another
/// model into it is a logic error.
///
/// [`Simulator::add_arch_counts_into`]: crate::Simulator::add_arch_counts_into
#[derive(Debug, Clone, Default)]
pub struct ArchCounts {
    /// Runs added into these counts (0 for a simulator's own).
    runs: u64,
    /// Control steps covered. A simulator's own counts leave this at
    /// zero: it knows the steps covered from its cycle count.
    cycles: u64,
    /// Instructions decoded.
    instructions: u64,
    /// Writes to non-memory resources.
    pub(crate) register_writes: u64,
    /// Behavior executions, by [`OpId`].
    pub(crate) op_execs: Vec<u64>,
    /// Activations, by target [`OpId`].
    pub(crate) unit_acts: Vec<u64>,
    /// Decodes per program-counter value from `pc_base` on: one slot
    /// per word of the model's first program memory, up to
    /// [`MAX_HOT_PCS`].
    hot_pcs: Vec<u64>,
    /// The program-counter value of `hot_pcs[0]`.
    pc_base: i64,
    /// Stalls that held each stage, by pipeline id and stage index.
    pub(crate) stalls: Vec<Vec<u64>>,
    /// Flushes that covered each stage, laid out like `stalls`.
    pub(crate) flushes: Vec<Vec<u64>>,
    /// Read heat by resource id (`None` for a non-memory resource).
    pub(crate) read_heat: Vec<Option<Heatmap>>,
    /// Write heat, laid out like `read_heat`.
    pub(crate) write_heat: Vec<Option<Heatmap>>,
}

/// Adds `from` into `into` elementwise, growing `into` to fit.
fn add_counts(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (sum, n) in into.iter_mut().zip(from) {
        *sum += n;
    }
}

impl ArchCounts {
    /// Zeroed counts with every table laid out from the model.
    pub(crate) fn of(model: &Model) -> ArchCounts {
        let op_execs = vec![0; model.operations().len()];
        let stalls: Vec<Vec<u64>> = model.pipelines().iter().map(|p| vec![0; p.depth()]).collect();
        let read_heat: Vec<Option<Heatmap>> = model
            .resources()
            .iter()
            .map(|r| {
                matches!(r.class, ResourceClass::DataMemory | ResourceClass::ProgramMemory)
                    .then(|| Heatmap::for_elements(r.element_count(), MAX_HEAT_BUCKETS))
            })
            .collect();
        let pmem = model.resources().iter().find(|r| r.class == ResourceClass::ProgramMemory);
        let base = pmem.and_then(|r| r.dims.first()).map_or(0, |d| d.base());
        ArchCounts {
            unit_acts: op_execs.clone(),
            op_execs,
            flushes: stalls.clone(),
            stalls,
            write_heat: read_heat.clone(),
            read_heat,
            pc_base: i64::try_from(base).unwrap_or(i64::MAX),
            hot_pcs: vec![0; pmem.map_or(0, |r| r.element_count().min(MAX_HOT_PCS) as usize)],
            ..ArchCounts::default()
        }
    }

    /// Zeroes every count, keeping the layout.
    pub(crate) fn clear(&mut self) {
        self.cycles = 0;
        self.instructions = 0;
        self.register_writes = 0;
        let tables = [&mut self.op_execs, &mut self.unit_acts, &mut self.hot_pcs];
        for counts in tables.into_iter().chain(&mut self.stalls).chain(&mut self.flushes) {
            counts.fill(0);
        }
        for heat in self.read_heat.iter_mut().chain(&mut self.write_heat).flatten() {
            heat.counts.clear();
        }
    }

    /// Adds `other`'s counts, covering `cycles` control steps, into
    /// these. Arrays add elementwise; a heatmap of one resource has one
    /// bucket size, so heat adds bucket by bucket.
    pub(crate) fn add(&mut self, other: &ArchCounts, cycles: u64) {
        self.runs += 1;
        self.cycles += cycles;
        self.instructions += other.instructions;
        self.register_writes += other.register_writes;
        self.pc_base = other.pc_base;
        add_counts(&mut self.op_execs, &other.op_execs);
        add_counts(&mut self.unit_acts, &other.unit_acts);
        add_counts(&mut self.hot_pcs, &other.hot_pcs);
        for (into, from) in [(&mut self.stalls, &other.stalls), (&mut self.flushes, &other.flushes)]
        {
            into.resize_with(into.len().max(from.len()), Vec::new);
            for (sum, counts) in into.iter_mut().zip(from) {
                add_counts(sum, counts);
            }
        }
        for (into, from) in
            [(&mut self.read_heat, &other.read_heat), (&mut self.write_heat, &other.write_heat)]
        {
            into.resize(into.len().max(from.len()), None);
            for (sum, heat) in into.iter_mut().zip(from) {
                if let Some(heat) = heat {
                    sum.get_or_insert_with(Heatmap::new).merge(heat);
                }
            }
        }
    }

    /// Counts a decode with the program counter at `pc`, and its hot PC
    /// inside the program-memory window.
    pub(crate) fn decode(&mut self, pc: i64) {
        self.instructions += 1;
        let slot = pc.checked_sub(self.pc_base).and_then(|i| usize::try_from(i).ok());
        if let Some(count) = slot.and_then(|i| self.hot_pcs.get_mut(i)) {
            *count += 1;
        }
    }

    /// Adds one to stages `0..=upto` of `pipe` in `table` (the whole
    /// pipeline when `upto` is `None`).
    pub(crate) fn hold(table: &mut [Vec<u64>], pipe: PipelineId, upto: Option<usize>) {
        if let Some(stages) = table.get_mut(pipe.0) {
            let held = upto.map_or(stages.len(), |s| s + 1);
            for count in stages.iter_mut().take(held) {
                *count += 1;
            }
        }
    }

    /// How many runs [`Simulator::add_arch_counts_into`] added into these
    /// counts.
    ///
    /// [`Simulator::add_arch_counts_into`]: crate::Simulator::add_arch_counts_into
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The profile of these counts, keyed by the names of `model` (the
    /// model they were counted on), with no probe hits; stage occupancy
    /// is derived from each executed operation's static stage.
    #[must_use]
    pub fn fold(&self, model: &Model) -> ArchProfile {
        let key = |pipe: PipelineId, stage: usize| {
            let pipeline = model.pipeline(pipe);
            stage_key(&pipeline.name, &pipeline.stages[stage])
        };
        let mut profile = ArchProfile {
            cycles: self.cycles,
            instructions: self.instructions,
            register_writes: self.register_writes,
            ..ArchProfile::default()
        };
        for (i, &n) in self.op_execs.iter().enumerate().filter(|&(_, &n)| n > 0) {
            let operation = model.operation(OpId(i));
            *profile.op_execs.entry(operation.name.clone()).or_default() += n;
            if let Some((pipe, stage)) = operation.stage {
                *profile.stage_busy.entry(key(pipe, stage)).or_default() += n;
            }
        }
        for (i, &n) in self.unit_acts.iter().enumerate().filter(|&(_, &n)| n > 0) {
            *profile.unit_activations.entry(model.operation(OpId(i)).name.clone()).or_default() +=
                n;
        }
        for (i, &n) in self.hot_pcs.iter().enumerate().filter(|&(_, &n)| n > 0) {
            profile.hot_pcs.insert(self.pc_base + i as i64, n);
        }
        for (table, map) in
            [(&self.stalls, &mut profile.stage_stalls), (&self.flushes, &mut profile.stage_flushes)]
        {
            for (p, stages) in table.iter().enumerate() {
                for (s, &n) in stages.iter().enumerate().filter(|&(_, &n)| n > 0) {
                    map.insert(key(PipelineId(p), s), n);
                }
            }
        }
        for (heats, map) in
            [(&self.read_heat, &mut profile.read_heat), (&self.write_heat, &mut profile.write_heat)]
        {
            for (i, heat) in heats.iter().enumerate() {
                if let Some(heat) = heat.as_ref().filter(|h| !h.is_empty()) {
                    map.insert(model.resource(ResourceId(i)).name.clone(), heat.clone());
                }
            }
        }
        profile
    }
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

    #[test]
    fn bucket_size_scales_with_resource_size() {
        assert_eq!(Heatmap::for_elements(16, 64).bucket_size, 1);
        assert_eq!(Heatmap::for_elements(64, 64).bucket_size, 1);
        assert_eq!(Heatmap::for_elements(65, 64).bucket_size, 2);
        assert_eq!(Heatmap::for_elements(4096, 64).bucket_size, 64);
        assert_eq!(Heatmap::for_elements(0, 64).bucket_size, 1);
        assert_eq!(Heatmap::for_elements(10, 0).bucket_size, 16);
    }

    #[test]
    fn records_land_on_bucket_boundaries() {
        let mut h = Heatmap::for_elements(256, 64); // bucket_size 4
        assert_eq!(h.bucket_size, 4);
        h.record(0);
        h.record(3); // last index of bucket 0
        h.record(4); // first index of bucket 1
        h.record(255); // last bucket
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[63], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn coarsen_preserves_totals_and_alignment() {
        let mut h = Heatmap::new();
        for a in [0, 1, 2, 3, 7, 8, 15] {
            h.record(a);
        }
        let total = h.total();
        h.coarsen_to(8);
        assert_eq!(h.bucket_size, 8);
        assert_eq!(h.total(), total);
        assert_eq!(h.counts, vec![5, 2]); // 0..8 got 0,1,2,3,7; 8..16 got 8,15
    }

    #[test]
    fn merge_coarsens_to_the_wider_side() {
        let mut a = Heatmap { bucket_size: 2, counts: vec![1, 1] };
        let b = Heatmap { bucket_size: 8, counts: vec![0, 5] };
        a.merge(&b);
        assert_eq!(a.bucket_size, 8);
        assert_eq!(a.counts, vec![2, 5]);

        // And the mirror image gives the same result.
        let mut b2 = Heatmap { bucket_size: 8, counts: vec![0, 5] };
        b2.merge(&Heatmap { bucket_size: 2, counts: vec![1, 1] });
        assert_eq!(a, b2);
    }

    #[test]
    fn empty_is_the_merge_identity_in_both_directions() {
        let mut h = Heatmap { bucket_size: 4, counts: vec![3, 0, 9] };
        let orig = h.clone();
        h.merge(&Heatmap::default());
        assert_eq!(h, orig);
        let mut e = Heatmap::default();
        e.merge(&orig);
        assert_eq!(e, orig);
    }

    #[test]
    fn trailing_zeros_never_survive() {
        let mut a = Heatmap { bucket_size: 1, counts: vec![0, 1, 1, 0] };
        a.trim();
        assert_eq!(a.counts.len(), 3);
        a.coarsen_to(4);
        assert_eq!(a.counts, vec![2]);
    }

    #[test]
    fn sparkline_marks_hot_and_cold_buckets() {
        let mut h = Heatmap::new();
        for _ in 0..100 {
            h.record(0);
        }
        h.record(2);
        let line = h.sparkline();
        assert_eq!(line.chars().next(), Some('@'));
        assert_eq!(line.chars().nth(1), Some(' '));
        assert_eq!(line.chars().nth(2), Some('.'));
        assert_eq!(Heatmap::new().sparkline(), "");
    }
}
