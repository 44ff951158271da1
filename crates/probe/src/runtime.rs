//! The per-simulator probe engine the backends drive.

use std::ops::Range;

use lisa_core::model::{PipelineId, ResourceId};
use lisa_trace::{NameTable, TraceEvent};

use crate::arch::ArchProfile;
use crate::heatmap::Heatmap;
use crate::spec::ProbeSet;

/// Cap on heatmap buckets per memory resource; bucket sizes scale with
/// the resource so small register files keep per-cell resolution.
const MAX_HEAT_BUCKETS: u64 = 64;

/// Per-simulator probe state: the compiled [`ProbeSet`], id-indexed
/// architecture counters (folded to names only when the profile is
/// taken) with the cycle they started at, per-probe hit counts, and the
/// latched breakpoint stop.
///
/// Backends report each event kind through its own typed entry
/// (`observe_write`, `observe_decode`, `observe_stall`, `observe_flush`
/// and `observe_read`), with no trace event built unless a sink wants
/// one. Register writes, behavior executions and activations are not
/// counted here: the simulator counts them itself and decides, per
/// resource, which writes reach [`ProbeRuntime::observe_write`] at all
/// (see [`ProbeSet::matches_writes_to`]).
#[derive(Debug, Clone)]
pub struct ProbeRuntime {
    set: ProbeSet,
    arch: bool,
    /// Cycle counter value the profile counters started at.
    start: u64,
    /// Instructions decoded/dispatched.
    instructions: u64,
    /// Per-stage counters, flattened over all pipelines.
    stages: Vec<StageCounts>,
    /// First `stages` slot of each pipeline, plus the total at the end.
    pipe_base: Vec<usize>,
    /// Dispatches per program-counter value, offset by the window base.
    hot_pcs: Vec<u64>,
    /// Read/write heatmaps by heat slot.
    read_heat: Vec<Heatmap>,
    write_heat: Vec<Heatmap>,
    /// Hits by probe id.
    hit_counts: Vec<u64>,
    /// Latched breakpoint: `(probe id, pc)`.
    stop: Option<(u16, i64)>,
}

/// What one pipeline stage did.
#[derive(Debug, Clone, Copy, Default)]
struct StageCounts {
    stalls: u64,
    flushes: u64,
}

impl ProbeRuntime {
    /// Builds the runtime for a compiled probe set. `names` must be the
    /// name table of the model the set was compiled against (it sizes
    /// the id-indexed counters).
    #[must_use]
    pub fn new(set: ProbeSet, names: &NameTable) -> ProbeRuntime {
        let mut pipe_base = Vec::with_capacity(names.pipelines.len() + 1);
        let mut stages = 0usize;
        for (_, stage_names) in &names.pipelines {
            pipe_base.push(stages);
            stages += stage_names.len();
        }
        pipe_base.push(stages);
        let seeded: Vec<Heatmap> = set
            .heat
            .iter()
            .map(|&(_, elements)| Heatmap::for_elements(elements, MAX_HEAT_BUCKETS))
            .collect();
        ProbeRuntime {
            arch: false,
            start: 0,
            instructions: 0,
            stages: vec![StageCounts::default(); stages],
            pipe_base,
            hot_pcs: vec![0; set.pc_window.1],
            read_heat: seeded.clone(),
            write_heat: seeded,
            hit_counts: vec![0; set.len()],
            stop: None,
            set,
        }
    }

    /// The compiled probe set (for labels and hit reporting).
    #[must_use]
    pub fn probe_set(&self) -> &ProbeSet {
        &self.set
    }

    /// Replaces the probe set. Hit counts restart at zero for the new
    /// probes; the architecture counters and their start cycle are
    /// untouched. `set` must be compiled against the same model.
    pub fn set_probes(&mut self, set: ProbeSet) {
        self.hit_counts = vec![0; set.len()];
        self.stop = None;
        self.set = set;
    }

    /// Turns architecture profiling (utilization counters + heatmaps)
    /// on, restarting the profile from zero at cycle `now` (see
    /// [`ProbeRuntime::restart`]). Watchpoints and breakpoints work
    /// either way.
    pub fn enable_arch(&mut self, now: u64) {
        self.arch = true;
        self.restart(now);
    }

    /// Whether architecture profiling is on.
    #[must_use]
    pub fn arch_enabled(&self) -> bool {
        self.arch
    }

    /// Zeroes every counter — the profile's and the probe hit counts —
    /// and starts them at cycle `now`, so nothing recorded before `now`
    /// (e.g. on a timeline a snapshot restore discarded) is reported.
    pub fn restart(&mut self, now: u64) {
        self.start = now;
        self.instructions = 0;
        self.stages.fill(StageCounts::default());
        self.hot_pcs.fill(0);
        for heat in self.read_heat.iter_mut().chain(&mut self.write_heat) {
            heat.counts.clear();
        }
        self.hit_counts.fill(0);
    }

    /// The `stages` slots of `pipe` (empty for an unknown pipeline).
    fn pipe_slots(&self, pipe: PipelineId) -> Range<usize> {
        match self.pipe_base.get(pipe.0..=pipe.0 + 1) {
            Some(&[base, end]) => base..end,
            _ => 0..0,
        }
    }

    /// The `stages` slots of stages `0..=upto` of `pipe` (the whole
    /// pipeline when `upto` is `None`), clamped to its depth.
    fn held_slots(&self, pipe: PipelineId, upto: Option<u16>) -> Range<usize> {
        let all = self.pipe_slots(pipe);
        let end = upto.map_or(all.end, |s| (all.start + usize::from(s) + 1).min(all.end));
        all.start..end
    }

    /// A write of `value` to flat element `addr` of `resource` at
    /// `cycle`: recorded as write heat (when profiling is on and the
    /// resource is a memory) and matched against watchpoints and PC
    /// probes. `emit` receives the `ProbeHit` event of each matched
    /// probe; breakpoint matches additionally latch a stop (see
    /// [`ProbeRuntime::take_stop`]).
    #[inline]
    pub fn observe_write(
        &mut self,
        cycle: u64,
        resource: ResourceId,
        addr: u64,
        value: i64,
        mut emit: impl FnMut(TraceEvent),
    ) {
        if let (true, Some(&Some(slot))) = (self.arch, self.set.heat_slot.get(resource.0)) {
            self.write_heat[usize::from(slot)].record(addr);
        }
        self.match_write(cycle, resource, addr, value, &mut emit);
    }

    /// An instruction decoded with the program counter at `pc`: counts
    /// it and, inside the program-memory window, its hot PC. No-op
    /// unless profiling is on.
    #[inline]
    pub fn observe_decode(&mut self, pc: i64) {
        if !self.arch {
            return;
        }
        self.instructions += 1;
        let slot = pc.checked_sub(self.set.pc_window.0).and_then(|i| usize::try_from(i).ok());
        if let Some(count) = slot.and_then(|i| self.hot_pcs.get_mut(i)) {
            *count += 1;
        }
    }

    /// A stall holding stages `0..=upto` of `pipe` (clamped to its
    /// depth). No-op unless profiling is on.
    pub fn observe_stall(&mut self, pipe: PipelineId, upto: u16) {
        if !self.arch {
            return;
        }
        for slot in self.held_slots(pipe, Some(upto)) {
            self.stages[slot].stalls += 1;
        }
    }

    /// A flush of stages `0..=upto` of `pipe` (the whole pipeline when
    /// `upto` is `None`). No-op unless profiling is on.
    pub fn observe_flush(&mut self, pipe: PipelineId, upto: Option<u16>) {
        if !self.arch {
            return;
        }
        for slot in self.held_slots(pipe, upto) {
            self.stages[slot].flushes += 1;
        }
    }

    fn match_write(
        &mut self,
        cycle: u64,
        resource: ResourceId,
        addr: u64,
        value: i64,
        emit: &mut impl FnMut(TraceEvent),
    ) {
        if let Some(watches) = self.set.watches.get(resource.0) {
            for &(lo, hi, probe) in watches {
                if addr >= lo && addr < hi {
                    self.hit_counts[usize::from(probe)] += 1;
                    emit(TraceEvent::ProbeHit { cycle, probe, resource, addr, value });
                }
            }
        }
        // PC breakpoints and tracepoints ride the same write funnel:
        // in every backend a control-flow change is an ordinary write
        // to the PROGRAM_COUNTER resource.
        if self.set.pc_res == Some(resource.0) {
            for &(pc, probe) in &self.set.traces {
                if pc == value {
                    self.hit_counts[usize::from(probe)] += 1;
                    emit(TraceEvent::ProbeHit { cycle, probe, resource, addr, value });
                }
            }
            for &(pc, probe) in &self.set.breaks {
                if pc == value {
                    self.hit_counts[usize::from(probe)] += 1;
                    emit(TraceEvent::ProbeHit { cycle, probe, resource, addr, value });
                    if self.stop.is_none() {
                        self.stop = Some((probe, pc));
                    }
                }
            }
        }
    }

    /// Records a behavior-level read of flat element `addr` of resource
    /// index `res` (memory-class resources feed the read heatmap; all
    /// others are ignored). No-op unless profiling is on.
    #[inline]
    pub fn observe_read(&mut self, res: usize, addr: u64) {
        if !self.arch {
            return;
        }
        if let Some(&Some(slot)) = self.set.heat_slot.get(res) {
            self.read_heat[usize::from(slot)].record(addr);
        }
    }

    /// Takes the latched breakpoint stop, if any: `(probe id, pc)`.
    /// Clears it, so a resumed run does not immediately re-stop.
    pub fn take_stop(&mut self) -> Option<(u16, i64)> {
        self.stop.take()
    }

    /// Hits recorded for one probe id.
    #[must_use]
    pub fn hit_count(&self, probe: u16) -> u64 {
        self.hit_counts.get(usize::from(probe)).copied().unwrap_or(0)
    }

    /// Total hits across all probes.
    #[must_use]
    pub fn total_hits(&self) -> u64 {
        self.hit_counts.iter().sum()
    }

    /// Folds the id-indexed counters into a named, mergeable
    /// [`ArchProfile`] covering the control steps from the profile's
    /// start to cycle `now`. Non-destructive.
    #[must_use]
    pub fn arch_profile(&self, names: &NameTable, now: u64) -> ArchProfile {
        let mut profile = ArchProfile {
            cycles: now.saturating_sub(self.start),
            instructions: self.instructions,
            ..ArchProfile::default()
        };
        for p in 0..names.pipelines.len() {
            let slots = self.pipe_slots(PipelineId(p));
            for (s, c) in self.stages[slots].iter().enumerate() {
                for (map, n) in
                    [(&mut profile.stage_stalls, c.stalls), (&mut profile.stage_flushes, c.flushes)]
                {
                    if n > 0 {
                        map.insert(names.stage_key(PipelineId(p), s), n);
                    }
                }
            }
        }
        let base = self.set.pc_window.0;
        for (i, &n) in self.hot_pcs.iter().enumerate() {
            if n > 0 {
                profile.hot_pcs.insert(base + i as i64, n);
            }
        }
        for (slot, (name, _)) in self.set.heat.iter().enumerate() {
            if !self.read_heat[slot].is_empty() {
                profile.read_heat.insert(name.clone(), self.read_heat[slot].clone());
            }
            if !self.write_heat[slot].is_empty() {
                profile.write_heat.insert(name.clone(), self.write_heat[slot].clone());
            }
        }
        for (i, &n) in self.hit_counts.iter().enumerate() {
            if n > 0 {
                profile.hits.insert(self.set.label(i as u16).to_owned(), n);
            }
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use lisa_core::model::{Model, ResourceId};

    use super::*;
    use crate::spec::ProbeSpec;

    fn model() -> Model {
        Model::from_source(
            r"
            RESOURCE {
                PROGRAM_COUNTER int pc;
                REGISTER int acc;
                DATA_MEMORY int dmem[256];
                PROGRAM_MEMORY int pmem[4..19];
                PIPELINE pipe = { FE; EX };
            }
            OPERATION main { BEHAVIOR { pc = pc + 1; } }
            ",
        )
        .expect("model builds")
    }

    fn runtime(spec: &str) -> (ProbeRuntime, NameTable, Model) {
        let model = model();
        let names = NameTable::of(&model);
        let set = ProbeSpec::parse(spec).unwrap().compile(&model).unwrap();
        (ProbeRuntime::new(set, &names), names, model)
    }

    /// The hits one write at cycle 1 produces.
    fn write(
        rt: &mut ProbeRuntime,
        resource: ResourceId,
        addr: u64,
        value: i64,
    ) -> Vec<TraceEvent> {
        let mut hits = Vec::new();
        rt.observe_write(1, resource, addr, value, |h| hits.push(h));
        hits
    }

    #[test]
    fn watch_hits_only_inside_the_range() {
        let (mut rt, _, model) = runtime("watch dmem[8..16]");
        let dmem = model.resource_by_name("dmem").unwrap().id;
        assert!(write(&mut rt, dmem, 7, 7).is_empty());
        assert_eq!(
            write(&mut rt, dmem, 8, 7),
            vec![TraceEvent::ProbeHit { cycle: 1, probe: 0, resource: dmem, addr: 8, value: 7 }]
        );
        assert!(write(&mut rt, dmem, 16, 7).is_empty());
        assert_eq!(rt.hit_count(0), 1);
        assert_eq!(rt.total_hits(), 1);
        assert!(rt.take_stop().is_none());
    }

    #[test]
    fn overlapping_watches_each_hit() {
        let (mut rt, _, model) = runtime("watch dmem[0..16]; watch dmem[8..32]");
        let dmem = model.resource_by_name("dmem").unwrap().id;
        assert_eq!(write(&mut rt, dmem, 9, 1).len(), 2);
        assert_eq!(rt.hit_count(0), 1);
        assert_eq!(rt.hit_count(1), 1);
    }

    #[test]
    fn breakpoints_latch_a_stop_on_pc_writes() {
        let (mut rt, _, model) = runtime("break 5; trace 3");
        let pc = model.resource_by_name("pc").unwrap().id;
        assert!(write(&mut rt, pc, 0, 4).is_empty());
        assert_eq!(write(&mut rt, pc, 0, 3).len(), 1); // tracepoint: hit, no stop
        assert!(rt.take_stop().is_none());
        assert_eq!(write(&mut rt, pc, 0, 5).len(), 1);
        assert_eq!(rt.take_stop(), Some((0, 5)));
        assert!(rt.take_stop().is_none(), "stop is cleared once taken");
        // Writes to other registers never match PC probes.
        let acc = model.resource_by_name("acc").unwrap().id;
        assert!(write(&mut rt, acc, 0, 5).is_empty());
    }

    #[test]
    fn arch_profile_folds_ids_back_to_names() {
        let (mut rt, names, model) = runtime("watch dmem[0..4]");
        rt.enable_arch(0);
        assert!(rt.arch_enabled());
        let dmem = model.resource_by_name("dmem").unwrap().id;
        let acc = model.resource_by_name("acc").unwrap().id;
        let pipe = PipelineId(0);
        let mut hits = write(&mut rt, dmem, 2, 9);
        hits.extend(write(&mut rt, acc, 0, 9));
        assert_eq!(hits.len(), 1);
        // PCs 3 and 20 lie outside `pmem[4..19]`: instructions, not hot PCs.
        for pc in [4, 19, 19, 3, 20] {
            rt.observe_decode(pc);
        }
        rt.observe_stall(pipe, 0);
        // Stalls and flushes past the last stage clamp to the depth;
        // unknown pipelines are ignored.
        rt.observe_stall(pipe, 9);
        rt.observe_flush(pipe, None);
        rt.observe_flush(pipe, Some(0));
        rt.observe_stall(PipelineId(7), 0);
        rt.observe_read(dmem.0, 200);
        rt.observe_read(dmem.0, 201);
        let profile = rt.arch_profile(&names, 2);
        assert_eq!(profile.cycles, 2);
        assert_eq!(profile.write_heat["dmem"].total(), 1);
        assert_eq!(profile.read_heat["dmem"].total(), 2);
        assert_eq!(profile.hits["watch dmem[0..4]"], 1);
        assert_eq!(profile.probe_hits(), 1);
        assert_eq!(profile.instructions, 5);
        assert_eq!(profile.hot_pcs.into_iter().collect::<Vec<_>>(), [(4, 1), (19, 2)]);
        for per_stage in [&profile.stage_stalls, &profile.stage_flushes] {
            assert_eq!(per_stage.values().collect::<Vec<_>>(), [&1, &2], "EX, FE");
        }
    }

    #[test]
    fn arch_off_skips_utilization_but_not_probes() {
        let (mut rt, names, model) = runtime("watch dmem");
        let dmem = model.resource_by_name("dmem").unwrap().id;
        rt.observe_read(dmem.0, 5);
        rt.observe_decode(4);
        assert_eq!(write(&mut rt, dmem, 1, 2).len(), 1, "watchpoints fire with profiling off");
        let profile = rt.arch_profile(&names, 1);
        assert!(profile.read_heat.is_empty());
        assert!(profile.write_heat.is_empty());
        assert_eq!(profile.instructions, 0);
        assert_eq!(profile.hits["watch dmem"], 1);
    }

    #[test]
    fn reads_of_non_memory_resources_are_ignored() {
        let (mut rt, names, model) = runtime("");
        rt.enable_arch(0);
        let acc = model.resource_by_name("acc").unwrap().id;
        rt.observe_read(acc.0, 0);
        rt.observe_read(ResourceId(99).0, 0);
        assert!(rt.arch_profile(&names, 1).read_heat.is_empty());
    }
}
