//! The per-simulator probe engine the backends drive.

use lisa_core::model::ResourceId;
use lisa_trace::TraceEvent;

use crate::spec::ProbeSet;

/// Per-simulator probe state: the compiled [`ProbeSet`], per-probe hit
/// counts, and the latched breakpoint stop.
///
/// The runtime only matches: the simulator hands it the writes whose
/// resource a probe names (see [`ProbeSet::matches_writes_to`]) through
/// [`ProbeRuntime::match_write`], with no trace event built unless a
/// sink wants one. The architecture profile's counters live in the
/// simulator.
#[derive(Debug, Clone)]
pub struct ProbeRuntime {
    set: ProbeSet,
    /// Hits by probe id.
    hit_counts: Vec<u64>,
    /// Latched breakpoint: `(probe id, pc)`.
    stop: Option<(u16, i64)>,
}

impl ProbeRuntime {
    /// Builds the runtime for a compiled probe set.
    #[must_use]
    pub fn new(set: ProbeSet) -> ProbeRuntime {
        ProbeRuntime { hit_counts: vec![0; set.len()], stop: None, set }
    }

    /// The compiled probe set (for labels and hit reporting).
    #[must_use]
    pub fn probe_set(&self) -> &ProbeSet {
        &self.set
    }

    /// Replaces the probe set. Hit counts restart at zero for the new
    /// probes. `set` must be compiled against the same model.
    pub fn set_probes(&mut self, set: ProbeSet) {
        self.hit_counts = vec![0; set.len()];
        self.stop = None;
        self.set = set;
    }

    /// Zeroes the probe hit counts, so nothing recorded before now (e.g.
    /// on a timeline a snapshot restore discarded) is reported.
    pub fn restart(&mut self) {
        self.hit_counts.fill(0);
    }

    /// Matches a write of `value` to flat element `addr` of `resource` at
    /// `cycle` against watchpoints and PC probes. `emit` receives the
    /// `ProbeHit` event of each matched probe; breakpoint matches
    /// additionally latch a stop (see [`ProbeRuntime::take_stop`]).
    #[inline]
    pub fn match_write(
        &mut self,
        cycle: u64,
        resource: ResourceId,
        addr: u64,
        value: i64,
        mut emit: impl FnMut(TraceEvent),
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
            }
            OPERATION main { BEHAVIOR { pc = pc + 1; } }
            ",
        )
        .expect("model builds")
    }

    fn runtime(spec: &str) -> (ProbeRuntime, Model) {
        let model = model();
        let set = ProbeSpec::parse(spec).unwrap().compile(&model).unwrap();
        (ProbeRuntime::new(set), model)
    }

    /// The hits one write at cycle 1 produces.
    fn write(
        rt: &mut ProbeRuntime,
        resource: ResourceId,
        addr: u64,
        value: i64,
    ) -> Vec<TraceEvent> {
        let mut hits = Vec::new();
        rt.match_write(1, resource, addr, value, |h| hits.push(h));
        hits
    }

    #[test]
    fn watch_hits_only_inside_the_range() {
        let (mut rt, model) = runtime("watch dmem[8..16]");
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
        let (mut rt, model) = runtime("watch dmem[0..16]; watch dmem[8..32]");
        let dmem = model.resource_by_name("dmem").unwrap().id;
        assert_eq!(write(&mut rt, dmem, 9, 1).len(), 2);
        assert_eq!(rt.hit_count(0), 1);
        assert_eq!(rt.hit_count(1), 1);
    }

    #[test]
    fn breakpoints_latch_a_stop_on_pc_writes() {
        let (mut rt, model) = runtime("break 5; trace 3");
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
}
