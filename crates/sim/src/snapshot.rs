//! Checkpoint/restore for simulators.
//!
//! A [`Snapshot`] captures everything that changes while a simulator
//! runs: the architectural [`State`], per-pipeline control state,
//! in-flight delayed activations and accumulated [`SimStats`] — the
//! foundation for forking one simulator into many scenario runs
//! (`lisa-exec`). The ops backend's word cache is not captured: its
//! routine ids are local to one simulator, and a word's routine depends
//! only on the model and the word, so the simulator restored into keeps
//! its own cache and loading a program fills it.
//!
//! Snapshots are plain owned data: `Send + Sync`, independent of the
//! model borrow, so they can be stored, cloned, and shared across
//! worker threads.

use crate::engine::{Pending, PipeState, SimMode, Simulator};
use crate::{SimError, SimStats, State};

/// A point-in-time capture of a simulator's complete dynamic state.
///
/// Created by [`Simulator::snapshot`]; applied by [`Simulator::restore`].
/// The snapshot does not hold the model — restoring checks that the
/// target simulator's resource layout matches and fails with
/// [`SimError::SnapshotMismatch`] otherwise.
///
/// # Examples
///
/// ```
/// use lisa_core::Model;
/// use lisa_sim::{SimMode, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = Model::from_source(r#"
///     RESOURCE { PROGRAM_COUNTER int pc; REGISTER int r0; }
///     OPERATION main { BEHAVIOR { r0 = r0 + 1; pc = pc + 1; } }
/// "#)?;
/// let mut sim = Simulator::new(&model, SimMode::Interpretive)?;
/// sim.run(5)?;
/// let checkpoint = sim.snapshot();
/// sim.run(5)?;
/// assert_eq!(sim.stats().cycles, 10);
/// sim.restore(&checkpoint)?;
/// assert_eq!(sim.stats().cycles, 5);
/// sim.run(5)?;
/// let r0 = model.resource_by_name("r0").expect("r0");
/// assert_eq!(sim.state().read_int(r0, &[])?, 10);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Snapshot {
    pub(crate) state: State,
    pub(crate) pipes: Vec<PipeState>,
    pub(crate) pending: Vec<Pending>,
    pub(crate) stats: SimStats,
    pub(crate) mode: SimMode,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("mode", &self.mode)
            .field("cycles", &self.stats.cycles)
            .field("in_flight", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// The architectural state captured by this snapshot.
    #[must_use]
    pub fn state(&self) -> &State {
        &self.state
    }

    /// The statistics at capture time.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Control steps executed when the snapshot was taken.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// The execution backend of the simulator the snapshot was taken
    /// from (informational — a snapshot restores into either mode).
    #[must_use]
    pub fn mode(&self) -> SimMode {
        self.mode
    }
}

impl<'m> Simulator<'m> {
    /// Captures the simulator's complete dynamic state.
    ///
    /// The architectural state, pipeline control state, in-flight
    /// activations and statistics are copied; in-flight activations
    /// carry their decoded binding (`Arc`-shared), not a routine id.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let _span = self.spans.as_ref().map(|s| s.start(lisa_spans::SpanKind::Snapshot));
        Snapshot {
            state: self.state.clone(),
            pipes: self.pipes.clone(),
            pending: self.portable_pending(),
            stats: self.stats,
            mode: self.mode,
        }
    }

    /// Restores a previously captured snapshot, replacing the current
    /// dynamic state. Observability settings survive: tracing stays on
    /// (the recorded events are cleared — traces are a debugging aid,
    /// not architectural state) and installed probes stay armed, with
    /// the architecture profile and probe hit counts restarted from zero
    /// at the restored cycle count, so events and profiles never mix
    /// pre- and post-restore timelines.
    ///
    /// The snapshot may come from a simulator in either [`SimMode`]; the
    /// restored simulator keeps its own mode and its own ops word cache
    /// (a fresh ops simulator restored into decodes each word on its
    /// first fetch, or all of them at once when a program is loaded).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotMismatch`] when the snapshot's
    /// resource layout (count, widths, dimensions) differs from this
    /// simulator's model — e.g. a snapshot taken on another model.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SimError> {
        let _span = self.spans.as_ref().map(|s| s.start(lisa_spans::SpanKind::Restore));
        if !self.state.same_shape(&snapshot.state) {
            return Err(SimError::SnapshotMismatch);
        }
        self.state.clone_from(&snapshot.state);
        self.pipes = snapshot.pipes.clone();
        self.pending = snapshot.pending.clone();
        self.stats = snapshot.stats;
        // Routine ids are local to one simulator: the snapshot carries
        // decoded bindings, resolved here through the instance cache.
        // Cached routines stay valid, since a word's routine depends only
        // on the model and the word, not on the state that fetched it.
        self.ops_bind_pending();
        if let Some(events) = self.observer.as_mut().and_then(|o| o.events.as_mut()) {
            events.clear();
        }
        self.restart_profile();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use lisa_core::Model;

    use crate::{SimError, SimMode, Simulator};

    fn counter_model() -> Model {
        Model::from_source(
            r#"RESOURCE { PROGRAM_COUNTER int pc; REGISTER int r0; }
               OPERATION main { BEHAVIOR { r0 = r0 + 3; pc = pc + 1; } }"#,
        )
        .expect("model builds")
    }

    #[test]
    fn snapshot_is_send_sync_and_static() {
        fn check<T: Send + Sync + 'static>() {}
        check::<crate::Snapshot>();
    }

    #[test]
    fn restore_resumes_identically() {
        let model = counter_model();
        let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
        sim.run(4).unwrap();
        let snap = sim.snapshot();
        sim.run(6).unwrap();
        let full_state = sim.state().clone();
        let full_stats = *sim.stats();

        sim.restore(&snap).unwrap();
        assert_eq!(sim.stats().cycles, 4);
        sim.run(6).unwrap();
        assert_eq!(sim.state(), &full_state);
        assert_eq!(sim.stats(), &full_stats);
    }

    #[test]
    fn restore_into_fresh_simulator() {
        let model = counter_model();
        let mut warm = Simulator::new(&model, SimMode::Interpretive).unwrap();
        warm.run(7).unwrap();
        let snap = warm.snapshot();

        let mut fork = Simulator::new(&model, SimMode::Interpretive).unwrap();
        fork.restore(&snap).unwrap();
        fork.run(3).unwrap();
        warm.run(3).unwrap();
        assert_eq!(fork.state(), warm.state());
        assert_eq!(fork.stats(), warm.stats());
    }

    #[test]
    fn mismatched_model_is_rejected() {
        let model_a = counter_model();
        let model_b = Model::from_source(
            r#"RESOURCE { PROGRAM_COUNTER int pc; REGISTER bit[48] wide; }
               OPERATION main { BEHAVIOR { pc = pc + 1; } }"#,
        )
        .unwrap();
        let sim_a = Simulator::new(&model_a, SimMode::Interpretive).unwrap();
        let snap = sim_a.snapshot();
        let mut sim_b = Simulator::new(&model_b, SimMode::Interpretive).unwrap();
        assert_eq!(sim_b.restore(&snap), Err(SimError::SnapshotMismatch));
    }

    #[test]
    fn trace_and_profile_state_survive_restore_consistently() {
        let model = counter_model();
        let mut sim = Simulator::new(&model, SimMode::Interpretive).unwrap();
        sim.set_trace(true);
        sim.enable_arch_profile();
        sim.run(3).unwrap();
        let snap = sim.snapshot();
        sim.run(2).unwrap();

        sim.restore(&snap).unwrap();
        assert!(sim.tracing(), "tracing survives restore");
        assert!(sim.take_events().is_empty(), "restore clears buffered events");

        sim.run(2).unwrap();
        let events = sim.take_events();
        assert!(!events.is_empty());
        assert!(
            events.iter().all(|e| (3..5).contains(&e.cycle())),
            "post-restore events carry only the restored timeline: {events:?}"
        );
        let profile = sim.arch_profile().expect("profiling survives restore");
        assert_eq!(profile.cycles, 2, "profile restarts at the restored cycle count");
        assert_eq!(profile.op_execs["main"], 2);
    }

    #[test]
    fn snapshot_reports_its_capture_point() {
        let model = counter_model();
        let mut sim = Simulator::new(&model, SimMode::Ops).unwrap();
        sim.run(9).unwrap();
        let snap = sim.snapshot();
        assert_eq!(snap.cycles(), 9);
        assert_eq!(snap.mode(), SimMode::Ops);
        assert_eq!(snap.stats().cycles, 9);
        let r0 = model.resource_by_name("r0").unwrap();
        assert_eq!(snap.state().read_int(r0, &[]).unwrap(), 27);
    }
}
