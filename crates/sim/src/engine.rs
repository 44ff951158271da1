//! The generic pipeline engine and control-step loop.
//!
//! LISA "assumes all operations to be executed synchronously to control
//! steps" (paper §3.2.3). Each control step the engine:
//!
//! 1. executes the `main` operation (the cycle driver, paper Example 5),
//! 2. executes every pending activation whose delay reached zero, in
//!    activation (FIFO) order,
//! 3. advances non-pipelined delayed activations by one control step.
//!
//! Pipelined activations advance only when their pipeline **shifts**
//! (`pipe.shift()`), are held by **stalls** (`pipe.stall()`,
//! `pipe.stage.stall()` — holds the stages up to and including the named
//! stage), and are discarded by **flushes** (`pipe.flush()`,
//! `pipe.stage.flush()`). The activation delay of an operation equals its
//! *spatial distance* in the pipeline (stage index difference) plus one
//! per `;` separator in the `ACTIVATION` list.

use std::sync::Arc;

use lisa_bits::Bits;
use lisa_core::ast::ResourceClass;
use lisa_core::model::{Model, OpId, PipelineId, ResourceId};
use lisa_isa::{Decoded, Decoder};
use lisa_probe::{ArchProfile, Heatmap, ProbeRuntime, ProbeSet};
use lisa_spans::{SpanKind, SpanScope};
use lisa_trace::{NameTable, TraceEvent};

use crate::ops::{ModelImage, OpsTables, RoutineId};
use crate::{SimError, SimStats, State};

/// An operation instance scheduled for execution: the operation plus its
/// operand binding, if any.
#[derive(Debug, Clone)]
pub(crate) struct ExecItem {
    pub op: OpId,
    pub bind: Binding,
}

/// What a scheduled operation is bound to.
#[derive(Debug, Clone, Default)]
pub(crate) enum Binding {
    /// No operand binding (a decode-root operation fetches its own).
    #[default]
    Unbound,
    /// A decoded subtree: the tree-walking modes' binding, and the
    /// portable form snapshots carry.
    Decoded(Arc<Decoded>),
    /// A translated routine in this simulator's ops store: ops-mode
    /// items are plain data, so scheduling one touches no refcount.
    Routine(RoutineId),
}

/// A delayed activation waiting in the schedule.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub item: ExecItem,
    /// Target pipeline and stage when the operation is pipelined.
    pub pipe: Option<(PipelineId, usize)>,
    /// Shifts (pipelined) or control steps (non-pipelined) to go.
    pub remaining: u32,
}

/// Per-pipeline per-step control state.
#[derive(Debug, Clone, Default)]
pub(crate) struct PipeState {
    /// Stages `0..=stall_upto` are held this control step.
    pub stall_upto: Option<usize>,
}

/// Observability state, boxed behind one `Option` so the cycle path pays
/// a single branch when neither tracing, profiling nor probing is on.
#[derive(Default)]
pub(crate) struct Observer {
    /// The recorded trace events, in order, when tracing is enabled.
    pub events: Option<Vec<TraceEvent>>,
    /// Architectural probes, when installed: the writes a probe names
    /// are handed to it for matching.
    pub probes: Option<Box<ProbeRuntime>>,
}

/// What a write to one resource, or a behavior execution or an
/// activation, does while an observer is installed, as
/// [`Counters::plan`] decides it.
///
/// A tagged `u8`, so matching one is a byte compare: the niche-packed
/// layout costs a decode per observed event (the observer table's
/// `empty` and `profile` columns read ~1–2 points higher with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub(crate) enum Route {
    /// Nothing listens.
    #[default]
    Skip,
    /// Only the profile listens: count the event.
    Count,
    /// Hand the event on (a write: memory write heat, the trace and the
    /// probe runtime), counting it first when `count`.
    Emit { count: bool },
}

impl Route {
    fn new(count: bool, emit: bool) -> Route {
        match (count, emit) {
            (_, true) => Route::Emit { count },
            (true, false) => Route::Count,
            (false, false) => Route::Skip,
        }
    }
}

/// Cap on heatmap buckets per memory resource; bucket sizes scale with
/// the resource so small memories keep per-cell resolution.
const MAX_HEAT_BUCKETS: u64 = 64;

/// Cap on the hot-PC table: program counters past this many words of
/// program memory are counted as instructions but not attributed.
const MAX_HOT_PCS: u64 = 1 << 16;

/// The profile's [`ArchCounts`], in the one home both backends bump at
/// their event points, with the routes that decide which events reach
/// them, the trace and the probe runtime. The tables are laid out from
/// the model when the profile is enabled ([`Counters::enable`]) and
/// stay empty until then, so an event point reached with the profile
/// off finds no slot. Zeroed by [`Simulator::restart_profile`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// What a write does, by resource id (empty with no observer).
    writes: Vec<Route>,
    /// What a behavior execution, an activation or a decode does.
    units: Route,
    /// Whether the profile is on.
    profiling: bool,
    /// Cycle the counts started at.
    start: u64,
    /// The counts.
    counts: ArchCounts,
}

impl Counters {
    /// Turns the profile on, laying every table out from the model.
    fn enable(&mut self, model: &Model) {
        self.profiling = true;
        self.counts = ArchCounts::of(model);
    }

    /// Plans the routes for the installed observer: the one place that
    /// decides what a write to each resource, an execution, an
    /// activation and a decode do. A profile counts executions,
    /// activations, decodes and register writes, and takes memory writes
    /// as heat; the trace sees every event; probes match the writes their
    /// set names.
    fn plan(&mut self, model: &Model, observer: Option<&Observer>) {
        self.writes.clear();
        self.units = Route::Skip;
        let Some(obs) = observer else { return };
        let set = obs.probes.as_deref().map(ProbeRuntime::probe_set);
        let (profiling, tracing) = (self.profiling, obs.events.is_some());
        let heat = &self.counts.write_heat;
        self.writes.extend(model.resources().iter().map(|r| {
            let heat = heat.get(r.id.0).is_some_and(Option::is_some);
            let matched = set.is_some_and(|s| s.matches_writes_to(r.id));
            Route::new(profiling && !heat, tracing || matched || heat)
        }));
        self.units = Route::new(profiling, tracing);
    }

    /// Zeroes every count and starts them at cycle `now`, so nothing
    /// recorded before `now` (e.g. on a timeline a snapshot restore
    /// discarded) is reported.
    fn restart(&mut self, now: u64) {
        self.start = now;
        self.counts.clear();
    }
}

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
    register_writes: u64,
    /// Behavior executions, by [`OpId`].
    op_execs: Vec<u64>,
    /// Activations, by target [`OpId`].
    unit_acts: Vec<u64>,
    /// Decodes per program-counter value from `pc_base` on: one slot
    /// per word of the model's first program memory, up to
    /// [`MAX_HOT_PCS`].
    hot_pcs: Vec<u64>,
    /// The program-counter value of `hot_pcs[0]`.
    pc_base: i64,
    /// Stalls that held each stage, by pipeline id and stage index.
    stalls: Vec<Vec<u64>>,
    /// Flushes that covered each stage, laid out like `stalls`.
    flushes: Vec<Vec<u64>>,
    /// Read heat by resource id (`None` for a non-memory resource).
    read_heat: Vec<Option<Heatmap>>,
    /// Write heat, laid out like `read_heat`.
    write_heat: Vec<Option<Heatmap>>,
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

/// `"pipeline.stage"`, the stage key of profiles.
fn stage_key(model: &Model, pipe: PipelineId, stage: usize) -> String {
    let pipeline = model.pipeline(pipe);
    format!("{}.{}", pipeline.name, pipeline.stages[stage])
}

impl ArchCounts {
    /// Zeroed counts with every table laid out from the model.
    fn of(model: &Model) -> ArchCounts {
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
    fn clear(&mut self) {
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
    fn add(&mut self, other: &ArchCounts, cycles: u64) {
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
    fn decode(&mut self, pc: i64) {
        self.instructions += 1;
        let slot = pc.checked_sub(self.pc_base).and_then(|i| usize::try_from(i).ok());
        if let Some(count) = slot.and_then(|i| self.hot_pcs.get_mut(i)) {
            *count += 1;
        }
    }

    /// Adds one to stages `0..=upto` of `pipe` in `table` (the whole
    /// pipeline when `upto` is `None`).
    fn hold(table: &mut [Vec<u64>], pipe: PipelineId, upto: Option<usize>) {
        if let Some(stages) = table.get_mut(pipe.0) {
            let held = upto.map_or(stages.len(), |s| s + 1);
            for count in stages.iter_mut().take(held) {
                *count += 1;
            }
        }
    }

    /// How many runs [`Simulator::add_arch_counts_into`] added into these
    /// counts.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The profile of these counts, keyed by the names of `model` (the
    /// model they were counted on), with no probe hits; stage occupancy
    /// is derived from each executed operation's static stage.
    #[must_use]
    pub fn fold(&self, model: &Model) -> ArchProfile {
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
                *profile.stage_busy.entry(stage_key(model, pipe, stage)).or_default() += n;
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
                    map.insert(stage_key(model, PipelineId(p), s), n);
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

/// Why [`Simulator::run_until`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The halt predicate returned true.
    Halted,
    /// A `break` probe matched a program-counter write.
    Breakpoint {
        /// The matching probe's compiled id.
        probe: u16,
        /// The program-counter value that matched.
        pc: i64,
    },
}

/// A successful [`Simulator::run_until`]: how far it ran and why it
/// stopped. Exhausting the step budget is still the
/// [`SimError::StepLimit`] error, not an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Control steps executed by this call.
    pub cycles: u64,
    /// Why the run stopped.
    pub reason: StopReason,
}

/// Execution backend: the paper's two simulation techniques.
///
/// [`Simulator::new`] stores [`SimMode::Compiled`] as [`SimMode::Ops`],
/// so [`Simulator::mode`], snapshots and metric labels report `ops`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Interpretive simulation (the reference semantics): every
    /// decode-root execution re-decodes the instruction word, and
    /// behaviors are evaluated on the AST with name-based resolution.
    Interpretive,
    /// Compiled simulation (paper §3.3): an alias of [`SimMode::Ops`].
    Compiled,
    /// Compiled simulation as threaded micro-ops: every decoded
    /// instruction instance is translated at predecode time into flat,
    /// label-specialized micro-op code, so the cycle loop dispatches over
    /// a contiguous op array with zero name resolution or tree traversal.
    Ops,
}

/// A cycle-accurate simulator generated from a LISA model.
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
///     OPERATION main {
///         BEHAVIOR { r0 = r0 + 2; pc = pc + 1; }
///     }
/// "#)?;
/// let mut sim = Simulator::new(&model, SimMode::Interpretive)?;
/// sim.run(10)?;
/// let r0 = model.resource_by_name("r0").expect("r0 exists");
/// assert_eq!(sim.state().read_int(r0, &[])?, 20);
/// assert_eq!(sim.stats().cycles, 10);
/// # Ok(())
/// # }
/// ```
pub struct Simulator<'m> {
    pub(crate) model: &'m Model,
    pub(crate) decoder: Option<Decoder<'m>>,
    pub(crate) state: State,
    pub(crate) pipes: Vec<PipeState>,
    /// In-flight delayed activations, in the order they were scheduled:
    /// every site appends, and maturation and flushes keep the order, so
    /// activations maturing on one step run in activation order.
    pub(crate) pending: Vec<Pending>,
    pub(crate) stats: SimStats,
    pub(crate) mode: SimMode,
    /// Translation caches for [`SimMode::Ops`] (`None` in other modes),
    /// over the model's shared image, including the one word cache:
    /// each program word bound to its translated routine.
    ///
    /// Ops execution takes the box out for the length of a step (or an
    /// `execute_decoded` call) and passes it down explicitly, so routines
    /// borrowed from its store run while the rest of `self` is mutated.
    pub(crate) ops: Option<Box<OpsTables<'m>>>,
    pub(crate) observer: Option<Box<Observer>>,
    /// The profile's event counters and write routes.
    pub(crate) counters: Counters,
    pub(crate) pc_res: Option<ResourceId>,
    /// Stats values already exported by `publish_metrics`, so repeated
    /// publishes add only the delta accumulated in between.
    pub(crate) metrics_published: SimStats,
    /// Wall-clock span context, when a caller attached one. `None` keeps
    /// the run loops on their unobserved fast path.
    pub(crate) spans: Option<SpanScope>,
    /// Reusable per-step ready list (capacity persists across steps).
    step_ready: Vec<ExecItem>,
    /// Reusable still-waiting buffer for the maturation partition.
    step_keep: Vec<Pending>,
}

impl std::fmt::Debug for Simulator<'_> {
    /// A concise summary (mode, cycle count, schedule depth) — the full
    /// architectural state is available through [`Simulator::state`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("mode", &self.mode)
            .field("cycles", &self.stats.cycles)
            .field("in_flight", &self.pending.len())
            .field("words", &self.ops.as_ref().map_or(0, |t| t.words.len()))
            .finish_non_exhaustive()
    }
}

impl<'m> Simulator<'m> {
    /// Creates a simulator over zeroed state.
    ///
    /// In [`SimMode::Ops`], the first simulator on a model generates the
    /// model's image (the paper's simulator-generation step): behaviors,
    /// expressions and activations are lowered and every operation's
    /// default-variant routine is translated. The image is kept with the
    /// model, so every later ops simulator on it, on any thread, shares
    /// it and only translates the instances its own program binds.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors in ops mode (e.g. names that can never
    /// resolve); every ops simulator on the model returns the same one.
    pub fn new(model: &'m Model, mode: SimMode) -> Result<Simulator<'m>, SimError> {
        // `Compiled` is the paper's name for the translated backend.
        let mode = match mode {
            SimMode::Interpretive => SimMode::Interpretive,
            SimMode::Compiled | SimMode::Ops => SimMode::Ops,
        };
        let decoder = Decoder::new(model).ok();
        let ops = if mode == SimMode::Ops {
            Some(Box::new(OpsTables::over(model, ModelImage::of(model)?)))
        } else {
            None
        };
        let state = State::new(model);
        let pc_res = model
            .resources()
            .iter()
            .find(|r| r.class == lisa_core::ast::ResourceClass::ProgramCounter)
            .map(|r| r.id);
        Ok(Simulator {
            model,
            decoder,
            state,
            pipes: vec![PipeState::default(); model.pipelines().len()],
            pending: Vec::new(),
            stats: SimStats::default(),
            mode,
            ops,
            observer: None,
            counters: Counters::default(),
            pc_res,
            metrics_published: SimStats::default(),
            spans: None,
            step_ready: Vec::new(),
            step_keep: Vec::new(),
        })
    }

    /// The model being simulated.
    #[must_use]
    pub fn model(&self) -> &'m Model {
        self.model
    }

    /// The execution backend in use.
    #[must_use]
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// Read access to the architectural state.
    #[must_use]
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Mutable access to the architectural state (for loading programs and
    /// data). Replacing it with a state of another model's layout is a
    /// logic error: translated code indexes this model's arena.
    pub fn state_mut(&mut self) -> &mut State {
        &mut self.state
    }

    /// Accumulated execution statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// An owned snapshot of the model's operation / resource / pipeline
    /// names, for rendering trace events and profiles.
    #[must_use]
    pub fn name_table(&self) -> NameTable {
        NameTable::of(self.model)
    }

    fn observer_mut(&mut self) -> &mut Observer {
        self.observer.get_or_insert_with(Box::default)
    }

    /// Follows a change of trace, probes or profile: drops the observer
    /// box again when tracing, profiling and probing are all off,
    /// restoring the single-`None` fast path, and re-plans the write
    /// routes.
    fn observer_changed(&mut self) {
        let idle = |o: &Observer| o.events.is_none() && o.probes.is_none();
        if !self.counters.profiling && self.observer.as_deref().is_some_and(idle) {
            self.observer = None;
        }
        self.counters.plan(self.model, self.observer.as_deref());
    }

    /// Restarts the profile at the current cycle: the simulator's
    /// [`Counters`] and the probe hit counts.
    pub(crate) fn restart_profile(&mut self) {
        if let Some(runtime) = self.runtime_mut() {
            runtime.restart();
        }
        self.counters.restart(self.stats.cycles);
    }

    /// Enables or disables the execution trace.
    ///
    /// Enabling starts recording every event, in order, into a buffer
    /// (kept if tracing is on already); disabling drops the buffer and
    /// the events in it but leaves an active architecture profile
    /// running.
    pub fn set_trace(&mut self, enabled: bool) {
        if enabled {
            self.observer_mut().events.get_or_insert_with(Vec::new);
        } else if let Some(obs) = self.observer.as_mut() {
            obs.events = None;
        }
        self.observer_changed();
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.observer.as_ref().is_some_and(|o| o.events.is_some())
    }

    /// Takes the events recorded so far, oldest first; tracing stays as
    /// it is (with tracing off there are none).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.observer
            .as_mut()
            .and_then(|o| o.events.as_mut())
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Takes the accumulated trace as legacy formatted lines
    /// (`"[cycle] exec main"` …) — a thin formatter over
    /// [`Simulator::take_events`].
    pub fn take_trace(&mut self) -> Vec<String> {
        let events = self.take_events();
        if events.is_empty() {
            return Vec::new();
        }
        let names = NameTable::of(self.model);
        events.iter().map(|e| names.line(e)).collect()
    }

    /// Installs a compiled probe set (watchpoints, PC breakpoints and
    /// tracepoints). Matched watch/trace probes emit
    /// [`TraceEvent::ProbeHit`] into the trace stream; `break` probes
    /// additionally stop [`Simulator::run_until`] with
    /// [`StopReason::Breakpoint`]. `set` must be compiled against this
    /// simulator's model. Replaces any previously installed set: hit
    /// counts restart at zero for the new probes. A running architecture
    /// profile is not touched: it keeps its counters and start cycle.
    pub fn set_probes(&mut self, set: ProbeSet) {
        let obs = self.observer_mut();
        match obs.probes.as_mut() {
            Some(runtime) => runtime.set_probes(set),
            None => obs.probes = Some(Box::new(ProbeRuntime::new(set))),
        }
        self.observer_changed();
    }

    /// Removes the installed probes and their hit counts. A running
    /// architecture profile keeps running, from then on without hits.
    pub fn clear_probes(&mut self) {
        if let Some(obs) = self.observer.as_mut() {
            obs.probes = None;
        }
        self.observer_changed();
    }

    /// Whether a probe set is installed (by [`Simulator::set_probes`],
    /// even an empty one). The architecture profile installs none.
    #[must_use]
    pub fn probing(&self) -> bool {
        self.observer.as_ref().is_some_and(|o| o.probes.is_some())
    }

    /// Starts architecture profiling — instructions, hot PCs, stage
    /// occupancy/stalls/flushes, utilization counters and memory
    /// heatmaps — from this cycle. The counters live in the simulator,
    /// so profiling needs no probes; installed probes add their hit
    /// counts to the profile. On a running profile this restarts it from
    /// zero at the current cycle, probe hit counts included.
    pub fn enable_arch_profile(&mut self) {
        self.counters.enable(self.model);
        // Event sites report only while an observer box is installed.
        self.observer_mut();
        self.observer_changed();
        self.restart_profile();
    }

    /// The architecture profile accumulated since
    /// [`Simulator::enable_arch_profile`] (or the last
    /// [`Simulator::restore`]), with [`ArchProfile::cycles`] set to the
    /// control steps covered and the installed probes' hit counts.
    /// Non-destructive — counting goes on. `None` when arch profiling is
    /// off.
    #[must_use]
    pub fn arch_profile(&self) -> Option<ArchProfile> {
        if !self.counters.profiling {
            return None;
        }
        let mut profile = self.counters.counts.fold(self.model);
        profile.cycles = self.stats.cycles.saturating_sub(self.counters.start);
        for (label, n) in self.probe_report().into_iter().filter(|&(_, n)| n > 0) {
            *profile.hits.entry(label).or_default() += n;
        }
        Some(profile)
    }

    /// Adds the architecture profile's counts since
    /// [`Simulator::enable_arch_profile`] (or the last
    /// [`Simulator::restore`]) into `sum`, a sum of runs of this
    /// simulator's model: [`Simulator::arch_profile`] without the fold
    /// or the probe hits, for callers that aggregate many runs and read
    /// the profile rarely. Adds nothing when arch profiling is off.
    pub fn add_arch_counts_into(&self, sum: &mut ArchCounts) {
        if self.counters.profiling {
            sum.add(&self.counters.counts, self.stats.cycles.saturating_sub(self.counters.start));
        }
    }

    /// Total probe hits recorded since the probe set was installed (or
    /// the architecture profile last restarted).
    #[must_use]
    pub fn probe_hits(&self) -> u64 {
        self.observer.as_ref().and_then(|o| o.probes.as_ref()).map_or(0, |p| p.total_hits())
    }

    /// Per-probe hit report: `(label, hits)` in probe-id order.
    #[must_use]
    pub fn probe_report(&self) -> Vec<(String, u64)> {
        let Some(runtime) = self.observer.as_ref().and_then(|o| o.probes.as_ref()) else {
            return Vec::new();
        };
        runtime
            .probe_set()
            .labels()
            .iter()
            .enumerate()
            .map(|(i, label)| (label.clone(), runtime.hit_count(i as u16)))
            .collect()
    }

    /// Takes the latched breakpoint stop, if any.
    fn take_probe_stop(&mut self) -> Option<(u16, i64)> {
        self.observer.as_mut()?.probes.as_mut()?.take_stop()
    }

    /// Attaches a wall-clock span context: phase spans (predecode, cycle
    /// chunks, snapshot/restore) are recorded under `scope`'s parent.
    /// Pass `None` to detach; with no scope attached the run loops keep
    /// their unobserved fast path.
    pub fn set_spans(&mut self, scope: Option<SpanScope>) {
        self.spans = scope;
    }

    /// The attached span context, if any.
    #[must_use]
    pub fn spans(&self) -> Option<&SpanScope> {
        self.spans.as_ref()
    }

    /// One branch on the cycle path: anything observing this simulator?
    #[inline]
    pub(crate) fn observing(&self) -> bool {
        self.observer.is_some()
    }

    /// The installed probe runtime, if any.
    fn runtime_mut(&mut self) -> Option<&mut ProbeRuntime> {
        self.observer.as_mut()?.probes.as_deref_mut()
    }

    /// Records an event, if tracing is on. Only the trace sees
    /// `TraceEvent`s: the emit helpers bump [`Counters`] and
    /// hand writes to the probe runtime directly, and `Fetch` and `Print`
    /// events, which neither needs, are built only while
    /// [`Simulator::tracing`].
    pub(crate) fn record(&mut self, event: &TraceEvent) {
        if let Some(events) = self.observer.as_mut().and_then(|o| o.events.as_mut()) {
            events.push(*event);
        }
    }

    /// Counts a behavior-level read of a memory as read heat. The
    /// backends call this from their read funnels, so read heat is
    /// accumulated identically in both modes. With the profile off the
    /// heat table is empty: one bounds check.
    #[inline]
    pub(crate) fn count_read(&mut self, res: ResourceId, flat: usize) {
        if let Some(Some(heat)) = self.counters.counts.read_heat.get_mut(res.0) {
            heat.record(flat as u64);
        }
    }

    /// The current program-counter value (`-1` when the model declares
    /// no `PROGRAM_COUNTER` resource).
    pub(crate) fn current_pc(&self) -> i64 {
        self.pc_res.and_then(|r| self.state.read_flat(r, 0)).unwrap_or(-1)
    }

    // The emit helpers below report one event each. Callers guard them
    // with [`Simulator::observing`], so nothing is built when observation
    // is off. A trace event is built only while tracing; probe
    // hits a write triggers follow it in the same stream.

    /// Reports a write along its planned [`Route`]: a register-write
    /// count, then [`Simulator::hand_off_write`]. `flat` is worked out
    /// only for a write that is handed off. Inlined into the ops
    /// backend's store paths; the interpreter calls it through
    /// [`Simulator::emit_write`].
    #[inline(always)]
    pub(crate) fn route_write(
        &mut self,
        res: ResourceId,
        flat: impl FnOnce(&Self) -> usize,
        value: i64,
    ) {
        match self.counters.writes.get(res.0) {
            Some(&Route::Emit { count }) => {
                if count {
                    self.counters.counts.register_writes += 1;
                }
                let flat = flat(self);
                self.hand_off_write(res, flat, value);
            }
            Some(Route::Count) => self.counters.counts.register_writes += 1,
            Some(Route::Skip) | None => {}
        }
    }

    /// [`Simulator::route_write`] out of line, so the interpreter's write
    /// funnel stays as small as without observation.
    #[inline(never)]
    pub(crate) fn emit_write(&mut self, res: ResourceId, flat: usize, value: i64) {
        self.route_write(res, |_| flat, value);
    }

    /// Hands a write routed [`Route::Emit`] on: a memory write's heat to
    /// the profile, the class's write event to the trace, the write to the
    /// probe runtime. Out of line, so a skipped or counted write pays no
    /// frame for it.
    #[inline(never)]
    fn hand_off_write(&mut self, res: ResourceId, flat: usize, value: i64) {
        let cycle = self.stats.cycles;
        let model = self.model;
        let addr = flat as u64;
        if let Some(Some(heat)) = self.counters.counts.write_heat.get_mut(res.0) {
            heat.record(addr);
        }
        let Some(obs) = self.observer.as_deref_mut() else { return };
        let Observer { events, probes, .. } = obs;
        if let Some(events) = events.as_mut() {
            let event = match model.resource(res).class {
                ResourceClass::DataMemory | ResourceClass::ProgramMemory => {
                    TraceEvent::MemoryAccess { cycle, resource: res, addr, value }
                }
                _ => TraceEvent::RegisterWrite { cycle, resource: res, addr, value },
            };
            events.push(event);
        }
        if let Some(runtime) = probes.as_mut() {
            runtime.match_write(cycle, res, addr, value, |hit| {
                if let Some(events) = events.as_mut() {
                    events.push(hit);
                }
            });
        }
    }

    /// Reports a behavior execution of `op`, scheduled or invoked, along
    /// the planned [`Counters::units`] route. Out of line, so the ops
    /// backend's unobserved dispatch loop stays as small as it is
    /// without observation (inlined, a report read ~1.5% slower on
    /// `kernels-ops`); the event is built in a cold helper, so a report
    /// with tracing off is one byte compare and at most one add.
    #[inline(never)]
    pub(crate) fn emit_exec(&mut self, op: OpId) {
        match self.counters.units {
            Route::Skip => {}
            Route::Count => self.counters.counts.op_execs[op.0] += 1,
            Route::Emit { count } => {
                if count {
                    self.counters.counts.op_execs[op.0] += 1;
                }
                self.trace_exec(op);
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn trace_exec(&mut self, op: OpId) {
        let stage = self.model.operation(op).stage.map(|(p, s)| (p, s as u16));
        let event = TraceEvent::Exec { cycle: self.stats.cycles, op, stage, pc: self.current_pc() };
        self.record(&event);
    }

    /// Reports the decode of `word` to `op` along the planned
    /// [`Counters::units`] route. The program counter is read only for
    /// the trace or a running profile.
    pub(crate) fn emit_decode(&mut self, word: u128, op: OpId, cache_hit: bool) {
        let count = match self.counters.units {
            Route::Skip => return,
            Route::Count => true,
            Route::Emit { count } => count,
        };
        let pc = self.current_pc();
        if count {
            self.counters.counts.decode(pc);
        }
        if self.tracing() {
            self.record(&TraceEvent::Decode { cycle: self.stats.cycles, pc, word, op, cache_hit });
        }
    }

    /// Reports an activation of `to` by `from` after `delay` steps, like
    /// [`Simulator::emit_exec`].
    #[inline(never)]
    pub(crate) fn emit_activation(&mut self, from: OpId, to: OpId, delay: u32) {
        match self.counters.units {
            Route::Skip => {}
            Route::Count => self.counters.counts.unit_acts[to.0] += 1,
            Route::Emit { count } => {
                if count {
                    self.counters.counts.unit_acts[to.0] += 1;
                }
                self.trace_activation(from, to, delay);
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn trace_activation(&mut self, from: OpId, to: OpId, delay: u32) {
        self.record(&TraceEvent::Activation { cycle: self.stats.cycles, from, to, delay });
    }

    /// Fetches the instruction word held in the decode root `root` and
    /// reports the fetch; only the trace sees fetches, so callers need no
    /// `observing` guard.
    #[inline]
    pub(crate) fn fetch(&mut self, root: ResourceId) -> u128 {
        let word = self.state.word_flat(root, 0).expect("model build keeps decode roots scalar");
        if self.tracing() {
            let event = TraceEvent::Fetch { cycle: self.stats.cycles, pc: self.current_pc(), word };
            self.record(&event);
        }
        word
    }

    /// Decodes every word of all `PROGRAM_MEMORY` resources and binds it
    /// to its translated routine in the ops word cache — the
    /// translate-time part of compiled simulation. Words that do not
    /// decode are skipped (data in program memory), as are words bound
    /// already. The interpreter decodes on every fetch and keeps no word
    /// cache, so in interpretive mode this does nothing.
    ///
    /// Returns the number of distinct words newly bound (0 in
    /// interpretive mode).
    pub fn predecode_program_memory(&mut self) -> usize {
        let Some(t) = self.ops.as_deref_mut() else { return 0 };
        let _span = self.spans.as_ref().map(|s| s.start(SpanKind::Predecode));
        let Some(decoder) = &self.decoder else { return 0 };
        let mut added = 0;
        for res in self.model.resources() {
            if res.class != ResourceClass::ProgramMemory {
                continue;
            }
            for flat in 0..self.state.element_count(res.id) {
                // Keyed by the declared-width bits, as fetch sees the word:
                // a sign-extended cell of an `int` memory would miss.
                let Some(word) = self.state.word_flat(res.id, flat) else { continue };
                if !t.words.contains_key(&word) && t.bind_word(decoder, word).is_ok() {
                    added += 1;
                }
            }
        }
        added
    }

    /// Decodes an instruction word afresh (interpretive mode only).
    pub(crate) fn decode_word(&mut self, word: u128) -> Result<Arc<Decoded>, SimError> {
        self.stats.decodes += 1;
        let decoder =
            self.decoder.as_ref().ok_or(SimError::Decode(lisa_isa::IsaError::NoDecodeRoot))?;
        let decoded = Arc::new(decoder.decode(word)?);
        if self.observing() {
            self.emit_decode(word, decoded.op, false);
        }
        Ok(decoded)
    }

    /// Executes one control step.
    ///
    /// # Errors
    ///
    /// Propagates behavior-evaluation errors ([`SimError`]); the step is
    /// partially applied when an error is returned.
    pub fn step(&mut self) -> Result<(), SimError> {
        for pipe in &mut self.pipes {
            pipe.stall_upto = None;
        }

        // Ready list: `main` first (the cycle driver), then matured
        // pendings in FIFO order. The buffers are owned by the simulator
        // so the steady-state cycle loop performs no allocation.
        let mut ready = std::mem::take(&mut self.step_ready);
        ready.clear();
        if let Some(main) = self.model.main_op() {
            ready.push(ExecItem { op: main, bind: Binding::Unbound });
        }
        // Partition by moving (no clones): matured items to the ready
        // list, waiting items back into `pending`, both in schedule order.
        std::mem::swap(&mut self.pending, &mut self.step_keep);
        for p in self.step_keep.drain(..) {
            if p.remaining == 0 {
                ready.push(p.item);
            } else {
                self.pending.push(p);
            }
        }

        let mut ops = self.ops.take();
        let mut i = 0;
        let result = loop {
            if i >= ready.len() {
                break Ok(());
            }
            // Move the item out (Copy op id, `take` the binding) instead
            // of cloning: nothing re-reads a consumed slot.
            let item = ExecItem { op: ready[i].op, bind: std::mem::take(&mut ready[i].bind) };
            i += 1;
            // A stalled stage holds its operation: re-queue for the next
            // control step instead of executing (`pipe.stage.stall()`
            // freezes that stage and everything upstream of it).
            if let Some((pid, stage)) = self.model.operation(item.op).stage {
                if self.pipes[pid.0].stall_upto.is_some_and(|s| stage <= s) {
                    self.pending.push(Pending { item, pipe: Some((pid, stage)), remaining: 0 });
                    continue;
                }
            }
            if let Err(e) = self.execute_item(ops.as_deref_mut(), &item, &mut ready) {
                break Err(e);
            }
        };
        self.ops = ops;
        self.step_ready = ready;
        self.ops_reclaim_if_full();
        result?;

        // Advance non-pipelined delayed activations; pipelined ones only
        // advance on `shift()`.
        for p in &mut self.pending {
            if p.pipe.is_none() && p.remaining > 0 {
                p.remaining -= 1;
            }
        }

        self.stats.cycles += 1;
        Ok(())
    }

    /// Control steps covered by one `cycle_chunk` span when a span
    /// context is attached — coarse enough that span recording never
    /// shows up next to per-step work.
    pub const SPAN_CHUNK_STEPS: u64 = 4096;

    /// Runs `steps` control steps.
    ///
    /// # Errors
    ///
    /// Stops at the first failing step.
    pub fn run(&mut self, steps: u64) -> Result<(), SimError> {
        let mut left = steps;
        while left > 0 {
            let chunk = left.min(Self::SPAN_CHUNK_STEPS);
            let _span = self.spans.as_ref().map(|s| s.start(SpanKind::CycleChunk));
            for _ in 0..chunk {
                self.step()?;
            }
            left -= chunk;
        }
        Ok(())
    }

    /// Runs until `halted` returns true or a `break` probe matches
    /// (both checked after each step), up to `max_steps`. The halt
    /// predicate wins when both trigger on the same step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StepLimit`] if the budget is exhausted first.
    pub fn run_until(
        &mut self,
        mut halted: impl FnMut(&State) -> bool,
        max_steps: u64,
    ) -> Result<RunOutcome, SimError> {
        let start = self.stats.cycles;
        // A stop latched before this call (e.g. during a fixed-step
        // `run`, which ignores breakpoints) is stale — discard it.
        if self.observing() {
            self.take_probe_stop();
        }
        let mut done = 0;
        while done < max_steps {
            let chunk = (max_steps - done).min(Self::SPAN_CHUNK_STEPS);
            let _span = self.spans.as_ref().map(|s| s.start(SpanKind::CycleChunk));
            for _ in 0..chunk {
                self.step()?;
                if let Some(reason) = self.stop_reason(&mut halted) {
                    return Ok(RunOutcome { cycles: self.stats.cycles - start, reason });
                }
            }
            done += chunk;
        }
        Err(SimError::StepLimit { limit: max_steps })
    }

    /// Post-step stop check for [`Simulator::run_until`]: the halt
    /// predicate first (it wins ties and clears any latched stop), then
    /// breakpoints.
    #[inline]
    fn stop_reason(&mut self, halted: &mut impl FnMut(&State) -> bool) -> Option<StopReason> {
        if halted(&self.state) {
            if self.observing() {
                self.take_probe_stop();
            }
            return Some(StopReason::Halted);
        }
        if self.observing() {
            if let Some((probe, pc)) = self.take_probe_stop() {
                return Some(StopReason::Breakpoint { probe, pc });
            }
        }
        None
    }

    /// Executes one scheduled item: behavior, then activation. `ops` is
    /// the simulator's ops tables, taken out for the step (ops mode only).
    fn execute_item(
        &mut self,
        ops: Option<&mut OpsTables<'_>>,
        item: &ExecItem,
        ready: &mut Vec<ExecItem>,
    ) -> Result<(), SimError> {
        self.stats.executed_ops += 1;
        if let Some(t) = ops {
            return self.execute_item_ops(t, item, ready);
        }
        let operation = self.model.operation(item.op);

        // Decode-root operations fetch their binding from the compared
        // resource ("the coding sequences of all defined operations must be
        // compared to the actual value of the current instruction word").
        // Routine bindings exist only in ops mode.
        let decoded: Option<Arc<Decoded>> = match (&item.bind, operation.decode_root) {
            (Binding::Decoded(d), _) => Some(Arc::clone(d)),
            (_, Some(root_res)) => {
                let word = self.fetch(root_res);
                Some(self.decode_word(word)?)
            }
            (_, None) => None,
        };

        let variant = match &decoded {
            Some(d) if d.op == item.op => d.variant,
            _ => operation.default_variant(),
        };

        if self.observing() {
            self.emit_exec(item.op);
        }

        self.exec_behavior_interp(item.op, variant, decoded.as_deref())?;
        self.run_activation(item.op, variant, decoded.as_deref(), ready)?;
        if operation.decode_root.is_some() {
            self.stats.instructions_retired += 1;
        }
        Ok(())
    }

    /// [`SimMode::Ops`] twin of `execute_item`: identical fetch/decode
    /// bookkeeping and event order, but the behavior runs as translated
    /// micro-op code addressed by routine id.
    fn execute_item_ops(
        &mut self,
        t: &mut OpsTables<'_>,
        item: &ExecItem,
        ready: &mut Vec<ExecItem>,
    ) -> Result<(), SimError> {
        let operation = self.model.operation(item.op);
        let id = match (&item.bind, operation.decode_root) {
            // Activation targets resolved at translate time carry their
            // routine: no cache probe.
            (Binding::Routine(id), _) => *id,
            // Only `execute_decoded` schedules a decoded binding here.
            (Binding::Decoded(d), _) => t.bind(item.op, d),
            (Binding::Unbound, Some(root_res)) => {
                let word = self.fetch(root_res);
                // The word's own routine, unless its decode names an
                // operation other than this decode root.
                let id = self.ops_decode_word(t, word)?;
                t.rebind(item.op, id)
            }
            (Binding::Unbound, None) => t.unbound[item.op.0],
        };

        if self.observing() {
            self.emit_exec(item.op);
        }

        self.run_routine(t, id)?;
        self.schedule_plan(t, id, ready)?;
        if operation.decode_root.is_some() {
            self.stats.instructions_retired += 1;
        }
        Ok(())
    }

    /// Runs the ACTIVATION section of an operation for the interpretive
    /// backend (ops mode runs translated activation plans).
    fn run_activation(
        &mut self,
        op: OpId,
        variant: usize,
        decoded: Option<&Decoded>,
        ready: &mut Vec<ExecItem>,
    ) -> Result<(), SimError> {
        let operation = self.model.operation(op);
        let Some(activation) = operation.variants[variant].activation.as_ref() else {
            return Ok(());
        };
        self.run_act_nodes(activation, op, decoded, ready)
    }

    pub(crate) fn run_act_nodes(
        &mut self,
        nodes: &[lisa_core::ast::ActNode],
        op: OpId,
        decoded: Option<&Decoded>,
        ready: &mut Vec<ExecItem>,
    ) -> Result<(), SimError> {
        use lisa_core::ast::ActNode;
        for node in nodes {
            match node {
                ActNode::Activate { name, delay } => {
                    self.activate_name(&name.name, *delay, op, decoded, ready)?;
                }
                ActNode::Call { call, delay } => {
                    // Pipeline intrinsics act immediately regardless of
                    // delay 0 (stall/flush/shift are control operations);
                    // operation calls schedule like activations.
                    if self.try_pipe_intrinsic(call)? {
                        continue;
                    }
                    let target = call.path.first().map(|p| p.name.clone()).unwrap_or_default();
                    self.activate_name(&target, *delay, op, decoded, ready)?;
                }
                ActNode::If { cond, then_items, else_items, .. } => {
                    let value = self.eval_condition(cond, op, decoded)?;
                    let branch = if value != 0 { then_items } else { else_items };
                    self.run_act_nodes(branch, op, decoded, ready)?;
                }
                ActNode::Switch { scrutinee, cases, default, .. } => {
                    let value = self.eval_condition(scrutinee, op, decoded)?;
                    let body =
                        cases.iter().find(|(v, _)| *v == value).map(|(_, b)| b).unwrap_or(default);
                    self.run_act_nodes(body, op, decoded, ready)?;
                }
            }
        }
        Ok(())
    }

    /// Resolves an activation target name (group of the current operation,
    /// then operation by name) and schedules it.
    fn activate_name(
        &mut self,
        name: &str,
        extra_delay: u32,
        from_op: OpId,
        decoded: Option<&Decoded>,
        ready: &mut Vec<ExecItem>,
    ) -> Result<(), SimError> {
        let operation = self.model.operation(from_op);
        let item = if let Some(gidx) = operation.group_index(name) {
            let child =
                decoded.and_then(|d| d.group_child_rc(self.model, gidx)).ok_or_else(|| {
                    SimError::UnboundGroup {
                        group: name.to_owned(),
                        operation: operation.name.clone(),
                    }
                })?;
            ExecItem { op: child.op, bind: Binding::Decoded(child) }
        } else if let Some(target) = self.model.operation_by_name(name) {
            // Direct operation activation; if the current binding has a
            // matching op-reference child, pass it along.
            let child = decoded.and_then(|d| {
                let coding =
                    self.model.operation(from_op).variants.get(d.variant)?.coding.as_ref()?;
                coding.fields.iter().zip(&d.children).find_map(|(f, c)| match (&f.target, c) {
                    (lisa_core::model::CodingTarget::Op(o), Some(c)) if *o == target.id => {
                        Some(Arc::clone(c))
                    }
                    _ => None,
                })
            });
            ExecItem { op: target.id, bind: child.map_or(Binding::Unbound, Binding::Decoded) }
        } else {
            return Err(SimError::UnknownActivation {
                name: name.to_owned(),
                operation: operation.name.clone(),
            });
        };

        self.stats.activations += 1;
        let target_stage = self.model.operation(item.op).stage;
        let from_stage = operation.stage;
        let spatial = match (from_stage, target_stage) {
            (_, None) => 0,
            (None, Some((_, s))) => s as u32,
            (Some((p0, s0)), Some((p1, s1))) if p0 == p1 => s1.saturating_sub(s0) as u32,
            (Some(_), Some((_, s1))) => s1 as u32,
        };
        let total = spatial + extra_delay;
        if self.observing() {
            self.emit_activation(from_op, item.op, total);
        }
        if total == 0 {
            ready.push(item);
        } else {
            self.pending.push(Pending { item, pipe: target_stage, remaining: total });
        }
        Ok(())
    }

    /// Handles `pipe.shift()`, `pipe.stall()`, `pipe.flush()` and their
    /// per-stage forms. Returns `false` if the call is not a pipeline
    /// intrinsic.
    pub(crate) fn try_pipe_intrinsic(
        &mut self,
        call: &lisa_core::ast::Call,
    ) -> Result<bool, SimError> {
        let Some(first) = call.path.first() else { return Ok(false) };
        let Some(pipeline) = self.model.pipelines().iter().find(|p| p.name == first.name) else {
            return Ok(false);
        };
        let pid = pipeline.id;
        let path_str = || call.path.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join(".");
        match call.path.len() {
            2 => {
                let action = call.path[1].name.as_str();
                match action {
                    "shift" => self.pipe_shift(pid),
                    "stall" => self.pipe_stall(pid, pipeline.depth().saturating_sub(1)),
                    "flush" => self.pipe_flush(pid, None),
                    _ => return Err(SimError::UnknownPipeline { path: path_str() }),
                }
            }
            3 => {
                let stage = call.path[1].name.as_str();
                let sidx = pipeline
                    .stage_index(stage)
                    .ok_or_else(|| SimError::UnknownPipeline { path: path_str() })?;
                let action = call.path[2].name.as_str();
                match action {
                    "stall" => self.pipe_stall(pid, sidx),
                    "flush" => self.pipe_flush(pid, Some(sidx)),
                    _ => return Err(SimError::UnknownPipeline { path: path_str() }),
                }
            }
            _ => return Err(SimError::UnknownPipeline { path: path_str() }),
        }
        Ok(true)
    }

    /// Advances a pipeline by one stage: delayed activations bound for
    /// non-stalled stages move one step closer to execution.
    pub(crate) fn pipe_shift(&mut self, pid: PipelineId) {
        let stall_upto = self.pipes[pid.0].stall_upto;
        for p in &mut self.pending {
            if let Some((ppid, stage)) = p.pipe {
                if ppid == pid && p.remaining > 0 && stall_upto.is_none_or(|s| stage > s) {
                    p.remaining -= 1;
                }
            }
        }
    }

    /// Requests a stall of stages `0..=upto` for the current control step.
    pub(crate) fn pipe_stall(&mut self, pid: PipelineId, upto: usize) {
        self.stats.stalls += 1;
        let bucket = upto.min(crate::stats::STALL_STAGE_BUCKETS - 1);
        self.stats.stall_by_stage[bucket] += 1;
        let entry = &mut self.pipes[pid.0].stall_upto;
        *entry = Some(entry.map_or(upto, |prev| prev.max(upto)));
        if self.observing() {
            ArchCounts::hold(&mut self.counters.counts.stalls, pid, Some(upto));
            if self.tracing() {
                let upto = upto.min(usize::from(u16::MAX)) as u16;
                self.record(&TraceEvent::Stall { cycle: self.stats.cycles, pipe: pid, upto });
            }
        }
    }

    /// Discards in-flight activations bound for stages `0..=upto` (whole
    /// pipeline when `upto` is `None`).
    pub(crate) fn pipe_flush(&mut self, pid: PipelineId, upto: Option<usize>) {
        self.stats.flushes += 1;
        let before = self.pending.len();
        self.pending.retain(|p| match p.pipe {
            Some((ppid, stage)) if ppid == pid => match upto {
                None => false,
                Some(s) => stage > s,
            },
            _ => true,
        });
        if self.observing() {
            ArchCounts::hold(&mut self.counters.counts.flushes, pid, upto);
            if self.tracing() {
                let upto = upto.map(|s| s.min(usize::from(u16::MAX)) as u16);
                let discarded = (before - self.pending.len()) as u32;
                let event =
                    TraceEvent::Flush { cycle: self.stats.cycles, pipe: pid, upto, discarded };
                self.record(&event);
            }
        }
    }

    /// Evaluates an ACTIVATION condition for the interpretive backend
    /// (ops mode lowers conditions at translate time).
    fn eval_condition(
        &mut self,
        expr: &lisa_core::ast::Expr,
        op: OpId,
        decoded: Option<&Decoded>,
    ) -> Result<i64, SimError> {
        let mut frame = crate::eval::Frame::new(op, decoded);
        self.eval_expr_interp(expr, &mut frame)
    }

    /// Directly injects a decoded instruction for execution this step —
    /// used by tests and by front-ends that bypass fetch modelling.
    pub fn execute_decoded(&mut self, decoded: &Decoded) -> Result<(), SimError> {
        let mut ready =
            vec![ExecItem { op: decoded.op, bind: Binding::Decoded(Arc::new(decoded.clone())) }];
        let mut ops = self.ops.take();
        let mut i = 0;
        let result = loop {
            if i >= ready.len() {
                break Ok(());
            }
            let item = ready[i].clone();
            if let Err(e) = self.execute_item(ops.as_deref_mut(), &item, &mut ready) {
                break Err(e);
            }
            i += 1;
        };
        self.ops = ops;
        self.ops_reclaim_if_full();
        result
    }

    /// Number of delayed activations currently in flight (diagnostics).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Writes a program image (words) into a `PROGRAM_MEMORY` resource
    /// starting at its base address: [`Simulator::load_program_at`] the
    /// memory's first address.
    ///
    /// # Errors
    ///
    /// Returns addressing errors if the image exceeds the memory.
    pub fn load_program(&mut self, memory: &str, words: &[u128]) -> Result<(), SimError> {
        let base = self.model.resource_by_name(memory).and_then(|r| r.dims.first());
        self.load_program_at(memory, base.map_or(0, |d| d.base()), words)
    }

    /// Writes a program image (words) into resource `memory` from address
    /// `origin` on, then runs [`Simulator::predecode_program_memory`]: in
    /// ops mode every program word is decoded and translated to micro-op
    /// code here (the translate-time step of compiled simulation), so
    /// callers never predecode by hand after loading; the interpreter
    /// decodes nothing ahead. An empty image writes nothing, and `memory`
    /// is then not looked up.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] for an unknown memory, and
    /// addressing errors if the image exceeds it.
    pub fn load_program_at(
        &mut self,
        memory: &str,
        origin: u64,
        words: &[u128],
    ) -> Result<(), SimError> {
        if !words.is_empty() {
            let res = self.model.resource_by_name(memory).ok_or_else(|| SimError::UnknownName {
                name: memory.to_owned(),
                operation: "<loader>".into(),
            })?;
            for (i, &word) in words.iter().enumerate() {
                let value = Bits::from_u128_wrapped(res.ty.width(), word);
                self.state.write(res, &[origin as i64 + i as i64], value)?;
            }
        }
        self.predecode_program_memory();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use lisa_probe::ProbeSpec;

    use super::*;

    #[test]
    fn routes_follow_the_trace_probes_and_profile() {
        use Route::{Count, Emit, Skip};
        let model = Model::from_source(
            "RESOURCE { PROGRAM_COUNTER int pc; REGISTER int acc; DATA_MEMORY int dmem[16]; }
             OPERATION main { BEHAVIOR { pc = pc + 1; } }",
        )
        .expect("model builds");
        let mut sim = Simulator::new(&model, SimMode::Ops).expect("simulator builds");
        // The write routes of `pc`, `acc` and `dmem`, and the units route.
        let routes = |sim: &Simulator<'_>| {
            let writes = ["pc", "acc", "dmem"]
                .map(|n| sim.counters.writes.get(model.resource_by_name(n).unwrap().id.0).copied());
            (writes, sim.counters.units)
        };
        let (count, heat, both) =
            (Some(Count), Some(Emit { count: false }), Some(Emit { count: true }));
        assert_eq!(routes(&sim), ([None; 3], Skip), "no observer, no routes");
        sim.set_probes(ProbeSet::empty(&model));
        assert_eq!(routes(&sim), ([Some(Skip); 3], Skip));
        sim.enable_arch_profile();
        assert_eq!(routes(&sim), ([count, count, heat], Count));
        let probes = ProbeSpec::parse("watch acc; break 9").unwrap().compile(&model).unwrap();
        sim.set_probes(probes);
        let expected = ([both, both, heat], Count);
        assert_eq!(routes(&sim), expected, "PC probes match every PC write");
        sim.set_probes(ProbeSet::empty(&model));
        assert_eq!(routes(&sim), ([count, count, heat], Count));
        sim.set_trace(true);
        let expected = ([both, both, heat], Emit { count: true });
        assert_eq!(routes(&sim), expected, "the trace sees every event");
        sim.clear_probes();
        assert!(!sim.probing());
        assert_eq!(routes(&sim), expected, "the profile outlives the probes");
        sim.set_trace(false);
        assert_eq!(routes(&sim), ([count, count, heat], Count), "the profile alone");
    }
}
