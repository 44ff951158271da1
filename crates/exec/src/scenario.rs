//! Scenario description and single-job execution.

use std::sync::Arc;

use lisa_bits::Bits;
use lisa_core::Model;
use lisa_sim::{SimMode, Simulator, Snapshot};

use crate::report::JobResult;

/// A golden expectation checked after a scenario finishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// Resource name (register file, memory, scalar register…).
    pub resource: String,
    /// Element index for array resources; `None` for scalars.
    pub index: Option<i64>,
    /// Expected value, compared modulo the resource's declared width.
    pub expected: i64,
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobError {
    /// The scenario could not be set up (bad resource name, snapshot
    /// mismatch, ops-mode lowering failure…).
    Setup(String),
    /// Simulation raised a runtime error (including an exhausted step
    /// budget).
    Sim(String),
    /// A golden check did not hold.
    Check {
        /// Resource checked.
        resource: String,
        /// Element index, if the resource is an array.
        index: Option<i64>,
        /// Value found.
        got: i64,
        /// Value expected.
        expected: i64,
    },
    /// The job panicked; the panic was contained to this job.
    Panic(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Setup(msg) => write!(f, "setup failed: {msg}"),
            JobError::Sim(msg) => write!(f, "simulation failed: {msg}"),
            JobError::Check { resource, index, got, expected } => match index {
                Some(i) => write!(f, "check failed: {resource}[{i}] = {got}, expected {expected}"),
                None => write!(f, "check failed: {resource} = {got}, expected {expected}"),
            },
            JobError::Panic(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// One batch job: everything needed to run a simulation to completion
/// and judge the result.
///
/// Construct with [`Scenario::new`] and refine with the builder methods;
/// all fields are public for direct assembly too. Scenarios borrow their
/// model (`&'m Model`) and are `Sync`, so a slice of them can be shared
/// across worker threads without cloning model databases.
#[derive(Clone)]
pub struct Scenario<'m> {
    /// Display name, used in reports (e.g. `vliw_dot_32@Ops`).
    pub name: String,
    /// The model to simulate.
    pub model: &'m Model,
    /// Execution backend.
    pub mode: SimMode,
    /// `PROGRAM_MEMORY` resource the program loads into (ignored when
    /// [`Scenario::program`] is empty).
    pub program_memory: String,
    /// Load address of the first program word.
    pub origin: u64,
    /// Program image.
    pub program: Vec<u128>,
    /// Initial data pokes: `(resource, index, value)`; the index is
    /// ignored for scalar resources.
    pub data: Vec<(String, i64, i64)>,
    /// Golden expectations verified after the run.
    pub checks: Vec<Check>,
    /// Scalar resource that halts the run when nonzero; `None` runs
    /// exactly [`Scenario::max_steps`] control steps.
    pub halt_flag: Option<String>,
    /// Step budget (exceeding it with a halt flag set is a
    /// [`JobError::Sim`] failure).
    pub max_steps: u64,
    /// Checkpoint to fork from instead of zeroed reset state.
    pub base: Option<Arc<Snapshot>>,
    /// Collect a [`lisa_sim::ArchProfile`] for this job (adds per-event
    /// aggregation overhead to the run).
    pub profile: bool,
}

impl std::fmt::Debug for Scenario<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("program_words", &self.program.len())
            .field("checks", &self.checks.len())
            .field("max_steps", &self.max_steps)
            .field("forked", &self.base.is_some())
            .finish_non_exhaustive()
    }
}

impl<'m> Scenario<'m> {
    /// A scenario with no program, no checks, and a 10 000-step budget.
    pub fn new(name: impl Into<String>, model: &'m Model, mode: SimMode) -> Scenario<'m> {
        Scenario {
            name: name.into(),
            model,
            mode,
            program_memory: String::new(),
            origin: 0,
            program: Vec::new(),
            data: Vec::new(),
            checks: Vec::new(),
            halt_flag: None,
            max_steps: 10_000,
            base: None,
            profile: false,
        }
    }

    /// Sets the program image and where it loads.
    #[must_use]
    pub fn program(mut self, memory: impl Into<String>, origin: u64, words: Vec<u128>) -> Self {
        self.program_memory = memory.into();
        self.origin = origin;
        self.program = words;
        self
    }

    /// Adds an initial data write (`index` ignored for scalars).
    #[must_use]
    pub fn poke(mut self, resource: impl Into<String>, index: i64, value: i64) -> Self {
        self.data.push((resource.into(), index, value));
        self
    }

    /// Adds a golden check.
    #[must_use]
    pub fn expect(
        mut self,
        resource: impl Into<String>,
        index: Option<i64>,
        expected: i64,
    ) -> Self {
        self.checks.push(Check { resource: resource.into(), index, expected });
        self
    }

    /// Halts when the named scalar becomes nonzero.
    #[must_use]
    pub fn halt_on(mut self, flag: impl Into<String>) -> Self {
        self.halt_flag = Some(flag.into());
        self
    }

    /// Sets the step budget.
    #[must_use]
    pub fn steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Forks from a checkpoint instead of zeroed reset state.
    #[must_use]
    pub fn from_snapshot(mut self, base: Arc<Snapshot>) -> Self {
        self.base = Some(base);
        self
    }

    /// Collects an architecture profile for this job.
    #[must_use]
    pub fn profiled(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }
}

/// Runs one scenario to completion: build a simulator, restore the base
/// checkpoint if any, load program and data, run to the halt condition,
/// then verify every check.
///
/// This is the function [`crate::BatchRunner`] invokes on worker
/// threads; it is public so single jobs can be run inline (the CLI's
/// `--workers 0` debugging path, tests).
///
/// # Errors
///
/// Any stage maps to the matching [`JobError`] variant.
pub fn run_scenario(sc: &Scenario<'_>) -> Result<JobResult, JobError> {
    run_scenario_with(sc, None)
}

/// [`run_scenario`] with an optional span context attached to the
/// simulator, so the job's phases (snapshot restore, predecode, cycle
/// chunks) land as children of the caller's span tree. `None` is exactly
/// [`run_scenario`].
///
/// # Errors
///
/// Any stage maps to the matching [`JobError`] variant.
pub fn run_scenario_with(
    sc: &Scenario<'_>,
    spans: Option<&lisa_spans::SpanScope>,
) -> Result<JobResult, JobError> {
    let started = std::time::Instant::now();
    let setup = |e: lisa_sim::SimError| JobError::Setup(e.to_string());

    let mut sim = Simulator::new(sc.model, sc.mode).map_err(setup)?;
    sim.set_spans(spans.cloned());
    if let Some(base) = &sc.base {
        sim.restore(base).map_err(setup)?;
    }

    // Data first, so a poke into program memory is pre-decoded with the
    // program.
    for (resource, index, value) in &sc.data {
        let res = sc
            .model
            .resource_by_name(resource)
            .ok_or_else(|| JobError::Setup(format!("unknown resource `{resource}`")))?
            .clone();
        let indices: &[i64] = if res.is_array() { std::slice::from_ref(index) } else { &[] };
        sim.state_mut().write_int(&res, indices, *value).map_err(setup)?;
    }
    sim.load_program_at(&sc.program_memory, sc.origin, &sc.program).map_err(setup)?;
    if sc.profile {
        sim.enable_arch_profile();
    }

    let cycles = match &sc.halt_flag {
        Some(flag) => {
            let halt = sc
                .model
                .resource_by_name(flag)
                .ok_or_else(|| JobError::Setup(format!("unknown halt flag `{flag}`")))?
                .clone();
            sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, sc.max_steps)
                .map_err(|e| JobError::Sim(e.to_string()))?
                .cycles
        }
        None => {
            sim.run(sc.max_steps).map_err(|e| JobError::Sim(e.to_string()))?;
            sc.max_steps
        }
    };

    for check in &sc.checks {
        let res = sc.model.resource_by_name(&check.resource).ok_or_else(|| {
            JobError::Setup(format!("unknown check resource `{}`", check.resource))
        })?;
        let indices: &[i64] = match (&check.index, res.is_array()) {
            (Some(i), true) => std::slice::from_ref(i),
            _ => &[],
        };
        let got = sim.state().read(res, indices).map_err(|e| JobError::Setup(e.to_string()))?;
        // Compare modulo the declared width, like the kernel harness.
        let expected = Bits::from_i128_wrapped(res.ty.width(), i128::from(check.expected));
        if got != expected {
            return Err(JobError::Check {
                resource: check.resource.clone(),
                index: check.index,
                got: sim.state().read_int(res, indices).unwrap_or_default(),
                expected: check.expected,
            });
        }
    }

    Ok(JobResult {
        cycles,
        stats: *sim.stats(),
        state_digest: sim.state().digest(),
        profile: sim.arch_profile(),
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn halting_counter() -> Model {
        Model::from_source(
            r#"RESOURCE {
                   PROGRAM_COUNTER int pc;
                   REGISTER int r0;
                   CONTROL_REGISTER bit halt;
               }
               OPERATION main {
                   BEHAVIOR { r0 = r0 + 1; halt = r0 == 5; pc = pc + 1; }
               }"#,
        )
        .expect("model builds")
    }

    #[test]
    fn halt_flag_stops_the_run_and_checks_pass() {
        let model = halting_counter();
        let sc = Scenario::new("halt", &model, SimMode::Interpretive)
            .halt_on("halt")
            .steps(100)
            .expect("r0", None, 5);
        let result = run_scenario(&sc).expect("job succeeds");
        assert_eq!(result.cycles, 5);
        assert_eq!(result.stats.cycles, 5);
    }

    #[test]
    fn failed_check_reports_got_and_expected() {
        let model = halting_counter();
        let sc = Scenario::new("bad", &model, SimMode::Interpretive)
            .halt_on("halt")
            .expect("r0", None, 7);
        match run_scenario(&sc) {
            Err(JobError::Check { resource, got, expected, .. }) => {
                assert_eq!(resource, "r0");
                assert_eq!(got, 5);
                assert_eq!(expected, 7);
            }
            other => panic!("expected check failure, got {other:?}"),
        }
    }

    #[test]
    fn step_budget_exhaustion_is_a_sim_error() {
        let model = halting_counter();
        let sc = Scenario::new("budget", &model, SimMode::Interpretive).halt_on("halt").steps(3);
        assert!(matches!(run_scenario(&sc), Err(JobError::Sim(_))));
    }

    #[test]
    fn data_pokes_and_snapshot_forks_apply() {
        let model = halting_counter();
        // Poke r0 close to the halt value: halts in 2 steps.
        let sc =
            Scenario::new("poke", &model, SimMode::Interpretive).poke("r0", 0, 3).halt_on("halt");
        assert_eq!(run_scenario(&sc).expect("ok").cycles, 2);

        // Fork from a warm simulator 4 steps in: halts in 1 step.
        let mut warm = Simulator::new(&model, SimMode::Interpretive).unwrap();
        warm.run(4).unwrap();
        let snap = Arc::new(warm.snapshot());
        let sc = Scenario::new("fork", &model, SimMode::Interpretive)
            .from_snapshot(snap)
            .halt_on("halt");
        assert_eq!(run_scenario(&sc).expect("ok").cycles, 1);
    }

    #[test]
    fn profiled_scenario_returns_a_profile() {
        let model = halting_counter();
        let sc = Scenario::new("plain", &model, SimMode::Interpretive).halt_on("halt");
        assert!(run_scenario(&sc).expect("ok").profile.is_none(), "profiling is opt-in");

        let sc =
            Scenario::new("profiled", &model, SimMode::Interpretive).halt_on("halt").profiled(true);
        let result = run_scenario(&sc).expect("ok");
        let profile = result.profile.expect("profile collected");
        assert_eq!(profile.cycles, result.cycles);
        assert_eq!(profile.op_execs["main"], 5);
        assert!(profile.register_writes > 0, "r0/halt/pc writes recorded");
    }

    #[test]
    fn unknown_names_fail_setup() {
        let model = halting_counter();
        for sc in [
            Scenario::new("a", &model, SimMode::Interpretive).program("nope", 0, vec![1]),
            Scenario::new("b", &model, SimMode::Interpretive).poke("nope", 0, 1),
            Scenario::new("c", &model, SimMode::Interpretive).halt_on("nope"),
            Scenario::new("d", &model, SimMode::Interpretive).expect("nope", None, 0),
        ] {
            assert!(matches!(run_scenario(&sc), Err(JobError::Setup(_))), "{}", sc.name);
        }
    }
}
