//! Execution oracles: the invariants every synthesized program is
//! checked against.
//!
//! The primary oracle runs both backends — the interpretive reference
//! and the translated micro-op backend (`ops`, the paper's compiled
//! simulation) — in **lockstep**, comparing
//! [`State::digest`](lisa_sim::State::digest) and the mode-independent
//! [`SimStats`] fields after every control step — the strictest
//! cross-check the workspace can express, and a direct generalization
//! of the paper's §4.1 `sim62x` comparison.
//!
//! Three **metamorphic** oracles then assert that semantics-preserving
//! transformations of a run do not change its result: snapshotting at a
//! mid-run cycle and resuming (in either backend), tracing with probes
//! and the architectural profile armed (whose hit streams and aggregates
//! must also be mode-independent), and running through `lisa-exec`'s
//! batch scheduler instead of a plain loop.
//!
//! A [`Fault`] can be injected into the ops backend to prove the
//! harness end-to-end: a flipped halt flag must be detected by the
//! lockstep oracle and shrink to a trivial program.

use lisa_core::ast::ResourceClass;
use lisa_core::model::Resource;
use lisa_exec::{run_scenario, BatchRunner, JobError, Scenario};
use lisa_models::Workbench;
use lisa_sim::{
    ArchProfile, ProbeSpec, RunOutcome, SimError, SimMode, SimStats, Simulator, StopReason,
    TraceEvent,
};

/// Which oracle detected a divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Interpretive vs ops lockstep state + stats comparison (every
    /// cycle).
    Lockstep,
    /// Snapshot at a mid-run cycle, resume in both backends.
    SnapshotRestore,
    /// `lisa-exec` batch execution vs sequential execution.
    BatchParity,
    /// Traced, probed and profiled vs plain execution, and probe hit
    /// streams and architectural profile across both backends.
    ProbeParity,
}

impl OracleKind {
    /// Stable label used in reproducer files and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::Lockstep => "lockstep",
            OracleKind::SnapshotRestore => "snapshot-restore",
            OracleKind::BatchParity => "batch-parity",
            OracleKind::ProbeParity => "probe-parity",
        }
    }
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a (divergence-free) run ended. Two backends *agreeing* on an
/// error or an exhausted budget is a pass: the invariant under test is
/// equivalence, not success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The halt flag was raised.
    Halted {
        /// Control steps until the halt was observed.
        cycles: u64,
        /// Final state digest (identical in every backend).
        digest: u64,
    },
    /// The cycle budget ran out before the halt flag rose.
    Budget {
        /// State digest at the budget boundary.
        digest: u64,
    },
    /// Every backend raised the same runtime error.
    Error {
        /// The shared diagnostic text.
        message: String,
    },
}

/// A detected conformance violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The oracle that fired.
    pub oracle: OracleKind,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// A deliberate backend corruption for harness self-validation: from
/// `at_cycle` on, the ops simulator's halt flag is inverted after
/// every step. The lockstep oracle must catch this on the first
/// affected cycle for *any* program, so shrinking must reach a trivial
/// reproducer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// First control step (0-based) after which the flag is inverted.
    pub at_cycle: u64,
}

/// Runs every applicable oracle on one program image.
///
/// The lockstep oracle always runs and determines the reference
/// [`Outcome`]; the metamorphic oracles run only on clean (fault-free)
/// executions, since an injected fault is expected to fail lockstep
/// before they would matter.
///
/// # Errors
///
/// The first [`Verdict`] any oracle produces.
pub fn check_all(
    wb: &Workbench,
    image: &[u128],
    max_cycles: u64,
    fault: Option<Fault>,
) -> Result<Outcome, Verdict> {
    let reference = lockstep(wb, image, max_cycles, fault)?;
    if fault.is_none() {
        if let Outcome::Halted { cycles, digest } = reference {
            if cycles >= 2 {
                snapshot_restore(wb, image, max_cycles, cycles, digest)?;
            }
        }
        batch_parity(wb, image, max_cycles, &reference)?;
        probe_parity(wb, image, max_cycles, &reference)?;
    }
    Ok(reference)
}

fn halt_resource(wb: &Workbench) -> Result<Resource, Verdict> {
    wb.model().resource_by_name(wb.halt_flag()).cloned().ok_or_else(|| Verdict {
        oracle: OracleKind::Lockstep,
        detail: format!("model has no halt flag `{}`", wb.halt_flag()),
    })
}

fn halted(sim: &Simulator<'_>, halt: &Resource) -> bool {
    sim.state().read_int(halt, &[]).unwrap_or(0) != 0
}

/// Mode-independent stats fields; `decode_cache_hits` is deliberately
/// excluded (it is the one field the backends legitimately disagree
/// on).
fn stats_mismatch(la: &str, a: &SimStats, lb: &str, b: &SimStats) -> Option<String> {
    let fields = [
        ("cycles", a.cycles, b.cycles),
        ("executed_ops", a.executed_ops, b.executed_ops),
        ("decodes", a.decodes, b.decodes),
        ("activations", a.activations, b.activations),
        ("stalls", a.stalls, b.stalls),
        ("flushes", a.flushes, b.flushes),
        ("instructions_retired", a.instructions_retired, b.instructions_retired),
    ];
    for (name, x, y) in fields {
        if x != y {
            return Some(format!("stats.{name}: {la}={x} {lb}={y}"));
        }
    }
    if a.stall_by_stage != b.stall_by_stage {
        return Some(format!(
            "stats.stall_by_stage: {la}={:?} {lb}={:?}",
            a.stall_by_stage, b.stall_by_stage
        ));
    }
    None
}

/// The lockstep differential oracle.
fn lockstep(
    wb: &Workbench,
    image: &[u128],
    max_cycles: u64,
    fault: Option<Fault>,
) -> Result<Outcome, Verdict> {
    let fail = |detail: String| Verdict { oracle: OracleKind::Lockstep, detail };
    let halt = halt_resource(wb)?;

    const MODES: [(SimMode, &str); 2] =
        [(SimMode::Interpretive, "interpretive"), (SimMode::Ops, "ops")];
    let mut sims = Vec::with_capacity(MODES.len());
    for (mode, _) in MODES {
        sims.push(wb.simulator(mode).map_err(|e| fail(e.to_string()))?);
    }
    let loads: Vec<_> =
        sims.iter_mut().map(|sim| sim.load_program(wb.program_memory(), image)).collect();
    if loads.iter().all(Result::is_ok) {
        // fall through to the cycle loop
    } else if let Some(Err(first)) = loads.first() {
        let message = first.to_string();
        if loads.iter().all(|l| matches!(l, Err(e) if e.to_string() == message)) {
            return Ok(Outcome::Error { message });
        }
        return Err(fail(format!("program load disagrees: {loads:?}")));
    } else {
        return Err(fail(format!("program load disagrees: {loads:?}")));
    }

    for cycle in 0..max_cycles {
        let results: Vec<_> = sims.iter_mut().map(lisa_sim::Simulator::step).collect();
        if let Some(f) = fault {
            if cycle >= f.at_cycle {
                let ops = &mut sims[1];
                let cur = ops.state().read_int(&halt, &[]).unwrap_or(0);
                let flipped = i64::from(cur == 0);
                ops.state_mut()
                    .write_int(&halt, &[], flipped)
                    .map_err(|e| fail(format!("fault injection failed: {e}")))?;
            }
        }
        match &results[0] {
            Ok(()) => {
                for ((_, label), r) in MODES.iter().zip(&results).skip(1) {
                    if let Err(e) = r {
                        return Err(fail(format!("cycle {cycle}: only {label} failed: `{e}`")));
                    }
                }
            }
            Err(first) => {
                let message = first.to_string();
                for ((_, label), r) in MODES.iter().zip(&results).skip(1) {
                    match r {
                        Err(e) if e.to_string() == message => {}
                        Err(e) => {
                            return Err(fail(format!(
                                "cycle {cycle}: backends failed differently: \
                                 interpretive=`{message}` {label}=`{e}`"
                            )));
                        }
                        Ok(()) => {
                            return Err(fail(format!(
                                "cycle {cycle}: interpretive failed but {label} did not: \
                                 `{message}`"
                            )));
                        }
                    }
                }
                return Ok(Outcome::Error { message });
            }
        }
        for ((_, label), sim) in MODES.iter().zip(&sims).skip(1) {
            if sim.state() != sims[0].state() {
                let (da, db) = (sims[0].state().digest(), sim.state().digest());
                return Err(fail(format!(
                    "cycle {cycle}: state digest diverged: \
                     interpretive={da:#018x} {label}={db:#018x}"
                )));
            }
        }
        if let Some(detail) =
            stats_mismatch(MODES[0].1, sims[0].stats(), MODES[1].1, sims[1].stats())
        {
            return Err(fail(format!("cycle {cycle}: {detail}")));
        }
        if halted(&sims[0], &halt) {
            let digest = sims[0].state().digest();
            return Ok(Outcome::Halted { cycles: sims[0].stats().cycles, digest });
        }
    }
    Ok(Outcome::Budget { digest: sims[0].state().digest() })
}

/// Metamorphic oracle: snapshot at the midpoint, resume in the same
/// backend and in the other backend; both continuations must agree
/// bit-exactly with the uninterrupted run, the lockstep reference that
/// halted after `total_cycles` with state digest `digest`.
fn snapshot_restore(
    wb: &Workbench,
    image: &[u128],
    max_cycles: u64,
    total_cycles: u64,
    digest: u64,
) -> Result<(), Verdict> {
    let fail = |detail: String| Verdict { oracle: OracleKind::SnapshotRestore, detail };
    let halt = halt_resource(wb)?;
    let mid = total_cycles / 2;
    let rest_budget = max_cycles - mid;

    let mut base = wb.simulator(SimMode::Interpretive).map_err(|e| fail(e.to_string()))?;
    base.load_program(wb.program_memory(), image).map_err(|e| fail(e.to_string()))?;
    base.run(mid).map_err(|e| fail(format!("run to midpoint: {e}")))?;
    let snap = base.snapshot();
    let rest = RunOutcome { cycles: total_cycles - mid, reason: StopReason::Halted };
    let want = (rest, digest);

    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let mut resumed = wb.simulator(mode).map_err(|e| fail(e.to_string()))?;
        resumed.restore(&snap).map_err(|e| fail(format!("restore into {mode:?}: {e}")))?;
        if resumed.state() != snap.state() {
            return Err(fail(format!("restore into {mode:?} changed the state")));
        }
        let rest = resumed
            .run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, rest_budget)
            .map_err(|e| fail(format!("resumed continuation in {mode:?}: {e}")))?;
        let got = (rest, resumed.state().digest());
        if got != want {
            return Err(fail(format!(
                "resumed {mode:?} run diverged after cycle {mid}: \
                 (cycles, digest) = {got:?}, uninterrupted = {want:?}"
            )));
        }
    }

    // The reverse direction: a snapshot *taken* in ops mode must restore
    // into the interpreter and continue identically.
    let mut ops = wb.simulator(SimMode::Ops).map_err(|e| fail(e.to_string()))?;
    ops.load_program(wb.program_memory(), image).map_err(|e| fail(e.to_string()))?;
    ops.run(mid).map_err(|e| fail(format!("ops run to midpoint: {e}")))?;
    let ops_snap = ops.snapshot();
    if ops_snap.state() != snap.state() {
        return Err(fail("ops-mode midpoint state differs from interpretive".to_string()));
    }
    let mut resumed = wb.simulator(SimMode::Interpretive).map_err(|e| fail(e.to_string()))?;
    resumed.restore(&ops_snap).map_err(|e| fail(format!("restore ops snapshot: {e}")))?;
    let rest = resumed
        .run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, rest_budget)
        .map_err(|e| fail(format!("continuation from ops snapshot: {e}")))?;
    if (rest, resumed.state().digest()) != want {
        return Err(fail(format!(
            "continuation from an ops-mode snapshot diverged after cycle {mid}: \
             (cycles, digest) = {:?}, uninterrupted = {want:?}",
            (rest, resumed.state().digest())
        )));
    }
    Ok(())
}

/// Derives a probe spec that exercises every watchable surface the
/// model offers: a full-range watch on each data memory plus a register
/// trace probe on the first register file.
pub fn derived_probe_spec(wb: &Workbench) -> Option<ProbeSpec> {
    let mut clauses = Vec::new();
    let mut reg_done = false;
    for res in wb.model().resources() {
        match res.class {
            ResourceClass::DataMemory => clauses.push(format!("watch {}", res.name)),
            ResourceClass::Register if res.is_array() && !reg_done => {
                clauses.push(format!("reg {}", res.name));
                reg_done = true;
            }
            _ => {}
        }
    }
    ProbeSpec::parse(&clauses.join("; ")).ok()
}

/// What one probed run observed: the outcome plus everything the
/// probe layer produced. All of it must be mode-independent.
#[derive(Debug, PartialEq)]
struct ProbedRun {
    outcome: Outcome,
    hits: Vec<TraceEvent>,
    report: Vec<(String, u64)>,
    profile: Option<ArchProfile>,
}

/// Runs one backend with the derived probes armed and the architectural
/// profile on, collecting the full probe hit stream.
fn run_probed(
    wb: &Workbench,
    mode: SimMode,
    image: &[u128],
    max_cycles: u64,
    spec: Option<&ProbeSpec>,
) -> Result<ProbedRun, String> {
    let mut sim = wb.simulator(mode).map_err(|e| e.to_string())?;
    let halt = halt_resource(wb).map_err(|v| v.detail)?;
    sim.set_trace(true);
    if let Some(spec) = spec {
        sim.set_probes(spec.compile(wb.model()).map_err(|e| e.to_string())?);
    }
    sim.enable_arch_profile();
    sim.load_program(wb.program_memory(), image).map_err(|e| e.to_string())?;

    let mut hits = Vec::new();
    let mut drain = |sim: &mut Simulator<'_>| {
        hits.extend(
            sim.take_events().into_iter().filter(|e| matches!(e, TraceEvent::ProbeHit { .. })),
        );
    };
    let mut outcome = None;
    for cycle in 0..max_cycles {
        if let Err(e) = sim.step() {
            outcome = Some(Outcome::Error { message: e.to_string() });
            break;
        }
        if cycle % 256 == 255 {
            // Keep the event buffer bounded on long runs.
            drain(&mut sim);
        }
        if halted(&sim, &halt) {
            outcome =
                Some(Outcome::Halted { cycles: sim.stats().cycles, digest: sim.state().digest() });
            break;
        }
    }
    drain(&mut sim);
    Ok(ProbedRun {
        outcome: outcome.unwrap_or(Outcome::Budget { digest: sim.state().digest() }),
        hits,
        report: sim.probe_report(),
        profile: sim.arch_profile(),
    })
}

/// Metamorphic oracle: tracing, arming probes and profiling must not
/// change execution in either backend, and the probe hit stream, hit
/// counts and architectural profile must be identical in every backend.
fn probe_parity(
    wb: &Workbench,
    image: &[u128],
    max_cycles: u64,
    reference: &Outcome,
) -> Result<(), Verdict> {
    let fail = |detail: String| Verdict { oracle: OracleKind::ProbeParity, detail };
    let spec = derived_probe_spec(wb);

    let mut runs = Vec::new();
    for mode in [SimMode::Interpretive, SimMode::Ops] {
        let run = run_probed(wb, mode, image, max_cycles, spec.as_ref())
            .map_err(|e| fail(format!("probed {mode:?} run failed to start: {e}")))?;
        if run.outcome != *reference {
            return Err(fail(format!(
                "probed {mode:?} run diverged from plain execution: \
                 plain={reference:?} probed={:?}",
                run.outcome
            )));
        }
        runs.push((mode, run));
    }

    let (_, want) = &runs[0];
    for (mode, got) in &runs[1..] {
        if got.hits != want.hits {
            return Err(fail(format!(
                "probe hit streams differ: interpretive saw {} hits, {mode:?} saw {} \
                 (first divergence at index {})",
                want.hits.len(),
                got.hits.len(),
                want.hits
                    .iter()
                    .zip(&got.hits)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| { want.hits.len().min(got.hits.len()) })
            )));
        }
        if got.report != want.report {
            return Err(fail(format!(
                "probe hit counts differ: interpretive={:?} {mode:?}={:?}",
                want.report, got.report
            )));
        }
        if got.profile != want.profile {
            return Err(fail(format!(
                "architectural profile differs between interpretive and {mode:?}: \
                 {:?} vs {:?}",
                want.profile, got.profile
            )));
        }
    }
    Ok(())
}

/// Metamorphic oracle: `lisa-exec` batch execution (worker pool and
/// inline) must reproduce the sequential result.
fn batch_parity(
    wb: &Workbench,
    image: &[u128],
    max_cycles: u64,
    reference: &Outcome,
) -> Result<(), Verdict> {
    let fail = |detail: String| Verdict { oracle: OracleKind::BatchParity, detail };
    let mem = wb
        .model()
        .resource_by_name(wb.program_memory())
        .ok_or_else(|| fail(format!("no program memory `{}`", wb.program_memory())))?;
    let origin = mem.dims.first().map_or(0, |d| d.base());

    let sc = Scenario::new("conform", wb.model(), SimMode::Ops)
        .program(wb.program_memory(), origin, image.to_vec())
        .halt_on(wb.halt_flag())
        .steps(max_cycles);

    let inline = run_scenario(&sc);
    check_batch_result(&inline, reference, max_cycles, "inline").map_err(fail)?;

    let report = BatchRunner::new(2).run(&[sc.clone(), sc]);
    for job in &report.jobs {
        check_batch_result(&job.result, reference, max_cycles, &format!("job {}", job.index))
            .map_err(fail)?;
    }
    Ok(())
}

/// Compares one `lisa-exec` job result against the sequential outcome.
fn check_batch_result(
    result: &Result<lisa_exec::JobResult, JobError>,
    reference: &Outcome,
    max_cycles: u64,
    which: &str,
) -> Result<(), String> {
    match (reference, result) {
        (Outcome::Halted { cycles, digest }, Ok(job)) => {
            if job.cycles != *cycles || job.state_digest != *digest {
                return Err(format!(
                    "{which}: batch run finished with (cycles, digest) = ({}, {:#018x}), \
                     sequential = ({cycles}, {digest:#018x})",
                    job.cycles, job.state_digest
                ));
            }
            Ok(())
        }
        (Outcome::Budget { .. }, Err(JobError::Sim(msg)))
            if *msg == SimError::StepLimit { limit: max_cycles }.to_string() =>
        {
            Ok(())
        }
        (Outcome::Error { message }, Err(JobError::Sim(msg))) if msg == message => Ok(()),
        (expected, got) => {
            Err(format!("{which}: batch result {got:?} does not match sequential {expected:?}"))
        }
    }
}
