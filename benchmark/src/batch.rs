//! The `batch-matrix` workload: `BatchRunner::new(2)` over
//! `full_matrix()` × {interp, ops}, job order permuted by the seed every
//! round; and the exec section of the traced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lisa_bits::Bits;
use lisa_conform::Rng;
use lisa_exec::{BatchReport, BatchRunner, Scenario};
use lisa_models::kernels::{full_matrix, Kernel};
use lisa_models::Workbench;
use lisa_sim::{SimMode, Simulator};

use crate::kernels::{load, Traced};
use crate::report::{
    host_factor_on, mean, percentile, print_breakdown, shuffle, timed, Calibration, EndToEnd,
    Layers, Round, SetupTimes, Stage,
};

/// Batches per group of [`crate::report::median_of_best_low`].
const BEST_OF: usize = 4;

/// Batch worker threads.
const WORKERS: usize = 2;

type Matrix = Vec<(Workbench, Vec<Kernel>)>;

fn scenarios(matrix: &Matrix) -> Vec<Scenario<'_>> {
    matrix
        .iter()
        .flat_map(|(wb, kernels)| {
            kernels.iter().flat_map(move |k| {
                [SimMode::Interpretive, SimMode::Ops].into_iter().map(move |m| wb.scenario(k, m))
            })
        })
        .collect()
}

/// Expected (cycles, digest) per job name, from one verified round in
/// which every kernel's interp and ops jobs pass their golden checks and
/// agree with each other. Returns the map and the disagreements.
fn reference(jobs: &[Scenario<'_>]) -> (BTreeMap<String, (u64, u64)>, u64) {
    let report = BatchRunner::new(WORKERS).run(jobs);
    let mut refs = BTreeMap::new();
    let mut bad = 0;
    for job in &report.jobs {
        match &job.result {
            Ok(r) => {
                refs.insert(job.name.clone(), (r.cycles, r.state_digest));
            }
            Err(e) => {
                eprintln!("job {}: {e}", job.name);
                bad += 1;
            }
        }
    }
    for name in refs.keys().filter(|n| n.ends_with("@Interpretive")) {
        let ops = name.replace("@Interpretive", "@Ops");
        if refs.get(&ops) != refs.get(name) {
            eprintln!("job {name}: interp and ops disagree on cycles or state digest");
            bad += 1;
        }
    }
    (refs, bad)
}

/// Failed jobs of one round: errors, failed checks, or results that
/// differ from the reference.
fn failures(report: &BatchReport, refs: &BTreeMap<String, (u64, u64)>) -> u64 {
    report
        .jobs
        .iter()
        .filter(|j| match &j.result {
            Ok(r) => refs.get(&j.name) != Some(&(r.cycles, r.state_digest)),
            Err(_) => true,
        })
        .count() as u64
}

/// One seeded permutation of the job list.
fn permuted<'m>(jobs: &[Scenario<'m>], rng: &mut Rng) -> Vec<Scenario<'m>> {
    let mut perm = jobs.to_vec();
    shuffle(&mut perm, rng);
    perm
}

/// `full_matrix()` plus its scenarios: the workload's set-up.
fn build() -> Matrix {
    let matrix = full_matrix().expect("models build");
    drop(scenarios(&matrix));
    matrix
}

/// Batch rounds of the live workload: every round runs the whole job
/// list, permuted by the seed, on a fresh [`BatchRunner`], timed at the
/// [`host_factor_on`] its workers' cores measured right before it.
fn live_rounds(
    jobs: &[Scenario<'_>],
    refs: &BTreeMap<String, (u64, u64)>,
    rng: &mut Rng,
    deadline: Instant,
    e2e: &mut EndToEnd,
) -> Vec<Round> {
    let mut rounds = Vec::new();
    while Instant::now() < deadline || rounds.is_empty() {
        let perm = permuted(jobs, rng);
        let factor = host_factor_on(Calibration::Interpreter, WORKERS);
        let report = BatchRunner::new(WORKERS).run(&perm);
        e2e.attempted += report.jobs.len() as u64;
        e2e.failed += failures(&report, refs);
        let latencies_us: Vec<f64> = report
            .jobs
            .iter()
            .filter_map(|j| j.result.as_ref().ok())
            .map(|r| factor * r.elapsed.as_secs_f64() * 1e6)
            .collect();
        rounds.push(Round {
            ops: latencies_us.len() as f64,
            secs: factor * report.elapsed.as_secs_f64(),
            raw_secs: report.elapsed.as_secs_f64(),
            cycles: report.total_cycles() as f64,
            latencies_us,
        });
    }
    rounds
}

/// The untraced `batch-matrix` workload.
pub fn run(seed: u64, budget: Duration) -> EndToEnd {
    let mut setup = SetupTimes::default();
    let matrix = setup.repeat(build);
    let jobs = scenarios(&matrix);
    let (refs, bad) = reference(&jobs);
    let mut e2e = EndToEnd { attempted: jobs.len() as u64, failed: bad, ..EndToEnd::default() };
    let rounds = live_rounds(&jobs, &refs, &mut Rng::new(seed), Instant::now() + budget, &mut e2e);
    drop(setup.repeat(build));
    e2e.setup_s = setup.seconds();
    e2e.summarize(&rounds, BEST_OF);
    e2e
}

/// Stage times of one sequentially replayed job, in microseconds.
#[derive(Default)]
struct JobStages {
    new: f64,
    load: f64,
    predecode: f64,
    run: f64,
    check: f64,
    job: f64,
}

/// Replays one scenario stage by stage with the public calls
/// `run_scenario` makes, then times `run_scenario` itself on the same
/// thread. Returns whether both results match.
fn replay(sc: &Scenario<'_>) -> (bool, JobStages) {
    let mut t = JobStages::default();
    let (sim, us) = timed(|| Simulator::new(sc.model, sc.mode).expect("builds"));
    t.new = us;
    let mut sim = sim;
    let data: Vec<(&str, i64, i64)> =
        sc.data.iter().map(|(r, i, v)| (r.as_str(), *i, *v)).collect();
    t.load =
        timed(|| load(&mut sim, sc.model, &sc.program_memory, sc.origin, &sc.program, &data)).1;
    if sc.mode != SimMode::Interpretive {
        t.predecode = timed(|| sim.predecode_program_memory()).1;
    }
    let (cycles, us) = timed(|| {
        let flag = sc.halt_flag.as_deref().expect("kernel scenarios halt on a flag");
        let halt = sc.model.resource_by_name(flag).expect("halt flag").clone();
        sim.run_until(|st| st.read_int(&halt, &[]).unwrap_or(0) != 0, sc.max_steps)
            .map(|o| o.cycles)
    });
    t.run = us;
    let (checks_ok, us) = timed(|| {
        sc.checks.iter().all(|c| {
            let Some(res) = sc.model.resource_by_name(&c.resource) else { return false };
            let indices: &[i64] = match (&c.index, res.is_array()) {
                (Some(i), true) => std::slice::from_ref(i),
                _ => &[],
            };
            let expected = Bits::from_i128_wrapped(res.ty.width(), i128::from(c.expected));
            sim.state().read(res, indices).is_ok_and(|got| got == expected)
        })
    });
    t.check = us;
    let (job, us) = timed(|| lisa_exec::run_scenario(sc));
    t.job = us;
    let same = match (&cycles, &job) {
        (Ok(c), Ok(r)) => *c == r.cycles && r.state_digest == sim.state().digest(),
        _ => false,
    };
    (checks_ok && same, t)
}

/// The traced exec section: live batch rounds for the first half of the
/// budget (job latency percentiles, worker busy ratio), then a
/// sequential stage-by-stage replay of the jobs until `deadline`.
pub fn section(seed: u64, deadline: Instant, layers: &mut Layers) -> Traced {
    let matrix = full_matrix().expect("models build");
    let jobs = scenarios(&matrix);
    let (refs, bad) = reference(&jobs);
    let mut rng = Rng::new(seed ^ 0x0062_6174_6368);
    let now = Instant::now();
    let live_deadline = now + deadline.saturating_duration_since(now) / 2;
    let mut live = EndToEnd { attempted: jobs.len() as u64, failed: bad, ..EndToEnd::default() };
    let rounds = live_rounds(&jobs, &refs, &mut rng, live_deadline, &mut live);
    let wall: f64 = rounds.iter().map(|r| r.secs).sum();
    let busy: f64 = rounds.iter().flat_map(|r| &r.latencies_us).sum::<f64>() / 1e6;
    let job_us: Vec<f64> = rounds.iter().flat_map(|r| r.latencies_us.iter().copied()).collect();
    live.summarize(&rounds, BEST_OF);
    let mut traced = Traced {
        attempted: live.attempted,
        failed: live.failed,
        path: live,
        unaccounted_share: 0.0,
    };
    let busy_ratio = busy / (WORKERS as f64 * wall);
    layers.set("exec.job_p50_us", percentile(&job_us, 50.0));
    layers.set("exec.job_p90_us", percentile(&job_us, 90.0));
    layers.set("exec.worker_busy_ratio", busy_ratio);
    println!(
        "  batch: {} jobs on {WORKERS} workers, busy {:.1}% of worker time, idle tail {:.1}%",
        job_us.len(),
        100.0 * busy_ratio,
        100.0 * (1.0 - busy_ratio)
    );

    let mut stages = Vec::new();
    loop {
        for sc in permuted(&jobs, &mut rng) {
            let (ok, t) = replay(&sc);
            traced.attempted += 1;
            if !ok {
                traced.failed += 1;
            }
            stages.push(t);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let col = |f: fn(&JobStages) -> f64| mean(&stages.iter().map(f).collect::<Vec<_>>());
    let rows = [
        Stage { name: "Simulator::new", layer: "sim", self_us: col(|t| t.new) },
        Stage { name: "load", layer: "sim", self_us: col(|t| t.load) },
        Stage { name: "predecode", layer: "sim", self_us: col(|t| t.predecode) },
        Stage { name: "run_until", layer: "sim", self_us: col(|t| t.run) },
        Stage { name: "golden checks", layer: "exec", self_us: col(|t| t.check) },
    ];
    traced.unaccounted_share =
        print_breakdown("batch job (sequential run_scenario)", col(|t| t.job), &rows);
    traced
}
