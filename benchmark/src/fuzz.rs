//! The `fuzz-lockstep` workload: `Fuzzer::run` over a fixed seed range
//! per model (every program checked by all five oracles, the lockstep
//! one stepping all three backends cycle by cycle); and the conform
//! section of the traced run. Its throughput and its latency count
//! programs: `Fuzzer::run` polls its stop guard once per program, so the
//! guard's timestamps split each run into per-program times.

use std::time::{Duration, Instant};

use lisa_conform::{CoverageMap, FuzzConfig, FuzzReport, Fuzzer, Outcome, Rng};
use lisa_models::Workbench;

use crate::kernels::{workbenches, Traced, MODELS};
use crate::report::{
    geomean, host_factor, mean, median, median_of_best_low, percentile, print_breakdown, shuffle,
    timed, Calibration, EndToEnd, Layers, Round, SetupTimes, Stage,
};

/// Sweeps per group of [`crate::report::median_of_best_low`].
const BEST_OF: usize = 2;

/// Programs per model in the fixed seed range.
const PROGRAMS: u64 = 48;

/// Cycle budget per simulated run. Well below the CI default (2000) so
/// that a program which never halts costs a few times a halting one
/// instead of a hundred times: with the default, the handful of
/// budget-bound programs in a seed's range sets the throughput, and it
/// swings by 2x from seed to seed.
const MAX_CYCLES: u64 = 100;

/// The fuzz seed of every model's fixed range.
const FUZZ_SEED: u64 = 1;

/// The fixed range every run checks. It does not depend on the workload
/// seed: the cost of a range of 48 programs swings by up to 40% from
/// one fuzz seed to the next, more than any bound this benchmark could
/// hold, so the workload seed orders the models of each sweep instead.
fn config() -> FuzzConfig {
    FuzzConfig {
        seed: FUZZ_SEED,
        start: 0,
        iters: PROGRAMS,
        max_cycles: MAX_CYCLES,
        ..FuzzConfig::default()
    }
}

/// Outcome counts of one model's range; they must repeat exactly.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counts {
    halted: u64,
    budget: u64,
    errored: u64,
    paths: usize,
    cycles: u64,
}

/// Stage times of one replayed program, in microseconds.
#[derive(Default)]
struct ProgramStages {
    gen: f64,
    coverage: f64,
    check: f64,
    total: f64,
}

/// Replays one model's range with the public calls `Fuzzer::run` makes
/// (generate, record coverage, check), timing each. Returns the counts,
/// the divergences and the per-program stage times.
fn replay(fuzzer: &Fuzzer<'_>, cfg: FuzzConfig) -> (Counts, u64, Vec<ProgramStages>) {
    let gen = fuzzer.generator();
    let mut counts = Counts::default();
    let mut coverage = CoverageMap::new();
    let mut divergences = 0;
    let mut stages = Vec::new();
    for index in cfg.start..cfg.start + cfg.iters {
        let start = Instant::now();
        let mut t = ProgramStages::default();
        let (prefix, us) =
            timed(|| gen.gen_program(&mut Rng::for_iteration(cfg.seed, index), cfg.max_len));
        t.gen = us;
        t.coverage = timed(|| coverage.merge(&gen.coverage_of(&prefix))).1;
        let (verdict, us) = timed(|| fuzzer.check_words(&prefix));
        t.check = us;
        match verdict {
            Ok(Outcome::Halted { cycles, .. }) => {
                counts.halted += 1;
                counts.cycles += cycles;
            }
            Ok(Outcome::Budget { .. }) => {
                counts.budget += 1;
                counts.cycles += cfg.max_cycles;
            }
            Ok(Outcome::Error { .. }) => counts.errored += 1,
            Err(v) => {
                eprintln!("fuzz divergence at iteration {index}: {v}");
                divergences += 1;
            }
        }
        t.total = start.elapsed().as_secs_f64() * 1e6;
        stages.push(t);
    }
    counts.paths = coverage.len();
    (counts, divergences, stages)
}

fn fuzzers(wbs: &[Workbench], cfg: FuzzConfig) -> Vec<Fuzzer<'_>> {
    wbs.iter().map(|wb| Fuzzer::new(wb, cfg).expect("generator builds")).collect()
}

/// `Fuzzer::run` (as `run_guarded` with a guard that never stops, so
/// the same loop) timed per program from the guard's polls.
fn timed_run(fuzzer: &Fuzzer<'_>) -> (FuzzReport, Vec<f64>) {
    let mut polls = Vec::with_capacity(PROGRAMS as usize + 1);
    let report = fuzzer.run_guarded(|| {
        polls.push(Instant::now());
        false
    });
    polls.push(Instant::now());
    let per_program = polls.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e6).collect();
    (report, per_program)
}

/// Sets the run's latency percentiles per model. A program costs about
/// 1.5 ms on tinyrisc and scalar2, 5.5 ms on accu16 and 17 ms on vliw62,
/// and the two small models hold half the programs, so the median over
/// all of them falls in the gap between two models and jumps with small
/// shifts. Each model's percentile is taken per sweep and summarized
/// like the rounds ([`median_of_best_low`]); the run reports the
/// geometric mean over models. `sweeps[m][s]` holds model `m`'s
/// per-program microseconds of sweep `s`.
fn set_latencies(e2e: &mut EndToEnd, sweeps: &[Vec<Vec<f64>>]) {
    let over_models = |p: f64| {
        geomean(
            &sweeps
                .iter()
                .map(|model| {
                    let per_sweep: Vec<f64> = model.iter().map(|s| percentile(s, p)).collect();
                    median_of_best_low(&per_sweep, BEST_OF)
                })
                .collect::<Vec<_>>(),
        )
    };
    e2e.op_p50_us = over_models(50.0);
    e2e.op_p90_us = over_models(90.0);
}

/// The untraced `fuzz-lockstep` workload. A round is one sweep: every
/// model's fixed range once, the models in an order the seed shuffles,
/// each run timed at the [`host_factor`] measured right before it.
pub fn run(seed: u64, budget: Duration) -> EndToEnd {
    let cfg = config();
    let build = || {
        let wbs = workbenches();
        drop(fuzzers(&wbs, cfg));
        wbs
    };
    let mut setup = SetupTimes::default();
    let wbs = setup.repeat(build);
    let fuzzers = fuzzers(&wbs, cfg);
    let mut e2e = EndToEnd::default();
    let mut expected = Vec::new();
    for f in &fuzzers {
        let (counts, divergences, _) = replay(f, cfg);
        e2e.attempted += cfg.iters;
        e2e.failed += divergences;
        expected.push(counts);
    }
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..fuzzers.len()).collect();
    let mut rounds = Vec::new();
    let mut sweeps = vec![Vec::new(); fuzzers.len()];
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline || rounds.is_empty() {
        let mut round = Round::default();
        shuffle(&mut order, &mut rng);
        for &m in &order {
            let (f, want) = (&fuzzers[m], &expected[m]);
            let factor = host_factor(Calibration::Integer);
            let (report, per_program) = timed_run(f);
            for &us in &per_program {
                round.add(us, factor, 0);
            }
            sweeps[m].push(per_program.iter().map(|us| factor * us).collect());
            round.cycles += want.cycles as f64;
            e2e.attempted += report.iterations;
            let got = Counts {
                halted: report.halted,
                budget: report.budget,
                errored: report.errored,
                paths: report.coverage.len(),
                cycles: want.cycles,
            };
            if report.failure.is_some() || report.iterations != PROGRAMS || got != *want {
                e2e.failed += 1;
            }
        }
        rounds.push(round);
    }
    drop(setup.repeat(build));
    e2e.setup_s = setup.seconds();
    e2e.summarize(&rounds, BEST_OF);
    set_latencies(&mut e2e, &sweeps);
    e2e
}

/// The traced conform section: the fixed range of every model replayed
/// stage by stage, repeated until `deadline` (at least once).
pub fn section(seed: u64, deadline: Instant, layers: &mut Layers) -> Traced {
    let cfg = config();
    let wbs = workbenches();
    let fuzzers = fuzzers(&wbs, cfg);
    let mut traced =
        Traced { attempted: 0, failed: 0, path: EndToEnd::default(), unaccounted_share: 0.0 };
    let mut rounds = Vec::new();
    let mut all: Vec<ProgramStages> = Vec::new();
    let mut per_model: Vec<Vec<ProgramStages>> = (0..MODELS.len()).map(|_| Vec::new()).collect();
    let mut first: Vec<Option<Counts>> = vec![None; fuzzers.len()];
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..fuzzers.len()).collect();
    let mut sweeps = vec![Vec::new(); fuzzers.len()];
    loop {
        let mut round = Round::default();
        shuffle(&mut order, &mut rng);
        for &m in &order {
            let factor = host_factor(Calibration::Integer);
            let (counts, divergences, stages) = replay(&fuzzers[m], cfg);
            traced.attempted += cfg.iters;
            traced.failed += divergences;
            for t in &stages {
                round.add(t.total, factor, 0);
            }
            sweeps[m].push(stages.iter().map(|t| factor * t.total).collect());
            round.cycles += counts.cycles as f64;
            match &first[m] {
                Some(want) if *want != counts => traced.failed += 1,
                Some(_) => {}
                None => first[m] = Some(counts),
            }
            per_model[m].extend(stages);
        }
        rounds.push(round);
        if Instant::now() >= deadline {
            break;
        }
    }
    for (m, name) in MODELS.iter().enumerate() {
        let s = &per_model[m];
        layers.set(
            format!("conform.check_us.{name}"),
            median(&s.iter().map(|t| t.check).collect::<Vec<_>>()),
        );
        layers.set(
            format!("conform.gen_us.{name}"),
            median(&s.iter().map(|t| t.gen).collect::<Vec<_>>()),
        );
        let c = first[m].as_ref().expect("every model ran");
        layers.set(format!("conform.halted.{name}"), c.halted as f64);
        layers.set(format!("conform.budget.{name}"), c.budget as f64);
        layers.set(format!("conform.errored.{name}"), c.errored as f64);
        layers.set(format!("conform.paths.{name}"), c.paths as f64);
    }
    all.extend(per_model.into_iter().flatten());
    traced.path.summarize(&rounds, BEST_OF);
    set_latencies(&mut traced.path, &sweeps);
    let col = |f: fn(&ProgramStages) -> f64| mean(&all.iter().map(f).collect::<Vec<_>>());
    let rows = [
        Stage { name: "gen_program", layer: "conform", self_us: col(|t| t.gen) },
        Stage { name: "coverage_of+merge", layer: "conform", self_us: col(|t| t.coverage) },
        Stage { name: "check_words (5 oracles)", layer: "conform", self_us: col(|t| t.check) },
    ];
    traced.unaccounted_share = print_breakdown("fuzz program", col(|t| t.total), &rows);
    traced
}
