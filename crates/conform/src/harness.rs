//! The fuzzing loop: generate, check, shrink, persist.
//!
//! Each iteration derives its own random stream from `(seed, index)`,
//! synthesizes a program prefix, wraps it into a halt-padded image and
//! runs the full oracle stack. The first divergence stops the run: the
//! failing prefix is shrunk with the same oracle stack as predicate and
//! packaged as a [`Reproducer`]. [`Fuzzer::self_check`] validates the
//! whole pipeline by injecting a [`Fault`] into the ops backend and
//! demanding that it is caught and minimized.

use lisa_metrics::Registry;
use lisa_models::Workbench;

use crate::corpus::Reproducer;
use crate::coverage::{self, CoverageMap};
use crate::gen::{GenError, ProgramGen};
use crate::oracle::{check_all, Fault, Outcome, Verdict};
use crate::rng::Rng;
use crate::shrink::shrink;

/// Tuning for one fuzzing run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; every program is a pure function of it.
    pub seed: u64,
    /// First iteration index. Program `i` depends only on `(seed, i)`,
    /// so disjoint `start` ranges under one seed partition the program
    /// space exactly, and merging their coverage equals one run over the
    /// whole range (E17's losslessness gate).
    pub start: u64,
    /// Number of fresh programs to synthesize and check.
    pub iters: u64,
    /// Maximum synthesized prefix length, in instruction words.
    pub max_len: usize,
    /// Cycle budget per simulated run.
    pub max_cycles: u64,
    /// Deliberate backend corruption (harness self-validation).
    pub fault: Option<Fault>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig { seed: 0, start: 0, iters: 500, max_len: 24, max_cycles: 2000, fault: None }
    }
}

/// A divergence found by fuzzing, with its minimized form.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Iteration index that produced the program.
    pub iteration: u64,
    /// The oracle verdict on the *shrunk* program.
    pub verdict: Verdict,
    /// The program prefix as generated.
    pub original: Vec<u128>,
    /// The minimized prefix (still failing).
    pub shrunk: Vec<u128>,
}

/// Aggregate result of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Iterations completed (including the failing one, if any).
    pub iterations: u64,
    /// Runs that halted cleanly with both backends agreeing.
    pub halted: u64,
    /// Runs that exhausted the cycle budget in agreement.
    pub budget: u64,
    /// Runs where both backends raised the same error.
    pub errored: u64,
    /// Coding-tree paths reached by the generated programs.
    pub coverage: CoverageMap,
    /// Whether the run was cut short by the caller's stop guard (a
    /// deadline, typically) before the iteration budget was spent.
    pub stopped: bool,
    /// The first divergence, if one was found.
    pub failure: Option<Failure>,
}

impl FuzzReport {
    /// Whether the run finished without a divergence.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// A fuzzer bound to one workbench.
pub struct Fuzzer<'w> {
    wb: &'w Workbench,
    gen: ProgramGen<'w>,
    config: FuzzConfig,
    metrics: Option<&'w Registry>,
}

impl<'w> Fuzzer<'w> {
    /// Builds the program generator for `wb`.
    ///
    /// # Errors
    ///
    /// [`GenError`] when the model cannot drive generation.
    pub fn new(wb: &'w Workbench, config: FuzzConfig) -> Result<Fuzzer<'w>, GenError> {
        Ok(Fuzzer { wb, gen: ProgramGen::new(wb)?, config, metrics: None })
    }

    /// Publishes fuzzing progress into `registry` while [`Fuzzer::run`]
    /// executes: `lisa_conform_iterations_total`,
    /// `lisa_conform_oracle_firings_total` and
    /// `lisa_conform_shrink_steps_total` (shrink predicate evaluations).
    #[must_use]
    pub fn with_metrics(mut self, registry: &'w Registry) -> Fuzzer<'w> {
        self.metrics = Some(registry);
        self
    }

    /// The underlying program generator.
    #[must_use]
    pub fn generator(&self) -> &ProgramGen<'w> {
        &self.gen
    }

    /// Runs the full oracle stack on one program prefix.
    ///
    /// # Errors
    ///
    /// The first oracle [`Verdict`].
    pub fn check_words(&self, prefix: &[u128]) -> Result<Outcome, Verdict> {
        let image = self.gen.image(prefix);
        check_all(self.wb, &image, self.config.max_cycles, self.config.fault)
    }

    /// Replays a persisted reproducer; passing means the regression
    /// stays fixed.
    ///
    /// # Errors
    ///
    /// The oracle [`Verdict`] if the old failure resurfaces.
    pub fn replay(&self, rep: &Reproducer) -> Result<Outcome, Verdict> {
        let previous_fault = self.config.fault;
        debug_assert!(previous_fault.is_none(), "replay runs without fault injection");
        let image = self.gen.image(&rep.words);
        check_all(self.wb, &image, self.config.max_cycles, None)
    }

    /// The main loop: fuzz until the iteration budget is spent or a
    /// divergence is found (which is then shrunk).
    pub fn run(&self) -> FuzzReport {
        self.run_guarded(|| false)
    }

    /// [`Fuzzer::run`] with a stop guard, polled once per iteration.
    /// When the guard returns `true` the loop exits early with
    /// `report.stopped` set, without aborting mid-oracle. The repository
    /// benchmark times the fuzz loop through it.
    pub fn run_guarded(&self, mut should_stop: impl FnMut() -> bool) -> FuzzReport {
        let handles = self.metrics.map(|reg| {
            (
                reg.counter("lisa_conform_iterations_total", "Fuzzing iterations completed.", &[]),
                reg.counter(
                    "lisa_conform_oracle_firings_total",
                    "Oracle divergences detected (before shrinking).",
                    &[],
                ),
                reg.counter(
                    "lisa_conform_shrink_steps_total",
                    "Shrink predicate evaluations (oracle re-runs during minimization).",
                    &[],
                ),
            )
        });
        let mut report = FuzzReport::default();
        for offset in 0..self.config.iters {
            if should_stop() {
                report.stopped = true;
                break;
            }
            let index = self.config.start + offset;
            report.iterations = offset + 1;
            if let Some((iters, _, _)) = &handles {
                iters.inc();
            }
            let mut rng = Rng::for_iteration(self.config.seed, index);
            let prefix = self.gen.gen_program(&mut rng, self.config.max_len);
            report.coverage.merge(&self.gen.coverage_of(&prefix));
            match self.check_words(&prefix) {
                Ok(Outcome::Halted { .. }) => report.halted += 1,
                Ok(Outcome::Budget { .. }) => report.budget += 1,
                Ok(Outcome::Error { .. }) => report.errored += 1,
                Err(first) => {
                    if let Some((_, firings, _)) = &handles {
                        firings.inc();
                    }
                    let shrunk = shrink(&prefix, |ws| {
                        if let Some((_, _, steps)) = &handles {
                            steps.inc();
                        }
                        self.check_words(ws).is_err()
                    });
                    let verdict = self.check_words(&shrunk).err().unwrap_or(first);
                    report.failure =
                        Some(Failure { iteration: index, verdict, original: prefix, shrunk });
                    break;
                }
            }
        }
        report
    }

    /// Packages a failure as a reproducer for this fuzzer's model.
    #[must_use]
    pub fn reproducer(&self, model: &str, failure: &Failure) -> Reproducer {
        Reproducer {
            model: model.to_owned(),
            seed: self.config.seed,
            oracle: failure.verdict.oracle.label().to_owned(),
            words: failure.shrunk.clone(),
        }
    }

    /// Distills this fuzzer's iteration range to a minimal seed set:
    /// regenerates every program (pure function of `(seed, index)`, no
    /// simulation) and greedily picks iterations until their union
    /// covers every path the full range reaches. The returned coverage
    /// equals the full range's coverage by construction.
    #[must_use]
    pub fn distill(&self) -> Distilled {
        let end = self.config.start + self.config.iters;
        let per_program: Vec<CoverageMap> = (self.config.start..end)
            .map(|index| {
                let mut rng = Rng::for_iteration(self.config.seed, index);
                let prefix = self.gen.gen_program(&mut rng, self.config.max_len);
                self.gen.coverage_of(&prefix)
            })
            .collect();
        let chosen = coverage::distill(&per_program);
        let mut coverage = CoverageMap::new();
        let mut indices = Vec::with_capacity(chosen.len());
        for local in chosen {
            coverage.merge(&per_program[local]);
            indices.push(self.config.start + local as u64);
        }
        Distilled { indices, coverage }
    }

    /// End-to-end harness validation: inject a halt-flag fault into the
    /// ops backend and demand the lockstep oracle catches it and
    /// the shrinker minimizes it to at most `max_shrunk` instructions.
    ///
    /// # Errors
    ///
    /// A description of what the harness failed to do.
    pub fn self_check(wb: &Workbench, max_shrunk: usize) -> Result<Failure, String> {
        let config =
            FuzzConfig { iters: 4, fault: Some(Fault { at_cycle: 0 }), ..FuzzConfig::default() };
        let fuzzer = Fuzzer::new(wb, config).map_err(|e| e.to_string())?;
        let report = fuzzer.run();
        let failure =
            report.failure.ok_or("injected backend fault was NOT caught by the oracles")?;
        if failure.shrunk.len() > max_shrunk {
            return Err(format!(
                "injected fault shrunk to {} instructions, expected at most {max_shrunk}",
                failure.shrunk.len()
            ));
        }
        Ok(failure)
    }
}

/// A distilled seed set: the smallest greedy selection of iteration
/// indices whose regenerated programs reach every covered path.
#[derive(Debug, Clone, Default)]
pub struct Distilled {
    /// Absolute iteration indices, in selection order. Each regenerates
    /// its program via `Rng::for_iteration(seed, index)`.
    pub indices: Vec<u64>,
    /// Union coverage of the selected programs — equal to the coverage
    /// of the full iteration range.
    pub coverage: CoverageMap,
}
