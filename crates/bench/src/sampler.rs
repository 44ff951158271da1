//! The one way this crate times a kernel: paired, warmed rounds, as many
//! as fit a budget in simulated cycles, over a list of [`Arm`]s.
//!
//! A sample loads the kernel fresh and does one untimed run, then one
//! timed run on another fresh load, checked against the kernel's golden
//! values. A round samples
//! every arm back to back, in arm order, so host speed drift hits the
//! whole round alike and cancels in ratios within a round; medians over
//! rounds drop millisecond bursts. A call takes `repeats` times the
//! runs of the kernel that fit a budget in simulated cycles, 1..=64 per
//! repeat, counted off one unchecked run of the first arm. Cycle counts
//! are deterministic, so a kernel gets the same rounds in every process
//! whatever the host's speed; every sample of every arm must take as
//! many cycles as that run. An arm runs on the workbench passed to
//! [`sample_rounds`] unless it names its own ([`Arm::on`]), so two
//! machines that share a kernel pair up like two backends.

use std::time::{Duration, Instant};

use lisa_models::kernels::{self, Kernel};
use lisa_models::Workbench;
use lisa_sim::{SimMode, Simulator};

type SimFn<'a> = Box<dyn Fn(&mut Simulator<'_>) + 'a>;

/// Simulated cycles per repeat for E15, E5 and `lisa-tool bench`: every
/// E15 kernel gets at least the median round count of the 10 ms
/// wall-clock budget this replaced.
pub const BUDGET_CYCLES: u64 = 4_000;

/// One configuration under test: a backend, optionally its own machine,
/// plus what to install before the run, time after it and check once it
/// is done.
pub struct Arm<'a> {
    mode: SimMode,
    wb: Option<&'a Workbench>,
    setup: SimFn<'a>,
    finish: SimFn<'a>,
    check: SimFn<'a>,
}

impl<'a> Arm<'a> {
    /// A bare arm: nothing installed, nothing extra timed or checked.
    #[must_use]
    pub fn new(mode: SimMode) -> Arm<'a> {
        Arm {
            mode,
            wb: None,
            setup: Box::new(|_| {}),
            finish: Box::new(|_| {}),
            check: Box::new(|_| {}),
        }
    }

    /// Runs this arm on `wb` instead of the workbench passed to
    /// [`sample_rounds`]; the kernel must assemble there too.
    #[must_use]
    pub fn on(self, wb: &'a Workbench) -> Arm<'a> {
        Arm { wb: Some(wb), ..self }
    }

    /// Untimed setup on each fresh simulator (a sink, probes, a profile).
    #[must_use]
    pub fn setup(self, f: impl Fn(&mut Simulator<'_>) + 'a) -> Arm<'a> {
        Arm { setup: Box::new(f), ..self }
    }

    /// Work timed with the run, right after it halts (a metrics publish).
    #[must_use]
    pub fn finish(self, f: impl Fn(&mut Simulator<'_>) + 'a) -> Arm<'a> {
        Arm { finish: Box::new(f), ..self }
    }

    /// Untimed check or bookkeeping after each timed run.
    #[must_use]
    pub fn check(self, f: impl Fn(&mut Simulator<'_>) + 'a) -> Arm<'a> {
        Arm { check: Box::new(f), ..self }
    }
}

/// The per-round timings of one kernel under every arm.
#[derive(Debug)]
pub struct Samples {
    /// Cycles the kernel took (identical on every arm — asserted).
    pub cycles: u64,
    /// Instructions retired per run (from the first arm).
    pub instructions: u64,
    /// Timed seconds: `rounds[r][a]` is arm `a` in round `r`.
    pub rounds: Vec<Vec<f64>>,
}

impl Samples {
    /// Every round's time of one arm, in round order.
    #[must_use]
    pub fn times(&self, arm: usize) -> Vec<f64> {
        self.rounds.iter().map(|r| r[arm]).collect()
    }

    /// Median over rounds of `arm`'s time over `base`'s time in the same
    /// round.
    #[must_use]
    pub fn median_ratio(&self, arm: usize, base: usize) -> f64 {
        median(self.rounds.iter().map(|r| r[arm] / r[base]).collect())
    }
}

/// The upper median (rounds come in any count).
///
/// # Panics
///
/// Panics on an empty vector.
#[must_use]
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The lower quartile, the (upper) median and the upper quartile,
/// nearest-rank.
///
/// # Panics
///
/// Panics on an empty vector.
#[must_use]
pub fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    [xs[n / 4], xs[n / 2], xs[(3 * n / 4).min(n - 1)]]
}

/// The geometric mean (of per-kernel ratios).
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The runs of `cycles` (at least 1) that fit `budget_cycles`, clamped
/// to 1..=64.
fn rounds_per_repeat(budget_cycles: u64, cycles: u64) -> usize {
    (budget_cycles / cycles.max(1)).clamp(1, 64) as usize
}

/// One run of a fresh load under `arm`, on its own workbench or else
/// `wb`: (the run and its finish, clocked; cycles; the halted simulator).
fn run<'w>(wb: &'w Workbench, kernel: &Kernel, arm: &Arm<'w>) -> (Duration, u64, Simulator<'w>) {
    let wb = arm.wb.unwrap_or(wb);
    let mut sim = kernels::load_kernel(wb, kernel, arm.mode).expect("kernel loads");
    (arm.setup)(&mut sim);
    let t = Instant::now();
    let cycles = wb.run_to_halt(&mut sim, kernel.max_steps).expect("kernel halts");
    (arm.finish)(&mut sim);
    (t.elapsed(), cycles, sim)
}

/// One sample: an untimed run, then a timed one that must take `cycles`
/// and is verified and checked. Returns the timed seconds.
fn sample(wb: &Workbench, kernel: &Kernel, arm: &Arm<'_>, cycles: u64) -> f64 {
    let _ = run(wb, kernel, arm);
    let (elapsed, arm_cycles, mut sim) = run(wb, kernel, arm);
    assert_eq!(
        arm_cycles, cycles,
        "a {:?} arm disagrees with the first arm on cycles for {}",
        arm.mode, kernel.name
    );
    kernels::verify_kernel(arm.wb.unwrap_or(wb), kernel, &sim);
    (arm.check)(&mut sim);
    elapsed.as_secs_f64()
}

/// Times `kernel` under every arm in paired rounds (see the module docs).
///
/// # Panics
///
/// Panics when `arms` is empty, a run fails or misses its golden values,
/// an arm's check fails, or two arms disagree on cycles.
#[must_use]
pub fn sample_rounds(
    wb: &Workbench,
    kernel: &Kernel,
    arms: &[Arm<'_>],
    repeats: usize,
    budget_cycles: u64,
) -> Samples {
    let (_, cycles, sim) = run(wb, kernel, arms.first().expect("at least one arm"));
    let instructions = sim.stats().instructions_retired;
    let round = || arms.iter().map(|arm| sample(wb, kernel, arm, cycles)).collect();
    let per_repeat = rounds_per_repeat(budget_cycles, cycles);
    let rounds = (0..repeats.max(1) * per_repeat).map(|_| round()).collect();
    Samples { cycles, instructions, rounds }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;

    #[test]
    fn every_round_holds_one_sample_per_arm_in_arm_order() {
        let wb = lisa_models::tinyrisc::workbench().expect("tinyrisc builds");
        let own = lisa_models::tinyrisc::workbench().expect("tinyrisc builds");
        let kernel = kernels::tiny_fib(8);
        let (setups, checks) = (RefCell::new(Vec::new()), RefCell::new(Vec::new()));
        let (setup_log, check_log) = (&setups, &checks);
        // The last arm names its own workbench; the others run on `wb`.
        let arms: Vec<Arm<'_>> =
            [(SimMode::Interpretive, None), (SimMode::Ops, None), (SimMode::Ops, Some(&own))]
                .into_iter()
                .enumerate()
                .map(|(i, (mode, own_wb))| {
                    let expected = own_wb.unwrap_or(&wb).model();
                    let arm = Arm::new(mode)
                        .setup(move |sim| {
                            assert!(
                                std::ptr::eq(sim.model(), expected),
                                "arm {i} on the wrong workbench"
                            );
                            setup_log.borrow_mut().push(i);
                        })
                        .check(move |_| check_log.borrow_mut().push(i));
                    match own_wb {
                        Some(own_wb) => arm.on(own_wb),
                        None => arm,
                    }
                })
                .collect();
        let samples = sample_rounds(&wb, &kernel, &arms, 3, 0);
        drop(arms);

        assert_eq!(samples.rounds.len(), 3);
        assert!(samples.rounds.iter().all(|r| r.len() == 3 && r.iter().all(|&t| t > 0.0)));
        assert!(samples.cycles > 0 && samples.instructions > 0);
        // Only timed runs are checked: the rounds, in arm order.
        let checks = checks.into_inner();
        assert_eq!(checks, [0, 1, 2, 0, 1, 2, 0, 1, 2]);
        // The unchecked calibration run of arm 0, then an untimed and a
        // timed run per sample.
        let setups = setups.into_inner();
        assert_eq!(setups[0], 0);
        assert_eq!(setups.len(), 1 + 2 * checks.len());
        assert!(setups[1..].chunks(2).zip(&checks).all(|(pair, &c)| pair == [c, c]));
    }

    #[test]
    fn rounds_per_repeat_fill_the_budget_clamped_to_1_through_64() {
        assert_eq!(rounds_per_repeat(10_000, 1_000), 10);
        assert_eq!(rounds_per_repeat(10_000, 3_000), 3);
        assert_eq!(rounds_per_repeat(0, 1_000), 1);
        assert_eq!(rounds_per_repeat(1_000, 10_000), 1);
        assert_eq!(rounds_per_repeat(10_000, 10), 64);
        assert_eq!(rounds_per_repeat(10_000, 0), 64);
    }

    /// The round count depends on the kernel's cycles alone, so it is the
    /// same in every call, however fast the host runs.
    #[test]
    fn rounds_follow_the_kernels_cycles() {
        let wb = lisa_models::tinyrisc::workbench().expect("tinyrisc builds");
        let kernel = kernels::tiny_fib(8);
        let arms = [Arm::new(SimMode::Ops)];
        let cycles = sample_rounds(&wb, &kernel, &arms, 1, 0).cycles;
        for (budget, rounds) in [(cycles, 1), (5 * cycles + cycles / 2, 5), (100 * cycles, 64)] {
            let samples = sample_rounds(&wb, &kernel, &arms, 2, budget);
            assert_eq!(samples.rounds.len(), 2 * rounds, "budget {budget}");
        }
    }

    #[test]
    fn arms_that_disagree_on_cycles_panic() {
        let wb = lisa_models::tinyrisc::workbench().expect("tinyrisc builds");
        let other = lisa_models::tinyrisc::workbench().expect("tinyrisc builds");
        let kernel = kernels::tiny_fib(8);
        // Stepping once before the run leaves the final state golden but
        // shortens the run by a cycle: on the shared workbench, and on an
        // arm's own one.
        let step = |sim: &mut Simulator<'_>| sim.step().expect("steps");
        let cases = [
            [Arm::new(SimMode::Interpretive), Arm::new(SimMode::Ops).setup(step)],
            [Arm::new(SimMode::Ops), Arm::new(SimMode::Ops).on(&other).setup(step)],
        ];
        for arms in &cases {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sample_rounds(&wb, &kernel, arms, 1, 0)
            }))
            .expect_err("arms disagree on cycles");
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.contains("disagrees with the first arm on cycles"), "{message}");
        }
    }

    #[test]
    fn median_ratio_pairs_arms_within_a_round() {
        let samples = Samples {
            cycles: 1,
            instructions: 1,
            rounds: vec![vec![4.0, 2.0], vec![9.0, 3.0], vec![1.0, 1.0]],
        };
        assert_eq!(samples.median_ratio(0, 1), 2.0);
        assert_eq!(samples.times(0), [4.0, 9.0, 1.0]);
    }
}
