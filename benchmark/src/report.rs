//! Shared measurement plumbing: sample statistics, set-up timing, the
//! per-run result and the per-layer metric table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use lisa_conform::Rng;

/// Times one call, returning its value and the elapsed microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64() * 1e6)
}

/// Median of the samples (`0.0` for none).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (`0.0` for none). Stage breakdowns use means so that
/// the stage rows add up exactly to the operation they explain.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile, `p` in `0..=100`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median over consecutive groups of `best_of` samples of each
/// group's lowest sample (a trailing partial group counts only when it
/// is the only one).
///
/// Other tenants of the host slow single operations down in bursts the
/// calibration loop of [`host_factor`] does not see: a loop over a
/// 2 MiB table reads anywhere from 1x to 26x its best from one
/// millisecond to the next, and the `run_to_halt` time of one interp
/// kernel from 1.0x to 2.0x. Those bursts only ever slow a sample down,
/// so the best of a few consecutive samples follows the code; the
/// median over groups then does not drift with the number of samples
/// the way the best of all of them would, so a faster commit that fits
/// more samples into its seconds is not favoured.
pub fn median_of_best_low(xs: &[f64], best_of: usize) -> f64 {
    median(&group_bests(xs, best_of, f64::min))
}

/// [`median_of_best_low`] for a rate: each group's highest sample.
pub fn median_of_best_high(xs: &[f64], best_of: usize) -> f64 {
    median(&group_bests(xs, best_of, f64::max))
}

fn group_bests(xs: &[f64], best_of: usize, pick: fn(f64, f64) -> f64) -> Vec<f64> {
    let whole = xs.len() / best_of.max(1);
    xs.chunks(best_of.max(1))
        .take(whole.max(1))
        .filter_map(|group| group.iter().copied().reduce(pick))
        .collect()
}

/// Geometric mean of positive samples.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `median, pXX (n=N)` where pXX is the highest of p99.9/p99/p90 that
/// still has at least ten samples beyond it.
pub fn describe(xs: &[f64], unit: &str) -> String {
    let n = xs.len();
    let mut line = format!("median {:.2} {unit}", median(xs));
    for p in [99.9, 99.0, 90.0] {
        if n as f64 * (1.0 - p / 100.0) >= 10.0 {
            let _ = write!(line, ", p{p} {:.2} {unit}", percentile(xs, p));
            break;
        }
    }
    let _ = write!(line, " (n={n})");
    line
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fisher-Yates shuffle driven by the workload seed's stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// A calibration loop (see [`host_factor`]). Neither shares code with
/// the program under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calibration {
    /// A tiny interpreter running a fixed pseudo-random 256-instruction
    /// program (16 opcodes, data-dependent branches, loads and stores
    /// into 64 KiB): work like the simulators' cycle loops.
    Interpreter,
    /// A plain integer loop over a 16 KiB table.
    Integer,
}

impl Calibration {
    /// The loop's time, in microseconds, at nominal host speed: a round
    /// figure near the best it reads on the 2-vCPU 2.0 GHz Xeon VM the
    /// first baseline was recorded on.
    fn nominal_us(self) -> f64 {
        match self {
            Calibration::Interpreter => 11.0,
            Calibration::Integer => 60.0,
        }
    }

    /// Times the loop: the best of four short chunks, in microseconds.
    fn time_us(self) -> f64 {
        match self {
            Calibration::Interpreter => interpreter_loop_us(),
            Calibration::Integer => integer_loop_us(),
        }
    }
}

fn interpreter_loop_us() -> f64 {
    let mut program = [0u32; 256];
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for word in &mut program {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *word = x as u32;
    }
    let mut mem = vec![0u64; 8192];
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let mut regs = [1u64, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47];
        let mut pc = 0usize;
        let t = Instant::now();
        for _ in 0..6_000 {
            let insn = program[pc];
            let field = |shift: u32| (insn >> shift) as usize & 15;
            let (a, b, c) = (field(5), field(9), field(13));
            let target = (insn >> 17) as usize & 255;
            pc = (pc + 1) & 255;
            match insn & 15 {
                0 => regs[a] = regs[b].wrapping_add(regs[c]),
                1 => regs[a] = regs[b].wrapping_sub(regs[c]),
                2 => regs[a] = regs[b] ^ regs[c].rotate_left(7),
                3 => regs[a] = regs[b].wrapping_mul(regs[c] | 1),
                4 => regs[a] = regs[b] << (regs[c] & 31),
                5 => regs[a] = regs[b] >> (regs[c] & 31),
                6 => regs[a] = mem[regs[b] as usize & 8191],
                7 => mem[regs[b] as usize & 8191] = regs[c],
                8 => {
                    if regs[b] & 1 == 0 {
                        pc = target;
                    }
                }
                9 => {
                    if regs[b] > regs[c] {
                        pc = target;
                    }
                }
                10 => regs[a] = u64::from(regs[b].count_ones()) + regs[c],
                11 => regs[a] = regs[b].min(regs[c]).wrapping_add(1),
                12 => regs[a] = u64::from(insn >> 17),
                13 => regs[a] = regs[b] | regs[c],
                14 => regs[a] = regs[b] & regs[c].wrapping_add(u64::from(insn)),
                _ => regs[a] = regs[b].wrapping_add(u64::from(insn >> 20)),
            }
        }
        std::hint::black_box(&regs);
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    std::hint::black_box(&mem);
    best
}

fn integer_loop_us() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let mut table = [0u32; 4096];
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let t = Instant::now();
        for i in 0..25_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & 4095;
            table[j] = table[j].wrapping_add(i);
        }
        std::hint::black_box(&table);
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// The factor that scales a host interval measured now to the nominal
/// host speed.
///
/// The host is shared with other tenants, and its speed moves in phases
/// of seconds to minutes, with no steal time: kernels-ops runs seconds
/// apart read 0.96 and then 1.44 simulated Mcycles/s. A workload times
/// its calibration loop right before each timed interval (with its own
/// threads idle) and scales the interval by this factor, so the phases
/// cancel, while any change to the program under test, which the loop
/// does not run, still shows. The loop must react to the phases as the
/// workload does. Over a 120 s kernels-ops run cut into 5 s slices, the
/// slices' speed spread 7 % as measured, 2.6 % scaled by the integer
/// loop and 0.7 % scaled by the interpreter loop. fuzz-lockstep, whose
/// lockstep oracle spends much of its time digesting and copying state,
/// reacts less: scaled by the interpreter loop its throughput rose with
/// the host's slowdown (18 % spread over ten seeds), scaled by the
/// integer loop it spread 3 % to 4 %.
pub fn host_factor(calibration: Calibration) -> f64 {
    calibration.nominal_us() / calibration.time_us()
}

/// [`host_factor`] measured on `threads` threads at once and averaged:
/// the factor for an interval whose work keeps that many cores busy.
/// Measured on one thread only, it misses how busy the other core's
/// host is, and serve-short's figures spread 13 % over five seeds
/// instead of 3 %.
pub fn host_factor_on(calibration: Calibration, threads: usize) -> f64 {
    std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..threads).map(|_| s.spawn(move || host_factor(calibration))).collect();
        handles.into_iter().map(|h| h.join().expect("calibration thread")).sum::<f64>()
            / threads as f64
    })
}

/// Set-up repetitions per batch; a run times one batch before its
/// measurement and one after it.
pub const SETUP_REPEATS: usize = 8;

/// Set-up times of one run, each scaled by the interpreter loop's
/// [`host_factor`] taken right before it. A run repeats its set-up at the start and again at
/// the end, seconds apart; `setup_s` is the [`median_of_best_low`] of
/// the repetitions in groups of four.
#[derive(Debug, Default)]
pub struct SetupTimes {
    secs: Vec<f64>,
}

impl SetupTimes {
    /// Runs `build` [`SETUP_REPEATS`] times, returning the last product.
    pub fn repeat<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            drop(last.take());
            let factor = host_factor(Calibration::Interpreter);
            let (v, us) = timed(&mut build);
            self.secs.push(factor * us / 1e6);
            last = Some(v);
        }
        last.expect("at least one set-up")
    }

    /// The typical set-up time, in seconds.
    pub fn seconds(&self) -> f64 {
        median_of_best_low(&self.secs, 4)
    }
}

/// One measurement round of a workload (a pass over the kernels, a
/// batch, a fuzz sweep, or a window of requests). Its times are scaled
/// by [`host_factor`].
#[derive(Debug, Default)]
pub struct Round {
    /// Operations completed.
    pub ops: f64,
    /// Host seconds the round took, at nominal host speed.
    pub secs: f64,
    /// Host seconds the round took as measured, before scaling.
    pub raw_secs: f64,
    /// Simulated cycles the round completed.
    pub cycles: f64,
    /// Per-operation latencies in microseconds.
    pub latencies_us: Vec<f64>,
}

impl Round {
    /// Adds one operation that took `raw_us` measured microseconds
    /// while the host's [`host_factor`] was `factor`, and simulated
    /// `cycles`.
    pub fn add(&mut self, raw_us: f64, factor: f64, cycles: u64) {
        self.ops += 1.0;
        self.raw_secs += raw_us / 1e6;
        self.secs += factor * raw_us / 1e6;
        self.cycles += cycles as f64;
        self.latencies_us.push(factor * raw_us);
    }
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Typical set-up time in seconds (see [`SetupTimes`]).
    pub setup_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// Operations completed per host second.
    pub ops_per_s: f64,
    /// Median operation latency in microseconds.
    pub op_p50_us: f64,
    /// 90th-percentile operation latency in microseconds.
    pub op_p90_us: f64,
    /// Simulated Mcycles per host second.
    pub sim_mcps: f64,
    /// Rounds measured.
    pub rounds: usize,
    /// Measured host time over host time at nominal speed, over the
    /// whole run.
    pub host_slowdown: f64,
    /// Every latency sample of the run, for the report line.
    pub latencies_us: Vec<f64>,
}

impl EndToEnd {
    /// Fills the rate and latency metrics from the run's rounds. Each
    /// metric is computed per round (a rate, or a percentile of the
    /// round's latencies), and the run reports the median over groups
    /// of `best_of` consecutive rounds of each group's best round
    /// ([`median_of_best_low`]); with `best_of` 1, the median round.
    pub fn summarize(&mut self, rounds: &[Round], best_of: usize) {
        let per = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
        self.ops_per_s = median_of_best_high(&per(&|r| r.ops / r.secs), best_of);
        self.sim_mcps = median_of_best_high(&per(&|r| r.cycles / r.secs / 1e6), best_of);
        self.op_p50_us = median_of_best_low(&per(&|r| percentile(&r.latencies_us, 50.0)), best_of);
        self.op_p90_us = median_of_best_low(&per(&|r| percentile(&r.latencies_us, 90.0)), best_of);
        self.rounds = rounds.len();
        self.host_slowdown = rounds.iter().map(|r| r.raw_secs).sum::<f64>()
            / rounds.iter().map(|r| r.secs).sum::<f64>();
        self.latencies_us = rounds.iter().flat_map(|r| r.latencies_us.iter().copied()).collect();
    }

    /// Prints the human-readable summary lines.
    pub fn print(&self, op: &str) {
        println!("  rounds         {}", self.rounds);
        println!(
            "  host speed     measured times were {:.3}x those at nominal speed",
            self.host_slowdown
        );
        println!("  setup_s        {:.6} s", self.setup_s);
        println!("  sim_mcps       {:.4} simulated Mcycles per host second", self.sim_mcps);
        println!("  ops_per_s      {:.2} {op}s per host second", self.ops_per_s);
        println!("  op_p50_us      {:.2} us", self.op_p50_us);
        println!("  op_p90_us      {:.2} us", self.op_p90_us);
        println!("  all samples    {}", describe(&self.latencies_us, "us"));
        println!("  failed         {} of {} attempted", self.failed, self.attempted);
    }
}

/// Per-layer metrics of a traced run, keyed by name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Reads one metric (`0.0` when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The JSON `metrics` object over `spec` (name, unit) in order.
    ///
    /// # Panics
    ///
    /// Panics when a listed metric was never measured: the traced run
    /// must report every per-layer metric.
    pub fn to_json(&self, spec: &[(String, &'static str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in spec.iter().enumerate() {
            let value = self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric `{name}` was not measured"));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value));
        }
        out.push('}');
        out
    }
}

/// A JSON number with all its digits (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// One stage of a traced breakdown: name, owning layer, mean self time.
pub struct Stage {
    pub name: &'static str,
    pub layer: &'static str,
    pub self_us: f64,
}

/// Prints a breakdown of `total_us` (the mean operation it explains)
/// into stages plus the unaccounted remainder, and returns the
/// remainder's share of the total.
pub fn print_breakdown(title: &str, total_us: f64, stages: &[Stage]) -> f64 {
    println!("  breakdown of {title}: {total_us:.2} us per operation (means)");
    let mut accounted = 0.0;
    for s in stages {
        accounted += s.self_us;
        let share = 100.0 * s.self_us / total_us;
        println!("    {:<24} {:<8} {:>12.3} us {share:>7.2}%", s.name, s.layer, s.self_us);
    }
    let rest = total_us - accounted;
    let share = 100.0 * rest / total_us;
    println!("    {:<24} {:<8} {:>12.3} us {share:>7.2}%", "unaccounted", "-", rest);
    rest / total_us
}
