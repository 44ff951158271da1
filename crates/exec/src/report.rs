//! Batch results and aggregate reporting.

use std::time::Duration;

use lisa_sim::{ArchProfile, SimStats};

use crate::scenario::JobError;

/// The measurable outcome of one successful job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Control steps the job ran (excluding any steps already recorded
    /// in a base snapshot's stats — this is the run's own cycle count).
    pub cycles: u64,
    /// Final simulator statistics.
    pub stats: SimStats,
    /// FNV-1a fingerprint of the final architectural state, for cheap
    /// cross-run and cross-backend comparisons.
    pub state_digest: u64,
    /// Per-job architecture profile, when the scenario asked for one
    /// ([`crate::Scenario::profiled`]).
    pub profile: Option<ArchProfile>,
    /// Wall-clock time this job took (setup, run and checks). Excluded
    /// from equality: outcomes stay comparable across runs and worker
    /// counts, while timing describes one particular run.
    pub elapsed: Duration,
}

impl PartialEq for JobResult {
    fn eq(&self, other: &JobResult) -> bool {
        self.cycles == other.cycles
            && self.stats == other.stats
            && self.state_digest == other.state_digest
            && self.profile == other.profile
    }
}

impl Eq for JobResult {}

/// Wall-clock latency spread over a batch's successful jobs
/// (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Fastest job.
    pub min: Duration,
    /// Median job (nearest rank).
    pub p50: Duration,
    /// 99th-percentile job (nearest rank).
    pub p99: Duration,
    /// Slowest job.
    pub max: Duration,
}

/// One job's slot in a batch: its input position, name, and result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// Position in the submitted scenario list.
    pub index: usize,
    /// Scenario name.
    pub name: String,
    /// Success payload or failure reason.
    pub result: Result<JobResult, JobError>,
}

/// Everything a finished batch produced.
///
/// `jobs` is deterministic (input-ordered, scheduling-independent);
/// `elapsed` and anything derived from it measure this particular run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
}

impl BatchReport {
    /// Sum of simulated control steps over all successful jobs.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.jobs.iter().filter_map(|j| j.result.as_ref().ok()).map(|r| r.cycles).sum()
    }

    /// Aggregate simulation throughput of this run in cycles/second
    /// (0.0 for an instantaneous or empty batch).
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.total_cycles() as f64 / secs
        } else {
            0.0
        }
    }

    /// Sum of instructions retired over all successful jobs.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.jobs
            .iter()
            .filter_map(|j| j.result.as_ref().ok())
            .map(|r| r.stats.instructions_retired)
            .sum()
    }

    /// Aggregate simulated MIPS of this run: millions of retired
    /// instructions per wall-clock second (0.0 for an instantaneous or
    /// empty batch).
    #[must_use]
    pub fn simulated_mips(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.total_instructions() as f64 / secs / 1e6
        } else {
            0.0
        }
    }

    /// Wall-clock latency spread across successful jobs, or `None` when
    /// no job succeeded. Percentiles use the nearest-rank method, so
    /// every reported value is an actually-observed job duration.
    #[must_use]
    pub fn latency(&self) -> Option<LatencySummary> {
        let mut durations: Vec<Duration> =
            self.jobs.iter().filter_map(|j| j.result.as_ref().ok()).map(|r| r.elapsed).collect();
        if durations.is_empty() {
            return None;
        }
        durations.sort_unstable();
        let rank = |q: f64| {
            // Nearest rank: smallest index covering fraction q.
            let n = durations.len();
            durations[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
        };
        Some(LatencySummary {
            min: durations[0],
            p50: rank(0.50),
            p99: rank(0.99),
            max: *durations.last().expect("non-empty"),
        })
    }

    /// The jobs that failed, in submission order.
    #[must_use]
    pub fn failures(&self) -> Vec<&JobOutcome> {
        self.jobs.iter().filter(|j| j.result.is_err()).collect()
    }

    /// Whether every job succeeded.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.jobs.iter().all(|j| j.result.is_ok())
    }

    /// Folds every successful job's profile into one fleet-level
    /// [`ArchProfile`] (merge is associative and keyed by names, so jobs
    /// over different models combine meaningfully). `None` when no job
    /// carried a profile.
    #[must_use]
    pub fn merged_profile(&self) -> Option<ArchProfile> {
        let mut merged: Option<ArchProfile> = None;
        for job in &self.jobs {
            if let Some(profile) = job.result.as_ref().ok().and_then(|r| r.profile.as_ref()) {
                merged.get_or_insert_with(ArchProfile::new).merge(profile);
            }
        }
        merged
    }

    /// A plain-text summary table: one row per job, then an aggregate
    /// line with total cycles and throughput.
    #[must_use]
    pub fn table(&self) -> String {
        let name_w = self
            .jobs
            .iter()
            .map(|j| j.name.len())
            .chain(std::iter::once("job".len()))
            .max()
            .unwrap_or(3);
        let mut out = String::new();
        out.push_str(&format!(
            "{:>4}  {:<name_w$}  {:<6}  {:>10}  {:>10}  {:>16}\n",
            "#", "job", "status", "cycles", "ops", "detail"
        ));
        for job in &self.jobs {
            match &job.result {
                Ok(r) => out.push_str(&format!(
                    "{:>4}  {:<name_w$}  {:<6}  {:>10}  {:>10}  {:>16}\n",
                    job.index,
                    job.name,
                    "ok",
                    r.cycles,
                    r.stats.executed_ops,
                    format!("{:016x}", r.state_digest),
                )),
                Err(e) => out.push_str(&format!(
                    "{:>4}  {:<name_w$}  {:<6}  {:>10}  {:>10}  {}\n",
                    job.index, job.name, "FAIL", "-", "-", e
                )),
            }
        }
        let failed = self.jobs.len() - self.jobs.iter().filter(|j| j.result.is_ok()).count();
        out.push_str(&format!(
            "{} jobs ({failed} failed), {} cycles in {:.3} s on {} workers: {:.0} cycles/s, {:.2} MIPS\n",
            self.jobs.len(),
            self.total_cycles(),
            self.elapsed.as_secs_f64(),
            self.workers,
            self.cycles_per_sec(),
            self.simulated_mips(),
        ));
        if let Some(lat) = self.latency() {
            out.push_str(&format!(
                "job latency: min {:.3} ms / p50 {:.3} ms / p99 {:.3} ms / max {:.3} ms\n",
                lat.min.as_secs_f64() * 1e3,
                lat.p50.as_secs_f64() * 1e3,
                lat.p99.as_secs_f64() * 1e3,
                lat.max.as_secs_f64() * 1e3,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BatchReport {
        let ok = JobResult {
            cycles: 100,
            stats: SimStats { instructions_retired: 50, ..SimStats::default() },
            state_digest: 0xabcd,
            profile: None,
            elapsed: Duration::from_millis(10),
        };
        BatchReport {
            workers: 2,
            jobs: vec![
                JobOutcome { index: 0, name: "good".into(), result: Ok(ok) },
                JobOutcome {
                    index: 1,
                    name: "bad".into(),
                    result: Err(JobError::Panic("boom".into())),
                },
            ],
            elapsed: Duration::from_millis(500),
        }
    }

    #[test]
    fn aggregates_count_only_successes() {
        let r = report();
        assert_eq!(r.total_cycles(), 100);
        assert!(!r.all_passed());
        assert_eq!(r.failures().len(), 1);
        assert_eq!(r.failures()[0].name, "bad");
        assert!((r.cycles_per_sec() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn table_lists_every_job_and_the_aggregate_line() {
        let text = report().table();
        assert!(text.contains("good"));
        assert!(text.contains("FAIL"));
        assert!(text.contains("boom"));
        assert!(text.contains("2 jobs (1 failed)"));
        assert!(text.contains("MIPS"));
        assert!(text.contains("job latency: min"));
    }

    #[test]
    fn equality_ignores_elapsed() {
        let r = report();
        let mut other = r.clone();
        if let Ok(job) = other.jobs[0].result.as_mut() {
            job.elapsed = Duration::from_secs(999);
        }
        assert_eq!(r.jobs, other.jobs, "timing does not affect outcome equality");
    }

    #[test]
    fn mips_counts_retired_instructions_per_second() {
        let r = report();
        assert_eq!(r.total_instructions(), 50);
        // 50 instructions in 0.5 s = 100/s = 1e-4 MIPS.
        assert!((r.simulated_mips() - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn latency_uses_nearest_rank_percentiles() {
        assert!(BatchReport { workers: 1, jobs: Vec::new(), elapsed: Duration::ZERO }
            .latency()
            .is_none());

        let mut r = report();
        for (i, ms) in [30u64, 20, 40].iter().enumerate() {
            r.jobs.push(JobOutcome {
                index: 2 + i,
                name: format!("j{i}"),
                result: Ok(JobResult {
                    cycles: 1,
                    stats: SimStats::default(),
                    state_digest: 0,
                    profile: None,
                    elapsed: Duration::from_millis(*ms),
                }),
            });
        }
        // Successful durations: 10, 20, 30, 40 ms (the failure is skipped).
        let lat = r.latency().expect("has successes");
        assert_eq!(lat.min, Duration::from_millis(10));
        assert_eq!(lat.p50, Duration::from_millis(20), "nearest rank: ceil(0.5*4) = 2nd");
        assert_eq!(lat.p99, Duration::from_millis(40), "nearest rank: ceil(0.99*4) = 4th");
        assert_eq!(lat.max, Duration::from_millis(40));
    }

    #[test]
    fn merged_profile_folds_successful_jobs_only() {
        let mut r = report();
        assert!(r.merged_profile().is_none(), "no profiles collected");

        let mut pa = ArchProfile::new();
        pa.cycles = 10;
        pa.op_execs.insert("main".into(), 10);
        let mut pb = ArchProfile::new();
        pb.cycles = 5;
        pb.op_execs.insert("main".into(), 5);
        pb.op_execs.insert("add".into(), 2);
        if let Ok(job) = r.jobs[0].result.as_mut() {
            job.profile = Some(pa);
        }
        r.jobs.push(JobOutcome {
            index: 2,
            name: "also-good".into(),
            result: Ok(JobResult {
                cycles: 5,
                stats: SimStats::default(),
                state_digest: 1,
                profile: Some(pb),
                elapsed: Duration::from_millis(30),
            }),
        });

        let merged = r.merged_profile().expect("profiles merged");
        assert_eq!(merged.cycles, 15);
        assert_eq!(merged.op_execs["main"], 15);
        assert_eq!(merged.op_execs["add"], 2);
    }
}
