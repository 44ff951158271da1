//! The worker-pool batch runner.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lisa_spans::SpanKind;

use crate::observe::BatchObserver;
use crate::report::{BatchReport, JobOutcome};
use crate::scenario::{run_scenario_with, JobError, Scenario};

/// A fixed-size pool of worker threads draining a shared job queue.
///
/// Workers are plain scoped `std::thread`s: jobs may borrow non-`'static`
/// data (scenarios borrow their models). Scheduling is a single atomic
/// cursor over the job slice — workers race to claim the next index —
/// but results land in slots keyed by job index, so the output order is
/// always the input order and a [`BatchReport`] is reproducible for any
/// worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRunner {
    /// Number of worker threads; `0` and `1` both run on one worker.
    pub workers: usize,
}

impl BatchRunner {
    /// A runner with the given worker count.
    #[must_use]
    pub fn new(workers: usize) -> BatchRunner {
        BatchRunner { workers }
    }

    /// Fans `f` out over `items` on the worker pool. `f` receives
    /// `(worker, index, item)` — the worker ordinal (`0..workers`, for
    /// attribution) and the item's index in `items`.
    ///
    /// The result vector is keyed by item index regardless of which
    /// worker ran which item or in what order they finished. A panicking
    /// call is caught on its worker and surfaces as
    /// [`JobError::Panic`] for that item only; the other items still
    /// run. This is the generic engine under [`BatchRunner::run`],
    /// public for custom job types (parameter sweeps over non-`Scenario`
    /// inputs).
    pub fn execute<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, JobError>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, usize, &T) -> Result<R, JobError> + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.clamp(1, n);
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Result<R, JobError>>>> =
            Mutex::new((0..n).map(|_| None).collect());

        std::thread::scope(|scope| {
            for worker in 0..workers {
                let (cursor, slots, f) = (&cursor, &slots, &f);
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(worker, i, &items[i])))
                        .unwrap_or_else(|payload| Err(JobError::Panic(panic_text(&*payload))));
                    slots.lock().expect("slot lock")[i] = Some(outcome);
                });
            }
        });

        slots
            .into_inner()
            .expect("slot lock")
            .into_iter()
            .map(|slot| slot.expect("every claimed job stores a result"))
            .collect()
    }

    /// Runs every scenario and collects a [`BatchReport`].
    ///
    /// `report.jobs` depends only on the scenario list — never on the
    /// worker count or thread scheduling; only `report.elapsed` (and the
    /// derived throughput) varies between runs.
    #[must_use]
    pub fn run(&self, scenarios: &[Scenario<'_>]) -> BatchReport {
        self.run_observed(scenarios, &BatchObserver::new())
    }

    /// Runs every scenario like [`BatchRunner::run`], additionally
    /// feeding the given [`BatchObserver`]: job counters and latency
    /// histograms into its metrics registry, and a span per job to its
    /// span scope.
    ///
    /// Observation never changes outcomes — `report.jobs` equals what an
    /// unobserved run produces.
    #[must_use]
    pub fn run_observed(
        &self,
        scenarios: &[Scenario<'_>],
        observer: &BatchObserver<'_>,
    ) -> BatchReport {
        let start = Instant::now();

        // Counter handles are interned once; the per-scenario latency
        // histogram is fetched per job (one short registry lock per
        // *job*, invisible next to running a simulation).
        let counters = observer.metrics.map(|reg| {
            (
                reg.counter(
                    "lisa_exec_jobs_started_total",
                    "Batch jobs picked up by a worker.",
                    &[],
                ),
                reg.counter("lisa_exec_jobs_succeeded_total", "Batch jobs that passed.", &[]),
                reg.counter(
                    "lisa_exec_jobs_failed_total",
                    "Batch jobs that failed setup, simulation or a check.",
                    &[],
                ),
                reg.counter("lisa_exec_jobs_panicked_total", "Batch jobs that panicked.", &[]),
            )
        });

        // When a span context is attached, the batch is one root span
        // and each job nests under it; the root guard commits when
        // `execute` returns.
        let span_root = observer.spans.as_ref().map(|scope| {
            let root = scope.start(SpanKind::Batch);
            let jobs_scope = scope.child(root.id());
            let epoch = scope.now_ns();
            (root, jobs_scope, epoch)
        });

        let results = self.execute(scenarios, |worker, _, sc| {
            if let Some((started, _, _, _)) = &counters {
                started.inc();
            }
            let job_start = Instant::now();
            // Catch panics here (instead of leaving it to `execute`)
            // so the panic outcome is counted and timed like any
            // other failure.
            let run = |spans: Option<&lisa_spans::SpanScope>| {
                catch_unwind(AssertUnwindSafe(|| run_scenario_with(sc, spans)))
                    .unwrap_or_else(|payload| Err(JobError::Panic(panic_text(&*payload))))
            };
            let result = match &span_root {
                Some((_, jobs_scope, epoch)) => {
                    let job_scope = jobs_scope.clone().with_worker(worker as u32);
                    let claimed = job_scope.now_ns();
                    // The simulator phases nest under the job span
                    // while it is still open.
                    let job = job_scope.start_at(SpanKind::Job, claimed);
                    let sim_scope = job_scope.child(job.id());
                    // Queue wait: batch start to the worker claiming
                    // this job (the parallelism-limited share).
                    sim_scope.record(
                        SpanKind::JobQueueWait,
                        *epoch,
                        claimed.saturating_sub(*epoch),
                    );
                    run(Some(&sim_scope))
                }
                None => run(None),
            };
            if let Some((_, succeeded, failures, panicked)) = &counters {
                match &result {
                    Ok(_) => succeeded.inc(),
                    Err(JobError::Panic(_)) => panicked.inc(),
                    Err(_) => failures.inc(),
                }
            }
            if let Some(reg) = observer.metrics {
                let micros = u64::try_from(job_start.elapsed().as_micros()).unwrap_or(u64::MAX);
                reg.histogram(
                    "lisa_exec_job_duration_us",
                    "Wall-clock job duration in microseconds.",
                    &[("scenario", &sc.name)],
                )
                .observe(micros);
            }
            result
        });
        drop(span_root);

        let jobs = results
            .into_iter()
            .enumerate()
            .map(|(index, result)| JobOutcome {
                index,
                name: scenarios[index].name.clone(),
                result,
            })
            .collect();
        BatchReport { workers: self.workers.max(1), jobs, elapsed: start.elapsed() }
    }
}

/// Best-effort text of a panic payload (`&str` and `String` payloads;
/// anything else gets a placeholder).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_core::Model;
    use lisa_sim::SimMode;

    fn counter() -> Model {
        Model::from_source(
            r#"RESOURCE { PROGRAM_COUNTER int pc; REGISTER int r0; CONTROL_REGISTER bit halt; }
               OPERATION main { BEHAVIOR { r0 = r0 + 1; halt = r0 == 40; pc = pc + 1; } }"#,
        )
        .expect("model builds")
    }

    #[test]
    fn results_are_keyed_by_index_not_completion_order() {
        // Jobs with wildly different lengths: late-queued short jobs
        // finish before early long ones on a multi-worker pool.
        let squares: Vec<u64> = (0..32).map(|i| (i % 7) * 100 + 1).collect();
        let out = BatchRunner::new(8).execute(&squares, |_, i, &len| {
            let mut acc = 0u64;
            for k in 0..len {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            Ok((i, acc))
        });
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().expect("ok").0, i);
        }
    }

    #[test]
    fn worker_count_does_not_change_job_outcomes() {
        let model = counter();
        let scenarios: Vec<Scenario> = (0..12)
            .map(|i| {
                Scenario::new(format!("job{i}"), &model, SimMode::Interpretive)
                    .poke("r0", 0, i)
                    .halt_on("halt")
                    .steps(100)
                    .expect("r0", None, 40)
            })
            .collect();
        let solo = BatchRunner::new(1).run(&scenarios);
        let pooled = BatchRunner::new(4).run(&scenarios);
        assert_eq!(solo.jobs, pooled.jobs);
        assert!(solo.all_passed());
        assert_eq!(solo.workers, 1);
        assert_eq!(pooled.workers, 4);
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_batch() {
        let items: Vec<u32> = (0..6).collect();
        let out = BatchRunner::new(3).execute(&items, |_, _, &v| {
            assert!(v != 4, "job four exploded");
            Ok(v * 2)
        });
        for (i, r) in out.iter().enumerate() {
            if i == 4 {
                match r {
                    Err(JobError::Panic(msg)) => assert!(msg.contains("exploded")),
                    other => panic!("expected panic outcome, got {other:?}"),
                }
            } else {
                assert_eq!(*r.as_ref().expect("ok"), i as u32 * 2);
            }
        }
    }

    #[test]
    fn observed_runs_match_unobserved_and_fill_the_registry() {
        use lisa_metrics::{MetricKey, MetricValue, Registry};

        let model = counter();
        let mut scenarios: Vec<Scenario> = (0..5)
            .map(|i| {
                Scenario::new(format!("job{i}"), &model, SimMode::Interpretive)
                    .halt_on("halt")
                    .steps(100)
            })
            .collect();
        // One failing job: unknown poke resource -> setup failure.
        scenarios.push(Scenario::new("broken", &model, SimMode::Interpretive).poke("nope", 0, 1));

        let reg = Registry::new();
        let observed =
            BatchRunner::new(3).run_observed(&scenarios, &BatchObserver::new().with_metrics(&reg));
        let plain = BatchRunner::new(3).run(&scenarios);
        assert_eq!(observed.jobs, plain.jobs, "observation does not change outcomes");

        let snap = reg.snapshot();
        let count = |name| match snap.metrics.get(&MetricKey::new(name, &[])) {
            Some(&MetricValue::Counter(n)) => n,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(count("lisa_exec_jobs_started_total"), 6);
        assert_eq!(count("lisa_exec_jobs_succeeded_total"), 5);
        assert_eq!(count("lisa_exec_jobs_failed_total"), 1);
        assert_eq!(count("lisa_exec_jobs_panicked_total"), 0);
        match snap
            .metrics
            .get(&MetricKey::new("lisa_exec_job_duration_us", &[("scenario", "job0")]))
        {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("expected per-scenario latency histogram, got {other:?}"),
        }
    }

    #[test]
    fn observed_run_emits_a_connected_batch_span_tree() {
        use lisa_spans::{SpanRecorder, SpanScope};
        use std::sync::Arc;

        let model = counter();
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| {
                Scenario::new(format!("job{i}"), &model, SimMode::Interpretive)
                    .halt_on("halt")
                    .steps(100)
            })
            .collect();
        let recorder = Arc::new(SpanRecorder::new(4096));
        recorder.set_enabled(true);
        let trace = recorder.new_trace();
        let scope = SpanScope::new(Arc::clone(&recorder), trace);
        let report =
            BatchRunner::new(3).run_observed(&scenarios, &BatchObserver::new().with_spans(scope));
        assert!(report.all_passed());

        let spans = recorder.collect();
        let by_kind = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind).count();
        assert_eq!(by_kind(SpanKind::Batch), 1);
        assert_eq!(by_kind(SpanKind::Job), 6);
        assert_eq!(by_kind(SpanKind::JobQueueWait), 6);
        assert!(by_kind(SpanKind::CycleChunk) >= 6, "each job runs at least one chunk");

        // Single connected tree: one trace, one root, every parent resolves.
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
        assert_eq!(ids.len(), spans.len(), "span ids are unique");
        assert!(spans.iter().all(|s| s.trace == trace));
        assert_eq!(spans.iter().filter(|s| s.parent == 0).count(), 1, "one root");
        assert!(spans.iter().all(|s| s.parent == 0 || ids.contains(&s.parent)));
        // Worker ordinals stay within the pool.
        assert!(spans.iter().filter(|s| s.kind == SpanKind::Job).all(|s| s.worker < 3));
    }

    #[test]
    fn empty_batch_and_zero_workers_are_fine() {
        let model = counter();
        let report = BatchRunner::new(0).run(&[]);
        assert!(report.jobs.is_empty());
        assert!(report.all_passed());

        let sc = [Scenario::new("one", &model, SimMode::Interpretive).halt_on("halt").steps(100)];
        let report = BatchRunner::new(0).run(&sc);
        assert!(report.all_passed());
    }
}
