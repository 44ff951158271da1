//! Batch observability: metrics export and wall-clock spans.
//!
//! [`BatchRunner::run`](crate::BatchRunner::run) is deliberately silent —
//! it returns a deterministic report and nothing else. Long campaigns
//! want more: counters and latency histograms accumulated into a
//! [`lisa_metrics::Registry`] shared with the rest of the process, and a
//! span per job. [`BatchObserver`] carries both concerns;
//! [`BatchRunner::run_observed`](crate::BatchRunner::run_observed)
//! consumes one. Neither changes job outcomes: observed and unobserved
//! runs of the same scenario list produce equal `jobs`.

use lisa_metrics::Registry;
use lisa_spans::SpanScope;

/// What to observe while a batch runs. The default observes nothing,
/// making [`BatchRunner::run_observed`](crate::BatchRunner::run_observed)
/// equivalent to [`BatchRunner::run`](crate::BatchRunner::run).
#[derive(Default)]
pub struct BatchObserver<'a> {
    /// Registry receiving job counters
    /// (`lisa_exec_jobs_{started,succeeded,failed,panicked}_total`) and
    /// the per-scenario `lisa_exec_job_duration_us` latency histogram.
    pub metrics: Option<&'a Registry>,
    /// Span context for wall-clock tracing: the batch becomes one
    /// `batch` root span with a worker-stamped `job` span (and its
    /// `job_queue_wait` split) per scenario, and the simulator phases of
    /// each job nest beneath it.
    pub spans: Option<SpanScope>,
}

impl std::fmt::Debug for BatchObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchObserver")
            .field("metrics", &self.metrics.is_some())
            .field("spans", &self.spans.is_some())
            .finish()
    }
}

impl<'a> BatchObserver<'a> {
    /// An observer that records nothing.
    #[must_use]
    pub fn new() -> BatchObserver<'a> {
        BatchObserver::default()
    }

    /// Accumulates job counters and latency histograms into `registry`.
    #[must_use]
    pub fn with_metrics(mut self, registry: &'a Registry) -> BatchObserver<'a> {
        self.metrics = Some(registry);
        self
    }

    /// Records wall-clock spans for the batch and its jobs under
    /// `scope` (typically a fresh trace on a shared recorder).
    #[must_use]
    pub fn with_spans(mut self, scope: SpanScope) -> BatchObserver<'a> {
        self.spans = Some(scope);
        self
    }
}
