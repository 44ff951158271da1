//! lisa-spans — cross-layer runtime span tracing.
//!
//! Counters (`lisa-metrics`) say *how much*; simulation events
//! (`lisa-trace`) say *what the machine did*; neither says **where the
//! wall-clock time of a request goes** across the serve → exec → sim
//! path. This crate fills that gap with a low-overhead span layer:
//!
//! * [`SpanRecorder`] — a bounded flight recorder: one mutex-guarded
//!   ring that keeps exactly the newest `capacity` spans and counts the
//!   ones it overwrote ([`SpanRecorder::dropped`]); collection is
//!   non-destructive. When disabled, [`SpanRecorder::start`] is a single
//!   atomic-bool branch — no clock read, no ID allocation, no lock.
//! * [`SpanKind`] — the closed vocabulary of span names. A closed enum
//!   (rather than free-form strings) keeps records fixed-size and `Copy`.
//! * [`SpanScope`] — a `(recorder, trace, parent, worker)` bundle that
//!   layers hand to each other so one `/v1/simulate` request produces a
//!   single connected tree: `accept → queue_wait → request → parse →
//!   route → assemble → run → serialize → write`, with simulator phases
//!   (`predecode`, `cycle_chunk`) hanging under `run`.
//! * [`export`] — Chrome trace-event JSON (loadable in Perfetto or
//!   `chrome://tracing`) and JSONL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
mod recorder;

pub use recorder::{SpanGuard, SpanRecorder};

/// The layer a span belongs to, derived from its [`SpanKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// HTTP front end: connection and request lifecycle.
    Serve,
    /// Accept-queue mechanics: waits and lock holds.
    Queue,
    /// Batch execution: jobs and their scheduling.
    Exec,
    /// Simulator phases.
    Sim,
}

impl Category {
    /// Lower-case label used in exports (`"serve"`, `"queue"`, …).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Serve => "serve",
            Category::Queue => "queue",
            Category::Exec => "exec",
            Category::Sim => "sim",
        }
    }
}

/// The closed set of span names.
///
/// Closed on purpose: records stay small and `Copy`. Add a variant (with
/// its `as_str` and `category` arms) to extend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A connection from its enqueue to a worker taking it (tree root:
    /// the connection's requests hang under it).
    Accept,
    /// Time a connection sat in the bounded accept queue.
    QueueWait,
    /// Mutex acquisition latency on the accept-queue push side.
    LockPush,
    /// Mutex acquisition latency on the accept-queue pop side.
    LockPop,
    /// A connection answered 503 because the queue was full.
    Shed,
    /// Graceful drain: queue close until the workers finished.
    Drain,
    /// One HTTP request, parse through write.
    Request,
    /// Reading and parsing one request (first byte to parse success).
    Parse,
    /// Routing and handling inside [`dispatch`](SpanKind::Route).
    Route,
    /// Assembling the request's program.
    Assemble,
    /// Running the simulation for a request or CLI invocation.
    Run,
    /// Rendering the response body.
    Serialize,
    /// Writing the response to the socket.
    Write,
    /// One whole batch run.
    Batch,
    /// One batch job, claim to completion.
    Job,
    /// Time a batch job waited before a worker claimed it.
    JobQueueWait,
    /// Pre-decoding program memory (compiled mode).
    Predecode,
    /// A chunk of the cycle loop (every N control steps).
    CycleChunk,
    /// Taking a simulator snapshot.
    Snapshot,
    /// Restoring a simulator snapshot.
    Restore,
}

impl SpanKind {
    /// Stable lower-case name used in every export format.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Accept => "accept",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::LockPush => "lock_push",
            SpanKind::LockPop => "lock_pop",
            SpanKind::Shed => "shed",
            SpanKind::Drain => "drain",
            SpanKind::Request => "request",
            SpanKind::Parse => "parse",
            SpanKind::Route => "route",
            SpanKind::Assemble => "assemble",
            SpanKind::Run => "run",
            SpanKind::Serialize => "serialize",
            SpanKind::Write => "write",
            SpanKind::Batch => "batch",
            SpanKind::Job => "job",
            SpanKind::JobQueueWait => "job_queue_wait",
            SpanKind::Predecode => "predecode",
            SpanKind::CycleChunk => "cycle_chunk",
            SpanKind::Snapshot => "snapshot",
            SpanKind::Restore => "restore",
        }
    }

    /// The layer this kind belongs to.
    #[must_use]
    pub fn category(self) -> Category {
        match self {
            SpanKind::Accept
            | SpanKind::Shed
            | SpanKind::Drain
            | SpanKind::Request
            | SpanKind::Parse
            | SpanKind::Route
            | SpanKind::Assemble
            | SpanKind::Run
            | SpanKind::Serialize
            | SpanKind::Write => Category::Serve,
            SpanKind::QueueWait | SpanKind::LockPush | SpanKind::LockPop => Category::Queue,
            SpanKind::Batch | SpanKind::Job | SpanKind::JobQueueWait => Category::Exec,
            SpanKind::Predecode | SpanKind::CycleChunk | SpanKind::Snapshot | SpanKind::Restore => {
                Category::Sim
            }
        }
    }
}

/// One completed span, as read back from the recorder.
///
/// `start_ns` is relative to the recorder's construction instant, so
/// spans from one recorder share a timeline regardless of which thread
/// recorded them. `parent == 0` marks a tree root; `span` ids are
/// allocated from one global counter and never repeat within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to (one tree per trace).
    pub trace: u64,
    /// This span's unique id (never 0).
    pub span: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// What the span measures.
    pub kind: SpanKind,
    /// Worker/thread ordinal for timeline lanes (0 when not applicable).
    pub worker: u32,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A clonable tracing context handed across layers (serve → exec → sim).
///
/// Carries the recorder, the trace id, the parent span to attach
/// children to, and the worker ordinal. [`SpanScope::child`] re-parents
/// for the next level down.
#[derive(Debug, Clone)]
pub struct SpanScope {
    /// The destination recorder.
    pub recorder: std::sync::Arc<SpanRecorder>,
    /// Trace id for every span started through this scope.
    pub trace: u64,
    /// Parent span id new spans attach to (0 = root).
    pub parent: u64,
    /// Worker ordinal stamped on new spans.
    pub worker: u32,
}

impl SpanScope {
    /// A root scope on `recorder` for a fresh trace.
    #[must_use]
    pub fn new(recorder: std::sync::Arc<SpanRecorder>, trace: u64) -> SpanScope {
        SpanScope { recorder, trace, parent: 0, worker: 0 }
    }

    /// The same scope re-parented under `parent` (a span id returned by
    /// [`SpanGuard::id`] or [`SpanRecorder::record`]).
    #[must_use]
    pub fn child(&self, parent: u64) -> SpanScope {
        SpanScope { recorder: std::sync::Arc::clone(&self.recorder), parent, ..*self }
    }

    /// The same scope with a worker ordinal.
    #[must_use]
    pub fn with_worker(mut self, worker: u32) -> SpanScope {
        self.worker = worker;
        self
    }

    /// Starts a span under this scope's parent (inert when the recorder
    /// is disabled).
    pub fn start(&self, kind: SpanKind) -> SpanGuard {
        self.recorder.start(self.trace, self.parent, kind, self.worker)
    }

    /// Like [`SpanScope::start`], but opened at `start_ns`, a timestamp
    /// already read from this recorder (enqueue time, first byte, claim
    /// time); children parent on the guard's id while it is open.
    pub fn start_at(&self, kind: SpanKind, start_ns: u64) -> SpanGuard {
        self.recorder.open(self.trace, self.parent, kind, self.worker, Some(start_ns))
    }

    /// Records an already-measured span under this scope's parent.
    /// Returns the span id (0 when disabled).
    pub fn record(&self, kind: SpanKind, start_ns: u64, dur_ns: u64) -> u64 {
        self.recorder.record(self.trace, self.parent, kind, self.worker, start_ns, dur_ns)
    }

    /// Nanoseconds since the recorder's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.recorder.now_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind, in declaration order.
    const KINDS: [SpanKind; 20] = [
        SpanKind::Accept,
        SpanKind::QueueWait,
        SpanKind::LockPush,
        SpanKind::LockPop,
        SpanKind::Shed,
        SpanKind::Drain,
        SpanKind::Request,
        SpanKind::Parse,
        SpanKind::Route,
        SpanKind::Assemble,
        SpanKind::Run,
        SpanKind::Serialize,
        SpanKind::Write,
        SpanKind::Batch,
        SpanKind::Job,
        SpanKind::JobQueueWait,
        SpanKind::Predecode,
        SpanKind::CycleChunk,
        SpanKind::Snapshot,
        SpanKind::Restore,
    ];

    #[test]
    fn kind_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in KINDS {
            assert!(seen.insert(kind.as_str()), "duplicate name {}", kind.as_str());
        }
    }

    #[test]
    fn categories_cover_all_layers() {
        assert_eq!(SpanKind::QueueWait.category(), Category::Queue);
        assert_eq!(SpanKind::Job.category(), Category::Exec);
        assert_eq!(SpanKind::CycleChunk.category(), Category::Sim);
        assert_eq!(SpanKind::Request.category().as_str(), "serve");
    }

    #[test]
    fn scope_child_reparents_and_keeps_the_trace() {
        let rec = std::sync::Arc::new(SpanRecorder::new(64));
        rec.set_enabled(true);
        let trace = rec.new_trace();
        let scope = SpanScope::new(std::sync::Arc::clone(&rec), trace).with_worker(3);
        let root = scope.start(SpanKind::Batch);
        let child_scope = scope.child(root.id());
        assert_eq!(child_scope.trace, trace);
        assert_eq!(child_scope.parent, root.id());
        assert_eq!(child_scope.worker, 3);
        let job = child_scope.start(SpanKind::Job);
        let job_id = job.id();
        drop(job);
        drop(root);
        let spans = rec.collect();
        assert_eq!(spans.len(), 2);
        let job_rec = spans.iter().find(|s| s.span == job_id).expect("job recorded");
        assert_eq!(job_rec.worker, 3);
        assert_ne!(job_rec.parent, 0);
    }
}
