//! The span recorder: one mutex-guarded ring of [`SpanRecord`]s.
//!
//! Spans come a handful per served request, a rate an uncontended mutex
//! absorbs at a small fraction of one core. Disabled, recording is one
//! `AtomicBool` load: no clock read, no id, no lock. The ring is
//! allocated once for exactly `capacity` spans (pages are touched as it
//! fills); once full, each new span overwrites the oldest and is counted
//! ([`SpanRecorder::dropped`]). Every update keeps the ring valid, so a
//! poisoned lock is recovered, never a panic.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::{SpanKind, SpanRecord};

/// Process-wide span-id allocator: ids are unique across every recorder
/// so merged exports never collide. 0 is reserved for "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// The retained spans, oldest first, and the overwrite tally.
struct Ring {
    spans: VecDeque<SpanRecord>,
    dropped: u64,
}

/// A bounded flight recorder for [`SpanRecord`]s.
///
/// Construct once per process (or per server), share behind an `Arc`,
/// and hand [`crate::SpanScope`]s down the layers. Disabled by default —
/// call [`SpanRecorder::set_enabled`] to start recording.
pub struct SpanRecorder {
    enabled: AtomicBool,
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
    next_trace: AtomicU64,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl SpanRecorder {
    /// A recorder retaining exactly the newest `capacity` spans (none
    /// when 0: every record is then counted as dropped). Starts
    /// disabled.
    #[must_use]
    pub fn new(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            capacity,
            ring: Mutex::new(Ring { spans: VecDeque::with_capacity(capacity), dropped: 0 }),
            next_trace: AtomicU64::new(1),
        }
    }

    /// Turns recording on or off. Off is the default; when off,
    /// [`SpanRecorder::start`] and [`SpanRecorder::record`] are inert.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this recorder was constructed (the shared
    /// timeline for all of its spans).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates a fresh trace id (monotonic, never 0).
    #[must_use]
    pub fn new_trace(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts a span now; the returned guard records it on drop. When
    /// the recorder is disabled this is a single branch returning an
    /// inert guard whose [`SpanGuard::id`] is 0.
    pub fn start(
        self: &Arc<SpanRecorder>,
        trace: u64,
        parent: u64,
        kind: SpanKind,
        worker: u32,
    ) -> SpanGuard {
        self.open(trace, parent, kind, worker, None)
    }

    /// A guard for a span opened at `start_ns`, or now when `None`.
    pub(crate) fn open(
        self: &Arc<SpanRecorder>,
        trace: u64,
        parent: u64,
        kind: SpanKind,
        worker: u32,
        start_ns: Option<u64>,
    ) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { inner: None };
        }
        let start_ns = start_ns.unwrap_or_else(|| self.now_ns());
        let span = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord { trace, span, parent, kind, worker, start_ns, dur_ns: 0 };
        SpanGuard { inner: Some((Arc::clone(self), record)) }
    }

    /// Records a completed span with explicit timing, returning its id
    /// (0 when disabled — nothing is stored).
    pub fn record(
        &self,
        trace: u64,
        parent: u64,
        kind: SpanKind,
        worker: u32,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let span = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        self.push(SpanRecord { trace, span, parent, kind, worker, start_ns, dur_ns });
        span
    }

    /// Appends a span, overwriting the oldest once the ring is full.
    fn push(&self, record: SpanRecord) {
        let mut ring = self.ring();
        if ring.spans.len() == self.capacity {
            ring.dropped += 1;
            if ring.spans.pop_front().is_none() {
                return; // capacity 0 keeps nothing
            }
        }
        ring.spans.push_back(record);
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-destructive snapshot of every retained span, ordered by start
    /// time (ties broken by span id); copied under the lock, sorted
    /// outside it.
    #[must_use]
    pub fn collect(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self.ring().spans.iter().copied().collect();
        out.sort_by_key(|s| (s.start_ns, s.span));
        out
    }

    /// Spans overwritten because the ring was full (cumulative).
    /// Monotonic while the recorder lives; reset only by
    /// [`SpanRecorder::clear`].
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// Empties the ring and resets the drop count. Intended for
    /// benchmarks and tests between measurement windows.
    pub fn clear(&self) {
        let mut ring = self.ring();
        ring.spans.clear();
        ring.dropped = 0;
    }
}

/// An in-flight span; records itself on drop with the elapsed duration.
///
/// Inert (and cheap) when obtained from a disabled recorder.
#[must_use = "dropping the guard ends the span"]
pub struct SpanGuard {
    inner: Option<(Arc<SpanRecorder>, SpanRecord)>,
}

impl SpanGuard {
    /// This span's id, for parenting children under it (0 when inert).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |(_, record)| record.span)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Disabling the recorder mid-span drops the span.
        if let Some((recorder, record)) = self.inner.take().filter(|(r, _)| r.is_enabled()) {
            let dur_ns = recorder.now_ns().saturating_sub(record.start_ns);
            recorder.push(SpanRecord { dur_ns, ..record });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing_and_allocates_nothing() {
        let rec = Arc::new(SpanRecorder::new(16));
        assert!(!rec.is_enabled());
        let guard = rec.start(1, 0, SpanKind::Run, 0);
        assert_eq!(guard.id(), 0);
        drop(guard);
        assert_eq!(rec.record(1, 0, SpanKind::Run, 0, 0, 10), 0);
        assert!(rec.collect().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn guards_record_on_drop_with_elapsed_duration() {
        let rec = Arc::new(SpanRecorder::new(16));
        rec.set_enabled(true);
        let trace = rec.new_trace();
        let guard = rec.start(trace, 0, SpanKind::Parse, 2);
        let id = guard.id();
        assert_ne!(id, 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(guard);
        let spans = rec.collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].span, id);
        assert_eq!(spans[0].kind, SpanKind::Parse);
        assert_eq!(spans[0].worker, 2);
        assert_eq!(spans[0].trace, trace);
        assert!(spans[0].dur_ns >= 500_000, "slept 1ms, recorded {}ns", spans[0].dur_ns);
    }

    #[test]
    fn ring_overflow_is_counted_not_blocking() {
        let rec = SpanRecorder::new(1);
        rec.set_enabled(true);
        for i in 0..10 {
            rec.record(1, 0, SpanKind::Job, 0, i, 1);
        }
        assert_eq!(rec.dropped(), 9);
        let spans = rec.collect();
        assert_eq!(spans.len(), 1, "one slot retained");
        assert_eq!(spans[0].start_ns, 9, "the newest record survives");
        rec.clear();
        assert_eq!(rec.dropped(), 0);
        assert!(rec.collect().is_empty());
    }

    #[test]
    fn ring_keeps_exactly_the_newest_capacity_spans() {
        let rec = SpanRecorder::new(5);
        rec.set_enabled(true);
        for i in 0..9 {
            rec.record(1, 0, SpanKind::Job, 0, i, 1);
        }
        let starts: Vec<u64> = rec.collect().iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, [4, 5, 6, 7, 8]);
        assert_eq!(rec.dropped(), 4);
    }

    #[test]
    fn zero_capacity_keeps_nothing_and_counts_every_record() {
        let rec = SpanRecorder::new(0);
        rec.set_enabled(true);
        rec.record(1, 0, SpanKind::Job, 0, 0, 1);
        rec.record(1, 0, SpanKind::Job, 0, 1, 1);
        assert!(rec.collect().is_empty());
        assert_eq!(rec.dropped(), 2);
    }

    #[test]
    fn a_poisoned_ring_keeps_recording() {
        let rec = Arc::new(SpanRecorder::new(4));
        rec.set_enabled(true);
        let poisoner = Arc::clone(&rec);
        let panicked = std::thread::spawn(move || {
            let _ring = poisoner.ring();
            panic!("poison the ring lock");
        })
        .join();
        assert!(panicked.is_err());
        rec.record(1, 0, SpanKind::Job, 0, 7, 1);
        assert_eq!(rec.collect().len(), 1);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn disabling_mid_span_drops_the_record() {
        let rec = Arc::new(SpanRecorder::new(16));
        rec.set_enabled(true);
        let guard = rec.start(1, 0, SpanKind::Run, 0);
        rec.set_enabled(false);
        drop(guard);
        assert!(rec.collect().is_empty());
    }

    #[test]
    fn collect_is_sorted_and_non_destructive() {
        let rec = SpanRecorder::new(64);
        rec.set_enabled(true);
        rec.record(1, 0, SpanKind::Run, 0, 30, 1);
        rec.record(1, 0, SpanKind::Run, 0, 10, 1);
        rec.record(1, 0, SpanKind::Run, 0, 20, 1);
        let starts: Vec<u64> = rec.collect().iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, [10, 20, 30]);
        assert_eq!(rec.collect().len(), 3, "collect does not drain");
    }

    #[test]
    fn trace_ids_are_distinct() {
        let rec = SpanRecorder::new(8);
        let a = rec.new_trace();
        let b = rec.new_trace();
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }
}
