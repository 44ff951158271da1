//! Property tests for the span recorder's concurrency contract.
//!
//! Invariants:
//!
//! 1. **Concurrent recording is safe** — any number of threads hammering
//!    one recorder never panics, and a ring sized to exactly the volume
//!    keeps every span with a unique id.
//! 2. **Disabled means free and silent** — a disabled recorder allocates
//!    no ids, records nothing, and drops nothing.
//! 3. **Nothing is silently lost or garbled** — with a reader collecting
//!    concurrently, every record either survives to `collect()` intact
//!    or is tallied in `dropped()`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lisa_spans::{SpanKind, SpanRecord, SpanRecorder, SpanScope};
use proptest::prelude::*;

/// The kinds the properties cycle through.
const KINDS: [SpanKind; 4] = [SpanKind::Request, SpanKind::Route, SpanKind::Run, SpanKind::Job];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 1: N threads × M spans into a ring of exactly N × M
    /// slots: no panics, all ids unique, nothing dropped, every worker's
    /// spans intact.
    #[test]
    fn concurrent_recording_keeps_every_span_distinct(
        threads in 1usize..6,
        per_thread in 1usize..40,
    ) {
        let recorder = Arc::new(SpanRecorder::new(threads * per_thread));
        recorder.set_enabled(true);

        std::thread::scope(|scope| {
            for t in 0..threads {
                let recorder = Arc::clone(&recorder);
                scope.spawn(move || {
                    let trace = recorder.new_trace();
                    let scope = SpanScope::new(recorder, trace).with_worker(t as u32);
                    for i in 0..per_thread {
                        let kind = KINDS[(t + i) % KINDS.len()];
                        drop(scope.start(kind));
                    }
                });
            }
        });

        let collected = recorder.collect();
        prop_assert_eq!(recorder.dropped(), 0, "capacity was sufficient");
        prop_assert_eq!(collected.len(), threads * per_thread);

        let mut ids: Vec<u64> = collected.iter().map(|s| s.span).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "span ids must be unique");

        for t in 0..threads {
            let mine = collected.iter().filter(|s| s.worker == t as u32).count();
            prop_assert_eq!(mine, per_thread, "worker {}'s spans all present", t);
        }
        for span in &collected {
            prop_assert!(span.span != 0, "live spans never get the sentinel id");
        }
    }

    /// Invariant 2: when disabled, the hot path is inert — no ids, no
    /// records, no drops — even under concurrency.
    #[test]
    fn disabled_recorder_stays_empty(threads in 1usize..6, per_thread in 1usize..40) {
        let recorder = Arc::new(SpanRecorder::new(64));
        // Never enabled.
        std::thread::scope(|scope| {
            for t in 0..threads {
                let recorder = Arc::clone(&recorder);
                scope.spawn(move || {
                    let scope = SpanScope::new(recorder, 1).with_worker(t as u32);
                    for i in 0..per_thread {
                        let kind = KINDS[i % KINDS.len()];
                        let guard = scope.start(kind);
                        assert_eq!(guard.id(), 0, "disabled guards are inert");
                        drop(guard);
                        assert_eq!(scope.record(kind, 10, 5), 0, "disabled records nothing");
                    }
                });
            }
        });
        prop_assert!(recorder.collect().is_empty());
        prop_assert_eq!(recorder.dropped(), 0);
    }

    /// Invariant 3: several writers record while a reader collects in a
    /// loop; afterwards the ring holds `min(total, capacity)` spans, the
    /// drop tally accounts for the rest, and every survivor is a record
    /// some writer wrote, field for field.
    #[test]
    fn every_record_is_kept_or_counted(
        threads in 1usize..5,
        per_thread in 1usize..120,
        capacity in 1usize..200,
    ) {
        let recorder = Arc::new(SpanRecorder::new(capacity));
        recorder.set_enabled(true);
        let writing = AtomicBool::new(true);
        // Each writer's records are a pure function of (thread, index),
        // so a survivor can be checked against what was written.
        let expected = |t: usize, i: usize, trace: u64| SpanRecord {
            trace,
            span: 0,
            parent: t as u64,
            kind: KINDS[(t + i) % KINDS.len()],
            worker: t as u32,
            start_ns: i as u64,
            dur_ns: (t * 1000 + i) as u64,
        };

        let written: Vec<Vec<SpanRecord>> = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                while writing.load(Ordering::Relaxed) {
                    assert!(recorder.collect().len() <= capacity);
                }
            });
            let writers: Vec<_> = (0..threads)
                .map(|t| {
                    let recorder = Arc::clone(&recorder);
                    scope.spawn(move || {
                        let trace = recorder.new_trace();
                        (0..per_thread)
                            .map(|i| {
                                let want = expected(t, i, trace);
                                let span = recorder.record(
                                    trace,
                                    want.parent,
                                    want.kind,
                                    want.worker,
                                    want.start_ns,
                                    want.dur_ns,
                                );
                                SpanRecord { span, ..want }
                            })
                            .collect()
                    })
                })
                .collect();
            let written = writers.into_iter().map(|w| w.join().unwrap()).collect();
            writing.store(false, Ordering::Relaxed);
            reader.join().unwrap();
            written
        });

        let total = threads * per_thread;
        let collected = recorder.collect();
        prop_assert_eq!(collected.len(), total.min(capacity));
        prop_assert_eq!(collected.len() as u64 + recorder.dropped(), total as u64);
        let written: Vec<&SpanRecord> = written.iter().flatten().collect();
        for span in &collected {
            prop_assert!(written.contains(&span), "{:?} was never written", span);
        }
    }
}
