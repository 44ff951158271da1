//! The lock-free metric handles and the registry that interns them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::{HistogramData, MetricKey, MetricValue, Snapshot};

/// Total histogram slots: finite buckets with upper bounds `2^0..=2^38`
/// plus one overflow (`+Inf`) slot. Bucket *b* counts observations `v`
/// with `2^(b-1) < v <= 2^b` (bucket 0 counts `v <= 1`), which keeps
/// the Prometheus `le` boundaries exact powers of two.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing counter (relaxed atomic adds).
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (set/add, relaxed atomics).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.cell.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistCore {
    fn default() -> HistCore {
        HistCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log2-bucketed histogram of `u64` observations (latencies in
/// microseconds, cycle counts, …). Recording is three relaxed atomic
/// adds — no locks, no floating point.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
}

/// Bucket index for an observed value (see [`HISTOGRAM_BUCKETS`]).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        // ceil(log2(v)) for v >= 2.
        (64 - (v - 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
        self.core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    pub(crate) fn data(&self) -> HistogramData {
        HistogramData {
            count: self.core.count.load(Ordering::Relaxed),
            sum: self.core.sum.load(Ordering::Relaxed),
            buckets: self.core.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

#[derive(Debug, Clone)]
enum Entry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    metrics: HashMap<MetricKey, Entry>,
    help: HashMap<String, String>,
}

/// Interns metric handles and snapshots their values.
///
/// Registration (`counter` / `gauge` / `histogram`) takes a short mutex
/// hold and returns a cheap clone-able handle; callers cache the handle
/// and the hot path never touches the registry again. Registering the
/// same name + labels twice returns the **same** underlying cell, so
/// independent components accumulate into one series.
#[derive(Debug)]
pub struct Registry {
    inner: Mutex<Inner>,
    id: u64,
}

impl Default for Registry {
    fn default() -> Registry {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Registry { inner: Mutex::default(), id: NEXT_ID.fetch_add(1, Ordering::Relaxed) }
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// This registry's identity, unique in the process and never reused,
    /// so a caller can key the handles it caches by registry.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Registers (or re-fetches) a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` + `labels` is already registered as a different
    /// metric type — that is a programming error, not load-time input.
    #[must_use]
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.entry(name, help, labels, || {
            Entry::Counter(Counter { cell: Arc::new(AtomicU64::new(0)) })
        }) {
            Entry::Counter(c) => c,
            other => panic!("`{name}` is registered as a {}, not a counter", other.kind()),
        }
    }

    /// Registers (or re-fetches) a gauge.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type conflict, like [`Registry::counter`].
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self
            .entry(name, help, labels, || Entry::Gauge(Gauge { cell: Arc::new(AtomicI64::new(0)) }))
        {
            Entry::Gauge(g) => g,
            other => panic!("`{name}` is registered as a {}, not a gauge", other.kind()),
        }
    }

    /// Registers (or re-fetches) a histogram.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type conflict, like [`Registry::counter`].
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.entry(name, help, labels, || {
            Entry::Histogram(Histogram { core: Arc::new(HistCore::default()) })
        }) {
            Entry::Histogram(h) => h,
            other => panic!("`{name}` is registered as a {}, not a histogram", other.kind()),
        }
    }

    fn entry(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Entry,
    ) -> Entry {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("metrics registry lock");
        if !help.is_empty() && !inner.help.contains_key(name) {
            inner.help.insert(name.to_owned(), help.to_owned());
        }
        inner.metrics.entry(key).or_insert_with(make).clone()
    }

    /// Freezes every registered metric into a deterministic
    /// [`Snapshot`] (sorted by name, then labels). Values are read with
    /// relaxed ordering: a snapshot taken while writers run is a
    /// consistent-enough aggregate view, not a barrier.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("metrics registry lock");
        let mut snap = Snapshot::default();
        for (key, entry) in &inner.metrics {
            let value = match entry {
                Entry::Counter(c) => MetricValue::Counter(c.get()),
                Entry::Gauge(g) => MetricValue::Gauge(g.get()),
                Entry::Histogram(h) => MetricValue::Histogram(h.data()),
            };
            snap.metrics.insert(key.clone(), value);
        }
        for (name, help) in &inner.help {
            snap.help.insert(name.clone(), help.clone());
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = Registry::new();
        let c = reg.counter("jobs_total", "jobs", &[("status", "ok")]);
        c.inc();
        c.add(4);
        // Re-registration shares the cell.
        let again = reg.counter("jobs_total", "", &[("status", "ok")]);
        again.inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("queue_depth", "depth", &[]);
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index((1 << 20) + 1), 21);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let reg = Registry::new();
        let h = reg.histogram("lat_us", "latency", &[]);
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        let data = h.data();
        assert_eq!(data.buckets[0], 2, "0 and 1");
        assert_eq!(data.buckets[1], 1, "2");
        assert_eq!(data.buckets[2], 2, "3 and 4");
        assert_eq!(data.buckets[10], 1, "1000 <= 1024");
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn type_conflict_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x", "", &[]);
        let _ = reg.gauge("x", "", &[]);
    }

    #[test]
    fn labels_are_order_independent() {
        let reg = Registry::new();
        let a = reg.counter("m", "", &[("b", "2"), ("a", "1")]);
        let b = reg.counter("m", "", &[("a", "1"), ("b", "2")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same sorted label set, same cell");
    }

    #[test]
    fn handles_work_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("n", "", &[]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
