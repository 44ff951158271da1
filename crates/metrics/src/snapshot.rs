//! Deterministic, mergeable snapshots of a registry.

use std::collections::BTreeMap;

/// Identity of one metric series: a name plus a sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: `snake_case`, counters end
    /// in `_total`).
    pub name: String,
    /// Label pairs, always sorted by label name (construction sorts).
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// A key with its labels sorted into canonical order.
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
        labels.sort();
        MetricKey { name: name.to_owned(), labels }
    }
}

/// Frozen histogram state: per-bucket (non-cumulative) counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramData {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// One count per bucket, `crate::HISTOGRAM_BUCKETS` long
    /// (non-cumulative; the Prometheus exposition cumulates on the way
    /// out and the parser de-cumulates on the way back in).
    pub buckets: Vec<u64>,
}

impl HistogramData {
    /// Approximate quantile `q` in `0.0..=1.0` as the upper bound of the
    /// bucket containing the `ceil(q * count)`-th observation (`None`
    /// when empty). Exact enough for log2 buckets: the answer is the
    /// right power of two.
    #[must_use]
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }
}

/// Upper bound of bucket `i` (`2^i`; the last bucket is unbounded and
/// reports `u64::MAX`).
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= crate::HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramData),
}

/// A deterministic view of every metric at one instant.
///
/// Backed by `BTreeMap`, so iteration order — and therefore every
/// exposition format — depends only on the metric keys, never on
/// registration or thread order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Metric series, sorted by name then labels.
    pub metrics: BTreeMap<MetricKey, MetricValue>,
    /// Help text per metric *name* (shared across label sets).
    pub help: BTreeMap<String, String>,
}

impl Snapshot {
    /// An empty snapshot (the identity element of [`Snapshot::merge`]).
    #[must_use]
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Folds `other` into `self`.
    ///
    /// Counters and histogram buckets add (saturating); gauges add too —
    /// fleet-aggregation semantics, chosen so merge is **associative and
    /// commutative** like `lisa_probe::ArchProfile::merge` (property-tested).
    /// Missing help text is taken from `other`.
    ///
    /// # Panics
    ///
    /// Panics when the same key carries different metric types — two
    /// snapshots of the same codebase never disagree, so this is a
    /// programming error.
    pub fn merge(&mut self, other: &Snapshot) {
        for (key, value) in &other.metrics {
            match self.metrics.entry(key.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(value.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    match (slot.get_mut(), value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                            *a = a.saturating_add(*b);
                        }
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                            *a = a.saturating_add(*b);
                        }
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                            a.count = a.count.saturating_add(b.count);
                            a.sum = a.sum.saturating_add(b.sum);
                            if a.buckets.len() < b.buckets.len() {
                                a.buckets.resize(b.buckets.len(), 0);
                            }
                            for (slot, add) in a.buckets.iter_mut().zip(&b.buckets) {
                                *slot = slot.saturating_add(*add);
                            }
                        }
                        (mine, theirs) => panic!(
                            "metric `{}` merged with a different type ({mine:?} vs {theirs:?})",
                            key.name
                        ),
                    }
                }
            }
        }
        for (name, help) in &other.help {
            self.help.entry(name.clone()).or_insert_with(|| help.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_snap(name: &str, v: u64) -> Snapshot {
        let mut s = Snapshot::new();
        s.metrics.insert(MetricKey::new(name, &[]), MetricValue::Counter(v));
        s
    }

    #[test]
    fn merge_adds_counters_and_keeps_disjoint_keys() {
        let mut a = counter_snap("x", 3);
        let mut b = counter_snap("x", 4);
        b.metrics.insert(MetricKey::new("y", &[]), MetricValue::Gauge(-2));
        a.merge(&b);
        assert_eq!(a.metrics[&MetricKey::new("x", &[])], MetricValue::Counter(7));
        assert_eq!(a.metrics[&MetricKey::new("y", &[])], MetricValue::Gauge(-2));
    }

    #[test]
    fn empty_snapshot_is_the_merge_identity() {
        let base = counter_snap("x", 9);
        let mut left = Snapshot::new();
        left.merge(&base);
        let mut right = base.clone();
        right.merge(&Snapshot::new());
        assert_eq!(left, base);
        assert_eq!(right, base);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let ha = HistogramData { count: 2, sum: 5, buckets: vec![1, 1, 0] };
        let hb = HistogramData { count: 1, sum: 9, buckets: vec![0, 0, 1] };
        let mut a = Snapshot::new();
        a.metrics.insert(MetricKey::new("h", &[]), MetricValue::Histogram(ha));
        let mut b = Snapshot::new();
        b.metrics.insert(MetricKey::new("h", &[]), MetricValue::Histogram(hb));
        a.merge(&b);
        let MetricValue::Histogram(h) = &a.metrics[&MetricKey::new("h", &[])] else {
            panic!("histogram survives merge")
        };
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 14);
        assert_eq!(h.buckets, vec![1, 1, 1]);
    }

    #[test]
    fn quantile_bound_finds_the_right_bucket() {
        let h = HistogramData { count: 0, sum: 0, buckets: vec![0; crate::HISTOGRAM_BUCKETS] };
        assert_eq!(h.quantile_bound(0.5), None);

        let mut buckets = vec![0; crate::HISTOGRAM_BUCKETS];
        buckets[0] = 5; // five observations <= 1
        buckets[3] = 4; // four in (4, 8]
        buckets[10] = 1; // one in (512, 1024]
        let h = HistogramData { count: 10, sum: 0, buckets };
        assert_eq!(h.quantile_bound(0.0), Some(1));
        assert_eq!(h.quantile_bound(0.5), Some(1));
        assert_eq!(h.quantile_bound(0.9), Some(8));
        assert_eq!(h.quantile_bound(1.0), Some(1024));
    }
}
