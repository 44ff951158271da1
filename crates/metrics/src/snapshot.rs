//! Deterministic snapshots of a registry.

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
    /// out).
    pub buckets: Vec<u64>,
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
