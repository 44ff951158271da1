//! Property tests for the snapshot merge algebra, mirroring the
//! `ArchProfile::merge` contract: deterministic, associative, commutative,
//! with the empty snapshot as identity — so fleet aggregation gives the
//! same answer for any grouping of per-worker registries. Plus
//! exposition round-trips on generated snapshots.

use lisa_metrics::{parse_prometheus, HistogramData, MetricKey, MetricValue, Registry, Snapshot};
use proptest::prelude::*;

/// One generated metric sample: key index, label index, type selector,
/// and a value. Keys/labels are drawn from small pools so generated
/// snapshots overlap (merges actually combine series).
fn sample_strategy() -> impl Strategy<Value = (u8, u8, u8, u64)> {
    (0u8..6, 0u8..3, 0u8..3, 0u64..1_000_000)
}

const NAMES: [&str; 6] =
    ["cycles_total", "jobs_total", "depth", "lat_us", "stalls_total", "iters_total"];
const LABELS: [&str; 3] = ["compiled", "interp", "both"];

/// Deterministically builds a snapshot from generated samples. The type
/// of a series is fixed by its *name index* (mod 3), so overlapping
/// samples never conflict on type.
fn build(samples: &[(u8, u8, u8, u64)]) -> Snapshot {
    let mut snap = Snapshot::new();
    for &(name_i, label_i, _, value) in samples {
        let name = NAMES[name_i as usize % NAMES.len()];
        let key = MetricKey::new(name, &[("backend", LABELS[label_i as usize % LABELS.len()])]);
        let entry = snap.metrics.entry(key);
        match name_i % 3 {
            0 => {
                let slot = entry.or_insert(MetricValue::Counter(0));
                if let MetricValue::Counter(c) = slot {
                    *c += value;
                }
            }
            1 => {
                let slot = entry.or_insert(MetricValue::Gauge(0));
                if let MetricValue::Gauge(g) = slot {
                    *g += value as i64 % 1000 - 500;
                }
            }
            _ => {
                let slot = entry.or_insert(MetricValue::Histogram(HistogramData {
                    count: 0,
                    sum: 0,
                    buckets: vec![0; lisa_metrics::HISTOGRAM_BUCKETS],
                }));
                if let MetricValue::Histogram(h) = slot {
                    h.count += 1;
                    h.sum += value;
                    let idx = if value <= 1 {
                        0
                    } else {
                        (64 - (value - 1).leading_zeros() as usize)
                            .min(lisa_metrics::HISTOGRAM_BUCKETS - 1)
                    };
                    h.buckets[idx] += 1;
                }
            }
        }
    }
    snap
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #[test]
    fn merge_is_associative(
        xs in proptest::collection::vec(sample_strategy(), 0..=12),
        ys in proptest::collection::vec(sample_strategy(), 0..=12),
        zs in proptest::collection::vec(sample_strategy(), 0..=12),
    ) {
        let (a, b, c) = (build(&xs), build(&ys), build(&zs));
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_is_commutative_and_deterministic(
        xs in proptest::collection::vec(sample_strategy(), 0..=12),
        ys in proptest::collection::vec(sample_strategy(), 0..=12),
    ) {
        let (a, b) = (build(&xs), build(&ys));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        // Determinism: repeating the merge gives a byte-identical exposition.
        prop_assert_eq!(merged(&a, &b).to_prometheus(), merged(&b, &a).to_prometheus());
    }

    #[test]
    fn empty_is_identity(xs in proptest::collection::vec(sample_strategy(), 0..=12)) {
        let a = build(&xs);
        prop_assert_eq!(merged(&a, &Snapshot::new()), a.clone());
        prop_assert_eq!(merged(&Snapshot::new(), &a), a);
    }

    #[test]
    fn expositions_round_trip(xs in proptest::collection::vec(sample_strategy(), 0..=16)) {
        let snap = build(&xs);
        let back = parse_prometheus(&snap.to_prometheus()).expect("prometheus parses");
        prop_assert_eq!(&back, &snap);
        let back = Snapshot::from_json(&snap.to_json()).expect("json parses");
        prop_assert_eq!(&back, &snap);
    }

    #[test]
    fn registry_snapshot_matches_handle_reads(values in proptest::collection::vec(0u64..100_000, 1..=8)) {
        let reg = Registry::new();
        let c = reg.counter("c_total", "", &[]);
        let h = reg.histogram("h_us", "", &[]);
        let mut total = 0u64;
        for &v in &values {
            c.add(v);
            h.observe(v);
            total += v;
        }
        let snap = reg.snapshot();
        prop_assert_eq!(snap.metrics.get(&MetricKey::new("c_total", &[])),
            Some(&MetricValue::Counter(total)));
        match snap.metrics.get(&MetricKey::new("h_us", &[])) {
            Some(MetricValue::Histogram(hd)) => {
                prop_assert_eq!(hd.count, values.len() as u64);
                prop_assert_eq!(hd.sum, total);
                prop_assert_eq!(hd.buckets.iter().sum::<u64>(), values.len() as u64);
            }
            other => prop_assert!(false, "expected histogram, got {:?}", other),
        }
    }
}
