//! Property test: a registry snapshot reports exactly what its handles
//! recorded.

use lisa_metrics::{MetricKey, MetricValue, Registry};
use proptest::prelude::*;

proptest! {
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
