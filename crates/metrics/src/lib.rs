//! Always-on runtime metrics for the LISA toolchain.
//!
//! `lisa-trace` (PR 2) gives *event-level* visibility into one run; this
//! crate is the complementary layer the fleet needs: cheap **aggregate**
//! metrics that stay on in production across millions of runs. The
//! design follows the usual two-plane split:
//!
//! * the **hot plane** is lock-free: a [`Counter`], [`Gauge`] or
//!   [`Histogram`] handle is an `Arc` around plain atomics, so
//!   incrementing from simulator hot loops or batch-runner workers costs
//!   one relaxed atomic op and never takes a lock;
//! * the **cold plane** is the [`Registry`]: registration interns a
//!   handle under a name + sorted label set (one short mutex hold), and
//!   [`Registry::snapshot`] freezes every value into a deterministic,
//!   order-independent [`Snapshot`].
//!
//! Snapshots [`Snapshot::merge`] associatively (counters and histogram
//! buckets add; gauges add, fleet-aggregation semantics), so per-worker
//! or per-shard registries fold into one fleet view in any grouping —
//! the same contract `lisa_probe::ArchProfile::merge` keeps, and property
//! tests hold it to that. Two exposition formats ship with round-trip
//! parsers: the Prometheus text format ([`Snapshot::to_prometheus`] /
//! [`parse_prometheus`]) and JSON ([`Snapshot::to_json`] / the generic
//! [`json`] parser).
//!
//! ```
//! use lisa_metrics::Registry;
//!
//! let reg = Registry::new();
//! let cycles = reg.counter("sim_cycles_total", "control steps", &[("backend", "compiled")]);
//! cycles.add(1_000_000);
//! let snap = reg.snapshot();
//! assert!(snap.to_prometheus().contains("sim_cycles_total{backend=\"compiled\"} 1000000"));
//! let back = lisa_metrics::parse_prometheus(&snap.to_prometheus()).unwrap();
//! assert_eq!(snap, back);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expose;
pub mod json;
mod registry;
mod snapshot;

pub use expose::parse_prometheus;
pub use registry::{Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramData, MetricKey, MetricValue, Snapshot};
