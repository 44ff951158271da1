//! Always-on runtime metrics for the LISA toolchain.
//!
//! `lisa-trace` gives *event-level* visibility into one run; this
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
//! A snapshot renders as the Prometheus text exposition format
//! ([`Snapshot::to_prometheus`]), which `GET /metrics` serves and
//! `--metrics FILE` writes. The [`json`] module is the workspace's small
//! JSON writer and reader for its other machine-readable documents.
//!
//! ```
//! use lisa_metrics::Registry;
//!
//! let reg = Registry::new();
//! let cycles = reg.counter("sim_cycles_total", "control steps", &[("backend", "ops")]);
//! cycles.add(1_000_000);
//! assert_eq!(
//!     reg.snapshot().to_prometheus(),
//!     concat!(
//!         "# HELP sim_cycles_total control steps\n",
//!         "# TYPE sim_cycles_total counter\n",
//!         "sim_cycles_total{backend=\"ops\"} 1000000\n",
//!     )
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expose;
pub mod json;
mod registry;
mod snapshot;

pub use registry::{Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramData, MetricKey, MetricValue, Snapshot};
