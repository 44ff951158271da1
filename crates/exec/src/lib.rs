//! Parallel batch execution of LISA simulations.
//!
//! The paper's environment generates one simulator per machine
//! description; real verification campaigns run *many* simulations —
//! every kernel on every model in every mode, design-space sweeps, and
//! what-if forks from a common warm-up point. This crate turns single
//! simulator runs into such campaigns:
//!
//! * [`Scenario`] — one self-contained job: a model, an execution mode,
//!   a program image plus data pokes, a halt condition with a step
//!   budget, golden-value checks, and optionally a base
//!   [`lisa_sim::Snapshot`] to fork from instead of reset state.
//! * [`BatchRunner`] — a `std::thread` worker pool that drains a shared
//!   job queue. Results are keyed by job index, so a report is
//!   **deterministic**: the same scenario list produces identical
//!   [`JobOutcome`]s regardless of worker count or completion order. A
//!   panicking job is isolated to its own [`JobError::Panic`] outcome.
//! * [`BatchReport`] — per-job results plus aggregate throughput
//!   (total cycles, cycles/second) and a formatted summary table.
//!
//! No dependencies beyond the workspace's own crates; workers are plain
//! scoped threads, so scenarios may borrow their [`lisa_core::Model`]s.
//!
//! ```
//! use lisa_core::Model;
//! use lisa_exec::{BatchRunner, Scenario};
//! use lisa_sim::SimMode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = Model::from_source(r#"
//!     RESOURCE { PROGRAM_COUNTER int pc; REGISTER int r0; }
//!     OPERATION main { BEHAVIOR { r0 = r0 + 2; pc = pc + 1; } }
//! "#)?;
//! let scenarios: Vec<Scenario> = (1..=4)
//!     .map(|steps| {
//!         Scenario::new(format!("count_{steps}"), &model, SimMode::Interpretive)
//!             .steps(steps * 10)
//!             .expect("r0", None, 2 * (steps as i64) * 10)
//!     })
//!     .collect();
//! let report = BatchRunner::new(2).run(&scenarios);
//! assert!(report.all_passed());
//! assert_eq!(report.total_cycles(), 10 + 20 + 30 + 40);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod observe;
mod report;
mod runner;
mod scenario;

pub use observe::BatchObserver;
pub use report::{BatchReport, JobOutcome, JobResult, LatencySummary};
pub use runner::BatchRunner;
pub use scenario::{run_scenario, run_scenario_with, Check, JobError, Scenario};
