//! # lisa-conform — ISA-driven differential fuzzing and conformance
//!
//! The paper's correctness argument (§4.1) is a cross-check of the
//! generated simulator against `sim62x` on "a number of typical DSP
//! applications" — a fixed, hand-picked suite. This crate turns that
//! idea into a standing harness: it *synthesizes* programs from the ISA
//! model itself and cross-checks every execution invariant the
//! workspace defines, automatically and reproducibly.
//!
//! The pieces:
//!
//! * [`rng`] — a SplitMix64 stream so every run is a pure function of a
//!   `u64` seed;
//! * [`gen`] — a model-driven program generator that walks the decode
//!   root's coding tree and emits decoder-validated instruction words,
//!   padding every image with a discovered halt word so programs always
//!   terminate (or hit the cycle budget);
//! * [`oracle`] — the lockstep differential oracle (interpretive vs
//!   ops, full `State` + mode-independent `SimStats` per cycle)
//!   and four metamorphic oracles (snapshot/restore at mid-run,
//!   trace-enabled vs trace-disabled, batch vs sequential execution,
//!   probe parity);
//! * [`shrink`](mod@shrink) — a ddmin-style reducer that cuts a failing
//!   program to a minimal diverging sequence;
//! * [`corpus`] — reproducer files: persist shrunk failures, replay
//!   them as regressions (with content-hash-verified loading);
//! * [`coverage`] — coding-tree path coverage: a join-semilattice
//!   [`CoverageMap`] that merges the coverage of disjoint `start` ranges,
//!   plus greedy corpus distillation;
//! * [`harness`] — the fuzz loop that ties it all together, plus fault
//!   injection for validating the harness itself and the
//!   `lisa_conform_*` metric counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod coverage;
pub mod gen;
pub mod harness;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use corpus::{load_dir_verified, CorpusError, Reproducer};
pub use coverage::{distill, path_key, CoverageMap};
pub use gen::{GenError, ProgramGen};
pub use harness::{Distilled, Failure, FuzzConfig, FuzzReport, Fuzzer};
pub use oracle::{check_all, Fault, OracleKind, Outcome, Verdict};
pub use rng::Rng;
pub use shrink::shrink;
