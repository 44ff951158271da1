//! LISA — a reproduction of *"LISA: Machine Description Language for
//! Cycle-Accurate Models of Programmable DSP Architectures"* (Pees,
//! Hoffmann, Zivojnovic, Meyr — DAC 1999) as a Rust workspace.
//!
//! This facade crate re-exports the whole toolchain:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`bits`] | `lisa-bits` | bit-accurate values and `0b01x` patterns |
//! | [`core`] | `lisa-core` | the LISA language: lexer, parser, AST, model database |
//! | [`isa`]  | `lisa-isa`  | generated decoder/encoder/assembler/disassembler |
//! | [`sim`]  | `lisa-sim`  | interpretive + compiled (micro-op) cycle-accurate simulators; trace events (JSONL/VCD), probes, architecture profiles |
//! | [`asm`]  | `lisa-asm`  | program-level assembler (labels, `\|\|` bars, directives) |
//! | [`docgen`] | `lisa-docgen` | automatic ISA manuals |
//! | [`models`] | `lisa-models` | vliw62 / accu16 / tinyrisc models + DSP kernels |
//! | [`exec`] | `lisa-exec` | parallel batch runner with checkpoint/restore forking |
//! | [`conform`] | `lisa-conform` | ISA-driven differential fuzzing, metamorphic oracles, shrinking |
//! | [`metrics`] | `lisa-metrics` | always-on runtime metrics: lock-free registry, Prometheus/JSON exposition |
//! | [`spans`] | `lisa-spans` | cross-layer runtime span tracing with Chrome-trace/JSONL export |
//! | [`serve`] | `lisa-serve` | dependency-free HTTP/1.1 simulation service: assemble/simulate/batch over the wire |
//!
//! # Quickstart
//!
//! ```
//! use lisa::models::tinyrisc;
//! use lisa::sim::SimMode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let wb = tinyrisc::workbench()?;
//! let program = lisa::asm::Assembler::new(wb.model()).assemble(
//!     "LDI R1, 20\nLDI R2, 22\nADD R3, R1, R2\nHLT\n",
//! )?;
//! let mut sim = wb.simulator(SimMode::Ops)?;
//! // In ops mode, loading pre-decodes program memory automatically.
//! sim.load_program("pmem", &program.words)?;
//! wb.run_to_halt(&mut sim, 100)?;
//! let r = wb.model().resource_by_name("R").expect("register file");
//! assert_eq!(sim.state().read_int(r, &[3])?, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lisa_asm as asm;
pub use lisa_bits as bits;
pub use lisa_conform as conform;
pub use lisa_core as core;
pub use lisa_docgen as docgen;
pub use lisa_exec as exec;
pub use lisa_isa as isa;
pub use lisa_metrics as metrics;
pub use lisa_models as models;
pub use lisa_serve as serve;
pub use lisa_sim as sim;
pub use lisa_spans as spans;
