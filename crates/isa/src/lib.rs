//! Instruction-set tools generated from LISA model databases.
//!
//! The paper's retargetable environment derives an instruction decoder,
//! encoder, assembler and disassembler from the `CODING` and `SYNTAX`
//! sections of a LISA description (§3.2.1–§3.2.2). This crate implements
//! those generated tools over the [`lisa_core::Model`] database:
//!
//! * [`Decoder`] — matches instruction words against the coding tree,
//!   producing a [`Decoded`] operation tree with operand (label) values
//!   and selected group alternatives;
//! * [`Decoded::encode`] — the inverse: regenerates the instruction word
//!   ("During encoding, the same pattern is used to generate the
//!   respective instruction word");
//! * [`Assembler`] — matches assembly statements against syntax patterns
//!   and renders decoded instructions back to text, using the
//!   coding↔syntax label links as translation rules (paper Example 4:
//!   `ADD .D A4, A3, A15` ↔ binary).
//!
//! # Examples
//!
//! ```
//! use lisa_core::Model;
//! use lisa_isa::{Assembler, Decoder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = Model::from_source(r#"
//!     RESOURCE { CONTROL_REGISTER int ir; REGISTER int A[16]; }
//!     OPERATION register {
//!         DECLARE { LABEL index; }
//!         CODING { index:0bx[4] }
//!         SYNTAX { "A" index:#u }
//!         EXPRESSION { A[index] }
//!     }
//!     OPERATION add {
//!         DECLARE { GROUP Dest, Src1, Src2 = { register }; }
//!         CODING { 0b0001 Dest Src1 Src2 }
//!         SYNTAX { "ADD" Dest "," Src1 "," Src2 }
//!         BEHAVIOR { Dest = Src1 + Src2; }
//!     }
//!     OPERATION decode {
//!         DECLARE { GROUP Instruction = { add }; }
//!         CODING { ir == Instruction }
//!         SYNTAX { Instruction }
//!         BEHAVIOR { Instruction; }
//!     }
//! "#)?;
//! let decoder = Decoder::new(&model)?;
//! let asm = Assembler::new(&model, &decoder);
//!
//! let decoded = asm.assemble_instruction("ADD A3, A1, A2")?;
//! let word = decoded.encode(&model)?;
//! assert_eq!(word, 0b0001_0011_0001_0010);
//!
//! let back = decoder.decode(word)?;
//! assert_eq!(asm.disassemble(&back), "ADD A3, A1, A2");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod decoded;
mod decoder;
mod error;

pub use asm::Assembler;
pub use decoded::Decoded;
pub use decoder::Decoder;
pub use error::IsaError;
