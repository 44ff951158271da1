//! Bit-accurate value types for the LISA toolchain.
//!
//! LISA resource declarations give every storage object an exact bit width
//! (`REGISTER bit[48] accu;`, `REGISTER bit carry;`), and instruction codings
//! are sequences of `0`, `1` and don't-care `x` bits (`0b1001x110`). This
//! crate provides the two corresponding types:
//!
//! * [`Bits`] — an arbitrary-width (1..=128) two's-complement word, the
//!   width-tagged value at API edges (`State::read`/`write` in `lisa-sim`,
//!   golden checks); simulation itself computes on wrapped `i64` cells;
//! * [`BitPattern`] — a ternary (`0`/`1`/`x`) bit string with matching,
//!   concatenation and overlap analysis, used for `CODING`
//!   sections and decoder construction.
//!
//! # Examples
//!
//! ```
//! use lisa_bits::{Bits, BitPattern};
//!
//! # fn main() -> Result<(), lisa_bits::BitsError> {
//! let accu = Bits::from_u128_wrapped(48, 0x1_FFFF_FFFF_FFFF);
//! assert_eq!(accu.to_u128(), 0xFFFF_FFFF_FFFF); // wrapped to 48 bits
//!
//! let pat: BitPattern = "0b1001x110".parse()?;
//! assert!(pat.matches_u128(0b1001_0110));
//! assert!(pat.matches_u128(0b1001_1110));
//! assert!(!pat.matches_u128(0b0001_0110));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod error;
mod pattern;

pub use bits::Bits;
pub use error::BitsError;
pub use pattern::{BitPattern, Tern};

/// Maximum supported bit width for [`Bits`] and [`BitPattern`].
pub const MAX_WIDTH: u32 = 128;

/// Returns the all-ones mask for a width in `1..=128`.
#[inline]
pub(crate) fn mask(width: u32) -> u128 {
    assert!((1..=MAX_WIDTH).contains(&width), "width {width} out of range");
    if width == 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}
