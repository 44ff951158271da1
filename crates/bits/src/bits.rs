use std::fmt;

use crate::{mask, MAX_WIDTH};

/// An arbitrary-width (1..=128 bits) two's-complement word.
///
/// `Bits` is the width-tagged value at the simulator's API edges:
/// `State::read` returns one and `State::write` takes one, and golden
/// checks compare them. Simulation itself computes on `i64` cells that are
/// kept wrapped to each resource's declared width; a `REGISTER bit[48] accu`
/// is read out as a `Bits` of width 48. The payload is always masked to the
/// width, so equality and hashing behave like hardware registers.
///
/// # Examples
///
/// ```
/// use lisa_bits::Bits;
///
/// let accu = Bits::from_i128_wrapped(48, -1);
/// assert_eq!(accu.width(), 48);
/// assert_eq!(accu.to_u128(), 0xFFFF_FFFF_FFFF);
/// assert_eq!(accu.to_i128(), -1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bits {
    width: u32,
    value: u128,
}

impl Bits {
    /// Creates a zero value of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=128`.
    #[must_use]
    pub fn zero(width: u32) -> Self {
        assert!((1..=MAX_WIDTH).contains(&width), "width {width} out of range");
        Bits { width, value: 0 }
    }

    /// Creates an all-ones value of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=128`.
    #[must_use]
    pub fn ones(width: u32) -> Self {
        assert!((1..=MAX_WIDTH).contains(&width), "width {width} out of range");
        Bits { width, value: mask(width) }
    }

    /// Creates a value by truncating (wrapping) `value` to `width` bits.
    ///
    /// This never fails on wide values; it keeps the low `width` bits,
    /// which is the hardware register-write semantics.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=128`.
    #[inline]
    #[must_use]
    pub fn from_u128_wrapped(width: u32, value: u128) -> Self {
        assert!((1..=MAX_WIDTH).contains(&width), "width {width} out of range");
        Bits { width, value: value & mask(width) }
    }

    /// Creates a value from a signed integer, wrapping to `width` bits
    /// (two's-complement encoding).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=128`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lisa_bits::Bits;
    /// let v = Bits::from_i128_wrapped(8, -1);
    /// assert_eq!(v.to_u128(), 0xff);
    /// assert_eq!(v.to_i128(), -1);
    /// ```
    #[inline]
    #[must_use]
    pub fn from_i128_wrapped(width: u32, value: i128) -> Self {
        Self::from_u128_wrapped(width, value as u128)
    }

    /// Width of the value in bits.
    #[inline]
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The raw unsigned payload (always `< 2^width`).
    #[inline]
    #[must_use]
    pub fn to_u128(&self) -> u128 {
        self.value
    }

    /// The value interpreted as a two's-complement signed integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use lisa_bits::Bits;
    /// assert_eq!(Bits::from_u128_wrapped(4, 0b1000).to_i128(), -8);
    /// assert_eq!(Bits::from_u128_wrapped(4, 0b0111).to_i128(), 7);
    /// ```
    #[inline]
    #[must_use]
    pub fn to_i128(&self) -> i128 {
        if self.msb() {
            (self.value | !mask(self.width)) as i128
        } else {
            self.value as i128
        }
    }

    /// The most significant (sign) bit.
    #[inline]
    fn msb(&self) -> bool {
        self.value >> (self.width - 1) & 1 == 1
    }

    /// The count of leading bits equal to the sign bit, excluding the sign bit itself (the C62x `NORM`
    /// semantics used for block-floating-point normalisation).
    ///
    /// # Examples
    ///
    /// ```
    /// use lisa_bits::Bits;
    /// assert_eq!(Bits::from_i128_wrapped(32, 1).norm(), 30);
    /// assert_eq!(Bits::from_i128_wrapped(32, -1).norm(), 31);
    /// assert_eq!(Bits::from_i128_wrapped(32, i128::from(i32::MIN)).norm(), 0);
    /// ```
    #[must_use]
    pub fn norm(&self) -> u32 {
        let sign = self.msb();
        let mut count = 0;
        for i in (0..self.width - 1).rev() {
            if (self.value >> i & 1 == 1) == sign {
                count += 1;
            } else {
                break;
            }
        }
        count
    }
}

impl Default for Bits {
    /// A single zero bit, the narrowest value.
    fn default() -> Self {
        Bits::zero(1)
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self.value)
    }
}

impl fmt::LowerHex for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.value, f)
    }
}

impl fmt::UpperHex for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.value, f)
    }
}

impl fmt::Octal for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.value, f)
    }
}

impl fmt::Binary for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.value, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_view_round_trips() {
        for w in [1u32, 4, 17, 48, 64, 127, 128] {
            let min = if w == 128 { i128::MIN } else { -(1i128 << (w - 1)) };
            let max = if w == 128 { i128::MAX } else { (1i128 << (w - 1)) - 1 };
            for v in [min, -1, 0, 1, max] {
                if w == 1 && v == 1 {
                    continue; // 1-bit signed range is [-1, 0]
                }
                let b = Bits::from_i128_wrapped(w, v);
                assert_eq!(b.to_i128(), v, "width {w} value {v}");
            }
        }
    }

    #[test]
    fn norm_counts_redundant_sign_bits() {
        assert_eq!(Bits::zero(32).norm(), 31);
        assert_eq!(Bits::from_i128_wrapped(32, 0x4000_0000).norm(), 0);
        assert_eq!(Bits::from_i128_wrapped(32, 0x2000_0000).norm(), 1);
        assert_eq!(Bits::from_i128_wrapped(32, -2).norm(), 30);
    }

    #[test]
    fn display_formats_width_and_hex() {
        let v = Bits::from_u128_wrapped(48, 0xBEEF);
        assert_eq!(v.to_string(), "48'hbeef");
        assert_eq!(format!("{v:x}"), "beef");
        assert_eq!(format!("{v:X}"), "BEEF");
        assert_eq!(format!("{v:b}"), "1011111011101111");
        assert_eq!(format!("{v:o}"), "137357");
    }
}
