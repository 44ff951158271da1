use std::fmt;

use crate::{mask, BitsError, MAX_WIDTH};

/// An arbitrary-width (1..=128 bits) two's-complement value.
///
/// `Bits` is the value type stored in every simulated LISA resource: a
/// `REGISTER bit[48] accu` holds a `Bits` of width 48, a `bit carry` holds a
/// `Bits` of width 1, and an `int` memory cell holds a `Bits` of width 32.
/// The raw payload is always kept masked to the declared width, so equality,
/// hashing and ordering behave like hardware registers.
///
/// Arithmetic comes in explicit flavours, mirroring what DSP data paths
/// provide: wrapping (`wrapping_add`), saturating (`saturating_add_signed`)
/// and bit-level operations. Binary operators via `std::ops` are provided
/// for the common wrapping semantics and panic on width mismatch (the
/// model database guarantees widths agree before simulation starts).
///
/// # Examples
///
/// ```
/// use lisa_bits::Bits;
///
/// # fn main() -> Result<(), lisa_bits::BitsError> {
/// let a = Bits::new(16, 0x7fff)?;
/// let b = Bits::new(16, 1)?;
/// assert_eq!(a.wrapping_add(b).to_i128(), -32768); // wraps
/// assert_eq!(a.saturating_add_signed(b).to_i128(), 32767); // saturates
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bits {
    width: u32,
    value: u128,
}

impl Bits {
    /// Creates a value of `width` bits.
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::InvalidWidth`] if `width` is not in `1..=128`
    /// and [`BitsError::ValueTooWide`] if `value` has bits set above
    /// `width`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lisa_bits::Bits;
    /// # fn main() -> Result<(), lisa_bits::BitsError> {
    /// let flag = Bits::new(1, 1)?;
    /// assert_eq!(flag.width(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(width: u32, value: u128) -> Result<Self, BitsError> {
        if width == 0 || width > MAX_WIDTH {
            return Err(BitsError::InvalidWidth { width });
        }
        if value & !mask(width) != 0 {
            return Err(BitsError::ValueTooWide { value, width });
        }
        Ok(Bits { width, value })
    }

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
    /// Unlike [`Bits::new`] this never fails on wide values; it keeps the
    /// low `width` bits, which is the hardware register-write semantics.
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
    #[must_use]
    pub fn msb(&self) -> bool {
        self.value >> (self.width - 1) & 1 == 1
    }

    /// Bit at `index` (0 = least significant).
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::RangeOutOfBounds`] if `index >= width`.
    pub fn bit(&self, index: u32) -> Result<bool, BitsError> {
        if index >= self.width {
            return Err(BitsError::RangeOutOfBounds { lo: index, len: 1, width: self.width });
        }
        Ok(self.value >> index & 1 == 1)
    }

    /// Extracts `len` bits starting at bit `lo` as a new value of width
    /// `len`.
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::RangeOutOfBounds`] if the range escapes the
    /// width and [`BitsError::InvalidWidth`] if `len` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use lisa_bits::Bits;
    /// # fn main() -> Result<(), lisa_bits::BitsError> {
    /// let word = Bits::new(32, 0xDEAD_BEEF)?;
    /// assert_eq!(word.extract(16, 16)?.to_u128(), 0xDEAD);
    /// assert_eq!(word.extract(0, 8)?.to_u128(), 0xEF);
    /// # Ok(())
    /// # }
    /// ```
    pub fn extract(&self, lo: u32, len: u32) -> Result<Bits, BitsError> {
        if len == 0 || len > MAX_WIDTH {
            return Err(BitsError::InvalidWidth { width: len });
        }
        if lo.checked_add(len).is_none_or(|hi| hi > self.width) {
            return Err(BitsError::RangeOutOfBounds { lo, len, width: self.width });
        }
        Ok(Bits { width: len, value: self.value >> lo & mask(len) })
    }

    /// Returns a copy with `field` inserted at bit `lo` (replacing
    /// `field.width()` bits).
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::RangeOutOfBounds`] if the field escapes the
    /// width.
    pub fn insert(&self, lo: u32, field: Bits) -> Result<Bits, BitsError> {
        let len = field.width;
        if lo.checked_add(len).is_none_or(|hi| hi > self.width) {
            return Err(BitsError::RangeOutOfBounds { lo, len, width: self.width });
        }
        let cleared = self.value & !(mask(len) << lo);
        Ok(Bits { width: self.width, value: cleared | field.value << lo })
    }

    /// Zero-extends or truncates to `new_width`.
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is not in `1..=128`.
    #[must_use]
    pub fn resize_zext(&self, new_width: u32) -> Bits {
        Bits::from_u128_wrapped(new_width, self.value)
    }

    /// Sign-extends or truncates to `new_width`.
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is not in `1..=128`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lisa_bits::Bits;
    /// let v = Bits::from_u128_wrapped(4, 0b1010);
    /// assert_eq!(v.resize_sext(8).to_u128(), 0b1111_1010);
    /// ```
    #[must_use]
    pub fn resize_sext(&self, new_width: u32) -> Bits {
        Bits::from_i128_wrapped(new_width, self.to_i128())
    }

    /// Concatenates `self` (high part) with `low` (low part).
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::ConcatTooWide`] if the combined width exceeds
    /// [`MAX_WIDTH`].
    ///
    /// # Examples
    ///
    /// ```
    /// use lisa_bits::Bits;
    /// # fn main() -> Result<(), lisa_bits::BitsError> {
    /// let hi = Bits::new(4, 0xA)?;
    /// let lo = Bits::new(8, 0x5C)?;
    /// assert_eq!(hi.concat(lo)?.to_u128(), 0xA5C);
    /// # Ok(())
    /// # }
    /// ```
    pub fn concat(&self, low: Bits) -> Result<Bits, BitsError> {
        let width = self.width + low.width;
        if width > MAX_WIDTH {
            return Err(BitsError::ConcatTooWide { width });
        }
        Ok(Bits { width, value: self.value << low.width | low.value })
    }

    fn require_same_width(&self, other: &Bits) -> Result<(), BitsError> {
        if self.width != other.width {
            Err(BitsError::WidthMismatch { left: self.width, right: other.width })
        } else {
            Ok(())
        }
    }

    /// Modular (register-wrapping) addition.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    #[must_use]
    pub fn wrapping_add(&self, rhs: Bits) -> Bits {
        self.require_same_width(&rhs).expect("wrapping_add width mismatch");
        Bits::from_u128_wrapped(self.width, self.value.wrapping_add(rhs.value))
    }

    /// Modular subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    #[must_use]
    pub fn wrapping_sub(&self, rhs: Bits) -> Bits {
        self.require_same_width(&rhs).expect("wrapping_sub width mismatch");
        Bits::from_u128_wrapped(self.width, self.value.wrapping_sub(rhs.value))
    }

    /// Modular multiplication (low `width` bits of the product).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    #[must_use]
    pub fn wrapping_mul(&self, rhs: Bits) -> Bits {
        self.require_same_width(&rhs).expect("wrapping_mul width mismatch");
        Bits::from_u128_wrapped(self.width, self.value.wrapping_mul(rhs.value))
    }

    /// Full-width signed multiply: the `2 * width` bit signed product, as
    /// produced by DSP multiplier units (e.g. 16×16→32).
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::WidthMismatch`] if the widths differ and
    /// [`BitsError::ConcatTooWide`] if `2 * width > 128`.
    pub fn widening_mul_signed(&self, rhs: Bits) -> Result<Bits, BitsError> {
        self.require_same_width(&rhs)?;
        let width = self.width * 2;
        if width > MAX_WIDTH {
            return Err(BitsError::ConcatTooWide { width });
        }
        let product = self.to_i128().wrapping_mul(rhs.to_i128());
        Ok(Bits::from_i128_wrapped(width, product))
    }

    /// Two's-complement negation (wrapping; `-MIN` stays `MIN`).
    #[must_use]
    pub fn wrapping_neg(&self) -> Bits {
        Bits::from_u128_wrapped(self.width, self.value.wrapping_neg())
    }

    /// Saturating signed addition: clamps at the most positive / most
    /// negative representable value instead of wrapping, as DSP saturation
    /// arithmetic (e.g. the C62x `SADD`) does.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use lisa_bits::Bits;
    /// let min = Bits::from_i128_wrapped(8, -128);
    /// let m1 = Bits::from_i128_wrapped(8, -1);
    /// assert_eq!(min.saturating_add_signed(m1).to_i128(), -128);
    /// ```
    #[must_use]
    pub fn saturating_add_signed(&self, rhs: Bits) -> Bits {
        self.require_same_width(&rhs).expect("saturating_add width mismatch");
        let sum = self.to_i128() + rhs.to_i128(); // widths <= 128 ⇒ no i128 overflow for width < 128
        self.clamp_signed(sum)
    }

    /// Saturating signed subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    #[must_use]
    pub fn saturating_sub_signed(&self, rhs: Bits) -> Bits {
        self.require_same_width(&rhs).expect("saturating_sub width mismatch");
        let diff = self.to_i128() - rhs.to_i128();
        self.clamp_signed(diff)
    }

    /// Clamps an i128 into the signed range of this width.
    fn clamp_signed(&self, v: i128) -> Bits {
        let max = self.max_signed();
        let min = -max - 1;
        Bits::from_i128_wrapped(self.width, v.clamp(min, max))
    }

    /// The most positive signed value of this width (`2^(w-1) - 1`).
    #[must_use]
    pub fn max_signed(&self) -> i128 {
        if self.width == 128 {
            i128::MAX
        } else {
            (1i128 << (self.width - 1)) - 1
        }
    }

    /// Logical shift left by `amount`; bits shifted past the width are lost.
    /// Shift amounts `>= width` yield zero (like a barrel shifter fed the
    /// full amount, not a masked one).
    #[must_use]
    pub fn shl(&self, amount: u32) -> Bits {
        if amount >= self.width {
            Bits::zero(self.width)
        } else {
            Bits::from_u128_wrapped(self.width, self.value << amount)
        }
    }

    /// Logical shift right (zero fill). Amounts `>= width` yield zero.
    #[must_use]
    pub fn shr(&self, amount: u32) -> Bits {
        if amount >= self.width {
            Bits::zero(self.width)
        } else {
            Bits { width: self.width, value: self.value >> amount }
        }
    }

    /// Arithmetic shift right (sign fill). Amounts `>= width` yield the
    /// all-sign-bits value.
    ///
    /// # Examples
    ///
    /// ```
    /// use lisa_bits::Bits;
    /// let v = Bits::from_i128_wrapped(8, -64);
    /// assert_eq!(v.asr(2).to_i128(), -16);
    /// assert_eq!(v.asr(100).to_i128(), -1);
    /// ```
    #[must_use]
    pub fn asr(&self, amount: u32) -> Bits {
        let amount = amount.min(self.width - 1).min(127);
        Bits::from_i128_wrapped(self.width, self.to_i128() >> amount)
    }

    /// Rotates left by `amount % width`.
    #[must_use]
    pub fn rotate_left(&self, amount: u32) -> Bits {
        let amount = amount % self.width;
        if amount == 0 {
            return *self;
        }
        let hi = self.value << amount & mask(self.width);
        let lo = self.value >> (self.width - amount);
        Bits { width: self.width, value: hi | lo }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.value.count_ones()
    }

    /// Number of redundant sign bits minus… no: the count of leading bits
    /// equal to the sign bit, excluding the sign bit itself (the C62x `NORM`
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

    /// Bitwise NOT within the width.
    #[must_use]
    pub fn not(&self) -> Bits {
        Bits { width: self.width, value: !self.value & mask(self.width) }
    }

    /// Absolute value with signed saturation (`|MIN|` saturates to `MAX`,
    /// matching DSP `ABS` units).
    #[must_use]
    pub fn abs_saturating(&self) -> Bits {
        let v = self.to_i128();
        if self.width < 128 {
            self.clamp_signed(v.abs())
        } else if v == i128::MIN {
            Bits::from_i128_wrapped(self.width, i128::MAX)
        } else {
            Bits::from_i128_wrapped(self.width, v.abs())
        }
    }

    /// Unsigned comparison.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[must_use]
    pub fn cmp_unsigned(&self, rhs: Bits) -> std::cmp::Ordering {
        self.require_same_width(&rhs).expect("cmp_unsigned width mismatch");
        self.value.cmp(&rhs.value)
    }

    /// Signed comparison.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[must_use]
    pub fn cmp_signed(&self, rhs: Bits) -> std::cmp::Ordering {
        self.require_same_width(&rhs).expect("cmp_signed width mismatch");
        self.to_i128().cmp(&rhs.to_i128())
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

impl std::ops::BitAnd for Bits {
    type Output = Bits;
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    fn bitand(self, rhs: Bits) -> Bits {
        self.require_same_width(&rhs).expect("& width mismatch");
        Bits { width: self.width, value: self.value & rhs.value }
    }
}

impl std::ops::BitOr for Bits {
    type Output = Bits;
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    fn bitor(self, rhs: Bits) -> Bits {
        self.require_same_width(&rhs).expect("| width mismatch");
        Bits { width: self.width, value: self.value | rhs.value }
    }
}

impl std::ops::BitXor for Bits {
    type Output = Bits;
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    fn bitxor(self, rhs: Bits) -> Bits {
        self.require_same_width(&rhs).expect("^ width mismatch");
        Bits { width: self.width, value: self.value ^ rhs.value }
    }
}

impl std::ops::Not for Bits {
    type Output = Bits;
    fn not(self) -> Bits {
        Bits::not(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_width_and_value() {
        assert!(Bits::new(0, 0).is_err());
        assert!(Bits::new(129, 0).is_err());
        assert!(Bits::new(8, 0x100).is_err());
        assert!(Bits::new(8, 0xff).is_ok());
        assert!(Bits::new(128, u128::MAX).is_ok());
    }

    #[test]
    fn wrapping_matches_register_semantics() {
        let a = Bits::new(8, 0xff).unwrap();
        let one = Bits::new(8, 1).unwrap();
        assert_eq!(a.wrapping_add(one).to_u128(), 0);
        assert_eq!(Bits::zero(8).wrapping_sub(one).to_u128(), 0xff);
        assert_eq!(a.wrapping_mul(a).to_u128(), 0x01); // 255*255 = 0xfe01
    }

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
    fn extract_and_insert_are_inverse() {
        let word = Bits::new(32, 0xDEAD_BEEF).unwrap();
        let field = word.extract(8, 16).unwrap();
        assert_eq!(field.to_u128(), 0xADBE);
        let back = word.insert(8, field).unwrap();
        assert_eq!(back, word);
        let replaced = word.insert(8, Bits::new(16, 0x1234).unwrap()).unwrap();
        assert_eq!(replaced.to_u128(), 0xDE12_34EF);
    }

    #[test]
    fn extract_rejects_escaping_ranges() {
        let word = Bits::new(16, 0).unwrap();
        assert!(matches!(word.extract(10, 8), Err(BitsError::RangeOutOfBounds { .. })));
        assert!(matches!(word.extract(0, 0), Err(BitsError::InvalidWidth { .. })));
        // Offset + length overflowing u32 must not panic.
        assert!(word.extract(u32::MAX, 2).is_err());
    }

    #[test]
    fn concat_orders_high_then_low() {
        let hi = Bits::new(8, 0xAB).unwrap();
        let lo = Bits::new(4, 0xC).unwrap();
        let cat = hi.concat(lo).unwrap();
        assert_eq!(cat.width(), 12);
        assert_eq!(cat.to_u128(), 0xABC);
        assert!(Bits::ones(100).concat(Bits::ones(100)).is_err());
    }

    #[test]
    fn shifts_behave_like_barrel_shifter() {
        let v = Bits::new(8, 0b1001_0110).unwrap();
        assert_eq!(v.shl(2).to_u128(), 0b0101_1000);
        assert_eq!(v.shr(2).to_u128(), 0b0010_0101);
        assert_eq!(v.shl(8).to_u128(), 0);
        assert_eq!(v.shr(200).to_u128(), 0);
        assert_eq!(v.asr(2).to_u128(), 0b1110_0101);
    }

    #[test]
    fn asr_on_full_width() {
        let v = Bits::from_i128_wrapped(128, -4);
        assert_eq!(v.asr(1).to_i128(), -2);
        assert_eq!(v.asr(500).to_i128(), -1);
    }

    #[test]
    fn rotate_left_wraps_bits() {
        let v = Bits::new(8, 0b1000_0001).unwrap();
        assert_eq!(v.rotate_left(1).to_u128(), 0b0000_0011);
        assert_eq!(v.rotate_left(8), v);
        assert_eq!(v.rotate_left(9).to_u128(), 0b0000_0011);
    }

    #[test]
    fn saturation_clamps_at_rails() {
        let max = Bits::from_i128_wrapped(16, 32767);
        let min = Bits::from_i128_wrapped(16, -32768);
        let one = Bits::from_i128_wrapped(16, 1);
        assert_eq!(max.saturating_add_signed(one).to_i128(), 32767);
        assert_eq!(min.saturating_sub_signed(one).to_i128(), -32768);
        assert_eq!(min.abs_saturating().to_i128(), 32767);
        let five = Bits::from_i128_wrapped(16, 5);
        assert_eq!(five.saturating_add_signed(one).to_i128(), 6);
    }

    #[test]
    fn widening_mul_matches_dsp_multiplier() {
        let a = Bits::from_i128_wrapped(16, -3);
        let b = Bits::from_i128_wrapped(16, 1000);
        let p = a.widening_mul_signed(b).unwrap();
        assert_eq!(p.width(), 32);
        assert_eq!(p.to_i128(), -3000);
        let wide = Bits::zero(65);
        assert!(wide.widening_mul_signed(Bits::zero(65)).is_err());
    }

    #[test]
    fn norm_counts_redundant_sign_bits() {
        assert_eq!(Bits::zero(32).norm(), 31);
        assert_eq!(Bits::from_i128_wrapped(32, 0x4000_0000).norm(), 0);
        assert_eq!(Bits::from_i128_wrapped(32, 0x2000_0000).norm(), 1);
        assert_eq!(Bits::from_i128_wrapped(32, -2).norm(), 30);
    }

    #[test]
    fn comparisons_respect_signedness() {
        use std::cmp::Ordering::*;
        let a = Bits::from_i128_wrapped(8, -1); // 0xff
        let b = Bits::from_i128_wrapped(8, 1);
        assert_eq!(a.cmp_signed(b), Less);
        assert_eq!(a.cmp_unsigned(b), Greater);
    }

    #[test]
    fn bitwise_operators_mask_to_width() {
        let a = Bits::new(4, 0b1010).unwrap();
        let b = Bits::new(4, 0b0110).unwrap();
        assert_eq!((a & b).to_u128(), 0b0010);
        assert_eq!((a | b).to_u128(), 0b1110);
        assert_eq!((a ^ b).to_u128(), 0b1100);
        assert_eq!((!a).to_u128(), 0b0101);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mixed_width_add_panics() {
        let _ = Bits::zero(8).wrapping_add(Bits::zero(16));
    }

    #[test]
    fn display_formats_width_and_hex() {
        let v = Bits::new(48, 0xBEEF).unwrap();
        assert_eq!(v.to_string(), "48'hbeef");
        assert_eq!(format!("{v:x}"), "beef");
        assert_eq!(format!("{v:X}"), "BEEF");
        assert_eq!(format!("{v:b}"), "1011111011101111");
        assert_eq!(format!("{v:o}"), "137357");
    }

    #[test]
    fn resize_extends_and_truncates() {
        let v = Bits::from_i128_wrapped(8, -2);
        assert_eq!(v.resize_zext(16).to_u128(), 0xfe);
        assert_eq!(v.resize_sext(16).to_i128(), -2);
        assert_eq!(v.resize_sext(4).to_u128(), 0xe);
        assert_eq!(v.resize_zext(4).to_u128(), 0xe);
    }
}
