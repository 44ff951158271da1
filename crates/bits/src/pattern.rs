use std::fmt;
use std::str::FromStr;

use crate::{mask, BitsError, MAX_WIDTH};

/// One ternary bit of a [`BitPattern`]: fixed `0`, fixed `1`, or don't-care.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tern {
    /// Fixed zero bit.
    Zero,
    /// Fixed one bit.
    One,
    /// Don't-care bit (`x` in LISA coding sections): matches anything when
    /// decoding, is a free field position when encoding.
    DontCare,
}

impl fmt::Display for Tern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tern::Zero => "0",
            Tern::One => "1",
            Tern::DontCare => "x",
        })
    }
}

/// A ternary bit string as written in LISA `CODING` sections.
///
/// The paper specifies binary code "as a sequence composed of 0, 1, and x
/// which is preceded by a 0b"; during decoding the fixed bits must match the
/// instruction word and `x` matches always, while during encoding the same
/// pattern generates the instruction word (don't-cares filled by operand
/// fields). `BitPattern` captures exactly that: a `(mask, value)` pair plus
/// width, with helpers for matching, concatenation and overlap analysis used
/// when the decoder is built.
///
/// # Examples
///
/// ```
/// use lisa_bits::BitPattern;
///
/// # fn main() -> Result<(), lisa_bits::BitsError> {
/// let add: BitPattern = "0b0011x10".parse()?;
/// assert_eq!(add.width(), 7);
/// assert_eq!(add.dont_care_count(), 1);
/// assert!(add.matches_u128(0b0011110));
/// assert!(!add.matches_u128(0b1011110));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitPattern {
    width: u32,
    /// 1 where the bit is fixed (0 or 1), 0 where don't-care.
    fixed_mask: u128,
    /// Fixed bit values; guaranteed zero at don't-care positions.
    value: u128,
}

impl BitPattern {
    /// Builds a pattern from individual ternary bits, most significant
    /// first (the order they appear in LISA source).
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::InvalidWidth`] if the slice is empty or longer
    /// than [`MAX_WIDTH`] bits.
    pub fn from_terns(terns: &[Tern]) -> Result<Self, BitsError> {
        let width = terns.len() as u32;
        if width == 0 || width > MAX_WIDTH {
            return Err(BitsError::InvalidWidth { width });
        }
        let mut fixed_mask = 0u128;
        let mut value = 0u128;
        for (i, t) in terns.iter().enumerate() {
            let bit = width as usize - 1 - i;
            match t {
                Tern::Zero => fixed_mask |= 1 << bit,
                Tern::One => {
                    fixed_mask |= 1 << bit;
                    value |= 1 << bit;
                }
                Tern::DontCare => {}
            }
        }
        Ok(BitPattern { width, fixed_mask, value })
    }

    /// An all-don't-care pattern of `width` bits (a pure operand field).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=128`.
    #[must_use]
    pub fn any(width: u32) -> Self {
        assert!((1..=MAX_WIDTH).contains(&width), "width {width} out of range");
        BitPattern { width, fixed_mask: 0, value: 0 }
    }

    /// Width in bits.
    #[inline]
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mask of fixed (non-don't-care) bit positions.
    #[inline]
    #[must_use]
    pub fn fixed_mask(&self) -> u128 {
        self.fixed_mask
    }

    /// Values of the fixed bits (zero at don't-care positions).
    #[inline]
    #[must_use]
    pub fn fixed_value(&self) -> u128 {
        self.value
    }

    /// Number of don't-care bits.
    #[must_use]
    pub fn dont_care_count(&self) -> u32 {
        self.width - self.fixed_mask.count_ones()
    }

    /// Whether every bit is fixed.
    #[must_use]
    pub fn is_fully_specified(&self) -> bool {
        self.fixed_mask == mask(self.width)
    }

    /// Tests a raw instruction word against the pattern (decode-time match).
    /// Bits of `word` above the pattern width are ignored.
    #[inline]
    #[must_use]
    pub fn matches_u128(&self, word: u128) -> bool {
        word & self.fixed_mask == self.value
    }

    /// Concatenates `self` (high bits) with `low` (low bits), as coding
    /// elements concatenate left-to-right in a `CODING` section.
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::ConcatTooWide`] if the result would exceed
    /// [`MAX_WIDTH`].
    pub fn concat(&self, low: &BitPattern) -> Result<BitPattern, BitsError> {
        let width = self.width + low.width;
        if width > MAX_WIDTH {
            return Err(BitsError::ConcatTooWide { width });
        }
        Ok(BitPattern {
            width,
            fixed_mask: self.fixed_mask << low.width | low.fixed_mask,
            value: self.value << low.width | low.value,
        })
    }

    /// Whether some word can match both patterns (decoder-ambiguity test).
    /// Patterns of different widths never overlap.
    ///
    /// # Examples
    ///
    /// ```
    /// use lisa_bits::BitPattern;
    /// # fn main() -> Result<(), lisa_bits::BitsError> {
    /// let a: BitPattern = "0b1x0".parse()?;
    /// let b: BitPattern = "0b1x1".parse()?;
    /// let c: BitPattern = "0b1xx".parse()?;
    /// assert!(!a.overlaps(&b)); // last bit differs
    /// assert!(a.overlaps(&c));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn overlaps(&self, other: &BitPattern) -> bool {
        self.width == other.width
            && (self.value ^ other.value) & self.fixed_mask & other.fixed_mask == 0
    }

    /// Ternary bit at position `index` (0 = least significant).
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::RangeOutOfBounds`] if `index >= width`.
    pub fn tern(&self, index: u32) -> Result<Tern, BitsError> {
        if index >= self.width {
            return Err(BitsError::RangeOutOfBounds { lo: index, len: 1, width: self.width });
        }
        Ok(if self.fixed_mask >> index & 1 == 0 {
            Tern::DontCare
        } else if self.value >> index & 1 == 1 {
            Tern::One
        } else {
            Tern::Zero
        })
    }

    /// Iterates over the ternary bits, most significant first (source
    /// order).
    pub fn terns(&self) -> impl Iterator<Item = Tern> + '_ {
        (0..self.width).rev().map(move |i| self.tern(i).expect("index in range"))
    }
}

impl FromStr for BitPattern {
    type Err = BitsError;

    /// Parses a LISA binary-coding literal: `0b` followed by `0`, `1`, `x`
    /// (case-insensitive) and cosmetic `_` separators.
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::InvalidPattern`] for malformed literals and
    /// [`BitsError::InvalidWidth`] for empty or over-long ones.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s
            .strip_prefix("0b")
            .or_else(|| s.strip_prefix("0B"))
            .ok_or_else(|| BitsError::InvalidPattern { text: s.to_owned() })?;
        let mut terns = Vec::with_capacity(body.len());
        for ch in body.chars() {
            match ch {
                '0' => terns.push(Tern::Zero),
                '1' => terns.push(Tern::One),
                'x' | 'X' => terns.push(Tern::DontCare),
                '_' => {}
                _ => return Err(BitsError::InvalidPattern { text: s.to_owned() }),
            }
        }
        BitPattern::from_terns(&terns)
    }
}

impl fmt::Display for BitPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("0b")?;
        for t in self.terns() {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(s: &str) -> BitPattern {
        s.parse().unwrap()
    }

    #[test]
    fn parse_accepts_lisa_literals() {
        let p = pat("0b1001x110");
        assert_eq!(p.width(), 8);
        assert_eq!(p.dont_care_count(), 1);
        assert_eq!(p.to_string(), "0b1001x110");
        // Underscores and capitals are cosmetic.
        assert_eq!(pat("0b10_01X110"), p);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "0b", "1010", "0b2", "0bx 1", "0b_"] {
            assert!(bad.parse::<BitPattern>().is_err(), "{bad:?} should fail");
        }
        let too_long = format!("0b{}", "1".repeat(129));
        assert!(too_long.parse::<BitPattern>().is_err());
        let max = format!("0b{}", "x".repeat(128));
        assert_eq!(max.parse::<BitPattern>().unwrap().width(), 128);
    }

    #[test]
    fn matching_honours_dont_cares() {
        let p = pat("0b1001x110");
        assert!(p.matches_u128(0b1001_0110));
        assert!(p.matches_u128(0b1001_1110));
        assert!(!p.matches_u128(0b1001_0111));
        // The decimal-28 example from the paper: 0b0000011100.
        let twenty_eight = pat("0b0000011100");
        assert!(twenty_eight.matches_u128(28));
        assert!(!twenty_eight.matches_u128(29));
    }

    #[test]
    fn concat_joins_high_to_low() {
        let hi = pat("0b10");
        let lo = pat("0bx1");
        let cat = hi.concat(&lo).unwrap();
        assert_eq!(cat.to_string(), "0b10x1");
        assert!(cat.matches_u128(0b1001));
        assert!(cat.matches_u128(0b1011));
        assert!(!cat.matches_u128(0b0011));
    }

    #[test]
    fn concat_width_limit() {
        let a = BitPattern::any(128);
        assert!(a.concat(&pat("0b1")).is_err());
    }

    #[test]
    fn overlap_detects_shared_words() {
        assert!(pat("0b1xx0").overlaps(&pat("0b1x00")));
        assert!(!pat("0b1xx0").overlaps(&pat("0b0xx0")));
        assert!(!pat("0b11").overlaps(&pat("0b110"))); // widths differ
        assert!(BitPattern::any(4).overlaps(&pat("0b0000")));
    }

    #[test]
    fn tern_round_trip() {
        let p = pat("0b10x");
        assert_eq!(p.tern(0).unwrap(), Tern::DontCare);
        assert_eq!(p.tern(1).unwrap(), Tern::Zero);
        assert_eq!(p.tern(2).unwrap(), Tern::One);
        assert!(p.tern(3).is_err());
        let collected: Vec<Tern> = p.terns().collect();
        assert_eq!(BitPattern::from_terns(&collected).unwrap(), p);
    }
}
