use std::error::Error;
use std::fmt;

/// Error type for bit-pattern construction and manipulation.
///
/// # Examples
///
/// ```
/// use lisa_bits::{BitPattern, BitsError};
///
/// let err = "0b".parse::<BitPattern>().unwrap_err();
/// assert!(matches!(err, BitsError::InvalidWidth { width: 0 }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BitsError {
    /// The requested width is zero or exceeds [`MAX_WIDTH`](crate::MAX_WIDTH).
    InvalidWidth {
        /// The offending width.
        width: u32,
    },
    /// A bit range `[lo, lo + len)` escapes the pattern's width.
    RangeOutOfBounds {
        /// Low bit index of the range.
        lo: u32,
        /// Length of the range in bits.
        len: u32,
        /// Width of the pattern being indexed.
        width: u32,
    },
    /// A bit-pattern literal contained a character other than `0`, `1`, `x`,
    /// `X` or `_`, or was missing its `0b` prefix, or was empty.
    InvalidPattern {
        /// The offending literal text.
        text: String,
    },
    /// Concatenating two patterns would exceed [`MAX_WIDTH`](crate::MAX_WIDTH).
    ConcatTooWide {
        /// The combined width.
        width: u32,
    },
}

impl fmt::Display for BitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitsError::InvalidWidth { width } => {
                write!(f, "bit width {width} is not in 1..={}", crate::MAX_WIDTH)
            }
            BitsError::RangeOutOfBounds { lo, len, width } => {
                write!(f, "bit range [{lo}, {}) escapes width {width}", lo + len)
            }
            BitsError::InvalidPattern { text } => {
                write!(f, "invalid bit pattern literal `{text}`")
            }
            BitsError::ConcatTooWide { width } => {
                write!(f, "concatenated width {width} exceeds maximum {}", crate::MAX_WIDTH)
            }
        }
    }
}

impl Error for BitsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let cases: Vec<(BitsError, &str)> = vec![
            (BitsError::InvalidWidth { width: 0 }, "bit width 0"),
            (BitsError::RangeOutOfBounds { lo: 4, len: 8, width: 8 }, "[4, 12)"),
            (BitsError::InvalidPattern { text: "0b12".into() }, "`0b12`"),
            (BitsError::ConcatTooWide { width: 200 }, "200"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "message should start lowercase: {msg}"
            );
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<BitsError>();
    }
}
