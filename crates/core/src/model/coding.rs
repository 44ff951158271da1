//! Resolved coding layout: fields with widths and bit offsets, plus the
//! flattened match pattern used to build decoders and detect ambiguity.

use lisa_bits::BitPattern;

use super::{OpId, ResourceId};

/// Where a coding field's bits come from.
#[derive(Debug, Clone, PartialEq)]
pub enum CodingTarget {
    /// A fixed/don't-care pattern written literally.
    Pattern(BitPattern),
    /// A label-bound operand field (`index:0bx[4]`); the pattern may also
    /// carry fixed bits.
    Label {
        /// Index into the operation's label list.
        label: usize,
        /// The field pattern (fixed bits must match; free bits form the
        /// label value).
        pattern: BitPattern,
    },
    /// The coding of a group's selected alternative.
    Group(usize),
    /// The coding of a directly referenced operation.
    Op(OpId),
}

/// One positioned field of a resolved coding.
#[derive(Debug, Clone, PartialEq)]
pub struct CodingField {
    /// The field source.
    pub target: CodingTarget,
    /// Field width in bits.
    pub width: u32,
    /// Bit offset of the field's least significant bit within the
    /// instruction word (0 = rightmost).
    pub offset: u32,
}

/// The resolved coding of one operation variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Coding {
    /// Root-compare resource for decode entry points
    /// (`CODING { ir == Instruction }`).
    pub root: Option<ResourceId>,
    /// Fields, leftmost (most significant) first.
    pub fields: Vec<CodingField>,
    /// Total width in bits.
    width: u32,
    /// The flattened match pattern: fixed bits that every expansion of
    /// this coding shares (referenced operations contribute the
    /// intersection of their alternatives' fixed bits).
    flat: BitPattern,
}

impl Coding {
    /// Assembles a coding from positioned fields and its flattened
    /// pattern. Internal to model building.
    pub(crate) fn new(
        root: Option<ResourceId>,
        fields: Vec<CodingField>,
        width: u32,
        flat: BitPattern,
    ) -> Self {
        debug_assert_eq!(flat.width(), width);
        Coding { root, fields, width, flat }
    }

    /// Total coding width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The flattened match pattern (sound over-approximation: every word
    /// this coding can encode matches it).
    #[must_use]
    pub fn flat_pattern(&self) -> &BitPattern {
        &self.flat
    }

    /// Number of fixed (discriminating) bits in the flattened pattern.
    #[must_use]
    pub fn fixed_bits(&self) -> u32 {
        self.width - self.flat.dont_care_count()
    }
}
