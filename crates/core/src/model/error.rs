//! Errors and warnings produced while building the model database.

use std::error::Error;
use std::fmt;

use crate::span::Span;

/// A fatal analysis error: the description cannot be turned into a
/// consistent model database.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// Two resources share a name.
    DuplicateResource {
        /// The name.
        name: String,
        /// Location of the second declaration.
        span: Span,
    },
    /// Two pipelines share a name, or a pipeline name collides with a
    /// resource.
    DuplicatePipeline {
        /// The name.
        name: String,
        /// Location of the second declaration.
        span: Span,
    },
    /// Two operations share a name.
    DuplicateOperation {
        /// The name.
        name: String,
        /// Location of the second definition.
        span: Span,
    },
    /// A pipeline stage list declares the same stage twice.
    DuplicateStage {
        /// The stage name.
        stage: String,
        /// Pipeline name.
        pipeline: String,
    },
    /// A name used in a coding/syntax/declare context is not defined.
    UnknownName {
        /// The unresolved name.
        name: String,
        /// What kind of thing was expected ("operation", "group member",
        /// "pipeline", …).
        expected: &'static str,
        /// Where the name was used.
        span: Span,
    },
    /// An operation's `IN pipe.stage` names an unknown pipeline or stage.
    UnknownStage {
        /// Pipeline name.
        pipeline: String,
        /// Stage name.
        stage: String,
        /// Location.
        span: Span,
    },
    /// A group has no members (or all members failed to resolve).
    EmptyGroup {
        /// The group name.
        group: String,
        /// Operation that declares it.
        operation: String,
    },
    /// A `SWITCH`/`IF` names a group not declared in the operation.
    SwitchOnUnknownGroup {
        /// The group name.
        group: String,
        /// Operation name.
        operation: String,
        /// Location.
        span: Span,
    },
    /// A `CASE` member is not a member of the switched group.
    CaseNotInGroup {
        /// The member name.
        member: String,
        /// The group name.
        group: String,
        /// Location.
        span: Span,
    },
    /// The same section appears twice in one variant of an operation.
    DuplicateSection {
        /// The section name.
        section: &'static str,
        /// The operation.
        operation: String,
    },
    /// The coding graph is cyclic (an operation's coding eventually
    /// references itself).
    CodingCycle {
        /// The operation on the cycle.
        operation: String,
    },
    /// Members of a group used in a coding have different coding widths.
    GroupWidthMismatch {
        /// The group name.
        group: String,
        /// The operation declaring the group.
        operation: String,
        /// The differing widths observed.
        widths: Vec<u32>,
    },
    /// Variants of one operation have different coding widths.
    VariantWidthMismatch {
        /// The operation.
        operation: String,
        /// The differing widths observed.
        widths: Vec<u32>,
    },
    /// A coding references an operation that has no `CODING` section.
    MissingCoding {
        /// The referenced operation.
        operation: String,
        /// The referencing operation.
        referenced_from: String,
    },
    /// A coding root compares against an unknown resource.
    UnknownRootResource {
        /// The resource name.
        resource: String,
        /// The operation.
        operation: String,
        /// Location.
        span: Span,
    },
    /// A coding root compares against an array resource: an instruction
    /// word is one scalar cell.
    NonScalarRoot {
        /// The resource name.
        resource: String,
        /// The operation.
        operation: String,
        /// Location.
        span: Span,
    },
    /// A resource is declared wider than the 64 bits behaviors compute in.
    ResourceTooWide {
        /// The resource name.
        resource: String,
        /// Its declared width.
        width: u32,
        /// Location.
        span: Span,
    },
    /// A resource's element count overflows, or brings the model's cells
    /// past [`MAX_STATE_CELLS`](super::MAX_STATE_CELLS).
    TooManyCells {
        /// The resource name.
        resource: String,
        /// Location.
        span: Span,
    },
    /// The combined coding is wider than the supported maximum.
    CodingTooWide {
        /// The operation.
        operation: String,
        /// The computed width.
        width: u32,
    },
    /// A label is used in a coding but not declared (or vice versa in a
    /// syntax numeric field).
    UnknownLabel {
        /// The label name.
        label: String,
        /// The operation.
        operation: String,
        /// Location.
        span: Span,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateResource { name, span } => {
                write!(f, "{span}: duplicate resource `{name}`")
            }
            ModelError::DuplicatePipeline { name, span } => {
                write!(f, "{span}: duplicate pipeline `{name}`")
            }
            ModelError::DuplicateOperation { name, span } => {
                write!(f, "{span}: duplicate operation `{name}`")
            }
            ModelError::DuplicateStage { stage, pipeline } => {
                write!(f, "duplicate stage `{stage}` in pipeline `{pipeline}`")
            }
            ModelError::UnknownName { name, expected, span } => {
                write!(f, "{span}: unknown {expected} `{name}`")
            }
            ModelError::UnknownStage { pipeline, stage, span } => {
                write!(f, "{span}: unknown pipeline stage `{pipeline}.{stage}`")
            }
            ModelError::EmptyGroup { group, operation } => {
                write!(f, "group `{group}` in operation `{operation}` has no members")
            }
            ModelError::SwitchOnUnknownGroup { group, operation, span } => {
                write!(
                    f,
                    "{span}: SWITCH/IF over `{group}` which is not a group of operation `{operation}`"
                )
            }
            ModelError::CaseNotInGroup { member, group, span } => {
                write!(f, "{span}: `{member}` is not a member of group `{group}`")
            }
            ModelError::DuplicateSection { section, operation } => {
                write!(f, "operation `{operation}` has more than one active {section} section")
            }
            ModelError::CodingCycle { operation } => {
                write!(f, "coding of operation `{operation}` is recursive")
            }
            ModelError::GroupWidthMismatch { group, operation, widths } => {
                write!(
                    f,
                    "members of group `{group}` in operation `{operation}` have different coding widths: {widths:?}"
                )
            }
            ModelError::VariantWidthMismatch { operation, widths } => {
                write!(
                    f,
                    "variants of operation `{operation}` have different coding widths: {widths:?}"
                )
            }
            ModelError::MissingCoding { operation, referenced_from } => {
                write!(
                    f,
                    "operation `{operation}` is used in the coding of `{referenced_from}` but has no CODING section"
                )
            }
            ModelError::UnknownRootResource { resource, operation, span } => {
                write!(
                    f,
                    "{span}: coding root of `{operation}` compares unknown resource `{resource}`"
                )
            }
            ModelError::NonScalarRoot { resource, operation, span } => {
                write!(
                    f,
                    "{span}: coding root of `{operation}` compares array resource `{resource}`; an instruction word is a scalar"
                )
            }
            ModelError::ResourceTooWide { resource, width, span } => {
                write!(
                    f,
                    "{span}: resource `{resource}` is {width} bits wide; resources hold at most 64"
                )
            }
            ModelError::TooManyCells { resource, span } => {
                write!(
                    f,
                    "{span}: resource `{resource}` brings the model's state past {} cells",
                    super::MAX_STATE_CELLS
                )
            }
            ModelError::CodingTooWide { operation, width } => {
                write!(
                    f,
                    "coding of operation `{operation}` is {width} bits, wider than the supported {}",
                    lisa_bits::MAX_WIDTH
                )
            }
            ModelError::UnknownLabel { label, operation, span } => {
                write!(f, "{span}: unknown label `{label}` in operation `{operation}`")
            }
        }
    }
}

impl Error for ModelError {}

/// A non-fatal analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelWarning {
    /// Two alternatives of a group have overlapping codings and neither
    /// is declared `ALIAS`; the decoder will prefer the one with more
    /// fixed bits, then declaration order.
    OverlappingCoding {
        /// The group.
        group: String,
        /// The operation declaring the group.
        operation: String,
        /// First overlapping member.
        first: String,
        /// Second overlapping member.
        second: String,
    },
    /// An operation is never referenced and is not a decode root or
    /// `main`.
    UnreachableOperation {
        /// The operation.
        operation: String,
    },
}

impl fmt::Display for ModelWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelWarning::OverlappingCoding { group, operation, first, second } => {
                write!(
                    f,
                    "codings of `{first}` and `{second}` overlap in group `{group}` of `{operation}`"
                )
            }
            ModelWarning::UnreachableOperation { operation } => {
                write!(f, "operation `{operation}` is unreachable")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_with_context() {
        let err = ModelError::CodingCycle { operation: "add".into() };
        assert_eq!(err.to_string(), "coding of operation `add` is recursive");
        let err = ModelError::GroupWidthMismatch {
            group: "Src".into(),
            operation: "add".into(),
            widths: vec![5, 6],
        };
        assert!(err.to_string().contains("[5, 6]"));
    }

    #[test]
    fn error_impls_error_trait() {
        fn check<T: Error + Send + Sync + 'static>() {}
        check::<ModelError>();
    }
}
