//! Program-assembly errors, annotated with source line numbers.

use std::error::Error;
use std::fmt;

use lisa_isa::IsaError;

/// An error while assembling a program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AsmError {
    /// An instruction failed to assemble.
    Instruction {
        /// 1-based source line.
        line: usize,
        /// The underlying instruction-level error.
        source: IsaError,
    },
    /// A label was defined twice.
    DuplicateLabel {
        /// 1-based source line of the second definition.
        line: usize,
        /// The label name.
        label: String,
    },
    /// A malformed or unknown directive.
    BadDirective {
        /// 1-based source line.
        line: usize,
        /// The directive text.
        text: String,
    },
    /// A `||` bar without a preceding instruction to join.
    DanglingParallelBar {
        /// 1-based source line.
        line: usize,
    },
    /// An execute packet holds more slots than a fetch packet.
    PacketTooLong {
        /// 1-based source line of the overflowing slot.
        line: usize,
        /// Configured fetch-packet size.
        packet_size: usize,
    },
    /// `.org` went backwards over already-emitted words.
    OrgBackwards {
        /// 1-based source line.
        line: usize,
        /// Requested address.
        requested: u64,
        /// Current address.
        current: u64,
    },
}

impl AsmError {
    /// The 1-based source line the error points at.
    #[must_use]
    pub fn line(&self) -> usize {
        match self {
            AsmError::Instruction { line, .. }
            | AsmError::DuplicateLabel { line, .. }
            | AsmError::BadDirective { line, .. }
            | AsmError::DanglingParallelBar { line }
            | AsmError::PacketTooLong { line, .. }
            | AsmError::OrgBackwards { line, .. } => *line,
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::Instruction { line, source } => write!(f, "line {line}: {source}"),
            AsmError::DuplicateLabel { line, label } => {
                write!(f, "line {line}: duplicate label `{label}`")
            }
            AsmError::BadDirective { line, text } => {
                write!(f, "line {line}: bad directive `{text}`")
            }
            AsmError::DanglingParallelBar { line } => {
                write!(f, "line {line}: `||` with no instruction to join")
            }
            AsmError::PacketTooLong { line, packet_size } => {
                write!(f, "line {line}: execute packet exceeds the {packet_size}-slot fetch packet")
            }
            AsmError::OrgBackwards { line, requested, current } => {
                write!(
                    f,
                    "line {line}: .org {requested:#x} is behind the current address {current:#x}"
                )
            }
        }
    }
}

impl Error for AsmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AsmError::Instruction { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_numbers_and_messages() {
        let err = AsmError::DuplicateLabel { line: 7, label: "loop".into() };
        assert_eq!(err.line(), 7);
        assert!(err.to_string().contains("line 7"));
        fn check<T: Error + Send + Sync + 'static>() {}
        check::<AsmError>();
    }
}
