//! Compiler error types.

use std::error::Error;
use std::fmt;

use ecmas_chip::ChipError;

/// Error produced by the Ecmas compiler pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// The circuit has more logical qubits than the chip has tile slots.
    TooManyQubits {
        /// Logical qubits in the circuit.
        qubits: usize,
        /// Tile slots on the chip.
        slots: usize,
    },
    /// The circuit is wider than
    /// [`MAX_COMPILE_QUBITS`](crate::session::MAX_COMPILE_QUBITS), the
    /// bound that keeps the compiler's `n²` tables allocatable.
    TooWide {
        /// Logical qubits in the circuit.
        qubits: usize,
        /// The widest register the compiler accepts.
        max: usize,
    },
    /// The scheduler made no progress for an implausibly long stretch —
    /// a defensive bound that indicates a routing-model bug rather than a
    /// legitimate compilation outcome.
    ScheduleStuck {
        /// The cycle at which progress stopped.
        cycle: u64,
        /// Gates still unscheduled.
        pending: usize,
    },
    /// The double-defect scheduler was invoked without initial cut types,
    /// or the lattice-surgery scheduler with them.
    CutTypesMismatch,
    /// An underlying chip construction failed.
    Chip(ChipError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyQubits { qubits, slots } => {
                write!(f, "{qubits} logical qubits do not fit on a chip with {slots} tile slots")
            }
            CompileError::TooWide { qubits, max } => {
                write!(f, "{qubits} logical qubits exceed the compiler's limit of {max}")
            }
            CompileError::ScheduleStuck { cycle, pending } => {
                write!(f, "scheduler stalled at cycle {cycle} with {pending} gates pending")
            }
            CompileError::CutTypesMismatch => {
                write!(f, "initial cut types must be supplied exactly for the double-defect model")
            }
            CompileError::Chip(e) => write!(f, "chip error: {e}"),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Chip(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChipError> for CompileError {
    fn from(e: ChipError) -> Self {
        CompileError::Chip(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CompileError::TooManyQubits { qubits: 10, slots: 4 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("4"));
    }

    #[test]
    fn chip_error_converts_and_chains() {
        let e: CompileError = ChipError::EmptyTileArray.into();
        assert!(matches!(e, CompileError::Chip(_)));
        assert!(e.source().is_some());
    }
}
