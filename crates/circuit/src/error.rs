//! Error type for circuit construction and evaluation.

use crate::Wire;
use std::fmt;

/// Errors produced while building, validating, or evaluating threshold circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate referenced a wire that does not (yet) exist.
    ///
    /// Gates may only reference primary inputs, the constant-one wire, or gates created
    /// strictly before them.
    DanglingWire {
        /// The offending wire reference.
        wire: Wire,
        /// Number of primary inputs in the circuit.
        num_inputs: usize,
        /// Number of gates existing at the time of the reference.
        num_gates: usize,
    },
    /// A gate was created with an empty fan-in list.
    EmptyFanIn,
    /// The same wire appears more than once in a single gate's fan-in list.
    DuplicateFanIn {
        /// The duplicated wire.
        wire: Wire,
    },
    /// Evaluation was given the wrong number of input bits.
    InputLengthMismatch {
        /// Inputs expected by the circuit.
        expected: usize,
        /// Inputs provided by the caller.
        actual: usize,
    },
    /// An output index passed to an accessor was out of range.
    OutputIndexOutOfRange {
        /// The requested index.
        index: usize,
        /// Number of outputs.
        len: usize,
    },
    /// A weighted sum overflowed the 128-bit accumulator during evaluation.
    ///
    /// This cannot happen for circuits produced by the constructions in this workspace
    /// (weights are bounded by the bit-width preconditions), but is reported rather than
    /// silently wrapping for hand-built circuits.
    ArithmeticOverflow {
        /// Index of the gate whose sum overflowed.
        gate: usize,
    },
    /// The circuit does not fit the compiled engine's `u32` slot space (or
    /// the plane-ops of one pass its `u32` index space).
    CircuitTooLarge {
        /// Number of primary inputs.
        inputs: usize,
        /// Number of gates.
        gates: usize,
    },
    /// More than 64 assignments were packed into one bit-sliced batch.
    BatchTooWide {
        /// Number of assignments offered.
        rows: usize,
    },
    /// A batch-evaluation accessor was given a lane beyond the batch width.
    LaneOutOfRange {
        /// The requested lane.
        lane: usize,
        /// Number of valid lanes in the batch.
        lanes: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::DanglingWire {
                wire,
                num_inputs,
                num_gates,
            } => write!(
                f,
                "gate references wire {wire} but the circuit has {num_inputs} inputs and {num_gates} gates so far"
            ),
            CircuitError::EmptyFanIn => write!(f, "threshold gate must have at least one input"),
            CircuitError::DuplicateFanIn { wire } => {
                write!(f, "wire {wire} appears more than once in a gate's fan-in")
            }
            CircuitError::InputLengthMismatch { expected, actual } => write!(
                f,
                "circuit expects {expected} input bits but {actual} were provided"
            ),
            CircuitError::OutputIndexOutOfRange { index, len } => {
                write!(f, "output index {index} out of range (circuit has {len} outputs)")
            }
            CircuitError::ArithmeticOverflow { gate } => {
                write!(f, "weighted sum overflowed i128 while evaluating gate {gate}")
            }
            CircuitError::CircuitTooLarge { inputs, gates } => write!(
                f,
                "circuit with {inputs} inputs and {gates} gates exceeds the u32 index space of the compiled engine"
            ),
            CircuitError::BatchTooWide { rows } => {
                write!(f, "a bit-sliced batch holds at most 64 assignments, got {rows}")
            }
            CircuitError::LaneOutOfRange { lane, lanes } => {
                write!(f, "lane {lane} out of range (batch has {lanes} lanes)")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_quantities() {
        let e = CircuitError::DanglingWire {
            wire: Wire::gate(10),
            num_inputs: 4,
            num_gates: 3,
        };
        let s = e.to_string();
        assert!(s.contains("g10"));
        assert!(s.contains('4'));
        assert!(s.contains('3'));

        let e = CircuitError::InputLengthMismatch {
            expected: 8,
            actual: 5,
        };
        assert!(e.to_string().contains('8'));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CircuitError::EmptyFanIn);
    }
}
