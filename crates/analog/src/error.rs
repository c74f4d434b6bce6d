use std::error::Error;
use std::fmt;

use crate::units::UnitId;

/// Errors produced by the analog accelerator model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalogError {
    /// The configuration asked for more functional units than the chip has.
    ResourceExhausted {
        /// Human-readable unit kind ("integrator", "multiplier", ...).
        kind: &'static str,
        /// Units requested.
        requested: usize,
        /// Units available on the configured chip.
        available: usize,
    },
    /// A referenced unit does not exist on this chip.
    NoSuchUnit {
        /// The offending unit id.
        unit: UnitId,
    },
    /// A connection is electrically invalid (driving a driven branch,
    /// copying a current without a fanout, port out of range, ...).
    InvalidConnection {
        /// Description of the violation.
        message: String,
    },
    /// The netlist contains a memoryless cycle (an algebraic loop that does
    /// not pass through an integrator), which a real crossbar cannot settle.
    AlgebraicLoop {
        /// A unit on the offending cycle.
        unit: UnitId,
    },
    /// A configuration value is out of the programmable range
    /// (gain beyond the multiplier range, initial condition beyond full scale).
    ValueOutOfRange {
        /// What was being configured.
        context: &'static str,
        /// The offending value.
        value: f64,
        /// The representable limit.
        limit: f64,
    },
    /// An instruction was issued in the wrong state (e.g. `execStart`
    /// before `cfgCommit`).
    ProtocolViolation {
        /// Description of the ordering violation.
        message: String,
    },
    /// The continuous-time engine's state diverged to non-finite values.
    Diverged {
        /// Per-run simulated second at which a non-finite state appeared.
        at_time: f64,
    },
    /// Calibration could not bring a unit within tolerance.
    CalibrationFailed {
        /// The unit that failed to calibrate.
        unit: UnitId,
        /// Residual error after the best trim setting.
        residual: f64,
    },
}

impl AnalogError {
    pub(crate) fn invalid_connection(message: impl Into<String>) -> Self {
        AnalogError::InvalidConnection {
            message: message.into(),
        }
    }

    pub(crate) fn protocol(message: impl Into<String>) -> Self {
        AnalogError::ProtocolViolation {
            message: message.into(),
        }
    }
}

impl fmt::Display for AnalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalogError::ResourceExhausted {
                kind,
                requested,
                available,
            } => write!(
                f,
                "chip has {available} {kind}(s) but the configuration needs {requested}"
            ),
            AnalogError::NoSuchUnit { unit } => write!(f, "no such unit on this chip: {unit}"),
            AnalogError::InvalidConnection { message } => {
                write!(f, "invalid connection: {message}")
            }
            AnalogError::AlgebraicLoop { unit } => write!(
                f,
                "algebraic loop through {unit}: memoryless cycles must pass through an integrator"
            ),
            AnalogError::ValueOutOfRange {
                context,
                value,
                limit,
            } => write!(
                f,
                "{context} value {value} exceeds the programmable range ±{limit}"
            ),
            AnalogError::ProtocolViolation { message } => {
                write!(f, "protocol violation: {message}")
            }
            AnalogError::Diverged { at_time } => write!(
                f,
                "analog engine failure: state diverged to non-finite values at t = {at_time}"
            ),
            AnalogError::CalibrationFailed { unit, residual } => {
                write!(f, "calibration of {unit} failed with residual {residual}")
            }
        }
    }
}

impl Error for AnalogError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::UnitId;

    #[test]
    fn display_messages() {
        let e = AnalogError::ResourceExhausted {
            kind: "integrator",
            requested: 5,
            available: 4,
        };
        assert_eq!(
            e.to_string(),
            "chip has 4 integrator(s) but the configuration needs 5"
        );
        let e = AnalogError::AlgebraicLoop {
            unit: UnitId::Multiplier(2),
        };
        assert!(e.to_string().contains("mul2"));
        let e = AnalogError::ValueOutOfRange {
            context: "multiplier gain",
            value: 3.0,
            limit: 1.0,
        };
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn divergence_display() {
        assert_eq!(
            AnalogError::Diverged { at_time: 1.5 }.to_string(),
            "analog engine failure: state diverged to non-finite values at t = 1.5"
        );
    }
}
