use std::error::Error;
use std::fmt;

/// Errors produced by the PDE layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PdeError {
    /// A grid parameter is invalid (zero size, wrong multigrid shape, ...).
    InvalidGrid {
        /// Description of the problem.
        message: String,
    },
    /// An underlying linear-algebra failure.
    Linalg(aa_linalg::LinalgError),
    /// An iterative solve failed to converge within its budget.
    NotConverged {
        /// Iterations or cycles performed.
        iterations: usize,
        /// Residual norm at the stop.
        residual: f64,
    },
}

impl PdeError {
    pub(crate) fn invalid_grid(message: impl Into<String>) -> Self {
        PdeError::InvalidGrid {
            message: message.into(),
        }
    }
}

impl fmt::Display for PdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdeError::InvalidGrid { message } => write!(f, "invalid grid: {message}"),
            PdeError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            PdeError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl Error for PdeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PdeError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<aa_linalg::LinalgError> for PdeError {
    fn from(e: aa_linalg::LinalgError) -> Self {
        PdeError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = PdeError::invalid_grid("side must be odd");
        assert_eq!(e.to_string(), "invalid grid: side must be odd");
        assert!(e.source().is_none());
        let e: PdeError = aa_linalg::LinalgError::invalid("x").into();
        assert!(e.source().is_some());
        let e = PdeError::NotConverged {
            iterations: 7,
            residual: 0.5,
        };
        assert!(e.to_string().contains('7'));
    }
}
