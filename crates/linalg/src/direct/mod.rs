//! Direct solvers: Cholesky decomposition and LU (Gaussian elimination).
//!
//! The analog computing literature notes that analog computers are *not*
//! suited to direct linear-algebra approaches (paper §IV-A, citing Ulmann).
//! These factorizations are here as the digital gold standard: exact
//! reference solutions for tests and for computing error norms in the
//! Figure 7 convergence study.

mod cholesky;
mod lu;

pub use cholesky::CholeskyFactor;
pub use lu::LuFactor;

use crate::{DenseMatrix, LinalgError};

/// Solves `A·x = b` by Cholesky if `A` is symmetric, else by partial-pivot LU.
///
/// # Errors
///
/// Returns an error if `A` is not square, dimensions mismatch, or the matrix
/// is singular (or not SPD when the Cholesky path is taken and LU also fails).
///
/// ```
/// use aa_linalg::{DenseMatrix, direct};
///
/// # fn main() -> Result<(), aa_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
/// let x = direct::solve(&a, &[1.0, 2.0])?;
/// assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
/// assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if a.is_symmetric(1e-12) {
        match CholeskyFactor::new(a) {
            Ok(f) => return f.solve(b),
            Err(LinalgError::NotPositiveDefinite { .. }) => { /* fall through to LU */ }
            Err(e) => return Err(e),
        }
    }
    LuFactor::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearOperator;

    #[test]
    fn solve_dispatches_on_symmetry() {
        // SPD: takes the Cholesky path.
        let spd = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = solve(&spd, &[5.0, 4.0]).unwrap();
        assert!(spd.residual_norm(&x, &[5.0, 4.0]) < 1e-12);

        // Unsymmetric: takes the LU path.
        let gen = DenseMatrix::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]]).unwrap();
        let x = solve(&gen, &[2.0, 4.0]).unwrap();
        assert!(gen.residual_norm(&x, &[2.0, 4.0]) < 1e-12);

        // Symmetric but indefinite: Cholesky fails, LU succeeds.
        let indef = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&indef, &[3.0, 5.0]).unwrap();
        assert_eq!(x, vec![5.0, 3.0]);
    }

    #[test]
    fn singular_matrix_is_an_error() {
        let s = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(solve(&s, &[1.0, 2.0]).is_err());
    }
}
