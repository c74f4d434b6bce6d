use crate::{DenseMatrix, LinalgError};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// ```
/// use aa_linalg::{DenseMatrix, direct::CholeskyFactor};
///
/// # fn main() -> Result<(), aa_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[4.0, 2.0], &[2.0, 5.0]])?;
/// let chol = CholeskyFactor::new(&a)?;
/// let x = chol.solve(&[2.0, 1.0])?;
/// assert!((x[0] - 0.5).abs() < 1e-12);
/// assert!((x[1] - 0.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    /// Lower-triangular factor, stored densely (upper part zero).
    l: DenseMatrix,
}

impl CholeskyFactor {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Symmetry is assumed from the lower triangle; only the lower triangle
    /// of `a` is read.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn new(a: &DenseMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = DenseMatrix::zeros(n, n)?;
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(CholeskyFactor { l })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &DenseMatrix {
        &self.l
    }

    /// Solves `A·x = b` by forward/backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                actual: b.len(),
                context: "cholesky solve rhs",
            });
        }
        // Forward: L·y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for (k, yk) in y.iter().enumerate().take(i) {
                sum -= self.l.get(i, k) * yk;
            }
            y[i] = sum / self.l.get(i, i);
        }
        // Backward: Lᵀ·x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l.get(k, i) * xk;
            }
            x[i] = sum / self.l.get(i, i);
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearOperator;

    #[test]
    fn factor_reconstructs_matrix() {
        let a = DenseMatrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let chol = CholeskyFactor::new(&a).unwrap();
        let l = chol.factor();
        let reconstructed = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((reconstructed.get(i, j) - a.get(i, j)).abs() < 1e-10);
            }
        }
        // Known factor from the classic example: l00 = 2, l11 = 1, l22 = 3.
        assert!((l.get(0, 0) - 2.0).abs() < 1e-12);
        assert!((l.get(1, 1) - 1.0).abs() < 1e-12);
        assert!((l.get(2, 2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_gives_exact_solution() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]])
            .unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let b = a.apply_vec(&x_true);
        let x = CholeskyFactor::new(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            CholeskyFactor::new(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3).unwrap();
        assert!(matches!(
            CholeskyFactor::new(&a),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn rhs_length_validated() {
        let a = DenseMatrix::identity(2);
        let chol = CholeskyFactor::new(&a).unwrap();
        assert!(chol.solve(&[1.0]).is_err());
    }
}
