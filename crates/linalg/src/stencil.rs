//! Matrix-free finite-difference Poisson operators.
//!
//! The paper's digital baseline implements conjugate gradients "using stencils
//! to capture the sparse structure of the matrix, without having to allocate
//! memory for the full matrix". These operators reproduce that: the 1D, 2D,
//! and 3D negative Laplacian with Dirichlet boundaries, discretized by
//! second-order central differences on the unit interval/square/cube.
//!
//! For `L` increments per side the interior grid has `L` points per dimension
//! and spacing `h = 1/(L+1)`; the assembled operator is `(1/h²)·K` where `K`
//! has `2·d` on the diagonal and `−1` couplings to each of the `2·d`
//! neighbours in `d` dimensions — exactly the pentadiagonal 2D form shown in
//! the paper's §IV-B (its `3×3` example matrix, including the `1/h² = 9`
//! prefactor for `h = 1/3`).

use crate::op::{LinearOperator, RowAccess};
use crate::LinalgError;

/// Matrix-free `d`-dimensional Poisson operator (negative Laplacian, Dirichlet).
///
/// ```
/// use aa_linalg::stencil::PoissonStencil;
/// use aa_linalg::LinearOperator;
///
/// # fn main() -> Result<(), aa_linalg::LinalgError> {
/// let op = PoissonStencil::new_2d(3)?; // the paper's 3×3 example grid
/// assert_eq!(op.dim(), 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoissonStencil {
    /// Interior points per dimension.
    points_per_side: usize,
    /// Spatial dimensionality: 1, 2, or 3.
    dimensionality: usize,
}

impl PoissonStencil {
    /// 1D operator on `l` interior points of the unit interval.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `l == 0`.
    pub fn new_1d(l: usize) -> Result<Self, LinalgError> {
        Self::new(l, 1)
    }

    /// 2D operator on an `l × l` interior grid of the unit square.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `l == 0`.
    pub fn new_2d(l: usize) -> Result<Self, LinalgError> {
        Self::new(l, 2)
    }

    /// 3D operator on an `l × l × l` interior grid of the unit cube.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `l == 0`.
    pub fn new_3d(l: usize) -> Result<Self, LinalgError> {
        Self::new(l, 3)
    }

    /// General constructor for dimensionality 1, 2, or 3.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `l == 0` or
    /// `dimensionality ∉ {1, 2, 3}`.
    pub fn new(l: usize, dimensionality: usize) -> Result<Self, LinalgError> {
        if l == 0 {
            return Err(LinalgError::invalid("grid must have at least one point"));
        }
        if !(1..=3).contains(&dimensionality) {
            return Err(LinalgError::invalid(format!(
                "dimensionality must be 1, 2, or 3, got {dimensionality}"
            )));
        }
        Ok(PoissonStencil {
            points_per_side: l,
            dimensionality,
        })
    }

    /// Interior points per dimension (`L` in the paper's notation).
    pub fn points_per_side(&self) -> usize {
        self.points_per_side
    }

    /// Spatial dimensionality (1, 2, or 3).
    pub fn dimensionality(&self) -> usize {
        self.dimensionality
    }

    /// Grid spacing `h = 1/(L+1)` on the unit domain.
    pub fn spacing(&self) -> f64 {
        1.0 / (self.points_per_side as f64 + 1.0)
    }

    /// The `1/h²` prefactor multiplying the integer stencil.
    ///
    /// This is the factor the paper highlights when discussing dynamic-range
    /// scaling: coefficients grow like `L²` as resolution increases.
    pub fn prefactor(&self) -> f64 {
        let h = self.spacing();
        1.0 / (h * h)
    }

    /// Diagonal coefficient `2·d / h²`.
    pub fn diagonal_value(&self) -> f64 {
        2.0 * self.dimensionality as f64 * self.prefactor()
    }

    /// Decomposes a linear index into per-dimension coordinates.
    fn coords(&self, mut idx: usize) -> [usize; 3] {
        let l = self.points_per_side;
        let mut c = [0usize; 3];
        for item in c.iter_mut().take(self.dimensionality) {
            *item = idx % l;
            idx /= l;
        }
        c
    }

    /// Recomposes coordinates into a linear index.
    fn index(&self, c: [usize; 3]) -> usize {
        let l = self.points_per_side;
        let mut idx = 0;
        for d in (0..self.dimensionality).rev() {
            idx = idx * l + c[d];
        }
        idx
    }
}

impl LinearOperator for PoissonStencil {
    fn dim(&self) -> usize {
        self.points_per_side.pow(self.dimensionality as u32)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "apply: input length mismatch");
        assert_eq!(y.len(), n, "apply: output length mismatch");
        let l = self.points_per_side;
        let diag = 2.0 * self.dimensionality as f64;
        let pre = self.prefactor();
        for i in 0..n {
            let c = self.coords(i);
            let mut acc = diag * x[i];
            for d in 0..self.dimensionality {
                if c[d] > 0 {
                    let mut cn = c;
                    cn[d] -= 1;
                    acc -= x[self.index(cn)];
                }
                if c[d] + 1 < l {
                    let mut cn = c;
                    cn[d] += 1;
                    acc -= x[self.index(cn)];
                }
            }
            y[i] = pre * acc;
        }
    }
}

impl RowAccess for PoissonStencil {
    fn for_each_in_row(&self, i: usize, f: &mut dyn FnMut(usize, f64)) {
        assert!(i < self.dim(), "row index out of bounds");
        let l = self.points_per_side;
        let pre = self.prefactor();
        let c = self.coords(i);
        f(i, 2.0 * self.dimensionality as f64 * pre);
        for d in 0..self.dimensionality {
            if c[d] > 0 {
                let mut cn = c;
                cn[d] -= 1;
                f(self.index(cn), -pre);
            }
            if c[d] + 1 < l {
                let mut cn = c;
                cn[d] += 1;
                f(self.index(cn), -pre);
            }
        }
    }

    fn diagonal(&self, _i: usize) -> f64 {
        self.diagonal_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn rejects_degenerate_grids() {
        assert!(PoissonStencil::new(0, 2).is_err());
        assert!(PoissonStencil::new(3, 0).is_err());
        assert!(PoissonStencil::new(3, 4).is_err());
    }

    #[test]
    fn paper_3x3_example_matrix() {
        // §IV-B: 3×3 grid on the unit square, h = 1/4 in our convention of
        // interior points... The paper uses h = 1/3 (discretized into thirds,
        // prefactor 9). Our convention L interior points → h = 1/(L+1), so we
        // check structure against the analytically assembled matrix instead.
        let op = PoissonStencil::new_2d(3).unwrap();
        let a = CsrMatrix::from_row_access(&op);
        let pre = op.prefactor();
        // Center node 4 couples to 1, 3, 5, 7.
        assert_eq!(a.get(4, 4), 4.0 * pre);
        for j in [1, 3, 5, 7] {
            assert_eq!(a.get(4, j), -pre);
        }
        // Corner node 0 couples to 1 and 3 only (pentadiagonal sparsity).
        assert_eq!(a.get(0, 0), 4.0 * pre);
        assert_eq!(a.get(0, 1), -pre);
        assert_eq!(a.get(0, 3), -pre);
        assert_eq!(a.get(0, 2), 0.0);
        // Row 2 (end of first grid row) must NOT couple to row 3 (wraparound).
        assert_eq!(a.get(2, 3), 0.0);
    }

    #[test]
    fn nnz_matches_pentadiagonal_count() {
        let op = PoissonStencil::new_2d(4).unwrap();
        // Interior 2D grid of L² points: diagonal N entries plus 2·L·(L−1)
        // horizontal plus 2·L·(L−1) vertical couplings.
        let l = 4;
        let expected = l * l + 4 * l * (l - 1);
        assert_eq!(op.nnz(), expected);
    }

    #[test]
    fn one_dimensional_matches_tridiagonal() {
        let op = PoissonStencil::new_1d(5).unwrap();
        let pre = op.prefactor();
        let reference = CsrMatrix::tridiagonal(5, -pre, 2.0 * pre, -pre).unwrap();
        let assembled = CsrMatrix::from_row_access(&op);
        assert_eq!(assembled, reference);
    }

    #[test]
    fn three_dimensional_center_has_six_neighbors() {
        let op = PoissonStencil::new_3d(3).unwrap();
        // Center of a 3×3×3 grid is index 13 = 1 + 3·1 + 9·1.
        assert_eq!(op.row_nnz(13), 7);
        assert_eq!(op.diagonal(13), 6.0 * op.prefactor());
    }

    #[test]
    fn apply_matches_assembled_matrix() {
        for (l, d) in [(5, 1), (4, 2), (3, 3)] {
            let op = PoissonStencil::new(l, d).unwrap();
            let a = CsrMatrix::from_row_access(&op);
            let n = op.dim();
            let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
            let y_stencil = op.apply_vec(&x);
            let y_matrix = a.apply_vec(&x);
            for (s, m) in y_stencil.iter().zip(&y_matrix) {
                assert!(
                    (s - m).abs() < 1e-10 * m.abs().max(1.0),
                    "stencil/matrix disagreement in {d}D"
                );
            }
        }
    }

    #[test]
    fn operator_is_symmetric() {
        let op = PoissonStencil::new_2d(4).unwrap();
        let a = CsrMatrix::from_row_access(&op);
        assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn prefactor_grows_with_resolution() {
        // §VI-D: coefficients grow ∝ L², the source of the dynamic-range cost.
        let small = PoissonStencil::new_2d(3).unwrap();
        let big = PoissonStencil::new_2d(31).unwrap();
        assert_eq!(small.prefactor(), 16.0);
        assert_eq!(big.prefactor(), 1024.0);
        assert!(big.prefactor() / small.prefactor() == 64.0);
    }
}
