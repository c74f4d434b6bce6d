//! Value and time scaling (the paper's §VI inset).
//!
//! Any system `A·u = b` with arbitrarily large coefficients can be scaled to
//! fit the accelerator's dynamic range: program `Ã = A/s` and `b̃ = b/(s·γ)`
//! where
//!
//! * `s` brings every coefficient of `A` within the multiplier gain range —
//!   the gradient flow of `(Ã, b̃)` has the same steady state, reached a
//!   factor `s` later in time ("value and time scaling");
//! * `γ` shrinks the *solution* `ũ = u/γ` to fit the integrator output
//!   range, recovered digitally as `u = γ·ũ` after readout.
//!
//! Choosing these factors well is "challenging when using analog computers"
//! (the paper cites four analog-computing texts); here the host does it
//! automatically, and the exception-driven retry loop in
//! [`solve`](crate::solve) repairs any underestimate of `γ`.

use aa_linalg::CsrMatrix;

use crate::SolverError;

/// A system scaled into hardware range, with the factors to undo it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledSystem {
    /// `Ã = A/s`, every coefficient within the gain range.
    pub matrix: CsrMatrix,
    /// The value-scale factor `s ≥ 1` applied to the matrix; it is also the
    /// time stretch (the scaled flow settles `s×` slower).
    pub value_factor: f64,
    /// The solution-scale factor `γ > 0`: the hardware solves for `u/γ`.
    pub solution_factor: f64,
}

impl ScaledSystem {
    /// Scales `a` so no coefficient magnitude exceeds `max_gain`, and picks
    /// an initial solution factor `γ` so the *estimated* solution magnitude
    /// sits near `margin` of full scale.
    ///
    /// `solution_bound` is the caller's estimate of `‖u‖∞` (e.g. from a
    /// rough digital pass, physical knowledge, or a previous attempt); the
    /// exception mechanism will catch underestimates at run time.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] if `a` has no non-zero
    /// coefficient, or any parameter is non-positive/non-finite.
    pub fn new(
        a: &CsrMatrix,
        max_gain: f64,
        full_scale: f64,
        margin: f64,
        solution_bound: f64,
    ) -> Result<Self, SolverError> {
        if !(max_gain > 0.0 && full_scale > 0.0 && margin > 0.0 && margin <= 1.0) {
            return Err(SolverError::invalid(
                "max_gain, full_scale must be positive and margin in (0, 1]",
            ));
        }
        if !(solution_bound.is_finite() && solution_bound > 0.0) {
            return Err(SolverError::invalid(format!(
                "solution bound must be finite and positive, got {solution_bound}"
            )));
        }
        let max_coeff = a.max_abs();
        if max_coeff == 0.0 {
            return Err(SolverError::invalid("matrix has no non-zero coefficient"));
        }
        // Canonical scaling: the largest coefficient is placed exactly at
        // the gain limit. Matrices with small coefficients are scaled *up*
        // (s < 1), using the full multiplier range — and solving faster,
        // since the time stretch is s.
        let value_factor = max_coeff / max_gain;
        let matrix = a.scaled(1.0 / value_factor);
        // γ so that the expected solution peak lands at margin·full_scale.
        let solution_factor = (solution_bound / (margin * full_scale)).max(f64::MIN_POSITIVE);
        Ok(ScaledSystem {
            matrix,
            value_factor,
            solution_factor,
        })
    }

    /// The right-hand side to program: `b̃ = b / (s·γ)`, element-wise.
    pub fn scale_rhs(&self, b: &[f64]) -> Vec<f64> {
        let k = 1.0 / (self.value_factor * self.solution_factor);
        b.iter().map(|v| v * k).collect()
    }

    /// A solution in the hardware domain, `ũ = u / γ` (a run's initial
    /// state).
    pub fn scale_solution(&self, u: &[f64]) -> Vec<f64> {
        u.iter().map(|v| v / self.solution_factor).collect()
    }

    /// Recovers the true solution from the hardware steady state:
    /// `u = γ·ũ`.
    pub fn unscale_solution(&self, scaled: &[f64]) -> Vec<f64> {
        scaled.iter().map(|v| v * self.solution_factor).collect()
    }

    /// Doubles the solution headroom — the host's response to an overflow
    /// exception ("the original problem is scaled to fit in the dynamic
    /// range of the analog accelerator and computation is reattempted").
    pub fn grow_headroom(&mut self) {
        self.solution_factor *= 2.0;
    }

    /// Shrinks the solution headroom by `factor ∈ (0, 1)` — the host's
    /// response to dynamic-range *underuse*, which "may result in low
    /// precision" (§III-B): a smaller `γ` makes both the programmed rhs and
    /// the steady state larger relative to full scale.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor < 1`.
    pub fn shrink_headroom(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor < 1.0,
            "shrink factor must be in (0, 1), got {factor}"
        );
        self.solution_factor *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_linalg::stencil::PoissonStencil;
    use aa_linalg::LinearOperator;

    #[test]
    fn scaling_preserves_solution() {
        // Solve both the raw and scaled systems digitally; steady states
        // must agree after unscaling.
        let a = CsrMatrix::tridiagonal(5, -100.0, 250.0, -100.0).unwrap();
        let b = vec![50.0; 5];
        let scaled = ScaledSystem::new(&a, 1.0, 1.0, 0.9, 1.0).unwrap();
        assert!(scaled.value_factor >= 250.0);
        assert!(scaled.matrix.max_abs() <= 1.0 + 1e-12);

        let exact = aa_linalg::direct::solve(&a.to_dense(), &b).unwrap();
        let b_scaled = scaled.scale_rhs(&b);
        let u_scaled = aa_linalg::direct::solve(&scaled.matrix.to_dense(), &b_scaled).unwrap();
        let recovered = scaled.unscale_solution(&u_scaled);
        for (r, e) in recovered.iter().zip(&exact) {
            assert!((r - e).abs() < 1e-10, "{r} vs {e}");
        }
    }

    #[test]
    fn poisson_value_factor_grows_like_l_squared() {
        // §VI-D: coefficients ∝ L², so s ∝ L² and solve time stretches ∝ L².
        let s = |l: usize| {
            let op = PoissonStencil::new_2d(l).unwrap();
            let a = CsrMatrix::from_row_access(&op);
            ScaledSystem::new(&a, 1.0, 1.0, 0.9, 1.0)
                .unwrap()
                .value_factor
        };
        let s8 = s(8);
        let s16 = s(16);
        let ratio = s16 / s8;
        // ((17)/(9))² ≈ 3.57.
        assert!((ratio - (17.0f64 / 9.0).powi(2)).abs() < 1e-9, "{ratio}");
        assert_eq!(s(8), 4.0 * 81.0); // 4/h² with h = 1/9
    }

    #[test]
    fn small_matrices_are_scaled_up_to_the_gain_limit() {
        // Canonicalization: the largest coefficient always lands at the
        // gain limit, so logically identical problems program identical
        // circuits regardless of their numeric scale.
        let a = CsrMatrix::tridiagonal(3, -0.1, 0.3, -0.1).unwrap();
        let scaled = ScaledSystem::new(&a, 1.0, 1.0, 0.9, 1.0).unwrap();
        assert!((scaled.value_factor - 0.3).abs() < 1e-15);
        assert!((scaled.matrix.max_abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn headroom_growth_halves_programmed_rhs() {
        let a = CsrMatrix::identity(2);
        let mut scaled = ScaledSystem::new(&a, 1.0, 1.0, 0.9, 1.0).unwrap();
        let b = vec![0.5, 0.5];
        let before = scaled.scale_rhs(&b);
        scaled.grow_headroom();
        let after = scaled.scale_rhs(&b);
        for (x, y) in before.iter().zip(&after) {
            assert!((y * 2.0 - x).abs() < 1e-15);
        }
        // Unscaling compensates exactly.
        let u = vec![0.25, 0.25];
        let rec1 = scaled.unscale_solution(&u);
        assert_eq!(rec1[0], 0.25 * scaled.solution_factor);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let a = CsrMatrix::from_triplets(2, &[aa_linalg::Triplet::new(0, 0, 0.0)]).unwrap();
        assert!(ScaledSystem::new(&a, 1.0, 1.0, 0.9, 1.0).is_err());
        let id = CsrMatrix::identity(2);
        assert!(ScaledSystem::new(&id, 0.0, 1.0, 0.9, 1.0).is_err());
        assert!(ScaledSystem::new(&id, 1.0, 1.0, 1.5, 1.0).is_err());
        assert!(ScaledSystem::new(&id, 1.0, 1.0, 0.9, f64::NAN).is_err());
    }

    #[test]
    fn scaled_matrix_keeps_structure() {
        let op = PoissonStencil::new_2d(4).unwrap();
        let a = CsrMatrix::from_row_access(&op);
        let scaled = ScaledSystem::new(&a, 1.0, 1.0, 0.9, 1.0).unwrap();
        assert_eq!(scaled.matrix.nnz(), a.nnz());
        assert_eq!(scaled.matrix.dim(), a.dim());
        // Applying both to the same vector differs exactly by s.
        let x: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0).collect();
        let raw = a.apply_vec(&x);
        let scl = scaled.matrix.apply_vec(&x);
        for (r, s_) in raw.iter().zip(&scl) {
            assert!((r - s_ * scaled.value_factor).abs() < 1e-9 * r.abs().max(1.0));
        }
    }
}
