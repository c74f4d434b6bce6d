//! Analog solution-time model.
//!
//! The analog accelerator solves `A·u = b` by settling the gradient flow
//! `du/dt = ω_u·(b − Ã·u)` where `Ã = A/s` is the value-scaled matrix whose
//! coefficients fit the multiplier gain range (§VI inset). The slowest
//! decaying mode is `e^{−ω_u·λ̃_min·t}`, so reaching a target precision of
//! `2^{−bits}` takes
//!
//! ```text
//! t = ln(2^bits) / (ω_u · λ̃_min),   λ̃_min = λ_min(A) / s.
//! ```
//!
//! For the 2D Poisson operator, `s = 4/h²` (the diagonal) and
//! `λ_min = (8/h²)·sin²(πh/2)`, giving `λ̃_min = 2·sin²(πh/2) ≈ π²h²/2 ∝ 1/N`
//! — solution time **linear in the number of grid points**, the paper's
//! Figure 8 shape and its Table III "Conv. time ∝ N" entry. The same closed
//! form gives `∝ N` in 1D with `N = L` and `∝ N` in 3D with `N = L³`… with
//! the per-dimension λ̃ worked out below.
//!
//! Absolute constants differ from the paper's Figure 8 (whose absolute scale
//! comes from the authors' unpublished Cadence circuit-level simulations);
//! every *relative* claim — linear-in-N growth, `1/bandwidth` speedup, the
//! existence of an analog/digital crossover — is preserved and tested.

use crate::design::AcceleratorDesign;

/// A `d`-dimensional Poisson model problem with `l` interior points per side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoissonProblem {
    /// Interior points per side (`L`).
    pub points_per_side: usize,
    /// Spatial dimensionality (1, 2, or 3).
    pub dimensionality: usize,
}

impl PoissonProblem {
    /// A 1D problem of `l` points.
    pub fn new_1d(l: usize) -> Self {
        PoissonProblem {
            points_per_side: l,
            dimensionality: 1,
        }
    }

    /// A 2D problem of `l × l` points.
    pub fn new_2d(l: usize) -> Self {
        PoissonProblem {
            points_per_side: l,
            dimensionality: 2,
        }
    }

    /// A 3D problem of `l × l × l` points.
    pub fn new_3d(l: usize) -> Self {
        PoissonProblem {
            points_per_side: l,
            dimensionality: 3,
        }
    }

    /// Total grid points `N = L^d`.
    pub fn grid_points(&self) -> usize {
        self.points_per_side.pow(self.dimensionality as u32)
    }
}

/// The smallest eigenvalue of the *value-scaled* Poisson matrix `A/s`
/// (`s` = the diagonal `2d/h²`, the largest coefficient): `λ̃_min =
/// 2·sin²(π·h/2)` independent of dimension, with `h = 1/(L+1)`.
///
/// This is the decay rate that sets the analog settle time; it shrinks like
/// `1/L²`, which after `N = L^d` becomes the Table III time columns.
pub fn scaled_poisson_lambda_min(problem: &PoissonProblem) -> f64 {
    let h = 1.0 / (problem.points_per_side as f64 + 1.0);
    let s = (std::f64::consts::PI * h / 2.0).sin();
    2.0 * s * s
}

/// Analog solution time to one ADC-resolution of precision, in seconds.
///
/// `t = ln(2^bits) / (ω_u · λ̃_min)` — linear in `L²` (so linear in `N` for
/// 2D problems), inversely proportional to bandwidth.
pub fn analog_solve_time_s(design: &AcceleratorDesign, problem: &PoissonProblem) -> f64 {
    let precision = f64::from(2u32).powi(design.adc_bits as i32);
    precision.ln() / (design.omega() * scaled_poisson_lambda_min(problem))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_by_dimension() {
        assert_eq!(PoissonProblem::new_1d(7).grid_points(), 7);
        assert_eq!(PoissonProblem::new_2d(7).grid_points(), 49);
        assert_eq!(PoissonProblem::new_3d(7).grid_points(), 343);
    }

    #[test]
    fn solve_time_is_linear_in_grid_points_2d() {
        // Figure 8 / Table III: time ∝ N for 2D problems.
        let d = AcceleratorDesign::prototype_20khz();
        let t1 = analog_solve_time_s(&d, &PoissonProblem::new_2d(16));
        let t2 = analog_solve_time_s(&d, &PoissonProblem::new_2d(32));
        // N grows 4×, time should grow ≈4× (within small-h corrections).
        let ratio = t2 / t1;
        assert!((ratio - 4.0).abs() < 0.4, "ratio = {ratio}");
    }

    #[test]
    fn bandwidth_divides_solve_time() {
        let p = PoissonProblem::new_2d(20);
        let slow = analog_solve_time_s(&AcceleratorDesign::new("a", 20e3, 12), &p);
        let fast = analog_solve_time_s(&AcceleratorDesign::new("b", 80e3, 12), &p);
        assert!((slow / fast - 4.0).abs() < 1e-9);
    }

    #[test]
    fn higher_precision_costs_log_time() {
        let p = PoissonProblem::new_2d(20);
        let t8 = analog_solve_time_s(&AcceleratorDesign::new("a", 20e3, 8), &p);
        let t12 = analog_solve_time_s(&AcceleratorDesign::new("a", 20e3, 12), &p);
        assert!((t12 / t8 - 12.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_lambda_matches_continuum_limit() {
        // λ̃ → π²h²/2 for fine grids.
        let p = PoissonProblem::new_2d(100);
        let h = 1.0 / 101.0;
        let expect = std::f64::consts::PI.powi(2) * h * h / 2.0;
        let got = scaled_poisson_lambda_min(&p);
        assert!((got - expect).abs() / expect < 1e-3);
    }
}
