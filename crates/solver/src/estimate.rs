//! Predicted solve times, validated against the circuit simulation.
//!
//! The hwmodel's analytical settle-time formula
//! (`aa_hwmodel::analog_solve_time_s`) predicts Figure 8/9 timings for
//! problems far larger than the circuit simulator can run; this module
//! provides the general-matrix version and the glue to check the analytic
//! model against measured engine runs for small problems.

use aa_hwmodel::design::AcceleratorDesign;
use aa_linalg::eigen;
use aa_linalg::CsrMatrix;

use crate::SolverError;

/// The smallest eigenvalue of the value-scaled matrix, `λ_min(A)/max|a_ij|`
/// — the settle rate of the analog flow per integrator time constant
/// (estimated numerically by shifted power iteration).
///
/// Admission pricing ([`predicted_solve_time_s`]) and the solver's settle
/// tolerance (`AnalogSystemSolver::new`) both read it, so they share one
/// estimate.
///
/// # Errors
///
/// Returns [`SolverError::InvalidProblem`] if the matrix is zero, if the
/// power iteration did not converge (a shifted power iteration that stops
/// early over-estimates `λ_min`, which would under-price the solve and stop
/// analog runs too early), or if the estimate is non-positive (matrix not
/// positive definite).
pub fn scaled_lambda_min(a: &CsrMatrix) -> Result<f64, SolverError> {
    let scale = a.max_abs();
    if scale == 0.0 {
        return Err(SolverError::invalid("matrix has no non-zero coefficient"));
    }
    let est = eigen::smallest_eigenvalue(a, 200_000, 1e-10)?;
    if !est.converged {
        return Err(SolverError::invalid(format!(
            "smallest-eigenvalue estimate did not converge in {} iterations",
            est.iterations
        )));
    }
    if est.value <= 0.0 {
        return Err(SolverError::invalid(
            "matrix must be positive definite for the gradient flow to settle",
        ));
    }
    Ok(est.value / scale)
}

/// Predicted analog settle time for solving `A·u = b` on `design`, seconds.
///
/// `t = ln(2^bits) / (ω_u · λ̃_min)` where `λ̃_min` is the smallest
/// eigenvalue of the value-scaled matrix `A / max|a_ij|`
/// ([`scaled_lambda_min`]).
///
/// # Errors
///
/// As [`scaled_lambda_min`].
pub fn predicted_solve_time_s(
    a: &CsrMatrix,
    design: &AcceleratorDesign,
) -> Result<f64, SolverError> {
    let lambda_scaled = scaled_lambda_min(a)?;
    let precision = f64::from(2u32).powi(design.adc_bits as i32);
    Ok(precision.ln() / (design.omega() * lambda_scaled))
}

/// Amortizes a sequential settle-time estimate over a `columns`-wide
/// coalesced sweep: `estimate / max(columns, 1)`.
///
/// Batched columns advance in lockstep and complete together: one K-lane
/// sweep settles in the same wall time as a single solve (the settle rate
/// is a property of the matrix, not of the lane count), so a request
/// served inside a K-wide sweep is billed `1/K` of the sweep. This is the
/// **single** batch-amortization rule — admission control and drain hints
/// both route through it, so the fleet's deadline arithmetic can never
/// drift from the estimator's.
pub fn amortized_solve_time_s(estimate_s: f64, columns: usize) -> f64 {
    estimate_s / columns.max(1) as f64
}

/// Predicted analog time for a Krylov-preconditioned request: one
/// supervised analog solve per preconditioner application, `applications`
/// applications per FCG solve, never coalesced (each application's
/// right-hand side depends on the previous iteration's residual, so
/// Krylov requests cannot share a multi-RHS sweep).
///
/// This is the deadline profile the fleet prices `SolveMode::KrylovPrecond`
/// requests against (aa-sched) — deliberately the same code path as the
/// direct estimate, scaled instead of amortized.
pub fn krylov_solve_time_s(estimate_s: f64, applications: usize) -> f64 {
    estimate_s * applications.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{AnalogSystemSolver, SolverConfig};
    use aa_hwmodel::timing::{analog_solve_time_s, PoissonProblem};
    use aa_linalg::stencil::PoissonStencil;
    use aa_linalg::LinearOperator;

    #[test]
    fn general_estimate_matches_poisson_closed_form() {
        let l = 8;
        let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(l).unwrap());
        let design = AcceleratorDesign::prototype_20khz();
        let general = predicted_solve_time_s(&a, &design).unwrap();
        let closed = analog_solve_time_s(&design, &PoissonProblem::new_2d(l));
        assert!(
            (general - closed).abs() / closed < 0.02,
            "{general} vs {closed}"
        );
    }

    #[test]
    fn analytic_model_matches_circuit_simulation() {
        // The load-bearing validation: the hwmodel timing formula (used for
        // Figures 8/9 at large N) agrees with the behavioural circuit
        // simulation at small N, up to the steady-detection threshold's
        // logarithmic factor.
        let l = 4;
        let a = CsrMatrix::from_row_access(&PoissonStencil::new_1d(l).unwrap());
        let cfg = SolverConfig::ideal().adc_bits(12);
        let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
        let b = vec![0.02; l];
        let measured = solver.solve(&b).unwrap().analog_time_s;

        let design = AcceleratorDesign::new("test", cfg.bandwidth_hz, cfg.adc_bits);
        let predicted = predicted_solve_time_s(&a, &design).unwrap();
        // The engine stops once the readout is within half an ADC code of
        // its settled state, the model at the converter's precision: both
        // are exponential settles with the same rate constant. The measured
        // time also sums the underuse re-runs of the first solve's γ walk.
        let ratio = measured / predicted;
        assert!(
            ratio > 0.3 && ratio < 3.0,
            "measured {measured:.3e} vs predicted {predicted:.3e} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn settle_time_tracks_the_converter_precision_model() {
        // The engine stops once the readout is within half an ADC code of
        // the settled state. From rest that takes about
        // ln(2√n·|ũ|/lsb)/λ̃_min time constants against the model's
        // ln(2^bits)/λ̃_min, so one settled 12-bit run lands within a few
        // tens of percent of the prediction.
        let cfg = SolverConfig::ideal().adc_bits(12);
        let design = AcceleratorDesign::new("test", cfg.bandwidth_hz, cfg.adc_bits);
        for a in [
            CsrMatrix::from_row_access(&PoissonStencil::new_1d(4).unwrap()),
            CsrMatrix::from_row_access(&PoissonStencil::new_1d(12).unwrap()),
            CsrMatrix::from_row_access(&PoissonStencil::new_2d(4).unwrap()),
            CsrMatrix::from_row_access(&PoissonStencil::new_2d(8).unwrap()),
            CsrMatrix::tridiagonal(9, -1.0, 2.2, -1.0).unwrap(),
        ] {
            let n = a.dim();
            let rhs = |k: usize| -> Vec<f64> {
                (0..n)
                    .map(|i| 0.3 + 0.05 * ((i * 7 + k * 3) % 5) as f64)
                    .collect()
            };
            let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
            // The first solve walks γ; time a run at the settled scale.
            solver.solve(&rhs(0)).unwrap();
            let report = solver.solve(&rhs(1)).unwrap();
            assert_eq!(report.runs, 1);
            let predicted = predicted_solve_time_s(&a, &design).unwrap();
            let ratio = report.analog_time_s / predicted;
            assert!(
                ratio > 0.8 && ratio < 1.5,
                "n = {n}: measured {:.3e} vs predicted {predicted:.3e} (ratio {ratio:.2})",
                report.analog_time_s
            );
        }
    }

    #[test]
    fn amortization_and_krylov_profiles_share_the_estimate() {
        // One sequential estimate; both deadline profiles are pure scalings
        // of it (floored widths/counts reproduce it exactly).
        assert_eq!(amortized_solve_time_s(8.0, 4), 2.0);
        assert_eq!(amortized_solve_time_s(8.0, 0), 8.0);
        assert_eq!(krylov_solve_time_s(8.0, 6), 48.0);
        assert_eq!(krylov_solve_time_s(8.0, 0), 8.0);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = CsrMatrix::from_triplets(
            2,
            &[
                aa_linalg::Triplet::new(0, 0, 1.0),
                aa_linalg::Triplet::new(1, 1, -1.0),
            ],
        )
        .unwrap();
        assert!(predicted_solve_time_s(&a, &AcceleratorDesign::prototype_20khz()).is_err());
    }

    #[test]
    fn non_converged_estimate_rejected() {
        // Eigenvalues 2 ± i√2: the shifted power iteration never settles,
        // and its last iterate is no bound on the flow's settle rate.
        let a = CsrMatrix::from_triplets(
            2,
            &[
                aa_linalg::Triplet::new(0, 0, 2.0),
                aa_linalg::Triplet::new(0, 1, 2.0),
                aa_linalg::Triplet::new(1, 0, -1.0),
                aa_linalg::Triplet::new(1, 1, 2.0),
            ],
        )
        .unwrap();
        assert!(scaled_lambda_min(&a).is_err());
        assert!(predicted_solve_time_s(&a, &AcceleratorDesign::prototype_20khz()).is_err());
    }

    #[test]
    fn zero_matrix_rejected() {
        let a = CsrMatrix::from_triplets(1, &[aa_linalg::Triplet::new(0, 0, 0.0)]).unwrap();
        assert!(predicted_solve_time_s(&a, &AcceleratorDesign::prototype_20khz()).is_err());
    }
}
