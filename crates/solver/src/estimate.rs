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
    slowest_mode(a).map(|(lambda, _)| lambda)
}

/// [`scaled_lambda_min`] together with the eigenvector `v₁` the same
/// iteration converged to (unit 2-norm): the analog flow's slowest mode,
/// which `AnalogSystemSolver` takes out of every warm start.
///
/// # Errors
///
/// As [`scaled_lambda_min`].
pub(crate) fn slowest_mode(a: &CsrMatrix) -> Result<(f64, Vec<f64>), SolverError> {
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
    Ok((est.value / scale, est.vector))
}

/// Predicted analog settle time for solving `A·u = b` on `design`, seconds.
///
/// `t = ln(2^bits) / (ω_u · λ̃_min)` where `λ̃_min` is the smallest
/// eigenvalue of the value-scaled matrix `A / max|a_ij|`
/// ([`scaled_lambda_min`]).
///
/// This prices a run from rest to full converter precision, which no
/// served run makes any more: every run starts from the Galerkin guess on
/// the slow modes and `b` (and the slot's last answer once it has one), and
/// a supervised run stops at its tolerance less its readout floor. So the
/// price over-states what a served request takes; the admission price that
/// reads each run's own start and stop is an open ROADMAP item.
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
    use crate::solve::{AnalogSystemSolver, SolverConfig, WarmSlot};
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
        // The model prices a run from rest; this b's answer lies in the
        // span of the first run's guess, which would settle at once.
        solver.start_at_rest();
        assert!(solver.starts_at_rest(&b, WarmSlot::Request));
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
        // the settled state. A run from rest takes about
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
            // The first solve walks γ; the second starts warm from its
            // answer. Time a run from rest at the settled scale on a fresh
            // solver.
            solver.solve(&rhs(0)).unwrap();
            let warm = solver.solve(&rhs(1)).unwrap();
            let mut fresh = AnalogSystemSolver::new(&a, &cfg).unwrap();
            fresh.set_solution_factor(warm.solution_factor);
            fresh.start_at_rest();
            assert!(fresh.starts_at_rest(&rhs(1), WarmSlot::Request));
            let report = fresh.solve(&rhs(1)).unwrap();
            assert_eq!(report.runs, 1);
            let predicted = predicted_solve_time_s(&a, &design).unwrap();
            let ratio = report.analog_time_s / predicted;
            assert!(
                ratio > 0.8 && ratio < 1.5,
                "n = {n}: measured {:.3e} vs predicted {predicted:.3e} (ratio {ratio:.2})",
                report.analog_time_s
            );
            assert!(
                warm.analog_time_s <= report.analog_time_s,
                "n = {n}: warm {:.3e} vs cold {:.3e}",
                warm.analog_time_s,
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
