//! Nonlinear systems of equations on the accelerator — the paper's stated
//! future work (§VI-F).
//!
//! "The solution of nonlinear PDEs … requir\[es\] Newton-Raphson method-based
//! iterative solvers. These iterative solvers have continuous time
//! formulations, which again involve solving ODEs of the form
//! du/dt = f(u(t)). It is within our near future work to investigate how
//! analog techniques can solve nonlinear problems."
//!
//! This module implements that: semilinear systems
//!
//! ```text
//! A·u + D·φ(u) = b          (φ applied element-wise, D diagonal)
//! ```
//!
//! are settled on the accelerator via the flow `du/dt = ω·(b − A·u − D·φ(u))`,
//! with φ programmed into the SRAM lookup tables — the same hardware
//! datapath the prototype uses for "arbitrary nonlinear functions, such as
//! sine, signum, and sigmoid". The flow converges whenever the Jacobian
//! `A + D·φ′(u)` stays positive definite (e.g. monotone φ with `D ≥ 0` and
//! SPD `A` — the nonlinear-Poisson case).
//!
//! A damped-Newton digital reference is included for verification.

use aa_analog::netlist::{InputPort, OutputPort};
use aa_analog::units::{ResourceInventory, UnitId};
use aa_analog::{AnalogChip, ChipConfig, EngineOptions, NonlinearFunction};
use aa_linalg::direct::LuFactor;
use aa_linalg::{vector, CsrMatrix, LinearOperator};

use crate::mapping::{resource_needs, MappingStrategy};
use crate::SolverError;

/// A semilinear system `A·u + D·φ(u) = b`.
#[derive(Debug, Clone)]
pub struct SemilinearSystem {
    /// The linear part `A` (must be pre-scaled into gain range).
    pub matrix: CsrMatrix,
    /// Diagonal nonlinear coefficients `D` (one per variable, `≥ 0` for
    /// guaranteed convergence with monotone φ).
    pub nonlinear_coeff: Vec<f64>,
    /// The element-wise nonlinearity φ.
    pub phi: NonlinearFunction,
}

impl SemilinearSystem {
    /// Creates the system, validating shapes.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] on a length mismatch.
    pub fn new(
        matrix: CsrMatrix,
        nonlinear_coeff: Vec<f64>,
        phi: NonlinearFunction,
    ) -> Result<Self, SolverError> {
        if nonlinear_coeff.len() != matrix.dim() {
            return Err(SolverError::invalid(format!(
                "nonlinear coefficient vector has {} entries, system has {}",
                nonlinear_coeff.len(),
                matrix.dim()
            )));
        }
        Ok(SemilinearSystem {
            matrix,
            nonlinear_coeff,
            phi,
        })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.matrix.dim()
    }

    /// Evaluates the residual `r = b − A·u − D·φ(u)` in double precision.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn residual(&self, u: &[f64], b: &[f64], full_scale: f64) -> Vec<f64> {
        assert_eq!(u.len(), self.dim(), "residual: state length mismatch");
        assert_eq!(b.len(), self.dim(), "residual: rhs length mismatch");
        let phi = self.phi.as_closure(full_scale);
        let mut r = self.matrix.apply_vec(u);
        for i in 0..self.dim() {
            r[i] = b[i] - r[i] - self.nonlinear_coeff[i] * phi(u[i]);
        }
        r
    }
}

/// Result of a nonlinear analog solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NonlinearSolveReport {
    /// The settled solution.
    pub solution: Vec<f64>,
    /// Simulated analog time, seconds.
    pub analog_time_s: f64,
    /// Final residual norm `‖b − A·u − D·φ(u)‖₂` (computed digitally).
    pub residual_norm: f64,
    /// Whether the flow settled before the time cap.
    pub reached_steady_state: bool,
}

/// Settles `A·u + D·φ(u) = b` on an analog accelerator.
///
/// The circuit per variable `i`: integrator → fanout → { neighbours' linear
/// multipliers, the diagonal multiplier, a lookup table programmed with φ
/// feeding a `−d_i` multiplier, the ADC }. The inputs must already be in
/// hardware range: `|a_ij| ≤ max_gain`, `|d_i| ≤ max_gain`, `|b_i| ≤ fs`,
/// and the solution must satisfy `|u_i| ≤ fs` (nonlinear problems do not
/// admit the linear value/time scaling of the §VI inset — the paper's
/// scaling trick genuinely does not transfer, which is part of why
/// nonlinear analog computing is future work).
///
/// # Choosing `steady_tol`
///
/// The SRAM tables are piecewise constant (256 levels on the prototype), so
/// when the fixed point lands on a plateau boundary the flow chatters with
/// derivative amplitude ≈ `d_i · 2·fs/depth` and never settles further.
/// Set `engine.steady_tol` at or above that chatter level (≈ `1e-3` for the
/// default table depth) or the run will spin to the time cap.
///
/// # Errors
///
/// * [`SolverError::InvalidProblem`] if coefficients exceed hardware range.
/// * [`SolverError::NoSteadyState`] if the flow does not settle.
pub fn solve_semilinear_analog(
    system: &SemilinearSystem,
    b: &[f64],
    template: &ChipConfig,
    engine: &EngineOptions,
) -> Result<NonlinearSolveReport, SolverError> {
    let n = system.dim();
    if b.len() != n {
        return Err(SolverError::invalid(format!(
            "rhs has {} entries, system has {n}",
            b.len()
        )));
    }
    if system.matrix.max_abs() > template.max_gain * (1.0 + 1e-12) {
        return Err(SolverError::invalid(
            "linear coefficients exceed the gain range",
        ));
    }
    let fs = template.full_scale;
    if system
        .nonlinear_coeff
        .iter()
        .any(|d| d.abs() > template.max_gain)
    {
        return Err(SolverError::invalid(
            "nonlinear coefficients exceed the gain range",
        ));
    }
    if b.iter().any(|v| v.abs() > fs) {
        return Err(SolverError::invalid("rhs exceeds full scale"));
    }

    // Resource plan: per-coefficient linear wiring plus, per variable with
    // d_i ≠ 0, one LUT, one extra multiplier, and one extra fanout branch.
    let linear = resource_needs(&system.matrix, MappingStrategy::PerCoefficient);
    let nonlinear_vars: Vec<usize> = (0..n)
        .filter(|i| system.nonlinear_coeff[*i] != 0.0)
        .collect();
    let inventory = ResourceInventory {
        integrators: n,
        multipliers: linear.multipliers + nonlinear_vars.len(),
        fanouts: n,
        fanout_branches: linear.fanout_branches + 1,
        adcs: n,
        dacs: n,
        luts: nonlinear_vars.len().max(1),
        analog_inputs: 1,
        analog_outputs: 1,
    };
    let config = ChipConfig {
        inventory,
        ..template.clone()
    };
    let mut chip = AnalogChip::new(config);

    let mut next_branch = vec![0usize; n];
    let mut take_branch = move |j: usize| {
        let k = next_branch[j];
        next_branch[j] += 1;
        k
    };

    // Spines, rhs DACs, and ADC readout.
    for (i, bi) in b.iter().enumerate() {
        chip.set_conn(
            OutputPort::of(UnitId::Integrator(i)),
            InputPort::of(UnitId::Fanout(i)),
        )?;
        let k = take_branch(i);
        chip.set_conn(
            OutputPort {
                unit: UnitId::Fanout(i),
                port: k,
            },
            InputPort::of(UnitId::Adc(i)),
        )?;
        chip.set_conn(
            OutputPort::of(UnitId::Dac(i)),
            InputPort::of(UnitId::Integrator(i)),
        )?;
        chip.set_dac_constant(i, *bi)?;
        chip.set_int_initial(i, 0.0)?;
    }

    // Linear couplings: per-coefficient wiring (simplest fully general).
    let mut next_mul = 0usize;
    for (i, j, v) in system.matrix.iter() {
        if v == 0.0 {
            continue;
        }
        let mul = next_mul;
        next_mul += 1;
        let k = take_branch(j);
        chip.set_conn(
            OutputPort {
                unit: UnitId::Fanout(j),
                port: k,
            },
            InputPort::of(UnitId::Multiplier(mul)),
        )?;
        chip.set_mul_gain(mul, -v)?;
        chip.set_conn(
            OutputPort::of(UnitId::Multiplier(mul)),
            InputPort::of(UnitId::Integrator(i)),
        )?;
    }

    // Nonlinear paths: u_i → LUT(φ) → multiplier(−d_i) → integrator i.
    for (lut_idx, &i) in nonlinear_vars.iter().enumerate() {
        let k = take_branch(i);
        chip.set_conn(
            OutputPort {
                unit: UnitId::Fanout(i),
                port: k,
            },
            InputPort::of(UnitId::Lut(lut_idx)),
        )?;
        let phi = system.phi.as_closure(fs);
        chip.set_function(lut_idx, phi)?;
        let mul = next_mul;
        next_mul += 1;
        chip.set_conn(
            OutputPort::of(UnitId::Lut(lut_idx)),
            InputPort::of(UnitId::Multiplier(mul)),
        )?;
        chip.set_mul_gain(mul, -system.nonlinear_coeff[i])?;
        chip.set_conn(
            OutputPort::of(UnitId::Multiplier(mul)),
            InputPort::of(UnitId::Integrator(i)),
        )?;
    }

    chip.cfg_commit()?;
    let report = chip.exec(engine)?;
    if !report.reached_steady_state {
        return Err(SolverError::NoSteadyState {
            waited_s: report.duration_s,
        });
    }
    let solution: Vec<f64> = (0..n).map(|i| report.integrator_values[&i]).collect();
    let residual_norm = vector::norm2(&system.residual(&solution, b, fs));
    Ok(NonlinearSolveReport {
        solution,
        analog_time_s: report.duration_s,
        residual_norm,
        reached_steady_state: report.reached_steady_state,
    })
}

/// Damped-Newton digital reference for `A·u + D·φ(u) = b`.
///
/// Uses a finite-difference derivative of φ and full LU solves — the
/// "vexing for digital algorithms" baseline the paper contrasts against.
///
/// # Errors
///
/// * [`SolverError::InvalidProblem`] on shape errors.
/// * [`SolverError::OuterNotConverged`] if Newton stalls.
pub fn solve_semilinear_newton(
    system: &SemilinearSystem,
    b: &[f64],
    full_scale: f64,
    tolerance: f64,
    max_iterations: usize,
) -> Result<Vec<f64>, SolverError> {
    let n = system.dim();
    if b.len() != n {
        return Err(SolverError::invalid(format!(
            "rhs has {} entries, system has {n}",
            b.len()
        )));
    }
    let phi = system.phi.as_closure(full_scale);
    let mut u = vec![0.0; n];
    let a_dense = system.matrix.to_dense();

    for _iter in 0..max_iterations {
        let r = system.residual(&u, b, full_scale);
        if vector::norm2(&r) <= tolerance {
            return Ok(u);
        }
        // J = A + D·φ′(u), φ′ by central differences.
        let mut jac = a_dense.clone();
        let eps = 1e-6;
        for (i, ui) in u.iter().enumerate() {
            let d_phi = (phi(ui + eps) - phi(ui - eps)) / (2.0 * eps);
            jac.set(i, i, jac.get(i, i) + system.nonlinear_coeff[i] * d_phi);
        }
        // Newton step with simple backtracking damping.
        let step = LuFactor::new(&jac)?.solve(&r)?;
        let mut alpha = 1.0;
        let r_norm = vector::norm2(&r);
        loop {
            let trial: Vec<f64> = u.iter().zip(&step).map(|(ui, s)| ui + alpha * s).collect();
            if vector::norm2(&system.residual(&trial, b, full_scale)) < r_norm || alpha < 1e-4 {
                u = trial;
                break;
            }
            alpha *= 0.5;
        }
    }
    let r = vector::norm2(&system.residual(&u, b, full_scale));
    if r <= tolerance {
        Ok(u)
    } else {
        Err(SolverError::OuterNotConverged {
            iterations: max_iterations,
            residual: r,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_linalg::stencil::PoissonStencil;

    /// A scaled 1D nonlinear Poisson: Ã·u + d·sigmoid(u) = b with Ã the
    /// unit-scaled stencil.
    fn nonlinear_poisson(n: usize, d: f64) -> SemilinearSystem {
        let raw = CsrMatrix::from_row_access(&PoissonStencil::new_1d(n).unwrap());
        let scaled = raw.scaled(1.0 / raw.max_abs());
        SemilinearSystem::new(
            scaled,
            vec![d; n],
            NonlinearFunction::Sigmoid { steepness: 4.0 },
        )
        .unwrap()
    }

    /// Engine options with a steady tolerance above the LUT chatter level.
    fn nonlinear_engine() -> EngineOptions {
        EngineOptions {
            steady_tol: Some(2e-3),
            max_tau: 2e4,
            ..EngineOptions::default()
        }
    }

    #[test]
    fn analog_and_newton_agree_on_nonlinear_poisson() {
        let system = nonlinear_poisson(5, 0.3);
        let b = vec![0.4, 0.1, -0.2, 0.1, 0.4];
        let newton = solve_semilinear_newton(&system, &b, 1.0, 1e-12, 50).unwrap();
        let analog =
            solve_semilinear_analog(&system, &b, &ChipConfig::ideal(), &nonlinear_engine())
                .unwrap();
        assert!(analog.reached_steady_state);
        for (x, e) in analog.solution.iter().zip(&newton) {
            // LUT quantization (8-bit tables) limits the match.
            assert!((x - e).abs() < 0.02, "{x} vs {e}");
        }
    }

    #[test]
    fn nonlinearity_actually_changes_the_answer() {
        // Sanity: the nonlinear term must matter in this test setup,
        // otherwise the previous test proves nothing.
        let system = nonlinear_poisson(5, 0.3);
        let linear_only = nonlinear_poisson(5, 0.0);
        let b = vec![0.4, 0.1, -0.2, 0.1, 0.4];
        let with = solve_semilinear_newton(&system, &b, 1.0, 1e-12, 50).unwrap();
        let without = solve_semilinear_newton(&linear_only, &b, 1.0, 1e-12, 50).unwrap();
        let diff: f64 = with
            .iter()
            .zip(&without)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff > 0.05, "nonlinear term too weak to test: {diff}");
    }

    #[test]
    fn cubic_like_nonlinearity_via_square_lut() {
        // u + d·(u²/fs) = b for a single variable: solvable in closed form.
        let a = CsrMatrix::identity(1);
        let system = SemilinearSystem::new(a, vec![0.5], NonlinearFunction::Square).unwrap();
        let b = vec![0.6];
        let report =
            solve_semilinear_analog(&system, &b, &ChipConfig::ideal(), &nonlinear_engine())
                .unwrap();
        // u + 0.5u² = 0.6 → u = (−1 + √(1 + 4·0.5·0.6))/(2·0.5) ≈ 0.48324.
        let exact = (-1.0 + (1.0f64 + 1.2).sqrt()) / 1.0;
        assert!(
            (report.solution[0] - exact).abs() < 0.01,
            "{} vs {exact}",
            report.solution[0]
        );
        assert!(report.residual_norm < 0.01);
    }

    #[test]
    fn out_of_range_inputs_rejected() {
        let a = CsrMatrix::tridiagonal(3, -2.0, 5.0, -2.0).unwrap(); // gains > 1
        let system = SemilinearSystem::new(a, vec![0.1; 3], NonlinearFunction::Identity).unwrap();
        let r = solve_semilinear_analog(
            &system,
            &[0.1; 3],
            &ChipConfig::ideal(),
            &nonlinear_engine(),
        );
        assert!(matches!(r, Err(SolverError::InvalidProblem { .. })));

        let small = nonlinear_poisson(3, 0.1);
        let r = solve_semilinear_analog(
            &small,
            &[2.0; 3], // rhs beyond full scale
            &ChipConfig::ideal(),
            &nonlinear_engine(),
        );
        assert!(matches!(r, Err(SolverError::InvalidProblem { .. })));

        assert!(SemilinearSystem::new(
            CsrMatrix::identity(2),
            vec![0.0; 3],
            NonlinearFunction::Identity
        )
        .is_err());
    }

    #[test]
    fn newton_reference_converges_quadratically_near_solution() {
        let system = nonlinear_poisson(4, 0.2);
        let b = vec![0.3; 4];
        // Loose vs tight tolerance should differ by few iterations only.
        let sol = solve_semilinear_newton(&system, &b, 1.0, 1e-13, 50).unwrap();
        let r = vector::norm2(&system.residual(&sol, &b, 1.0));
        assert!(r < 1e-13);
    }

    #[test]
    fn signum_nonlinearity_runs_without_divergence() {
        // A discontinuous φ: hardware clips and quantizes but the flow still
        // settles (the SRAM table makes φ piecewise constant, so the flow is
        // piecewise linear).
        let a = CsrMatrix::identity(2);
        let system = SemilinearSystem::new(a, vec![0.2; 2], NonlinearFunction::Signum).unwrap();
        let report = solve_semilinear_analog(
            &system,
            &[0.5, -0.5],
            &ChipConfig::ideal(),
            &EngineOptions {
                steady_tol: Some(5e-3),
                max_tau: 2e4,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        // u + 0.2·sgn(u) = ±0.5 → u = ±0.3.
        assert!((report.solution[0] - 0.3).abs() < 0.02);
        assert!((report.solution[1] + 0.3).abs() < 0.02);
    }
}
