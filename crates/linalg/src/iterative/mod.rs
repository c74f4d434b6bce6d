//! Classical iterative solvers for `A·x = b`.
//!
//! These are the five algorithms compared in the paper's Figure 7 — conjugate
//! gradients, steepest descent, successive over-relaxation, Gauss–Seidel, and
//! Jacobi — plus the shared configuration, stopping criteria, and reporting
//! machinery. Every solver records a per-iteration residual history and an
//! operation count so the hardware model can convert algorithmic work into
//! time and energy.
//!
//! ```
//! use aa_linalg::CsrMatrix;
//! use aa_linalg::iterative::{cg, jacobi, IterativeConfig};
//!
//! # fn main() -> Result<(), aa_linalg::LinalgError> {
//! let a = CsrMatrix::tridiagonal(8, -1.0, 2.0, -1.0)?;
//! let b = vec![1.0; 8];
//! let cfg = IterativeConfig::default();
//! let fast = cg(&a, &b, &cfg)?;
//! let slow = jacobi(&a, &b, &cfg)?;
//! assert!(fast.iterations < slow.iterations); // CG converges fastest (Fig. 7)
//! # Ok(())
//! # }
//! ```

mod cg;
mod gauss_seidel;
mod jacobi;
mod sor;
mod steepest;

pub use cg::{cg, cg_observed};
pub use gauss_seidel::{gauss_seidel, gauss_seidel_observed};
pub use jacobi::{jacobi, jacobi_observed};
pub use sor::{sor, sor_observed, sor_optimal_omega};
pub use steepest::{steepest_descent, steepest_descent_observed};

use crate::LinalgError;

/// Which iterative method produced a [`SolveReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Method {
    /// Jacobi (simultaneous displacement).
    Jacobi,
    /// Gauss–Seidel (successive displacement).
    GaussSeidel,
    /// Successive over-relaxation.
    Sor,
    /// Steepest gradient descent — the discrete-time analogue of the
    /// continuous gradient flow the analog accelerator performs.
    SteepestDescent,
    /// Conjugate gradients — the paper's strongest digital baseline.
    ConjugateGradient,
}

impl Method {
    /// Short lowercase label matching the paper's Figure 7 legend.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Jacobi => "jacobi",
            Method::GaussSeidel => "gs",
            Method::Sor => "sor",
            Method::SteepestDescent => "steepest",
            Method::ConjugateGradient => "cg",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// When an iterative solver should declare convergence.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum StoppingCriterion {
    /// Stop when `‖b − A·x‖₂ ≤ tol`.
    AbsoluteResidual(f64),
    /// Stop when `‖b − A·x‖₂ ≤ tol · ‖b‖₂`.
    RelativeResidual(f64),
    /// Stop when no element of `x` changes by more than `tol` between
    /// consecutive iterations.
    ///
    /// With `tol = 1/256` of full scale this is the paper's digital stopping
    /// rule for matching one analog run through an 8-bit ADC (§V, "Accuracy").
    MaxChange(f64),
}

impl StoppingCriterion {
    /// The paper's equal-accuracy rule for a `bits`-bit ADC: stop when no
    /// element changes by more than one code, `1/2^bits`, of full scale.
    pub fn adc_equivalent(bits: u32) -> Self {
        StoppingCriterion::MaxChange(1.0 / f64::from(2u32).powi(bits as i32))
    }
}

/// Configuration shared by all iterative solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct IterativeConfig {
    /// Hard iteration cap; solvers return `converged = false` when it is hit.
    pub max_iterations: usize,
    /// Convergence test applied once per iteration.
    pub stopping: StoppingCriterion,
    /// Starting iterate; `None` means the zero vector (the paper's `u_init`).
    pub initial_guess: Option<Vec<f64>>,
    /// SOR relaxation factor; ignored by other methods. Must lie in (0, 2).
    pub omega: f64,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        IterativeConfig {
            max_iterations: 100_000,
            stopping: StoppingCriterion::RelativeResidual(1e-10),
            initial_guess: None,
            omega: 1.5,
        }
    }
}

impl IterativeConfig {
    /// Convenience constructor setting only the stopping rule.
    pub fn with_stopping(stopping: StoppingCriterion) -> Self {
        IterativeConfig {
            stopping,
            ..IterativeConfig::default()
        }
    }

    /// Returns a copy with the iteration cap replaced.
    pub fn max_iterations(mut self, max: usize) -> Self {
        self.max_iterations = max;
        self
    }

    /// Returns a copy with the initial guess replaced.
    pub fn initial_guess(mut self, guess: Vec<f64>) -> Self {
        self.initial_guess = Some(guess);
        self
    }

    /// Returns a copy with the SOR relaxation factor replaced.
    pub fn omega(mut self, omega: f64) -> Self {
        self.omega = omega;
        self
    }

    /// Validates the configuration against a problem of dimension `n`.
    pub(crate) fn validate(&self, n: usize) -> Result<Vec<f64>, LinalgError> {
        if let Some(guess) = &self.initial_guess {
            if guess.len() != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    actual: guess.len(),
                    context: "initial guess",
                });
            }
            Ok(guess.clone())
        } else {
            Ok(vec![0.0; n])
        }
    }
}

/// Floating-point operation counts accumulated during a solve.
///
/// The paper's GPU energy model charges 225 pJ per multiply-add; these counts
/// are what `aa-hwmodel` multiplies that constant by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Matrix–vector products performed.
    pub matvecs: usize,
    /// Total floating-point operations (adds + multiplies), approximate.
    pub flops: usize,
    /// Fused multiply-add count (the unit the 225 pJ/op GPU model charges).
    pub fma: usize,
}

impl WorkCounters {
    pub(crate) fn add_matvec(&mut self, nnz: usize) {
        self.matvecs += 1;
        self.flops += 2 * nnz;
        self.fma += nnz;
    }

    pub(crate) fn add_dot(&mut self, n: usize) {
        self.flops += 2 * n;
        self.fma += n;
    }

    pub(crate) fn add_axpy(&mut self, n: usize) {
        self.flops += 2 * n;
        self.fma += n;
    }
}

/// The result of an iterative solve: solution, convergence flag, and history.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Which method ran.
    pub method: Method,
    /// The final iterate.
    pub solution: Vec<f64>,
    /// Whether the stopping criterion was met before `max_iterations`.
    pub converged: bool,
    /// Iterations actually performed.
    pub iterations: usize,
    /// `‖b − A·x‖₂` after each iteration (index 0 is after iteration 1).
    pub residual_history: Vec<f64>,
    /// Final residual norm.
    pub final_residual: f64,
    /// Algorithmic work, for the hardware cost models.
    pub work: WorkCounters,
}

/// Internal driver state shared by the solver implementations.
pub(crate) struct Driver {
    pub(crate) x: Vec<f64>,
    pub(crate) report_residuals: Vec<f64>,
    pub(crate) work: WorkCounters,
    stopping: StoppingCriterion,
    rhs_norm: f64,
}

impl Driver {
    pub(crate) fn new(x: Vec<f64>, stopping: StoppingCriterion, b: &[f64]) -> Self {
        Driver {
            x,
            report_residuals: Vec::new(),
            work: WorkCounters::default(),
            stopping,
            rhs_norm: crate::vector::norm2(b),
        }
    }

    /// Records this iteration's residual norm and reports whether the
    /// stopping rule is satisfied. `max_change` is the largest element-wise
    /// update this iteration (for [`StoppingCriterion::MaxChange`]).
    pub(crate) fn step_done(&mut self, residual_norm: f64, max_change: f64) -> bool {
        self.report_residuals.push(residual_norm);
        match self.stopping {
            StoppingCriterion::AbsoluteResidual(tol) => residual_norm <= tol,
            StoppingCriterion::RelativeResidual(tol) => {
                residual_norm <= tol * self.rhs_norm.max(f64::MIN_POSITIVE)
            }
            StoppingCriterion::MaxChange(tol) => max_change <= tol,
        }
    }

    pub(crate) fn finish(self, method: Method, converged: bool, iterations: usize) -> SolveReport {
        let final_residual = self.report_residuals.last().copied().unwrap_or(f64::NAN);
        SolveReport {
            method,
            solution: self.x,
            converged,
            iterations,
            residual_history: self.report_residuals,
            final_residual,
            work: self.work,
        }
    }
}

/// Checks that operator and right-hand side are compatible.
pub(crate) fn check_system<M: crate::LinearOperator>(
    a: &M,
    b: &[f64],
) -> Result<usize, LinalgError> {
    let n = a.dim();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            actual: b.len(),
            context: "right-hand side",
        });
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn method_labels_match_figure7_legend() {
        assert_eq!(Method::ConjugateGradient.label(), "cg");
        assert_eq!(Method::SteepestDescent.label(), "steepest");
        assert_eq!(Method::Sor.to_string(), "sor");
        assert_eq!(Method::GaussSeidel.label(), "gs");
        assert_eq!(Method::Jacobi.label(), "jacobi");
    }

    #[test]
    fn adc_equivalent_is_one_code() {
        assert_eq!(
            StoppingCriterion::adc_equivalent(8),
            StoppingCriterion::MaxChange(1.0 / 256.0)
        );
        assert_eq!(
            StoppingCriterion::adc_equivalent(12),
            StoppingCriterion::MaxChange(1.0 / 4096.0)
        );
    }

    #[test]
    fn config_builder_chains() {
        let cfg = IterativeConfig::with_stopping(StoppingCriterion::AbsoluteResidual(1e-6))
            .max_iterations(10)
            .omega(1.2)
            .initial_guess(vec![1.0, 2.0]);
        assert_eq!(cfg.max_iterations, 10);
        assert_eq!(cfg.omega, 1.2);
        assert_eq!(cfg.initial_guess, Some(vec![1.0, 2.0]));
    }

    #[test]
    fn validate_rejects_bad_guess_length() {
        let cfg = IterativeConfig::default().initial_guess(vec![0.0; 3]);
        assert!(cfg.validate(4).is_err());
        assert_eq!(cfg.validate(3).unwrap(), vec![0.0; 3]);
        assert_eq!(
            IterativeConfig::default().validate(2).unwrap(),
            vec![0.0; 2]
        );
    }

    #[test]
    fn work_counters_accumulate() {
        let mut w = WorkCounters::default();
        w.add_matvec(10);
        w.add_dot(4);
        w.add_axpy(4);
        assert_eq!(w.matvecs, 1);
        assert_eq!(w.flops, 20 + 8 + 8);
        assert_eq!(w.fma, 18);
    }

    #[test]
    fn all_solvers_agree_on_spd_system() {
        let a = CsrMatrix::tridiagonal(16, -1.0, 2.0, -1.0).unwrap();
        let b: Vec<f64> = (0..16).map(|i| ((i % 5) as f64) - 2.0).collect();
        let cfg = IterativeConfig::with_stopping(StoppingCriterion::AbsoluteResidual(1e-9));
        let reference = cg(&a, &b, &cfg).unwrap();
        assert!(reference.converged);
        for report in [
            jacobi(&a, &b, &cfg).unwrap(),
            gauss_seidel(&a, &b, &cfg).unwrap(),
            sor(&a, &b, &cfg).unwrap(),
            steepest_descent(&a, &b, &cfg).unwrap(),
        ] {
            assert!(report.converged, "{} did not converge", report.method);
            for (x, r) in report.solution.iter().zip(&reference.solution) {
                assert!(
                    (x - r).abs() < 1e-6,
                    "{} disagrees with CG: {x} vs {r}",
                    report.method
                );
            }
        }
    }

    #[test]
    fn convergence_ordering_matches_figure7() {
        // Figure 7: CG fastest, then steepest/SOR, then GS, then Jacobi.
        let a = CsrMatrix::tridiagonal(32, -1.0, 2.0, -1.0).unwrap();
        let b = vec![1.0; 32];
        let cfg = IterativeConfig::with_stopping(StoppingCriterion::AbsoluteResidual(1e-8));
        let it = |r: SolveReport| r.iterations;
        let cg_iters = it(cg(&a, &b, &cfg).unwrap());
        let gs_iters = it(gauss_seidel(&a, &b, &cfg).unwrap());
        let jac_iters = it(jacobi(&a, &b, &cfg).unwrap());
        assert!(cg_iters < gs_iters);
        assert!(gs_iters < jac_iters);
    }
}
