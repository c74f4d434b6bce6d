//! The paper's core contribution: solving systems of linear equations on a
//! continuous-time analog accelerator.
//!
//! `A·u = b` is solved by configuring the accelerator to integrate the
//! gradient flow `du/dt = b − A·u(t)` (paper Equation 2, Figure 5); when the
//! derivative settles to zero the steady state read out through the ADCs
//! satisfies the system. Around that kernel this crate implements every
//! supporting technique the paper describes:
//!
//! * [`scaling`] — value/time scaling (§VI inset): matrices whose
//!   coefficients exceed the multiplier gain range are scaled down by `s`,
//!   stretching solve time by `s` but leaving the steady state unchanged.
//! * [`mapping`] — compiling a sparse matrix into a crossbar netlist:
//!   integrator-per-variable, fanout trees for variable distribution, and
//!   the two-multipliers-per-row optimization for stencil matrices whose
//!   off-diagonals share a value.
//! * [`solve`] — the [`AnalogSystemSolver`] driver: program, run, check
//!   overflow exceptions, rescale-and-retry, read out with `analogAvg`.
//! * [`refine`] — the paper's Algorithm 2: build arbitrary precision from a
//!   low-precision accelerator by repeatedly solving for the residual and
//!   rescaling it into the hardware's dynamic range — optionally with
//!   two-float compensated residual accumulation to push past the f64
//!   accuracy ceiling.
//! * [`krylov`] — the inverted hybrid: the noisy analog solve as a
//!   *preconditioner application* inside digital flexible CG, demoting to
//!   Jacobi/identity when the recovery ladder exhausts.
//! * [`decompose`] — §IV-B block domain decomposition: problems larger than
//!   the integrator array are split into blocks solved per-run, iterated to
//!   global convergence with block-Jacobi or block-Gauss–Seidel sweeps.
//! * [`hybrid`] — the analog accelerator as the coarse-grid solver inside
//!   digital multigrid (§IV-A).
//! * [`recover`] — the [`SupervisedSolver`] robustness layer: every analog
//!   result is validated with a digital residual check, failures are
//!   classified (transient / drift / persistent), and recovery escalates
//!   from cooled-down retries through recalibration and remapping to a
//!   digital CG fallback.
//! * [`lstsq`] — the normal-equations flow `du/dt = Aᵀ(b − A·u)` of the
//!   classical analog-computing literature, which extends the accelerator
//!   to non-symmetric and indefinite systems at double the hardware cost.
//! * [`nonlinear`] — the paper's §VI-F future work: semilinear systems
//!   `A·u + D·φ(u) = b` settled with the nonlinearity in the SRAM lookup
//!   tables, verified against a damped-Newton digital reference.
//! * [`estimate`] — predicted solve times wired to the `aa-hwmodel`
//!   design-point models, validated against the circuit simulation.
//!
//! # Quick start
//!
//! ```
//! use aa_linalg::CsrMatrix;
//! use aa_solver::{AnalogSystemSolver, SolverConfig};
//!
//! # fn main() -> Result<(), aa_solver::SolverError> {
//! // A small SPD system.
//! let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0)?;
//! let b = vec![1.0, 0.0, 0.0, 1.0];
//! let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal())?;
//! let report = solver.solve(&b)?;
//! // One analog run reaches ADC-limited precision.
//! let exact = vec![1.0, 1.0, 1.0, 1.0];
//! for (x, e) in report.solution.iter().zip(&exact) {
//!     assert!((x - e).abs() < 0.02, "{x} vs {e}");
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod decompose;
pub mod estimate;
pub mod hybrid;
pub mod krylov;
pub mod lstsq;
pub mod mapping;
pub mod nonlinear;
pub mod recover;
pub mod refine;
pub mod scaling;
pub mod solve;

pub use aa_linalg::parallel::ParallelConfig;
pub use decompose::{solve_decomposed, DecomposeConfig, DecomposedReport, OuterMethod};
pub use error::SolverError;
pub use hybrid::AnalogCoarseSolver;
pub use krylov::{
    fcg_solve, AnalogPreconditioner, KrylovConfig, KrylovReport, PrecondKind, PrecondStats,
};
pub use lstsq::{solve_least_squares_analog, LeastSquaresReport};
pub use mapping::{MappedSystem, MappingStrategy};
pub use nonlinear::{
    solve_semilinear_analog, solve_semilinear_newton, NonlinearSolveReport, SemilinearSystem,
};
pub use recover::{
    AttemptRecord, FailureClass, FinalPath, RecoveryAction, RecoveryConfig, RecoveryReport,
    SupervisedCheckpoint, SupervisedSolveReport, SupervisedSolver,
};
pub use refine::{RefineConfig, RefinedReport};
pub use scaling::ScaledSystem;
pub use solve::{
    AnalogSolveReport, AnalogSystemSolver, BatchColumn, SolverCheckpoint, SolverConfig,
};
