//! `analog-accel`: a full reproduction of *Evaluation of an Analog
//! Accelerator for Linear Algebra* (Huang, Guo, Seok, Tsividis,
//! Sethumadhavan — ISCA 2016) as a Rust workspace.
//!
//! This umbrella crate defines [`algorithm1`], the paper's Algorithm 1
//! (scalar Euler), and re-exports the subsystem crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`linalg`] | `aa-linalg` | dense/sparse matrices, stencils, direct & iterative solvers |
//! | [`analog`] | `aa-analog` | the behavioural chip model + Table I ISA |
//! | [`hwmodel`] | `aa-hwmodel` | Table II costs, bandwidth scaling, digital baselines |
//! | [`solver`] | `aa-solver` | the analog linear-algebra solver (the paper's contribution) |
//! | [`pde`] | `aa-pde` | Poisson problems, multigrid |
//! | [`obs`] | `aa-obs` | structured tracing/metrics with a deterministic replay journal |
//! | [`sched`] | `aa-sched` | chip-fleet scheduler: batched solve service with admission control |
//!
//! # The headline flow
//!
//! ```
//! use analog_accel::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. An elliptic PDE, discretized (paper §IV-B).
//! let problem = Poisson2d::new(4, |x, y| x * y)?;
//! let a = problem.assemble();
//!
//! // 2. Compile it onto an analog accelerator and solve by gradient flow.
//! let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal())?;
//! let analog = solver.solve(problem.rhs())?;
//!
//! // 3. Compare against the digital gold standard.
//! let digital = problem.solve_reference(1e-12)?;
//! for (x, e) in analog.solution.iter().zip(&digital) {
//!     assert!((x - e).abs() < 1e-3);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aa_analog as analog;
pub use aa_hwmodel as hwmodel;
pub use aa_linalg as linalg;
pub use aa_obs as obs;
pub use aa_pde as pde;
pub use aa_sched as sched;
pub use aa_solver as solver;

mod euler;
pub use euler::algorithm1;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use aa_analog::{
        AnalogChip, ChipConfig, EngineOptions, FaultEvent, FaultKind, FaultPlan, Host, Instruction,
        Rail, Response,
    };
    pub use aa_hwmodel::{AcceleratorDesign, CpuModel, GpuModel};
    pub use aa_linalg::iterative::{cg, IterativeConfig, StoppingCriterion};
    pub use aa_linalg::stencil::PoissonStencil;
    pub use aa_linalg::{CsrMatrix, DenseMatrix, LinearOperator, RowAccess, Triplet};
    pub use aa_obs::{MemoryRecorder, Recorder, TraceSnapshot};
    pub use aa_pde::poisson::{Poisson2d, Poisson3d};
    pub use aa_pde::{CgCoarseSolver, MultigridSolver};
    pub use aa_sched::{
        AdmissionWal, Backoff, ChipFailure, CompletionPath, FleetCheckpoint, FleetConfig,
        FleetService, Priority, Rejected, ScheduleLog, SolveMode, SolveRequest, SolveTicket,
    };
    pub use aa_solver::refine::solve_refined;
    pub use aa_solver::{
        fcg_solve, solve_decomposed, AnalogCoarseSolver, AnalogPreconditioner, AnalogSystemSolver,
        DecomposeConfig, FailureClass, FinalPath, KrylovConfig, KrylovReport, RecoveryConfig,
        RefineConfig, SolverConfig, SupervisedSolver,
    };
}
