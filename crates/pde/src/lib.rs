//! PDE substrate: the problems the analog accelerator is evaluated on.
//!
//! The paper's Figure 4 taxonomy maps physical phenomena (PDEs) down to the
//! sparse systems of linear equations the accelerator solves. This crate
//! covers the elliptic path the paper evaluates:
//!
//! * [`poisson`] — elliptic PDEs: the 2D/3D Poisson problems of §IV-B and
//!   §V, discretized by second-order central differences, with Dirichlet
//!   boundary handling and manufactured solutions for error measurement.
//! * [`multigrid`] — geometric multigrid (V- and W-cycles) with a pluggable
//!   coarse-grid solver, so "less stable, inaccurate, low precision
//!   techniques, such as analog acceleration, may also be used to support
//!   multigrid" (§IV-A).
//!
//! ```
//! use aa_pde::poisson::Poisson2d;
//!
//! # fn main() -> Result<(), aa_pde::PdeError> {
//! // -∇²u = f on the unit square with u = 0 on the boundary.
//! let problem = Poisson2d::new(15, |x, y| (std::f64::consts::PI * x).sin()
//!     * (std::f64::consts::PI * y).sin())?;
//! let solution = problem.solve_reference(1e-10)?;
//! assert_eq!(solution.len(), 15 * 15);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod multigrid;
pub mod poisson;

pub use error::PdeError;
pub use multigrid::{CgCoarseSolver, CoarseSolver, MultigridReport, MultigridSolver};
pub use poisson::{Poisson2d, Poisson3d};
