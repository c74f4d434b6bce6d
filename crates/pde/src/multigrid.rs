//! Geometric multigrid for the 2D Poisson problem, with a pluggable
//! coarse-grid solver.
//!
//! Paper §IV-A: "imprecise solutions from analog acceleration are still
//! useful in multigrid partial differential equation solvers … Because
//! perfect convergence is not required, less stable, inaccurate, low
//! precision techniques, such as analog acceleration, may also be used to
//! support multigrid." The [`CoarseSolver`] trait is the seam where an
//! analog accelerator plugs in; [`CgCoarseSolver`] is the all-digital
//! default.
//!
//! The implementation is a textbook V/W-cycle: weighted-Jacobi smoothing,
//! full-weighting restriction, bilinear prolongation, on a hierarchy of
//! grids with `L = 2^k − 1` points per side.

use aa_linalg::iterative::{cg, IterativeConfig, StoppingCriterion};
use aa_linalg::parallel::{ParallelConfig, WorkerPool};
use aa_linalg::stencil::PoissonStencil;
use aa_linalg::{vector, LinearOperator, RowAccess};

use crate::PdeError;

/// Solves the coarsest-level system `A·u = b`. Implementations may be
/// approximate: multigrid tolerates imprecise coarse solutions (that is the
/// paper's point).
pub trait CoarseSolver {
    /// Solves (possibly approximately) the coarse system.
    ///
    /// # Errors
    ///
    /// Implementation-defined; a failed analog run, for example.
    fn solve_coarse(&mut self, a: &PoissonStencil, b: &[f64]) -> Result<Vec<f64>, PdeError>;

    /// A short label for reports ("cg", "analog", ...).
    fn label(&self) -> &str {
        "coarse"
    }
}

/// The default all-digital coarse solver: CG to a tight tolerance.
#[derive(Debug, Clone)]
pub struct CgCoarseSolver {
    /// Relative residual tolerance of the coarse solve.
    pub tolerance: f64,
}

impl Default for CgCoarseSolver {
    fn default() -> Self {
        CgCoarseSolver { tolerance: 1e-12 }
    }
}

impl CoarseSolver for CgCoarseSolver {
    fn solve_coarse(&mut self, a: &PoissonStencil, b: &[f64]) -> Result<Vec<f64>, PdeError> {
        let cfg =
            IterativeConfig::with_stopping(StoppingCriterion::RelativeResidual(self.tolerance));
        Ok(cg(a, b, &cfg)?.solution)
    }

    fn label(&self) -> &str {
        "cg"
    }
}

/// Cycle shape: V (one coarse visit) or W (two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleType {
    /// V-cycle: recurse once per level.
    V,
    /// W-cycle: recurse twice per level (more robust, more work).
    W,
}

/// The outcome of a multigrid solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MultigridReport {
    /// The final fine-grid iterate.
    pub solution: Vec<f64>,
    /// Cycles performed.
    pub cycles: usize,
    /// `‖b − A·u‖₂` after each cycle.
    pub residual_history: Vec<f64>,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Geometric multigrid on the unit square.
///
/// ```
/// use aa_pde::multigrid::{MultigridSolver, CgCoarseSolver};
/// use aa_pde::poisson::Poisson2d;
///
/// # fn main() -> Result<(), aa_pde::PdeError> {
/// let problem = Poisson2d::new(31, |_, _| 1.0)?;
/// let mg = MultigridSolver::new(31)?;
/// let report = mg.solve(problem.rhs(), &mut CgCoarseSolver::default(), 1e-10, 50)?;
/// assert!(report.converged);
/// assert!(report.cycles < 15); // textbook multigrid: ~10 cycles
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultigridSolver {
    /// Grid operators from finest (index 0) to coarsest.
    levels: Vec<PoissonStencil>,
    /// Pre-smoothing sweeps per level.
    pub pre_smooth: usize,
    /// Post-smoothing sweeps per level.
    pub post_smooth: usize,
    /// Weighted-Jacobi damping factor.
    pub omega: f64,
    /// Cycle shape.
    pub cycle: CycleType,
}

impl MultigridSolver {
    /// Builds the grid hierarchy for a fine grid of `l` points per side.
    ///
    /// # Errors
    ///
    /// Returns [`PdeError::InvalidGrid`] unless `l = 2^k − 1` with `k ≥ 2`.
    pub fn new(l: usize) -> Result<Self, PdeError> {
        if l < 3 || (l + 1) & l != 0 {
            return Err(PdeError::invalid_grid(format!(
                "multigrid needs l = 2^k - 1 with k >= 2, got {l}"
            )));
        }
        let mut levels = Vec::new();
        let mut side = l;
        loop {
            levels.push(
                PoissonStencil::new_2d(side).map_err(|e| PdeError::invalid_grid(e.to_string()))?,
            );
            if side <= 3 {
                break;
            }
            side = (side - 1) / 2;
        }
        Ok(MultigridSolver {
            levels,
            pre_smooth: 2,
            post_smooth: 2,
            omega: 0.8,
            cycle: CycleType::V,
        })
    }

    /// Number of levels in the hierarchy.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The coarsest grid's points per side.
    pub fn coarsest_side(&self) -> usize {
        self.levels
            .last()
            .expect("hierarchy is never empty")
            .points_per_side()
    }

    /// Runs cycles until `‖b − A·u‖₂ ≤ tolerance·‖b‖₂` or `max_cycles`.
    ///
    /// # Errors
    ///
    /// * [`PdeError::InvalidGrid`] if `b.len()` does not match the fine grid.
    /// * Coarse-solver failures.
    pub fn solve<C: CoarseSolver>(
        &self,
        b: &[f64],
        coarse: &mut C,
        tolerance: f64,
        max_cycles: usize,
    ) -> Result<MultigridReport, PdeError> {
        let fine = &self.levels[0];
        if b.len() != fine.dim() {
            return Err(PdeError::invalid_grid(format!(
                "rhs has {} entries, fine grid needs {}",
                b.len(),
                fine.dim()
            )));
        }
        let b_norm = vector::norm2(b).max(f64::MIN_POSITIVE);
        let mut u = vec![0.0; fine.dim()];
        let mut history = Vec::new();
        let mut converged = false;
        let mut cycles = 0;
        for _ in 0..max_cycles {
            self.cycle_level(0, &mut u, b, coarse)?;
            cycles += 1;
            let res = fine.residual_norm(&u, b);
            history.push(res);
            if res <= tolerance * b_norm {
                converged = true;
                break;
            }
        }
        Ok(MultigridReport {
            solution: u,
            cycles,
            residual_history: history,
            converged,
        })
    }

    /// Solves many independent right-hand sides through a [`WorkerPool`]
    /// spun up once for the whole batch. Each worker owns a clone of the
    /// grid hierarchy, and every solve gets its own coarse solver from
    /// `make_coarse` (coarse solvers are stateful — caches, accelerator
    /// chips — so they cannot be shared), so results come back in input
    /// order, identical to running [`MultigridSolver::solve`] serially on
    /// each rhs with a fresh coarse solver — for any thread count.
    ///
    /// # Errors
    ///
    /// The first failing solve, in input order.
    pub fn solve_batch<C, F>(
        &self,
        rhss: &[Vec<f64>],
        make_coarse: F,
        tolerance: f64,
        max_cycles: usize,
        parallel: &ParallelConfig,
    ) -> Result<Vec<MultigridReport>, PdeError>
    where
        C: CoarseSolver,
        F: Fn() -> C + Send + Sync + 'static,
    {
        let workers = parallel.effective_threads(rhss.len());
        let states: Vec<MultigridSolver> = (0..workers).map(|_| self.clone()).collect();
        let mut pool = WorkerPool::new(states, move |mg: &mut MultigridSolver, _i, b: Vec<f64>| {
            let mut coarse = make_coarse();
            mg.solve(&b, &mut coarse, tolerance, max_cycles)
        });
        pool.map(rhss.to_vec()).into_iter().collect()
    }

    /// One multigrid cycle at `level`, improving `u` for `A_level·u = b`.
    fn cycle_level<C: CoarseSolver>(
        &self,
        level: usize,
        u: &mut [f64],
        b: &[f64],
        coarse: &mut C,
    ) -> Result<(), PdeError> {
        let a = &self.levels[level];
        if level == self.levels.len() - 1 {
            let solved = coarse.solve_coarse(a, b)?;
            u.copy_from_slice(&solved);
            return Ok(());
        }

        for _ in 0..self.pre_smooth {
            weighted_jacobi_sweep(a, u, b, self.omega);
        }

        // Coarse-grid correction.
        let residual = a.residual(u, b);
        let coarse_b = restrict(&residual, a.points_per_side());
        let coarse_n = self.levels[level + 1].dim();
        let mut coarse_u = vec![0.0; coarse_n];
        let visits = match self.cycle {
            CycleType::V => 1,
            CycleType::W => 2,
        };
        for _ in 0..visits {
            self.cycle_level(level + 1, &mut coarse_u, &coarse_b, coarse)?;
        }
        let correction = prolong(&coarse_u, self.levels[level + 1].points_per_side());
        for (ui, ci) in u.iter_mut().zip(&correction) {
            *ui += ci;
        }

        for _ in 0..self.post_smooth {
            weighted_jacobi_sweep(a, u, b, self.omega);
        }
        Ok(())
    }
}

/// One weighted-Jacobi sweep: `u ← u + ω·D⁻¹·(b − A·u)`.
fn weighted_jacobi_sweep(a: &PoissonStencil, u: &mut [f64], b: &[f64], omega: f64) {
    let r = a.residual(u, b);
    let inv_diag = 1.0 / a.diagonal(0);
    for (ui, ri) in u.iter_mut().zip(&r) {
        *ui += omega * inv_diag * ri;
    }
}

/// Full-weighting restriction from a fine grid of side `l_fine = 2·l_c + 1`
/// to the coarse grid of side `l_c`.
fn restrict(fine: &[f64], l_fine: usize) -> Vec<f64> {
    assert!(l_fine >= 3 && l_fine % 2 == 1, "fine side must be odd >= 3");
    let l_c = (l_fine - 1) / 2;
    let at = |i: isize, j: isize| -> f64 {
        if i < 0 || j < 0 || i as usize >= l_fine || j as usize >= l_fine {
            0.0
        } else {
            fine[j as usize * l_fine + i as usize]
        }
    };
    let mut coarse = vec![0.0; l_c * l_c];
    for jc in 0..l_c {
        for ic in 0..l_c {
            let i = (2 * ic + 1) as isize;
            let j = (2 * jc + 1) as isize;
            coarse[jc * l_c + ic] = (4.0 * at(i, j)
                + 2.0 * (at(i - 1, j) + at(i + 1, j) + at(i, j - 1) + at(i, j + 1))
                + (at(i - 1, j - 1) + at(i + 1, j - 1) + at(i - 1, j + 1) + at(i + 1, j + 1)))
                / 16.0;
        }
    }
    coarse
}

/// Bilinear prolongation from a coarse grid of side `l_c` to the fine grid
/// of side `2·l_c + 1`.
fn prolong(coarse: &[f64], l_c: usize) -> Vec<f64> {
    let l_f = 2 * l_c + 1;
    let at = |ic: isize, jc: isize| -> f64 {
        if ic < 0 || jc < 0 || ic as usize >= l_c || jc as usize >= l_c {
            0.0
        } else {
            coarse[jc as usize * l_c + ic as usize]
        }
    };
    let mut fine = vec![0.0; l_f * l_f];
    for jf in 0..l_f {
        for if_ in 0..l_f {
            // Fine node (if_, jf) sits between coarse nodes at
            // ((if_-1)/2, (jf-1)/2) in the odd/even interpolation pattern.
            let v = match (if_ % 2, jf % 2) {
                (1, 1) => at((if_ as isize - 1) / 2, (jf as isize - 1) / 2),
                (0, 1) => {
                    0.5 * (at(if_ as isize / 2 - 1, (jf as isize - 1) / 2)
                        + at(if_ as isize / 2, (jf as isize - 1) / 2))
                }
                (1, 0) => {
                    0.5 * (at((if_ as isize - 1) / 2, jf as isize / 2 - 1)
                        + at((if_ as isize - 1) / 2, jf as isize / 2))
                }
                _ => {
                    0.25 * (at(if_ as isize / 2 - 1, jf as isize / 2 - 1)
                        + at(if_ as isize / 2, jf as isize / 2 - 1)
                        + at(if_ as isize / 2 - 1, jf as isize / 2)
                        + at(if_ as isize / 2, jf as isize / 2))
                }
            };
            fine[jf * l_f + if_] = v;
        }
    }
    fine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::Poisson2d;

    #[test]
    fn hierarchy_shape() {
        let mg = MultigridSolver::new(31).unwrap();
        assert_eq!(mg.depth(), 4); // 31 → 15 → 7 → 3
        assert_eq!(mg.coarsest_side(), 3);
        assert!(MultigridSolver::new(30).is_err());
        assert!(MultigridSolver::new(2).is_err());
        assert!(MultigridSolver::new(3).is_ok());
    }

    #[test]
    fn v_cycle_converges_grid_independently() {
        // Multigrid's hallmark: cycle count does not grow with resolution.
        let cycles = |l: usize| {
            let p = Poisson2d::new(l, |_, _| 1.0).unwrap();
            let mg = MultigridSolver::new(l).unwrap();
            let rep = mg
                .solve(p.rhs(), &mut CgCoarseSolver::default(), 1e-8, 60)
                .unwrap();
            assert!(rep.converged, "l = {l} did not converge");
            rep.cycles
        };
        let c15 = cycles(15);
        let c63 = cycles(63);
        assert!(c63 <= c15 + 3, "cycles grew: {c15} → {c63}");
    }

    #[test]
    fn solution_matches_cg_reference() {
        let p = Poisson2d::new(31, |x, y| (x * y).sin() + 1.0).unwrap();
        let mg = MultigridSolver::new(31).unwrap();
        let rep = mg
            .solve(p.rhs(), &mut CgCoarseSolver::default(), 1e-11, 100)
            .unwrap();
        let reference = p.solve_reference(1e-12).unwrap();
        for (a, b) in rep.solution.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn residual_contracts_every_cycle() {
        let p = Poisson2d::new(15, |_, _| 1.0).unwrap();
        let mg = MultigridSolver::new(15).unwrap();
        let rep = mg
            .solve(p.rhs(), &mut CgCoarseSolver::default(), 1e-12, 30)
            .unwrap();
        for pair in rep.residual_history.windows(2) {
            assert!(
                pair[1] < pair[0] * 0.6,
                "contraction factor too weak: {} → {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn w_cycle_also_converges() {
        let p = Poisson2d::new(15, |_, _| 1.0).unwrap();
        let mut mg = MultigridSolver::new(15).unwrap();
        mg.cycle = CycleType::W;
        let rep = mg
            .solve(p.rhs(), &mut CgCoarseSolver::default(), 1e-10, 30)
            .unwrap();
        assert!(rep.converged);
    }

    #[test]
    fn imprecise_coarse_solver_still_converges() {
        // The paper's claim: multigrid tolerates approximate coarse solves.
        struct Sloppy;
        impl CoarseSolver for Sloppy {
            fn solve_coarse(
                &mut self,
                a: &PoissonStencil,
                b: &[f64],
            ) -> Result<Vec<f64>, PdeError> {
                // A deliberately poor coarse solver: 8-bit-ish accuracy via
                // a handful of Jacobi sweeps.
                let mut u = vec![0.0; a.dim()];
                for _ in 0..12 {
                    weighted_jacobi_sweep(a, &mut u, b, 0.8);
                }
                Ok(u)
            }
            fn label(&self) -> &str {
                "sloppy"
            }
        }
        let p = Poisson2d::new(31, |_, _| 1.0).unwrap();
        let mg = MultigridSolver::new(31).unwrap();
        let rep = mg.solve(p.rhs(), &mut Sloppy, 1e-8, 100).unwrap();
        assert!(rep.converged, "overall accuracy is guaranteed by repeating");
    }

    #[test]
    fn batched_solves_match_serial_results_at_any_thread_count() {
        let mg = MultigridSolver::new(15).unwrap();
        let rhss: Vec<Vec<f64>> = (0..5)
            .map(|k| {
                let scale = k as f64 + 1.0;
                Poisson2d::new(15, move |x, y| x + y * scale)
                    .unwrap()
                    .rhs()
                    .to_vec()
            })
            .collect();
        let serial: Vec<MultigridReport> = rhss
            .iter()
            .map(|b| {
                mg.solve(b, &mut CgCoarseSolver::default(), 1e-8, 50)
                    .unwrap()
            })
            .collect();
        for threads in [1, 2, 4] {
            let batch = mg
                .solve_batch(
                    &rhss,
                    CgCoarseSolver::default,
                    1e-8,
                    50,
                    &ParallelConfig::threads(threads),
                )
                .unwrap();
            assert_eq!(batch, serial, "threads={threads}");
        }
    }

    #[test]
    fn restriction_and_prolongation_shapes() {
        let fine = vec![1.0; 7 * 7];
        let coarse = restrict(&fine, 7);
        assert_eq!(coarse.len(), 9);
        // Interior coarse nodes of a constant field keep the value.
        assert!((coarse[4] - 1.0).abs() < 1e-12);
        let back = prolong(&coarse, 3);
        assert_eq!(back.len(), 49);
        // The center, surrounded by full coarse support, round-trips.
        assert!((back[3 * 7 + 3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prolongation_is_transpose_of_restriction_up_to_scale() {
        // <R f, c> = ¼ <f, P c> for full weighting vs bilinear interpolation.
        let l_f = 7;
        let l_c = 3;
        let f: Vec<f64> = (0..l_f * l_f).map(|i| ((i * 31 + 7) % 13) as f64).collect();
        let c: Vec<f64> = (0..l_c * l_c).map(|i| ((i * 17 + 3) % 11) as f64).collect();
        let rf = restrict(&f, l_f);
        let pc = prolong(&c, l_c);
        let lhs: f64 = rf.iter().zip(&c).map(|(a, b)| a * b).sum();
        let rhs: f64 = f.iter().zip(&pc).map(|(a, b)| a * b).sum();
        assert!((lhs - 0.25 * rhs).abs() < 1e-9, "{lhs} vs {}", 0.25 * rhs);
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let mg = MultigridSolver::new(7).unwrap();
        assert!(mg
            .solve(&[1.0; 10], &mut CgCoarseSolver::default(), 1e-8, 5)
            .is_err());
    }
}
