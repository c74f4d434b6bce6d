//! The analog accelerator inside digital multigrid (paper §IV-A).
//!
//! "Because perfect convergence is not required, less stable, inaccurate,
//! low precision techniques, such as analog acceleration, may also be used
//! to support multigrid." [`AnalogCoarseSolver`] implements
//! [`aa_pde::CoarseSolver`], so a digital V-cycle can delegate its
//! coarse-grid systems to the accelerator. Coarse solves run under the
//! [`SupervisedSolver`] recovery loop, so a transient accelerator fault
//! degrades a V-cycle to the digital fallback instead of failing it.
//! Compiled solver instances are cached per grid size (the coarse matrix
//! never changes between cycles) in a bounded least-recently-used cache.

use std::collections::BTreeMap;

use aa_linalg::stencil::PoissonStencil;
use aa_linalg::CsrMatrix;
use aa_pde::{CoarseSolver, PdeError};

use crate::recover::{FinalPath, RecoveryConfig, SupervisedSolver};
use crate::solve::SolverConfig;

/// Number of per-grid-size solver instances kept compiled; the least
/// recently used one is evicted first.
const CACHE_CAPACITY: usize = 8;

/// An [`aa_pde::CoarseSolver`] backed by the supervised analog accelerator.
///
/// ```
/// use aa_pde::{MultigridSolver, poisson::Poisson2d};
/// use aa_solver::{AnalogCoarseSolver, SolverConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = Poisson2d::new(15, |_, _| 1.0)?;
/// let mg = MultigridSolver::new(15)?;
/// let mut coarse = AnalogCoarseSolver::new(SolverConfig::ideal());
/// let report = mg.solve(problem.rhs(), &mut coarse, 1e-8, 50)?;
/// assert!(report.converged);
/// assert_eq!(coarse.cache_misses(), 1); // one grid size, compiled once
/// assert!(coarse.cache_hits() > 0); // …and reused every cycle after
/// # Ok(())
/// # }
/// ```
pub struct AnalogCoarseSolver {
    config: SolverConfig,
    /// One compiled supervised solver per coarse grid size, tagged with a
    /// last-use stamp for LRU eviction.
    cache: BTreeMap<usize, (u64, SupervisedSolver)>,
    stamp: u64,
    /// Total simulated analog time spent in coarse solves, seconds.
    analog_time_s: f64,
    /// Coarse solves performed.
    solves: usize,
    cache_hits: usize,
    cache_misses: usize,
    /// Coarse solves whose answer came from the digital fallback after
    /// analog recovery was exhausted.
    fallback_solves: usize,
}

impl std::fmt::Debug for AnalogCoarseSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalogCoarseSolver")
            .field("cached_sizes", &self.cache.keys().collect::<Vec<_>>())
            .field("solves", &self.solves)
            .field("cache_hits", &self.cache_hits)
            .field("cache_misses", &self.cache_misses)
            .field("fallback_solves", &self.fallback_solves)
            .field("analog_time_s", &self.analog_time_s)
            .finish()
    }
}

impl AnalogCoarseSolver {
    /// Creates a coarse solver that instantiates accelerators per grid size
    /// on demand, with the default recovery policy.
    pub fn new(config: SolverConfig) -> Self {
        AnalogCoarseSolver {
            config,
            cache: BTreeMap::new(),
            stamp: 0,
            analog_time_s: 0.0,
            solves: 0,
            cache_hits: 0,
            cache_misses: 0,
            fallback_solves: 0,
        }
    }

    /// Total simulated analog time consumed so far (including rejected
    /// recovery attempts).
    pub fn analog_time_s(&self) -> f64 {
        self.analog_time_s
    }

    /// Number of coarse solves performed.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Coarse solves served by an already-compiled solver instance.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Coarse solves that had to compile (or recompile after eviction) a
    /// solver instance.
    pub fn cache_misses(&self) -> usize {
        self.cache_misses
    }

    fn evict_lru(&mut self) {
        if let Some(&l) = self
            .cache
            .iter()
            .min_by_key(|(_, (stamp, _))| *stamp)
            .map(|(l, _)| l)
        {
            self.cache.remove(&l);
        }
    }
}

impl CoarseSolver for AnalogCoarseSolver {
    fn solve_coarse(&mut self, a: &PoissonStencil, b: &[f64]) -> Result<Vec<f64>, PdeError> {
        let l = a.points_per_side();
        if self.cache.contains_key(&l) {
            self.cache_hits += 1;
            aa_obs::counter("solver.coarse.cache_hits", 1);
        } else {
            self.cache_misses += 1;
            aa_obs::counter("solver.coarse.cache_misses", 1);
            let matrix = CsrMatrix::from_row_access(a);
            let solver = SupervisedSolver::new(&matrix, &self.config, &RecoveryConfig::default())
                .map_err(|e| PdeError::InvalidGrid {
                message: format!("analog coarse solver construction failed: {e}"),
            })?;
            if self.cache.len() >= CACHE_CAPACITY {
                self.evict_lru();
            }
            self.cache.insert(l, (self.stamp, solver));
        }
        self.stamp += 1;
        let entry = self.cache.get_mut(&l).expect("inserted above");
        entry.0 = self.stamp;
        let report = entry.1.solve(b).map_err(|e| PdeError::InvalidGrid {
            message: format!("analog coarse solve failed: {e}"),
        })?;
        self.analog_time_s += report.recovery.analog_time_s();
        self.solves += 1;
        if report.recovery.final_path == FinalPath::DigitalFallback {
            self.fallback_solves += 1;
            aa_obs::counter("solver.coarse.fallback_solves", 1);
        }
        Ok(report.solution)
    }

    fn label(&self) -> &str {
        "analog"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_pde::poisson::Poisson2d;
    use aa_pde::{CgCoarseSolver, MultigridSolver};

    #[test]
    fn multigrid_with_analog_coarse_grid_converges() {
        let problem = Poisson2d::new(15, |_, _| 1.0).unwrap();
        let mg = MultigridSolver::new(15).unwrap();
        let mut analog = AnalogCoarseSolver::new(SolverConfig::ideal());
        let report = mg.solve(problem.rhs(), &mut analog, 1e-8, 60).unwrap();
        assert!(report.converged);
        assert!(analog.solves() > 0);
        assert!(analog.analog_time_s() > 0.0);
        assert_eq!(analog.fallback_solves, 0);
        // Same answer as the all-digital path.
        let mut digital = CgCoarseSolver::default();
        let reference = mg.solve(problem.rhs(), &mut digital, 1e-10, 60).unwrap();
        for (x, e) in report.solution.iter().zip(&reference.solution) {
            assert!((x - e).abs() < 1e-5, "{x} vs {e}");
        }
    }

    #[test]
    fn imprecise_8bit_coarse_solver_costs_extra_cycles_but_converges() {
        // The paper's core multigrid claim: low-precision coarse solves are
        // repaired by repeating the cycle.
        let problem = Poisson2d::new(15, |x, y| x + y).unwrap();
        let mg = MultigridSolver::new(15).unwrap();

        let mut digital = CgCoarseSolver::default();
        let d = mg.solve(problem.rhs(), &mut digital, 1e-8, 60).unwrap();

        let coarse_cfg = SolverConfig::ideal().adc_bits(8);
        let mut analog = AnalogCoarseSolver::new(coarse_cfg);
        let a = mg.solve(problem.rhs(), &mut analog, 1e-8, 60).unwrap();

        assert!(a.converged);
        assert!(
            a.cycles >= d.cycles,
            "8-bit coarse solves cannot beat exact ones: {} vs {}",
            a.cycles,
            d.cycles
        );
        assert!(a.cycles <= d.cycles + 6, "but the penalty stays small");
    }

    #[test]
    fn solver_cache_reuses_compiled_circuits() {
        let problem = Poisson2d::new(15, |_, _| 1.0).unwrap();
        let mg = MultigridSolver::new(15).unwrap();
        let mut analog = AnalogCoarseSolver::new(SolverConfig::ideal());
        mg.solve(problem.rhs(), &mut analog, 1e-8, 60).unwrap();
        // The hierarchy only has one coarsest size (3), so one cache entry
        // but many solves.
        assert_eq!(analog.cache.len(), 1);
        assert!(analog.solves() > 1);
        assert_eq!(analog.cache_misses(), 1);
        assert_eq!(analog.cache_hits(), analog.solves() - 1);
        assert_eq!(analog.label(), "analog");
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used_size() {
        let mut analog = AnalogCoarseSolver::new(SolverConfig::ideal());
        let solve = |analog: &mut AnalogCoarseSolver, l: usize| {
            let stencil = PoissonStencil::new_1d(l).unwrap();
            analog.solve_coarse(&stencil, &vec![1.0; l]).unwrap();
        };
        // Fill the cache with sizes 3, 4, …, then touch 3 again.
        let sizes: Vec<usize> = (3..3 + CACHE_CAPACITY).collect();
        for &l in &sizes {
            solve(&mut analog, l); // miss
        }
        solve(&mut analog, 3); // hit, 3 now most recent
        let extra = 3 + CACHE_CAPACITY;
        solve(&mut analog, extra); // miss, evicts 4
        assert_eq!(analog.cache.len(), CACHE_CAPACITY);
        assert!(analog.cache.contains_key(&3) && analog.cache.contains_key(&extra));
        assert!(!analog.cache.contains_key(&4));
        solve(&mut analog, 4); // recompile 4
        assert_eq!(analog.cache_misses(), CACHE_CAPACITY + 2);
        assert_eq!(analog.cache_hits(), 1);
        assert_eq!(analog.solves(), CACHE_CAPACITY + 3);
    }
}
