//! Precision refinement — the paper's Algorithm 2.
//!
//! One analog run yields only as many bits as the ADC conversion. But "more
//! significant digits can be obtained from the analog result by solving more
//! times, each time setting b to be the residual, and scaling the problem up
//! as necessary to fully use the dynamic range of the analog hardware":
//!
//! ```text
//! u_precise ← 0;  residual ← b
//! while ‖residual‖ > tolerance:
//!     analog accelerator solves A·u_final = residual
//!     u_precise ← u_precise + u_final
//!     residual ← b − A·u_precise
//! ```
//!
//! The residual is computed digitally in double precision; the rescale into
//! dynamic range is what turns an 8-bit accelerator into an arbitrary-
//! precision solver (at one extra settle time per digit batch).

use aa_linalg::compensated::{self, TwoFloat};
use aa_linalg::{vector, LinearOperator};

use crate::solve::AnalogSystemSolver;
use crate::SolverError;

/// Options for the refinement loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineConfig {
    /// Stop when `‖b − A·u‖₂ ≤ tolerance·‖b‖₂`.
    pub tolerance: f64,
    /// Maximum analog solves.
    pub max_rounds: usize,
    /// Require at least this residual shrink per round; if a round fails to
    /// achieve it the loop stops early (hardware noise floor reached).
    pub min_progress: f64,
    /// Accumulate the solution and the residual `b − A·u` in two-float
    /// compensated arithmetic ([`aa_linalg::compensated`]). Plain f64
    /// refinement stalls once the true residual falls below the rounding
    /// noise of the f64 residual recompute (≈ `n·ε·cond(A)` relative); the
    /// compensated path keeps contracting past that ceiling.
    pub compensated: bool,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            tolerance: 1e-9,
            max_rounds: 20,
            min_progress: 0.9,
            compensated: false,
        }
    }
}

/// The outcome of a refined solve.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinedReport {
    /// The accumulated high-precision solution (leading f64 component).
    pub solution: Vec<f64>,
    /// Trailing two-float components of the solution when the compensated
    /// path ran (`solution[i] + solution_lo[i]` is the extended-precision
    /// iterate); `None` for plain f64 refinement.
    pub solution_lo: Option<Vec<f64>>,
    /// Relative residual after each round.
    pub residual_history: Vec<f64>,
    /// Analog runs used.
    pub rounds: usize,
    /// Total simulated analog time, seconds.
    pub analog_time_s: f64,
    /// Whether the tolerance was met (vs noise-floor/budget stop).
    pub converged: bool,
}

/// Runs Algorithm 2 on an [`AnalogSystemSolver`].
///
/// # Errors
///
/// * Propagates per-round solve failures.
/// * [`SolverError::OuterNotConverged`] if `max_rounds` pass without
///   reaching the tolerance *and* progress stalled on the very first round
///   (no useful digits at all).
pub fn solve_refined(
    solver: &mut AnalogSystemSolver,
    b: &[f64],
    config: &RefineConfig,
) -> Result<RefinedReport, SolverError> {
    let n = solver.dim();
    if b.len() != n {
        return Err(SolverError::invalid(format!(
            "rhs has {} entries, system has {n}",
            b.len()
        )));
    }
    let b_norm = vector::norm2(b);
    if b_norm == 0.0 {
        return Ok(RefinedReport {
            solution: vec![0.0; n],
            solution_lo: config.compensated.then(|| vec![0.0; n]),
            residual_history: vec![0.0],
            rounds: 0,
            analog_time_s: 0.0,
            converged: true,
        });
    }
    let a = solver.matrix().clone();
    let _span = aa_obs::span("solver.refine");

    let mut u_precise = vec![0.0; n];
    let mut u_comp: Vec<TwoFloat> = if config.compensated {
        vec![TwoFloat::default(); n]
    } else {
        Vec::new()
    };
    let mut residual = b.to_vec();
    let mut history = Vec::new();
    let mut analog_time = 0.0;
    let mut rel = 1.0;
    // `None` means the round budget ran out (or the residual hit exact zero
    // before round 1 completed — only reachable with a pathological solver).
    let mut outcome: Option<(usize, bool)> = None;

    for round in 1..=config.max_rounds {
        let Some((r_peak, report)) = correction(&residual, |r_unit| solver.solve(r_unit))? else {
            break;
        };
        analog_time += report.analog_time_s;
        let new_rel = if config.compensated {
            compensated::axpy2(r_peak, &report.solution, &mut u_comp);
            residual = compensated::residual_comp(&a, &u_comp, b);
            compensated::norm2_comp(&residual) / b_norm
        } else {
            vector::axpy(r_peak, &report.solution, &mut u_precise);
            residual = a.residual(&u_precise, b);
            vector::norm2(&residual) / b_norm
        };
        history.push(new_rel);
        aa_obs::counter("solver.refine.rounds", 1);
        aa_obs::histogram("solver.refine.rel_residual", new_rel);
        aa_obs::event(
            aa_obs::Event::new("solver.refine.round")
                .with("round", round)
                .with("rel_residual", new_rel),
        );

        if new_rel <= config.tolerance {
            outcome = Some((round, true));
            break;
        }
        if new_rel > rel * config.min_progress {
            // Hardware noise floor: further rounds cannot add digits.
            outcome = Some((round, false));
            break;
        }
        rel = new_rel;
    }
    let (rounds, converged) = outcome.unwrap_or((config.max_rounds, false));
    let (solution, solution_lo) = if config.compensated {
        let lo: Vec<f64> = u_comp.iter().map(|v| v.lo).collect();
        (u_comp.iter().map(|v| v.hi).collect(), Some(lo))
    } else {
        (u_precise, None)
    };
    Ok(RefinedReport {
        solution,
        solution_lo,
        residual_history: history,
        rounds,
        analog_time_s: analog_time,
        converged,
    })
}

/// The analog half of one refinement round. "Scaling the problem up as
/// necessary to fully use the dynamic range of the analog hardware":
/// normalizes `residual` to unit ∞-norm, solves the unit-scale system with
/// `solve`, and returns the factor `r_peak` that scales the unit solution
/// back into the correction. `None` for an exactly zero residual — there
/// is nothing to correct.
pub(crate) fn correction<T>(
    residual: &[f64],
    solve: impl FnOnce(&[f64]) -> Result<T, SolverError>,
) -> Result<Option<(f64, T)>, SolverError> {
    let r_peak = vector::norm_inf(residual);
    if r_peak == 0.0 {
        return Ok(None);
    }
    let r_unit: Vec<f64> = residual.iter().map(|v| v / r_peak).collect();
    Ok(Some((r_peak, solve(&r_unit)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::SolverConfig;
    use aa_linalg::stencil::PoissonStencil;
    use aa_linalg::CsrMatrix;

    fn poisson_1d(n: usize) -> CsrMatrix {
        CsrMatrix::from_row_access(&PoissonStencil::new_1d(n).unwrap())
    }

    #[test]
    fn refinement_exceeds_single_run_precision() {
        // §IV-A / Algorithm 2: precision grows beyond the ADC's resolution.
        let a = poisson_1d(5);
        let b = vec![1.0, -0.5, 0.25, -0.5, 1.0];
        let exact = aa_linalg::direct::solve(&a.to_dense(), &b).unwrap();
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();

        let single = solver.solve(&b).unwrap();
        let single_err: f64 = single
            .solution
            .iter()
            .zip(&exact)
            .map(|(x, e)| (x - e).abs())
            .fold(0.0, f64::max);

        let refined = solve_refined(
            &mut solver,
            &b,
            &RefineConfig {
                tolerance: 1e-8,
                ..RefineConfig::default()
            },
        )
        .unwrap();
        assert!(refined.converged, "history: {:?}", refined.residual_history);
        let refined_err: f64 = refined
            .solution
            .iter()
            .zip(&exact)
            .map(|(x, e)| (x - e).abs())
            .fold(0.0, f64::max);
        assert!(
            refined_err < single_err / 50.0,
            "single {single_err:.2e} vs refined {refined_err:.2e}"
        );
    }

    #[test]
    fn residual_shrinks_geometrically() {
        let a = poisson_1d(4);
        let b = vec![0.3, 0.6, -0.2, 0.5];
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        let refined = solve_refined(
            &mut solver,
            &b,
            &RefineConfig {
                tolerance: 1e-10,
                max_rounds: 12,
                min_progress: 0.9,
                compensated: false,
            },
        )
        .unwrap();
        // Each round multiplies the residual by roughly the single-run
        // relative error (quantization-limited): strictly decreasing until
        // the tolerance.
        for pair in refined.residual_history.windows(2) {
            assert!(pair[1] < pair[0], "history not decreasing: {pair:?}");
        }
        assert!(refined.rounds >= 2);
    }

    #[test]
    fn eight_bit_adc_needs_more_rounds_than_twelve_bit() {
        let a = poisson_1d(4);
        let b = vec![1.0; 4];
        let rounds = |bits: u32| {
            let cfg = SolverConfig::ideal().adc_bits(bits);
            let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
            let r = solve_refined(
                &mut solver,
                &b,
                &RefineConfig {
                    tolerance: 1e-7,
                    max_rounds: 30,
                    min_progress: 0.95,
                    compensated: false,
                },
            )
            .unwrap();
            assert!(r.converged, "{bits}-bit failed: {:?}", r.residual_history);
            r.rounds
        };
        assert!(
            rounds(8) > rounds(12),
            "coarser ADC must need more refinement rounds"
        );
    }

    #[test]
    fn gain_errors_slow_refinement_but_it_still_converges() {
        // Uncalibrated gain errors make each round solve a slightly wrong
        // system, so the per-round contraction weakens — but because the
        // residual is recomputed digitally, refinement remains a convergent
        // stationary iteration (classic iterative-refinement behaviour).
        let a = poisson_1d(4);
        let b = vec![0.5; 4];
        let rounds = |cfg: &SolverConfig| {
            let mut solver = AnalogSystemSolver::new(&a, cfg).unwrap();
            let r = solve_refined(
                &mut solver,
                &b,
                &RefineConfig {
                    tolerance: 1e-10,
                    max_rounds: 40,
                    min_progress: 0.97,
                    compensated: false,
                },
            )
            .unwrap();
            assert!(r.converged, "history: {:?}", r.residual_history);
            r.rounds
        };
        let ideal = rounds(&SolverConfig::ideal());
        let noisy_cfg = SolverConfig {
            nonideal: aa_analog::NonIdealityConfig {
                readout_noise_std: 0.0,
                ..aa_analog::NonIdealityConfig::default()
            },
            calibrate: false,
            adc_bits: 12,
            ..SolverConfig::ideal()
        };
        let noisy = rounds(&noisy_cfg);
        assert!(
            noisy >= ideal,
            "uncalibrated hardware cannot need fewer rounds: {noisy} vs {ideal}"
        );
    }

    #[test]
    fn readout_noise_slows_the_contraction() {
        // Because each round renormalizes the residual into full dynamic
        // range, even non-repeatable readout noise acts multiplicatively:
        // refinement still converges, but the per-round contraction factor
        // degrades from the quantization floor (~2⁻¹²) to the noise level
        // (~2%), costing extra rounds.
        let a = poisson_1d(4);
        let b = vec![0.5; 4];
        let rounds = |noise: f64| {
            let cfg = SolverConfig {
                nonideal: aa_analog::NonIdealityConfig {
                    offset_std: 0.0,
                    gain_error_std: 0.0,
                    readout_noise_std: noise,
                    seed: 11,
                },
                calibrate: false,
                adc_bits: 12,
                readout_samples: 1,
                ..SolverConfig::ideal()
            };
            let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
            let r = solve_refined(
                &mut solver,
                &b,
                &RefineConfig {
                    tolerance: 1e-10,
                    max_rounds: 60,
                    min_progress: 0.98,
                    compensated: false,
                },
            )
            .unwrap();
            assert!(r.converged, "noise {noise}: {:?}", r.residual_history);
            r.rounds
        };
        let quiet = rounds(0.0);
        let noisy = rounds(0.02);
        assert!(
            noisy > quiet,
            "noise must cost extra rounds: {noisy} !> {quiet}"
        );
    }

    /// An ill-conditioned SPD tridiagonal: coefficients spanning more than
    /// two orders of magnitude push `n·ε·cond(A)` — the f64 residual-recompute
    /// noise floor — well above machine epsilon.
    fn ill_conditioned(n: usize) -> CsrMatrix {
        use aa_linalg::Triplet;
        // A variable-coefficient Dirichlet Laplacian, pre-normalized below
        // 1 so the analog mapping needs no dynamic-range rescale and the
        // solution magnitude (‖A⁻¹‖∞ ≈ 10²) stays inside the rescale
        // budget. cond(A) ≈ 2·10² — enough to lift the f64
        // residual-recompute floor (n·ε·cond) well above the compensated
        // one without stalling the per-round contraction.
        // Interface coefficients k_{i±1/2} keep the discretized −(k·u')'
        // SPD (diag = k_i + k_{i+1}, equality-dominant rows).
        let k = |i: usize| (1.0 + 2.0 * (i as f64 / n as f64).powi(2)) / 8.0;
        let mut t = Vec::new();
        for i in 0..n {
            if i > 0 {
                t.push(Triplet::new(i, i - 1, -k(i)));
                t.push(Triplet::new(i - 1, i, -k(i)));
            }
            t.push(Triplet::new(i, i, k(i) + k(i + 1)));
        }
        CsrMatrix::from_triplets(n, &t).unwrap()
    }

    #[test]
    fn compensated_residual_path_beats_f64_accuracy_ceiling() {
        // Zhu et al.: refinement with working-precision residuals stalls at
        // a relative residual of roughly n·ε·cond(A); extended-precision
        // residual accumulation keeps contracting past that ceiling. Run
        // both paths to their floor and compare through one common
        // compensated oracle so the measurement precision is identical.
        let a = ill_conditioned(12);
        let b: Vec<f64> = (0..12).map(|i| 0.25 + 0.5 * ((i % 5) as f64)).collect();
        let run = |comp: bool| {
            // ‖A⁻¹‖∞ ≈ 10² here, so seed the solution-scale walk with an
            // honest magnitude estimate instead of burning rescale retries.
            let cfg = SolverConfig {
                solution_bound: 150.0,
                ..SolverConfig::ideal()
            };
            let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
            solve_refined(
                &mut solver,
                &b,
                &RefineConfig {
                    tolerance: 1e-17,
                    max_rounds: 80,
                    min_progress: 0.97,
                    compensated: comp,
                },
            )
            .unwrap()
        };
        let plain = run(false);
        let comp = run(true);
        assert!(plain.solution_lo.is_none());
        let lo = comp.solution_lo.as_ref().expect("compensated lo missing");

        // Oracle: relative residual of each final iterate, accumulated in
        // two-float arithmetic either way.
        let b_norm = compensated::norm2_comp(&b);
        let plain_u = compensated::promote(&plain.solution);
        let plain_res =
            compensated::norm2_comp(&compensated::residual_comp(&a, &plain_u, &b)) / b_norm;
        let comp_u: Vec<TwoFloat> = comp
            .solution
            .iter()
            .zip(lo)
            .map(|(hi, lo)| TwoFloat { hi: *hi, lo: *lo })
            .collect();
        let comp_res =
            compensated::norm2_comp(&compensated::residual_comp(&a, &comp_u, &b)) / b_norm;
        assert!(
            comp_res < plain_res / 10.0,
            "compensated floor {comp_res:.3e} must be ≥10x below f64 floor {plain_res:.3e} \
             (plain history {:?}, comp history {:?})",
            plain.residual_history,
            comp.residual_history,
        );
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = poisson_1d(3);
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        let refined = solve_refined(&mut solver, &[0.0; 3], &RefineConfig::default()).unwrap();
        assert!(refined.converged);
        assert_eq!(refined.rounds, 0);
        assert_eq!(refined.solution, vec![0.0; 3]);
    }

    #[test]
    fn rhs_length_checked() {
        let a = poisson_1d(3);
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        assert!(solve_refined(&mut solver, &[1.0], &RefineConfig::default()).is_err());
    }
}
