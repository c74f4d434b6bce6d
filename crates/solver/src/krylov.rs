//! Analog-preconditioned flexible conjugate gradients (ROADMAP item 3).
//!
//! The paper uses the accelerator as the *primary* solver and cleans its
//! output up digitally. Shah et al. invert that relationship: the noisy
//! 8-bit analog solve becomes a *preconditioner application* `z ≈ M⁻¹·r`
//! inside digital Krylov iteration, where M is whatever operator the analog
//! hardware actually realizes — the programmed matrix as distorted by gain
//! errors, quantization, and runtime faults. One analog settle time replaces
//! the O(n·nnz) work of a strong digital preconditioner, and the
//! [`SupervisedSolver`] residual check already supplies the accept/reject
//! hook the hybrid scheme needs.
//!
//! Because every application of the analog preconditioner is a *different*
//! operator (noise, faults, and the recovery ladder vary per call), the
//! outer loop must be **flexible** CG: standard PCG's
//! `β = (r⁺,z⁺)/(r,z)` assumes a fixed SPD `M` and loses conjugacy —
//! and with it convergence — under an iteration-varying preconditioner.
//! FCG uses the Polak–Ribière form `β = (z⁺, r⁺ − r)/(z, r)`
//! (Notay's flexible variant), which only requires the *current*
//! application to be roughly symmetric positive definite.
//!
//! The outer loop owns the accuracy, so an application only has to be as
//! accurate as the contraction FCG still needs (paper §VI-B: the last
//! digits are the expensive ones). Each one is a supervised solve
//! validated at `τ·‖b‖/‖r_k‖`, clamped to `[√tol, ½]` with `tol` the
//! supervisor's residual tolerance. √tol is the supervisor's own
//! near-miss bound: a run to it settles in about half the time of a run
//! to `tol`, two such applications contract as much as one at `tol`, and
//! the aim sits far above any readout floor. The ½ cap keeps every
//! application a contraction. An application's run stops once its
//! residual, read off `max|dũ/dτ|` through the solver's shape factor ρ
//! rather than the worst-case `√n`, meets that aim less its readout floor,
//! so it lands near the aim rather than well under it: FCG takes a few
//! more iterations and each costs less analog time. A readout that misses
//! the aim is continued to the `√n` stop within the same application.
//! Each application starts its solution scale
//! γ at the Rayleigh estimate of its answer's peak, as a refinement
//! round's correction does. Only the first application solves for the
//! request's own right-hand side; the later ones solve for residuals and
//! keep to the supervisor's correction warm-start basis. No application
//! starts at rest: before a slot has a basis (a fresh supervisor's first
//! application, or its first correction), the run starts from the
//! Galerkin guess on the slow modes and its own right-hand side. A solve that converges on the analog path
//! leaves its answer as the request basis, so the next request starts from
//! it rather than from the first application's √tol answer.
//!
//! When the recovery ladder exhausts (the chip cannot produce a validated
//! analog answer), the preconditioner demotes itself permanently to a
//! digital Jacobi application — or identity if the diagonal is unusable —
//! rather than borrowing the supervisor's digital-CG fallback answer:
//! an exact inner solve would hide the hardware failure behind a digital
//! solver and report misleading iteration counts. The demoted loop is plain
//! (Jacobi-)CG, so convergence degrades to the unpreconditioned rate but
//! never diverges.

use aa_linalg::compensated;
use aa_linalg::op::RowAccess;
use aa_linalg::{vector, CsrMatrix, LinearOperator};

use crate::recover::{FinalPath, SupervisedSolver};
use crate::solve::WarmSlot;
use crate::SolverError;

/// The loosest relative residual an analog application is aimed at. An
/// application `z` with `‖r − A·z‖ ≤ ½‖r‖` still halves the residual it
/// preconditions, so however little contraction FCG still needs, each
/// application must contract.
const LOOSEST_APPLICATION: f64 = 0.5;

/// Options for the flexible-CG loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovConfig {
    /// Stop when `‖b − A·x‖₂ ≤ tolerance·‖b‖₂`.
    pub tolerance: f64,
    /// Maximum FCG iterations.
    pub max_iterations: usize,
    /// Accumulate the loop's dot products with two-float compensated
    /// arithmetic ([`aa_linalg::compensated::dot2`]), removing the f64
    /// summation error from the α/β coefficients at tight tolerances.
    pub compensated: bool,
}

impl Default for KrylovConfig {
    fn default() -> Self {
        KrylovConfig {
            tolerance: 1e-8,
            max_iterations: 1000,
            compensated: false,
        }
    }
}

/// Which operator the preconditioner is currently applying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecondKind {
    /// Supervised analog solve (the intended path).
    Analog,
    /// Digital Jacobi application after the recovery ladder exhausted.
    Jacobi,
    /// Identity application (unusable diagonal after demotion).
    Identity,
}

impl PrecondKind {
    /// Short stable label used in telemetry events.
    pub fn label(&self) -> &'static str {
        match self {
            PrecondKind::Analog => "analog",
            PrecondKind::Jacobi => "jacobi",
            PrecondKind::Identity => "identity",
        }
    }
}

/// Per-solve accounting of the preconditioner's behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrecondStats {
    /// Total applications `z ← M⁻¹·r`.
    pub applications: usize,
    /// Applications served by a validated analog solve.
    pub analog_applications: usize,
    /// Analog applications that needed at least one recovery action.
    pub recovered_applications: usize,
    /// Applications served by the digital Jacobi/identity fallback.
    pub fallback_applications: usize,
    /// Simulated analog seconds across every application (including
    /// rejected attempts inside the recovery ladder).
    pub analog_time_s: f64,
    /// Floating-point operations the host spent on the warm guesses those
    /// applications' runs started from.
    pub guess_flops: u64,
}

impl PrecondStats {
    /// The [`FinalPath`]-equivalent summary for fleet completion reporting.
    pub fn final_path(&self) -> FinalPath {
        if self.fallback_applications > 0 {
            FinalPath::DigitalFallback
        } else if self.recovered_applications > 0 {
            FinalPath::AnalogAfterRecovery
        } else {
            FinalPath::Analog
        }
    }
}

/// Applies `z ≈ M⁻¹·r` through the supervised analog solve.
///
/// Each application normalizes the residual into the hardware's dynamic
/// range (exactly like one round of [`refine`](crate::refine)), runs the
/// supervised solve on the *committed* structure — reusing the chip's plan
/// cache across applications — and rescales the validated answer back.
/// See [`apply`](Self::apply) for the tolerance each application is aimed
/// at and the module docs for the demotion contract.
///
/// Successive applications see very different residuals (a smooth
/// right-hand side first, rough FCG residuals later), so the solution
/// scale γ the previous solve settled at is typically several times off
/// and costs an overflow abort or an underuse re-run. Every application
/// therefore starts the solver's γ walk at `γ = ρ(r̂)/(margin·full_scale)`,
/// where `ρ(r̂) = r̂ᵀr̂ / r̂ᵀA·r̂` is a Rayleigh-quotient estimate of
/// `‖A⁻¹r̂‖`: the rule a refinement round's correction uses. The
/// overflow/underuse walk still runs from that start.
#[derive(Debug)]
pub struct AnalogPreconditioner<'a> {
    solver: &'a mut SupervisedSolver,
    /// Jacobi coefficients for the demoted path; `None` when the committed
    /// matrix's diagonal is unusable (demotion falls through to identity).
    inv_diag: Option<Vec<f64>>,
    kind: PrecondKind,
    stats: PrecondStats,
}

impl<'a> AnalogPreconditioner<'a> {
    /// Wraps a supervised solver whose committed structure is the system
    /// matrix (or a preconditioning approximation of it).
    pub fn new(solver: &'a mut SupervisedSolver) -> Self {
        let a = solver.inner().matrix();
        let n = a.dim();
        let mut inv = Vec::with_capacity(n);
        for i in 0..n {
            let d = a.diagonal(i);
            if d <= 0.0 || !d.is_finite() {
                inv.clear();
                break;
            }
            inv.push(1.0 / d);
        }
        AnalogPreconditioner {
            solver,
            inv_diag: (!inv.is_empty()).then_some(inv),
            kind: PrecondKind::Analog,
            stats: PrecondStats::default(),
        }
    }

    /// The committed system matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        self.solver.inner().matrix()
    }

    /// The operator currently being applied.
    pub fn kind(&self) -> PrecondKind {
        self.kind
    }

    /// Accounting of the current (or last) [`fcg_solve`].
    pub fn stats(&self) -> PrecondStats {
        self.stats
    }

    /// Permanently demotes to the digital fallback application.
    fn demote(&mut self, reason: &'static str) {
        self.kind = if self.inv_diag.is_some() {
            PrecondKind::Jacobi
        } else {
            PrecondKind::Identity
        };
        aa_obs::counter("solver.krylov.precond_demotions", 1);
        aa_obs::event(
            aa_obs::Event::new("solver.krylov.precond_demoted")
                .with("to", self.kind.label())
                .with("reason", reason),
        );
    }

    /// Applies the digital fallback `z ← diag(A)⁻¹·r` (or identity).
    fn apply_fallback(&mut self, r: &[f64], z: &mut [f64]) {
        match (&self.inv_diag, self.kind) {
            (Some(inv), PrecondKind::Jacobi) => {
                for (zi, (ri, d)) in z.iter_mut().zip(r.iter().zip(inv)) {
                    *zi = ri * d;
                }
            }
            _ => z.copy_from_slice(r),
        }
        self.stats.fallback_applications += 1;
    }

    /// The relative residual an analog application is aimed at when FCG
    /// still needs its residual to shrink by `need`: `need` clamped to
    /// `[√residual_tolerance, ½]`.
    fn target(&self, need: f64) -> f64 {
        need.min(LOOSEST_APPLICATION)
            .max(self.solver.residual_tolerance().sqrt())
    }

    /// Applies `z ≈ M⁻¹·r`, choosing the analog or demoted path.
    ///
    /// `need` is the contraction the outer loop still needs,
    /// `τ·‖b‖₂/‖r‖₂` for FCG's tolerance `τ`. An analog application is a
    /// supervised solve validated at `need` clamped to
    /// `[√residual_tolerance, ½]` (the run stops at that less its readout
    /// floor, as every supervised run does): the outer loop owns the
    /// accuracy, so an application only has to contract, and the
    /// supervisor's near-miss bound √tol is as far as one needs to go; the
    /// ½ cap keeps every application a contraction. The first application of a
    /// solve (its statistics count from the solve's start) solves for the
    /// request's own right-hand side and starts from, and refreshes, the
    /// supervisor's request warm-start basis; every later one solves for an
    /// FCG residual, which is a correction, and uses the correction basis a
    /// refinement round uses.
    pub fn apply(&mut self, r: &[f64], z: &mut [f64], need: f64) {
        assert_eq!(r.len(), z.len(), "precondition: length mismatch");
        let index = self.stats.applications;
        self.stats.applications += 1;
        if self.kind != PrecondKind::Analog {
            return self.apply_fallback(r, z);
        }
        let r_peak = vector::norm_inf(r);
        if r_peak == 0.0 || !r_peak.is_finite() {
            z.fill(0.0);
            // Count it as analog: nothing failed, there was nothing to do.
            self.stats.analog_applications += 1;
            return;
        }
        let r_unit: Vec<f64> = r.iter().map(|v| v / r_peak).collect();
        self.solver.aim_at_correction(&r_unit);
        let slot = if index == 0 {
            WarmSlot::Request
        } else {
            WarmSlot::Correction
        };
        let flops = self.solver.inner().guess_flops();
        let solved = self.solver.solve_to(&r_unit, self.target(need), slot);
        self.stats.guess_flops += self.solver.inner().guess_flops() - flops;
        match solved {
            Ok(report) => {
                self.stats.analog_time_s += report.recovery.analog_time_s();
                match report.recovery.final_path {
                    FinalPath::Analog | FinalPath::AnalogAfterRecovery => {
                        for (zi, si) in z.iter_mut().zip(&report.solution) {
                            *zi = r_peak * si;
                        }
                        self.stats.analog_applications += 1;
                        if report.recovery.final_path == FinalPath::AnalogAfterRecovery {
                            self.stats.recovered_applications += 1;
                        }
                    }
                    FinalPath::DigitalFallback => {
                        // The ladder exhausted. Do NOT use the supervisor's
                        // digital-CG answer — an exact inner solve would turn
                        // the iteration count into a digital artifact.
                        self.demote("recovery_exhausted");
                        self.apply_fallback(r, z);
                    }
                }
            }
            Err(_) => {
                self.demote("solve_error");
                self.apply_fallback(r, z);
            }
        }
    }
}

/// The outcome of an analog-preconditioned flexible-CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct KrylovReport {
    /// The converged (or best-effort) iterate.
    pub solution: Vec<f64>,
    /// FCG iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
    /// Relative residual `‖r‖₂/‖b‖₂` after each iteration.
    pub residual_history: Vec<f64>,
    /// Preconditioner accounting (applications, fallbacks, analog seconds).
    pub precond: PrecondStats,
}

/// Solves `A·x = b` by flexible CG with the analog preconditioner.
///
/// `A` is the preconditioner's committed matrix — the preconditioner *is*
/// the (noisy) inverse of the operator being solved, which is the
/// approximate-inverse setting of Shah et al.
///
/// A preconditioner may serve several solves: each one counts its
/// applications (and so its warm-start slots) from zero and
/// reports only its own [`PrecondStats`], while a demotion stays in force.
/// A solve that converges with the analog preconditioner still in use
/// makes its answer the supervisor's request warm-start basis.
///
/// # Errors
///
/// * [`SolverError::InvalidProblem`] on a wrong-length `b`.
/// * [`SolverError::Linalg`] wrapping `NotPositiveDefinite` if a curvature
///   `pᵀAp ≤ 0` shows the committed matrix is not SPD.
pub fn fcg_solve(
    precond: &mut AnalogPreconditioner<'_>,
    b: &[f64],
    config: &KrylovConfig,
) -> Result<KrylovReport, SolverError> {
    let a = precond.matrix().clone();
    let n = a.dim();
    if b.len() != n {
        return Err(SolverError::invalid(format!(
            "rhs has {} entries, system has {n}",
            b.len()
        )));
    }
    precond.stats = PrecondStats::default();
    let _span = aa_obs::span("solver.krylov.fcg");
    let dot = |x: &[f64], y: &[f64]| -> f64 {
        if config.compensated {
            compensated::dot2(x, y).value()
        } else {
            vector::dot(x, y)
        }
    };
    let norm = |x: &[f64]| -> f64 {
        if config.compensated {
            compensated::norm2_comp(x)
        } else {
            vector::norm2(x)
        }
    };

    let b_norm = norm(b);
    if b_norm == 0.0 {
        return Ok(KrylovReport {
            solution: vec![0.0; n],
            iterations: 0,
            converged: true,
            residual_history: vec![0.0],
            precond: precond.stats(),
        });
    }

    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    precond.apply(&r, &mut z, config.tolerance);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    let mut rz = dot(&r, &z);
    let mut history = Vec::new();
    let mut converged = false;
    let mut iterations = 0;

    for k in 1..=config.max_iterations {
        iterations = k;
        if rz == 0.0 || !rz.is_finite() {
            // The preconditioned residual vanished (or went non-finite,
            // which the flexible restart below cannot fix): stop on the
            // digitally measured residual.
            converged = norm(&r) / b_norm <= config.tolerance;
            break;
        }
        a.apply(&p, &mut ap);
        let curvature = dot(&p, &ap);
        if curvature <= 0.0 {
            return Err(aa_linalg::LinalgError::NotPositiveDefinite { pivot: k }.into());
        }
        let alpha = rz / curvature;
        vector::axpy(alpha, &p, &mut x);
        let r_old = r.clone();
        vector::axpy(-alpha, &ap, &mut r);
        let rel = norm(&r) / b_norm;
        history.push(rel);
        converged = rel <= config.tolerance;
        let need = config.tolerance / rel;
        aa_obs::counter("solver.krylov.iterations", 1);
        aa_obs::histogram("solver.krylov.rel_residual", rel);
        if aa_obs::is_active() {
            let mut ev = aa_obs::Event::new("solver.krylov.iter")
                .with("iter", k)
                .with("rel_residual", rel)
                .with("precond", precond.kind().label());
            if !converged {
                ev = ev.with("target", precond.target(need));
            }
            aa_obs::event(ev);
        }
        if converged {
            break;
        }

        precond.apply(&r, &mut z, need);
        // Flexible (Polak–Ribière / Notay) β: project against the residual
        // *change* so conjugacy survives the iteration-varying M⁻¹.
        let dr: Vec<f64> = r.iter().zip(&r_old).map(|(a, b)| a - b).collect();
        let mut beta = dot(&z, &dr) / rz;
        if !beta.is_finite() || beta < 0.0 {
            // Restart: a noisy application broke the direction recurrence.
            beta = 0.0;
        }
        rz = dot(&r, &z);
        vector::xpby(&z, beta, &mut p);
    }

    if converged && precond.kind == PrecondKind::Analog {
        // Application 0 left only a √tol answer in the request slot.
        precond.solver.keep_request_answer(&x);
    }
    aa_obs::event(
        aa_obs::Event::new("solver.krylov.done")
            .with("iterations", iterations)
            .with("converged", converged)
            .with("precond", precond.kind().label())
            .with(
                "fallback_applications",
                precond.stats().fallback_applications,
            ),
    );
    Ok(KrylovReport {
        solution: x,
        iterations,
        converged,
        residual_history: history,
        precond: precond.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::RecoveryConfig;
    use crate::solve::SolverConfig;
    use aa_linalg::iterative::{cg, IterativeConfig, StoppingCriterion};
    use aa_linalg::stencil::PoissonStencil;

    fn poisson_2d(side: usize) -> CsrMatrix {
        CsrMatrix::from_row_access(&PoissonStencil::new_2d(side).unwrap())
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.5 + ((i % 7) as f64) * 0.25).collect()
    }

    #[test]
    fn fcg_converges_and_matches_cg_solution() {
        let a = poisson_2d(8);
        let b = rhs(a.dim());
        let mut sup =
            SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default()).unwrap();
        let mut precond = AnalogPreconditioner::new(&mut sup);
        let report = fcg_solve(&mut precond, &b, &KrylovConfig::default()).unwrap();
        assert!(report.converged, "history: {:?}", report.residual_history);
        assert_eq!(report.precond.final_path(), FinalPath::Analog);
        let rel = a.residual_norm(&report.solution, &b) / vector::norm2(&b);
        assert!(rel <= 1e-8, "residual {rel:.3e}");
    }

    #[test]
    fn analog_preconditioning_beats_plain_cg_iterations() {
        // The acceptance gate's core claim at unit-test scale: one noisy
        // analog application removes enough low-frequency error that FCG
        // needs well under 0.7x the iterations of unpreconditioned CG.
        let a = poisson_2d(8);
        let b = rhs(a.dim());
        let plain = cg(
            &a,
            &b,
            &IterativeConfig::with_stopping(StoppingCriterion::RelativeResidual(1e-8)),
        )
        .unwrap();
        let mut sup =
            SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default()).unwrap();
        let mut precond = AnalogPreconditioner::new(&mut sup);
        let fcg = fcg_solve(&mut precond, &b, &KrylovConfig::default()).unwrap();
        assert!(fcg.converged && plain.converged);
        assert!(
            (fcg.iterations as f64) <= 0.7 * plain.iterations as f64,
            "fcg {} !<= 0.7 x cg {}",
            fcg.iterations,
            plain.iterations
        );
    }

    #[test]
    fn later_solves_take_no_underuse_reruns() {
        // Every application starts its γ walk at the Rayleigh prediction
        // for its own residual: no application of an FCG solve after the
        // first takes an underuse re-run, and every solve converges in
        // about as many iterations as the first.
        let a = poisson_2d(6);
        let n = a.dim();
        let mut sup =
            SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default()).unwrap();
        let mut first_iterations = None;
        for shift in 0..4 {
            let b: Vec<f64> = (0..n)
                .map(|i| 0.5 + (((i + shift) % 7) as f64) * 0.25)
                .collect();
            let recorder = aa_obs::MemoryRecorder::shared();
            let report = aa_obs::with_recorder(recorder.clone(), || {
                let mut precond = AnalogPreconditioner::new(&mut sup);
                fcg_solve(&mut precond, &b, &KrylovConfig::default()).unwrap()
            });
            assert!(
                report.converged,
                "solve {shift}: {:?}",
                report.residual_history
            );
            let rel = a.residual_norm(&report.solution, &b) / vector::norm2(&b);
            assert!(rel <= 1e-8, "solve {shift}: residual {rel:.3e}");
            let first = *first_iterations.get_or_insert(report.iterations);
            assert!(
                report.iterations.abs_diff(first) <= 1,
                "solve {shift}: {} iterations vs {first}",
                report.iterations
            );
            // Each per-cause counter matches the `solver.rescale` events
            // that carry its cause.
            let trace = recorder.snapshot();
            for cause in ["overflow", "underuse", "rhs_overflow", "rhs_underuse"] {
                let events = trace
                    .events_of_kind("solver.rescale")
                    .filter(|e| e.field("cause") == Some(&aa_obs::Value::Str(cause.into())))
                    .count() as u64;
                let counter = trace.counter(&format!("solver.rescales.{cause}"));
                assert_eq!(counter, events, "solve {shift}: {cause} counter");
                if shift > 0 && cause == "underuse" {
                    assert_eq!(events, 0, "solve {shift} took underuse re-runs");
                }
            }
        }
    }

    #[test]
    fn each_application_is_aimed_at_the_remaining_contraction() {
        // Application k runs at the contraction FCG still needs after
        // iteration k, τ/rel_k, clamped to [√residual_tolerance, ½], and
        // the loop still converges to τ.
        let a = poisson_2d(8);
        let n = a.dim();
        let floor = RecoveryConfig::default().residual_tolerance.sqrt();
        let fresh = || {
            SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default()).unwrap()
        };
        // One traced solve, each application's target checked against the
        // residual history; returns the report and how many applications
        // were aimed above √tol and how many capped.
        let traced = |sup: &mut SupervisedSolver, b: &[f64], config: &KrylovConfig| {
            let recorder = aa_obs::MemoryRecorder::shared();
            let report = aa_obs::with_recorder(recorder.clone(), || {
                let mut precond = AnalogPreconditioner::new(sup);
                fcg_solve(&mut precond, b, config).unwrap()
            });
            let history = &report.residual_history;
            assert!(report.converged, "{history:?}");
            assert_eq!(report.precond.final_path(), FinalPath::Analog);
            let (mut aimed, mut capped) = (0, 0);
            if aa_obs::ENABLED {
                let targets: Vec<f64> = recorder
                    .snapshot()
                    .events_of_kind("solver.krylov.iter")
                    .filter_map(|e| match e.field("target") {
                        Some(aa_obs::Value::F64(t)) => Some(*t),
                        _ => None,
                    })
                    .collect();
                // Every iteration but the converged last is followed by an
                // application.
                assert_eq!(targets.len(), history.len() - 1, "{history:?}");
                for (target, rel) in targets.iter().zip(history) {
                    let expected = (config.tolerance / rel).clamp(floor, 0.5);
                    assert_eq!(*target, expected, "rel {rel:.3e}: {history:?}");
                    aimed += usize::from(expected > floor);
                    capped += usize::from(expected == 0.5);
                }
            }
            (report, aimed, capped)
        };

        let mut sup = fresh();
        let mut aimed = 0;
        for shift in 0..4 {
            let b: Vec<f64> = (0..n)
                .map(|i| 0.5 + (((i + shift) % 7) as f64) * 0.25)
                .collect();
            let (report, aimed_here, _) = traced(&mut sup, &b, &KrylovConfig::default());
            let rel = a.residual_norm(&report.solution, &b) / vector::norm2(&b);
            assert!(rel <= 1e-8, "solve {shift}: residual {rel:.3e}");
            aimed += aimed_here;
        }
        assert!(!aa_obs::ENABLED || aimed > 0, "no application was aimed");

        // A loop left needing a contraction of 0.6 after its first
        // iteration runs the second application at the ½ cap: replay the
        // first solve on a fresh supervisor with τ at 0.6 of its first
        // residual (application 0 runs at √tol either way, so the first
        // residual repeats).
        let b = rhs(n);
        let (first, _, _) = traced(&mut fresh(), &b, &KrylovConfig::default());
        let rel_1 = first.residual_history[0];
        let loose = KrylovConfig {
            tolerance: 0.6 * rel_1,
            ..KrylovConfig::default()
        };
        let (report, _, capped) = traced(&mut fresh(), &b, &loose);
        assert_eq!(report.residual_history[0], rel_1);
        assert!(!aa_obs::ENABLED || capped == 1, "{capped} capped");
    }

    #[test]
    fn residual_applications_leave_the_request_basis_alone() {
        // Only application 0 solves for the request's own right-hand side;
        // the later ones solve for FCG residuals and keep to the correction
        // basis. So the request basis a solve leaves behind, scaled by its
        // Galerkin α, solves b/‖b‖∞ to the supervisor's tolerance.
        let a = poisson_2d(8);
        let b = rhs(a.dim());
        let recovery = RecoveryConfig::default();
        let mut sup = SupervisedSolver::new(&a, &SolverConfig::ideal(), &recovery).unwrap();
        let mut precond = AnalogPreconditioner::new(&mut sup);
        let report = fcg_solve(&mut precond, &b, &KrylovConfig::default()).unwrap();
        assert!(report.converged && report.precond.analog_applications > 1);
        let state = sup.export_state().solver;
        let request = state.warm_start.expect("application 0 settled");
        let peak = vector::norm_inf(&b);
        let b_unit: Vec<f64> = b.iter().map(|v| v / peak).collect();
        let energy = vector::dot(&request, &a.apply_vec(&request));
        let alpha = vector::dot(&request, &b_unit) / energy;
        let guess: Vec<f64> = request.iter().map(|u| alpha * u).collect();
        let rel = a.residual_norm(&guess, &b_unit) / vector::norm2(&b_unit);
        assert!(
            rel <= recovery.residual_tolerance,
            "α = {alpha:.3e}, residual {rel:.3e}"
        );
        assert!(state.correction_warm_start.is_some());
    }

    #[test]
    fn a_fresh_preconditioners_first_correction_starts_from_the_guess() {
        // Application 1 is the first on the correction slot, which has no
        // basis yet: it starts from the guess on the slow modes and r.
        let a = poisson_2d(8);
        let n = a.dim();
        let b = rhs(n);
        let mut sup =
            SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default()).unwrap();
        let mut precond = AnalogPreconditioner::new(&mut sup);
        let mut z = vec![0.0; n];
        precond.apply(&b, &mut z, 1e-3);
        let r: Vec<f64> = b
            .iter()
            .zip(a.apply_vec(&z))
            .map(|(b, az)| b - az)
            .collect();
        let state = precond.solver.export_state().solver;
        assert!(state.warm_start.is_some() && state.correction_warm_start.is_none());
        assert!(!precond
            .solver
            .inner()
            .starts_at_rest(&r, WarmSlot::Correction));
        let before = precond.stats();
        let recorder = aa_obs::MemoryRecorder::shared();
        aa_obs::with_recorder(recorder.clone(), || precond.apply(&r, &mut z, 1e-3));
        let after = precond.stats();
        assert_eq!(after.analog_applications, 2);
        assert!(after.guess_flops > before.guess_flops);
        assert!(precond
            .solver
            .export_state()
            .solver
            .correction_warm_start
            .is_some());
        if aa_obs::ENABLED {
            let trace = recorder.snapshot();
            let runs = trace.counter("engine.runs");
            assert!(runs >= 1);
            assert_eq!(trace.counter("solver.warm_starts"), runs);
            assert_eq!(trace.counter("solver.rest_starts"), 0);
        }
    }

    #[test]
    fn a_reused_preconditioner_replays_fresh_ones() {
        // Each solve counts its applications (warm-start slot, statistics)
        // from its own start, so two solves through one preconditioner
        // replay two through fresh preconditioners over the same supervisor
        // sequence bit for bit.
        let a = poisson_2d(6);
        let n = a.dim();
        let bs = [rhs(n), (0..n).map(|i| 1.0 - 0.1 * (i % 3) as f64).collect()];
        let config = KrylovConfig::default();
        let fresh = || {
            SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default()).unwrap()
        };
        let mut reused_sup = fresh();
        let mut precond = AnalogPreconditioner::new(&mut reused_sup);
        let reused: Vec<KrylovReport> = bs
            .iter()
            .map(|b| fcg_solve(&mut precond, b, &config).unwrap())
            .collect();
        let mut sup = fresh();
        let separate: Vec<KrylovReport> = bs
            .iter()
            .map(|b| fcg_solve(&mut AnalogPreconditioner::new(&mut sup), b, &config).unwrap())
            .collect();
        assert_eq!(reused, separate);
        for report in &reused {
            assert!(report.converged, "{:?}", report.residual_history);
            assert_eq!(report.precond.applications, report.iterations);
        }
        // A converged analog solve leaves its answer as the request basis.
        let basis = sup.export_state().solver.warm_start.expect("converged");
        assert_eq!(basis, separate[1].solution);
    }

    #[test]
    fn the_ideal_chip_preconditions_n121_without_recovery() {
        // Aimed at √tol, no application of a 121-row 2D Poisson solve meets
        // its readout floor, so none needs the recovery ladder, and the
        // loop still needs at most 0.7x the iterations of plain CG.
        let a = poisson_2d(11);
        let b = rhs(a.dim());
        let plain = cg(
            &a,
            &b,
            &IterativeConfig::with_stopping(StoppingCriterion::RelativeResidual(1e-8)),
        )
        .unwrap();
        let mut sup =
            SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default()).unwrap();
        let fcg = fcg_solve(
            &mut AnalogPreconditioner::new(&mut sup),
            &b,
            &KrylovConfig::default(),
        )
        .unwrap();
        assert!(fcg.converged && plain.converged);
        assert_eq!(fcg.precond.final_path(), FinalPath::Analog);
        assert!(
            (fcg.iterations as f64) <= 0.7 * plain.iterations as f64,
            "fcg {} !<= 0.7 x cg {}",
            fcg.iterations,
            plain.iterations
        );
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = poisson_2d(3);
        let mut sup =
            SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default()).unwrap();
        let mut precond = AnalogPreconditioner::new(&mut sup);
        let report =
            fcg_solve(&mut precond, &vec![0.0; a.dim()], &KrylovConfig::default()).unwrap();
        assert!(report.converged);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.solution, vec![0.0; a.dim()]);
    }

    #[test]
    fn rhs_length_checked() {
        let a = poisson_2d(3);
        let mut sup =
            SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default()).unwrap();
        let mut precond = AnalogPreconditioner::new(&mut sup);
        assert!(fcg_solve(&mut precond, &[1.0], &KrylovConfig::default()).is_err());
    }

    #[test]
    fn compensated_dots_change_nothing_on_easy_problems() {
        let a = poisson_2d(6);
        let b = rhs(a.dim());
        let run = |comp: bool| {
            let mut sup =
                SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default())
                    .unwrap();
            let mut precond = AnalogPreconditioner::new(&mut sup);
            fcg_solve(
                &mut precond,
                &b,
                &KrylovConfig {
                    compensated: comp,
                    ..KrylovConfig::default()
                },
            )
            .unwrap()
        };
        let plain = run(false);
        let comp = run(true);
        assert!(plain.converged && comp.converged);
        // Well-conditioned: both land within a couple of iterations.
        assert!((plain.iterations as i64 - comp.iterations as i64).abs() <= 2);
    }
}
