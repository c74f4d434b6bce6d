//! Supervised analog solving: validate, classify, recover.
//!
//! The paper's host processor is designed "to be able to react when problems
//! occur in the course of analog computation" (§III-B). The inner
//! [`AnalogSystemSolver`] already reacts to overflow exceptions with
//! rescale-and-retry; this module adds the outer supervision loop a
//! production deployment needs against *runtime* faults (drift, glitches,
//! stuck units — see [`aa_analog::fault`]):
//!
//! 1. **Validate** every analog result with a cheap digital residual check
//!    (one sparse mat-vec — far cheaper than a digital solve).
//! 2. **Classify** failures: persistent overflow, a run that never settles,
//!    or a settled-but-wrong answer.
//! 3. **Recover** by policy: a request whose predicted readout floor
//!    leaves no room under the tolerance is planned as two rounds of the
//!    paper's Algorithm 2, and a near miss — a residual within the square
//!    root of the tolerance, or a run that hit its time cap — gets one
//!    refinement round; otherwise bounded retries
//!    with escalating idle cool-down (lets transient fault windows expire),
//!    one recalibration pass (trims out drift exactly like a static
//!    imperfection), one remap onto a fresh accelerator instance, and
//!    finally a digital CG fallback.
//!
//! Every attempt is logged in a [`RecoveryReport`] whose equality ignores
//! host wall-clock noise, so identical seeds and fault plans produce
//! bit-identical reports — failures are replayable.

use std::time::Instant;

use aa_analog::{calibrate, FaultPlan};
use aa_linalg::iterative::{cg, IterativeConfig, StoppingCriterion};
use aa_linalg::{CsrMatrix, LinearOperator};

use aa_linalg::vector;

use crate::refine;
use crate::solve::{
    AnalogSolveReport, AnalogSystemSolver, SolverCheckpoint, SolverConfig, WarmSlot, SETTLE_SHARE,
};
use crate::SolverError;

/// A snapshot of one [`SupervisedSolver`]'s mutable state: the inner
/// solver/chip state, the lifetime seconds consumed by remapped-away chip
/// instances, the *original* (unshifted) fault plan kept for future
/// remaps, and the Krylov preconditioner's solution-scale table. The
/// matrix and both configs are excluded — the restore path rebuilds the
/// supervisor deterministically with [`SupervisedSolver::new`] before
/// importing.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedCheckpoint {
    /// The inner solver's cross-solve state (γ plus chip runtime state;
    /// the chip state carries the currently *shifted* fault plan).
    pub solver: SolverCheckpoint,
    /// Lifetime seconds consumed by previous chip instances before remaps.
    pub consumed_lifetime_s: f64,
    /// The originally injected fault plan, un-shifted.
    pub fault_plan: Option<FaultPlan>,
    /// The preconditioner's per-application scale corrections `κ_k`
    /// (see [`AnalogPreconditioner`](crate::AnalogPreconditioner)).
    pub precond_scales: Vec<f64>,
}

/// Policy knobs of the supervision loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Accept a solution when `‖b − A·x‖₂ / ‖b‖₂` is at or below this.
    /// It also sets where every supervised analog run stops: once the
    /// run's own residual is within a quarter of the run's target, or once
    /// its readout can no longer change if that comes first. The target is
    /// this tolerance, except for the runs of a refinement: a planned first
    /// round aims at its readout floor and a correction at what its round
    /// must deliver. Settling further buys precision this check discards.
    pub residual_tolerance: f64,
    /// Total analog attempts (including the first) before falling back.
    pub max_attempts: usize,
    /// Idle cool-down after the first classified transient, seconds of chip
    /// lifetime. Gives a transient fault window time to expire.
    pub cooldown_s: f64,
    /// Multiplier applied to the cool-down after each retry (escalating
    /// back-off).
    pub cooldown_growth: f64,
    /// Attempt one recalibration pass when a settled solve keeps failing
    /// validation (the drift signature).
    pub recalibrate_on_drift: bool,
    /// Attempt index from which a still-failing solve is remapped onto a
    /// fresh accelerator instance.
    pub remap_after: usize,
    /// Degrade to a digital CG solve once analog recovery is exhausted.
    pub digital_fallback: bool,
    /// Relative-residual stopping tolerance of the CG fallback.
    pub fallback_tolerance: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            residual_tolerance: 1e-2,
            max_attempts: 5,
            cooldown_s: 1e-3,
            cooldown_growth: 4.0,
            recalibrate_on_drift: true,
            remap_after: 3,
            digital_fallback: true,
            fallback_tolerance: 1e-6,
        }
    }
}

/// Why an analog attempt was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The run settled and read out, but the digital residual check failed —
    /// the signature of drift, readout corruption, or a mid-run glitch.
    ResidualTooHigh,
    /// The gradient flow did not settle within the run's time cap (e.g.
    /// an active noise burst keeps the derivative alive, or the slowest
    /// mode needs longer than the cap).
    NoSettle,
    /// Overflow persisted through the inner solver's whole rescale budget —
    /// the signature of a stuck-at-rail unit rather than a scaling problem.
    PersistentOverflow,
    /// The chip model itself errored (protocol violation, divergence, …).
    ChipError,
}

impl FailureClass {
    /// Short stable label used in telemetry events and logs.
    pub fn label(&self) -> &'static str {
        match self {
            FailureClass::ResidualTooHigh => "residual_too_high",
            FailureClass::NoSettle => "no_settle",
            FailureClass::PersistentOverflow => "persistent_overflow",
            FailureClass::ChipError => "chip_error",
        }
    }
}

/// What the supervisor did after an attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryAction {
    /// The solution passed validation.
    Accept,
    /// Add one Algorithm-2 correction to this near-miss (or planned
    /// first-round) answer: solve for its normalized residual and validate
    /// the sum.
    Refine,
    /// Idle for the recorded cool-down, then try again on the same chip.
    Retry {
        /// Chip-lifetime seconds idled before the next attempt.
        cooldown_s: f64,
    },
    /// Re-run host calibration to trim out drift, then try again.
    Recalibrate,
    /// Rebuild the solver on a fresh accelerator instance, then try again.
    Remap,
    /// Give up on analog and solve digitally.
    DigitalFallback,
    /// Give up entirely (digital fallback disabled).
    GiveUp,
}

impl RecoveryAction {
    /// Short stable label used in telemetry events and logs.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryAction::Accept => "accept",
            RecoveryAction::Refine => "refine",
            RecoveryAction::Retry { .. } => "retry",
            RecoveryAction::Recalibrate => "recalibrate",
            RecoveryAction::Remap => "remap",
            RecoveryAction::DigitalFallback => "digital_fallback",
            RecoveryAction::GiveUp => "give_up",
        }
    }
}

/// One analog attempt (or the final digital fallback) in the recovery log.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: usize,
    /// Validated relative residual, if the attempt produced a solution.
    pub residual: Option<f64>,
    /// Failure classification (`None` for an accepted attempt and for a
    /// planned first round, which is not a failure).
    pub classification: Option<FailureClass>,
    /// The action the supervisor took after this attempt.
    pub action: RecoveryAction,
    /// Stringified solver error, when the attempt returned one.
    pub error: Option<String>,
    /// Simulated analog seconds consumed by this attempt.
    pub analog_time_s: f64,
    /// Host wall-clock seconds spent on this attempt. Excluded from
    /// equality: two replays of the same fault plan are *logically*
    /// identical even though the host timing jitters.
    pub wall_time_s: f64,
}

impl PartialEq for AttemptRecord {
    fn eq(&self, other: &Self) -> bool {
        self.attempt == other.attempt
            && self.residual == other.residual
            && self.classification == other.classification
            && self.action == other.action
            && self.error == other.error
            && self.analog_time_s == other.analog_time_s
    }
}

/// How the accepted solution was ultimately produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalPath {
    /// Analog passed validation with no rejected attempt (a planned
    /// refinement round included).
    Analog,
    /// Analog succeeded after at least one rejected attempt.
    AnalogAfterRecovery,
    /// Analog recovery was exhausted; the digital fallback produced the
    /// solution.
    DigitalFallback,
}

impl FinalPath {
    /// Short stable label used in telemetry events and logs.
    pub fn label(&self) -> &'static str {
        match self {
            FinalPath::Analog => "analog",
            FinalPath::AnalogAfterRecovery => "analog_after_recovery",
            FinalPath::DigitalFallback => "digital_fallback",
        }
    }
}

/// The structured log of one supervised solve.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Every attempt, in order (the last entry is the accepted one).
    pub attempts: Vec<AttemptRecord>,
    /// How the accepted solution was produced.
    pub final_path: FinalPath,
    /// Recalibration passes performed.
    pub recalibrations: usize,
    /// Remaps onto a fresh accelerator instance.
    pub remaps: usize,
    /// Total chip-lifetime seconds spent idling between attempts.
    pub total_cooldown_s: f64,
    /// Relative residual of the accepted solution.
    pub final_residual: f64,
}

impl RecoveryReport {
    /// Simulated analog seconds across every attempt.
    pub fn analog_time_s(&self) -> f64 {
        self.attempts.iter().map(|a| a.analog_time_s).sum()
    }

    /// Attempts that were rejected: every one before the accepted one
    /// except a planned first round.
    pub fn rejected_attempts(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| a.classification.is_some())
            .count()
    }
}

/// A supervised solve's outcome: the solution plus the full recovery log.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedSolveReport {
    /// The accepted (validated) solution.
    pub solution: Vec<f64>,
    /// The inner analog report of the accepted attempt (`None` when the
    /// digital fallback produced the solution). A refined answer carries
    /// the report of the run it refined, with the refined solution.
    pub analog: Option<AnalogSolveReport>,
    /// The recovery log.
    pub recovery: RecoveryReport,
}

/// [`AnalogSystemSolver`] wrapped in the validate–classify–recover loop.
///
/// ```
/// use aa_linalg::CsrMatrix;
/// use aa_solver::{RecoveryConfig, SolverConfig, SupervisedSolver};
///
/// # fn main() -> Result<(), aa_solver::SolverError> {
/// let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0)?;
/// let mut solver =
///     SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default())?;
/// let report = solver.solve(&[1.0, 0.0, 0.0, 1.0])?;
/// assert!(report.recovery.final_residual <= 1e-2);
/// # Ok(())
/// # }
/// ```
pub struct SupervisedSolver {
    inner: AnalogSystemSolver,
    matrix: CsrMatrix,
    solver_config: SolverConfig,
    recovery: RecoveryConfig,
    /// The injected fault plan, kept so a remap can re-base it onto the
    /// replacement chip's fresh lifetime clock.
    fault_plan: Option<FaultPlan>,
    /// Lifetime seconds consumed by previous chip instances (before remaps).
    consumed_lifetime_s: f64,
    /// Krylov preconditioning's correction `κ_k` for application index `k`
    /// of an FCG solve on this structure. Kept here, not on the inner
    /// solver, so it outlives a single request and survives remaps.
    precond_scales: Vec<f64>,
}

impl std::fmt::Debug for SupervisedSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedSolver")
            .field("n", &self.matrix.dim())
            .field("recovery", &self.recovery)
            .field("faulted", &self.fault_plan.is_some())
            .finish()
    }
}

impl SupervisedSolver {
    /// Compiles `a` onto a fresh accelerator instance under supervision.
    ///
    /// # Errors
    ///
    /// Same as [`AnalogSystemSolver::new`].
    pub fn new(
        a: &CsrMatrix,
        config: &SolverConfig,
        recovery: &RecoveryConfig,
    ) -> Result<Self, SolverError> {
        let inner = AnalogSystemSolver::new(a, config)?;
        Ok(SupervisedSolver {
            matrix: a.clone(),
            solver_config: config.clone(),
            recovery: recovery.clone(),
            inner,
            fault_plan: None,
            consumed_lifetime_s: 0.0,
            precond_scales: Vec::new(),
        })
    }

    /// Injects a runtime-fault schedule into the underlying chip. The plan
    /// is kept so a mid-recovery remap carries the remaining fault windows
    /// over to the replacement instance.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.inner.chip_mut().inject_fault_plan(plan.clone());
        self.fault_plan = Some(plan);
    }

    /// The wrapped solver.
    pub fn inner(&self) -> &AnalogSystemSolver {
        &self.inner
    }

    /// Compiled-plan cache statistics of the underlying chip, so a fleet
    /// scheduler can report batching effectiveness without reaching through
    /// [`inner`](Self::inner) manually.
    pub fn plan_stats(&self) -> aa_analog::PlanStats {
        self.inner.plan_stats()
    }

    /// Total chip-lifetime seconds across every instance this supervisor has
    /// used (current chip plus any remapped-away predecessors).
    fn total_lifetime_s(&self) -> f64 {
        self.consumed_lifetime_s + self.inner.chip().lifetime_s()
    }

    /// Captures this supervisor's mutable state (see
    /// [`SupervisedCheckpoint`]).
    pub fn export_state(&self) -> SupervisedCheckpoint {
        SupervisedCheckpoint {
            solver: self.inner.export_state(),
            consumed_lifetime_s: self.consumed_lifetime_s,
            fault_plan: self.fault_plan.clone(),
            precond_scales: self.precond_scales.clone(),
        }
    }

    /// Restores a checkpointed state onto a supervisor freshly rebuilt with
    /// [`new`](Self::new) for the same matrix and configs.
    ///
    /// # Errors
    ///
    /// Same as [`AnalogSystemSolver::import_state`] — including the
    /// [`SolverError::CheckpointMismatch`] pass-config check, which runs
    /// before any supervisor state is touched.
    pub fn import_state(&mut self, state: &SupervisedCheckpoint) -> Result<(), SolverError> {
        self.inner.import_state(&state.solver)?;
        self.consumed_lifetime_s = state.consumed_lifetime_s;
        self.fault_plan = state.fault_plan.clone();
        self.precond_scales = state.precond_scales.clone();
        Ok(())
    }

    /// Starts the next solve's γ walk at the prediction for Krylov
    /// application `k`: `γ = κ_k·ρ/(margin·full_scale)`, where `rho`
    /// estimates `‖A⁻¹r̂‖` for the normalized residual and `κ_k` is 1 for
    /// an index not seen yet.
    pub(crate) fn predict_precond_scale(&mut self, k: usize, rho: f64) {
        let kappa = self.precond_scales.get(k).copied().unwrap_or(1.0);
        self.aim_solution_scale(kappa * rho);
    }

    /// Starts the next solve's γ walk where a solution peaking at `peak`
    /// fills `margin` of full scale: `γ = peak/(margin·full_scale)`.
    fn aim_solution_scale(&mut self, peak: f64) {
        let fs = self.inner.chip().config().full_scale;
        let gamma = peak / (self.solver_config.margin * fs);
        if gamma.is_finite() && gamma > 0.0 {
            self.inner.set_solution_factor(gamma);
        }
    }

    /// Refreshes `κ_k` from an accepted analog application, whose
    /// observed correction is the solution peak the chip read,
    /// `γ·peak_range_usage·full_scale`, over `rho`. The first observation
    /// of an index is taken as is; later ones are averaged in log space
    /// (geometric mean with the cached value), so one outlier residual
    /// cannot throw the next prediction out of the accepted range.
    pub(crate) fn learn_precond_scale(&mut self, k: usize, rho: f64, report: &AnalogSolveReport) {
        let fs = self.inner.chip().config().full_scale;
        let kappa = report.solution_factor * report.peak_range_usage * fs / rho;
        if !(kappa.is_finite() && kappa > 0.0) {
            return;
        }
        match self.precond_scales.get_mut(k) {
            Some(cached) => *cached = (*cached * kappa).sqrt(),
            None => {
                self.precond_scales.resize(k, 1.0);
                self.precond_scales.push(kappa);
            }
        }
    }

    /// The relative residual every [`solve`](Self::solve) answer must meet.
    pub(crate) fn residual_tolerance(&self) -> f64 {
        self.recovery.residual_tolerance
    }

    /// Solves `A·u = b` under supervision.
    ///
    /// # Errors
    ///
    /// * [`SolverError::InvalidProblem`] for a wrong-length `b` (no retry —
    ///   structural errors are not recoverable).
    /// * [`SolverError::RecoveryExhausted`] when the retry budget is spent
    ///   and the digital fallback is disabled (or CG itself fails).
    pub fn solve(&mut self, b: &[f64]) -> Result<SupervisedSolveReport, SolverError> {
        self.solve_to(b, self.recovery.residual_tolerance, WarmSlot::Request)
    }

    /// [`solve`](Self::solve) for an answer that must meet the relative
    /// residual `tol`, starting from and refreshing the warm-start basis in
    /// `slot`. Everything the supervision loop aims or checks follows
    /// `tol`: the planned first round, where each run stops, the √tol
    /// near-miss rule, a refinement round's target and the validation. A
    /// Krylov preconditioner application passes the contraction its outer
    /// loop still needs, and every application after the first is a
    /// residual correction ([`WarmSlot::Correction`]).
    pub(crate) fn solve_to(
        &mut self,
        b: &[f64],
        tol: f64,
        slot: WarmSlot,
    ) -> Result<SupervisedSolveReport, SolverError> {
        if b.len() != self.matrix.dim() {
            return Err(SolverError::invalid(format!(
                "rhs has {} entries, system has {}",
                b.len(),
                self.matrix.dim()
            )));
        }
        let b_norm = b
            .iter()
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt()
            .max(f64::MIN_POSITIVE);
        let budget = self.recovery.max_attempts.max(1);
        // A request whose expected readout floor q̂ takes more than the
        // `1 − θ` share of tol a run leaves for the readout is planned as
        // two rounds of Algorithm 2: the first run stops at its own target
        // `max(tol, q̂)`, since past the floor a longer run buys nothing the
        // readout keeps, and the correction takes the residual to tol.
        let plan = self
            .inner
            .readout_floor(b)
            .filter(|floor| budget > 1 && *floor > (1.0 - SETTLE_SHARE) * tol)
            .map(|floor| (floor, (tol.max(floor) / SETTLE_SHARE).min(tol.sqrt())));
        let _span = aa_obs::span("solver.recovery");
        aa_obs::counter("solver.supervised_solves", 1);

        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut cooldown = self.recovery.cooldown_s;
        let mut total_cooldown = 0.0;
        let mut recalibrations = 0usize;
        let mut remaps = 0usize;
        let mut best_residual: Option<f64> = None;
        let mut wants_fallback = self.recovery.digital_fallback;
        // The near-miss answer, with its relative residual, that the next
        // attempt refines instead of solving afresh.
        let mut refining: Option<(AnalogSolveReport, f64)> = None;

        for attempt in 1..=budget {
            let wall = Instant::now();
            let lifetime_before = self.total_lifetime_s();
            let refined = refining.take();
            let planned = plan.filter(|_| attempt == 1);
            let outcome = match &refined {
                None => {
                    let target = planned.map_or(tol, |(_, target)| target);
                    self.inner.solve_or_time_out(b, target, slot)
                }
                Some((candidate, r1)) => self
                    .refine(b, candidate, *r1, tol)
                    .map(|report| (report, false)),
            };
            let wall_s = wall.elapsed().as_secs_f64();
            let analog_time_s = self.total_lifetime_s() - lifetime_before;

            let (candidate, residual, classification, error) = match outcome {
                Ok((report, timed_out)) => {
                    let r = self.matrix.residual_norm(&report.solution, b) / b_norm;
                    if best_residual.is_none_or(|best| r < best) {
                        best_residual = Some(r);
                    }
                    if r <= tol && !timed_out {
                        if refined.is_some() {
                            // The refined answer, not the readout it
                            // refined, is what the next run from `slot`
                            // starts from.
                            self.inner.set_basis(slot, &report.solution);
                        }
                        let recovered = attempts.iter().any(|a| a.classification.is_some());
                        attempts.push(AttemptRecord {
                            attempt,
                            residual: Some(r),
                            classification: None,
                            action: RecoveryAction::Accept,
                            error: None,
                            analog_time_s,
                            wall_time_s: wall_s,
                        });
                        let final_path = if recovered {
                            FinalPath::AnalogAfterRecovery
                        } else {
                            FinalPath::Analog
                        };
                        if aa_obs::is_active() {
                            aa_obs::event(
                                aa_obs::Event::new("solver.recovery.attempt")
                                    .with("attempt", attempt)
                                    .with("action", "accept"),
                            );
                            aa_obs::event(
                                aa_obs::Event::new("solver.recovery.final")
                                    .with("path", final_path.label())
                                    .with("attempts", attempts.len()),
                            );
                        }
                        return Ok(SupervisedSolveReport {
                            solution: report.solution.clone(),
                            analog: Some(report),
                            recovery: RecoveryReport {
                                attempts,
                                final_path,
                                recalibrations,
                                remaps,
                                total_cooldown_s: total_cooldown,
                                final_residual: r,
                            },
                        });
                    }
                    let class = if timed_out {
                        FailureClass::NoSettle
                    } else {
                        FailureClass::ResidualTooHigh
                    };
                    (Some(report), Some(r), class, None)
                }
                Err(e @ SolverError::RescaleExhausted { .. }) => (
                    None,
                    None,
                    FailureClass::PersistentOverflow,
                    Some(e.to_string()),
                ),
                Err(e @ SolverError::Analog(_)) => {
                    (None, None, FailureClass::ChipError, Some(e.to_string()))
                }
                // Structural problems (bad rhs, degenerate matrix) are not
                // hardware faults; retrying cannot help.
                Err(other) => return Err(other),
            };

            // A fresh answer within √tol that missed tol, or whose run hit
            // its time cap, is a near miss: one round of Algorithm 2
            // contracts its residual r to about r², so r ≤ √tol can reach
            // tol where a retry would reproduce the same answer. A refined
            // answer that still fails walks the ladder below.
            let near_miss =
                refined.is_none() && attempt < budget && residual.is_some_and(|r| r <= tol.sqrt());
            let action = if near_miss {
                RecoveryAction::Refine
            } else {
                self.pick_action(classification, attempt, recalibrations, remaps, cooldown)
            };
            // A planned round that settled within √tol did what it was
            // planned for: it is the first half of the plan, not a failure.
            let on_plan =
                planned.filter(|_| near_miss && classification == FailureClass::ResidualTooHigh);
            attempts.push(AttemptRecord {
                attempt,
                residual,
                classification: on_plan.is_none().then_some(classification),
                action,
                error,
                analog_time_s,
                wall_time_s: wall_s,
            });
            if aa_obs::is_active() {
                let mut ev = aa_obs::Event::new("solver.recovery.attempt").with("attempt", attempt);
                ev = match on_plan {
                    Some((floor, target)) => ev
                        .with("planned", true)
                        .with("floor", floor)
                        .with("target", target),
                    None => {
                        aa_obs::counter("solver.recovery.rejected_attempts", 1);
                        ev.with("class", classification.label())
                    }
                };
                ev = ev.with("action", action.label());
                if let Some(r) = residual {
                    ev = ev.with("residual", r);
                }
                aa_obs::event(ev);
            }

            match action {
                RecoveryAction::Refine => {
                    refining = candidate.zip(residual);
                    aa_obs::counter("solver.recovery.refines", 1);
                }
                RecoveryAction::Retry { cooldown_s } => {
                    // Idle the chip so a transient fault window can expire.
                    self.inner.chip_mut().idle(cooldown_s);
                    total_cooldown += cooldown_s;
                    cooldown *= self.recovery.cooldown_growth;
                }
                RecoveryAction::Recalibrate => {
                    // The fault-aware probes trim active drift out like any
                    // static imperfection. A failure here (drift beyond the
                    // trim range) is not fatal: the next attempt's failure
                    // escalates to a remap.
                    let _ = calibrate(self.inner.chip_mut());
                    recalibrations += 1;
                    aa_obs::counter("solver.recovery.recalibrations", 1);
                }
                RecoveryAction::Remap => {
                    self.remap()?;
                    remaps += 1;
                    aa_obs::counter("solver.recovery.remaps", 1);
                }
                RecoveryAction::DigitalFallback => break,
                RecoveryAction::GiveUp => {
                    wants_fallback = false;
                    break;
                }
                RecoveryAction::Accept => unreachable!("accept is handled above"),
            }
        }

        if wants_fallback {
            return self.digital_fallback(
                b,
                b_norm,
                attempts,
                recalibrations,
                remaps,
                total_cooldown,
            );
        }
        aa_obs::event(
            aa_obs::Event::new("solver.recovery.final")
                .with("path", "exhausted")
                .with("attempts", attempts.len()),
        );
        Err(SolverError::RecoveryExhausted {
            attempts: attempts.len(),
            best_residual,
        })
    }

    /// Solves K right-hand sides, running as many as possible in one
    /// batched engine sweep and validating **each column's** digital
    /// residual independently.
    ///
    /// A column whose batched result passes validation is reported as a
    /// clean single-attempt [`FinalPath::Analog`] solve; a column that left
    /// the batch (pre-check or run-outcome fallback) or fails its residual
    /// check is re-solved individually through the full supervision ladder
    /// — the other columns keep their batched results. If the shared sweep
    /// itself errors, every column degrades to an individual supervised
    /// solve. The returned vector always has one entry per input column, in
    /// order.
    pub fn solve_batch(
        &mut self,
        bs: &[Vec<f64>],
    ) -> Vec<Result<SupervisedSolveReport, SolverError>> {
        if bs.len() <= 1 {
            return bs.iter().map(|b| self.solve(b)).collect();
        }
        let _span = aa_obs::span("solver.recovery.batch");
        aa_obs::counter("solver.supervised_batches", 1);
        let wall = Instant::now();
        let tol = self.recovery.residual_tolerance;
        let columns = match self.inner.solve_batch_within(bs, Some(tol)) {
            Ok(columns) => columns,
            Err(_) => {
                // The shared sweep failed as a whole (or a rhs was
                // structurally invalid): classify per column via the
                // sequential path, which reproduces the structural error
                // where it belongs and recovers the rest.
                return bs.iter().map(|b| self.solve(b)).collect();
            }
        };
        let wall_s = wall.elapsed().as_secs_f64();
        let mut batched_accepts = 0usize;
        let out = bs
            .iter()
            .zip(columns)
            .map(|(b, column)| {
                let report = match column {
                    crate::solve::BatchColumn::Solved(report) => report,
                    crate::solve::BatchColumn::Fallback(_) => return self.solve(b),
                };
                let b_norm = b
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>()
                    .sqrt()
                    .max(f64::MIN_POSITIVE);
                let residual = self.matrix.residual_norm(&report.solution, b) / b_norm;
                if residual > tol {
                    // Per-column validation failure: this column re-enters
                    // the sequential supervision ladder on its own.
                    aa_obs::counter("solver.recovery.batch_fallbacks", 1);
                    return self.solve(b);
                }
                batched_accepts += 1;
                Ok(SupervisedSolveReport {
                    solution: report.solution.clone(),
                    analog: Some(report.clone()),
                    recovery: RecoveryReport {
                        attempts: vec![AttemptRecord {
                            attempt: 1,
                            residual: Some(residual),
                            classification: None,
                            action: RecoveryAction::Accept,
                            error: None,
                            analog_time_s: report.analog_time_s,
                            wall_time_s: wall_s,
                        }],
                        final_path: FinalPath::Analog,
                        recalibrations: 0,
                        remaps: 0,
                        total_cooldown_s: 0.0,
                        final_residual: residual,
                    },
                })
            })
            .collect();
        if aa_obs::is_active() {
            aa_obs::event(
                aa_obs::Event::new("solver.recovery.batch")
                    .with("columns", bs.len())
                    .with("accepted", batched_accepts),
            );
        }
        out
    }

    /// One Algorithm-2 round on a near-miss `candidate` of relative
    /// residual `r1`: solves for its normalized residual with γ started at
    /// the Rayleigh prediction (and from the correction basis, so the
    /// request basis is left alone), adds the correction, and restores the
    /// γ the candidate ran at, so later solves start where they would have
    /// without the round. The round's residual is `r1` times the
    /// correction's own relative residual, so the correction run stops at
    /// `min(1, tol/r1)`, not at tol. The returned report is the
    /// candidate's with the refined solution.
    fn refine(
        &mut self,
        b: &[f64],
        candidate: &AnalogSolveReport,
        r1: f64,
        tol: f64,
    ) -> Result<AnalogSolveReport, SolverError> {
        let residual = self.matrix.residual(&candidate.solution, b);
        let target = (tol / r1).min(1.0);
        let round = refine::correction(&residual, |r_unit| {
            self.aim_solution_scale(rayleigh_inverse_gain(&self.matrix, r_unit));
            self.inner
                .solve_or_time_out(r_unit, target, WarmSlot::Correction)
        });
        self.inner.set_solution_factor(candidate.solution_factor);
        let mut refined = candidate.clone();
        if let Some((r_peak, (correction, _))) = round? {
            vector::axpy(r_peak, &correction.solution, &mut refined.solution);
        }
        Ok(refined)
    }

    /// Chooses the next action for a failed attempt.
    fn pick_action(
        &self,
        class: FailureClass,
        attempt: usize,
        recalibrations: usize,
        remaps: usize,
        cooldown: f64,
    ) -> RecoveryAction {
        let give_up = if self.recovery.digital_fallback {
            RecoveryAction::DigitalFallback
        } else {
            RecoveryAction::GiveUp
        };
        if attempt >= self.recovery.max_attempts {
            return give_up;
        }
        let may_remap = remaps == 0;
        let remap_due = attempt >= self.recovery.remap_after && may_remap;
        match class {
            FailureClass::ResidualTooHigh => {
                // First failure: assume a transient and wait it out. A
                // repeat of the settled-but-wrong signature means drift —
                // recalibrate; if even that does not cure it, remap.
                if self.recovery.recalibrate_on_drift && recalibrations == 0 && attempt >= 2 {
                    RecoveryAction::Recalibrate
                } else if remap_due {
                    RecoveryAction::Remap
                } else {
                    RecoveryAction::Retry {
                        cooldown_s: cooldown,
                    }
                }
            }
            FailureClass::NoSettle => {
                if remap_due {
                    RecoveryAction::Remap
                } else {
                    RecoveryAction::Retry {
                        cooldown_s: cooldown,
                    }
                }
            }
            // Overflow that survived the inner rescale budget (or a chip
            // error) will not be cured by waiting: swap the hardware, and if
            // that was already tried, go digital.
            FailureClass::PersistentOverflow | FailureClass::ChipError => {
                if may_remap {
                    RecoveryAction::Remap
                } else {
                    give_up
                }
            }
        }
    }

    /// Rebuilds the inner solver on a fresh accelerator instance, carrying
    /// the remaining fault windows over to its lifetime clock. The
    /// warm-start bases are host data, not chip state, so they carry over.
    fn remap(&mut self) -> Result<(), SolverError> {
        self.consumed_lifetime_s += self.inner.chip().lifetime_s();
        let fresh = AnalogSystemSolver::new(&self.matrix, &self.solver_config)?;
        let old = std::mem::replace(&mut self.inner, fresh);
        self.inner.keep_warm_starts_of(&old);
        if let Some(plan) = &self.fault_plan {
            self.inner
                .chip_mut()
                .inject_fault_plan(plan.shifted(self.consumed_lifetime_s));
        }
        Ok(())
    }

    /// The graceful-degradation path: a digital CG solve.
    fn digital_fallback(
        &self,
        b: &[f64],
        b_norm: f64,
        mut attempts: Vec<AttemptRecord>,
        recalibrations: usize,
        remaps: usize,
        total_cooldown_s: f64,
    ) -> Result<SupervisedSolveReport, SolverError> {
        let wall = Instant::now();
        let cfg = IterativeConfig::with_stopping(StoppingCriterion::RelativeResidual(
            self.recovery.fallback_tolerance,
        ));
        let analog_attempts = attempts.len();
        let report = cg(&self.matrix, b, &cfg).map_err(|_| SolverError::RecoveryExhausted {
            attempts: analog_attempts,
            best_residual: attempts.iter().filter_map(|a| a.residual).reduce(f64::min),
        })?;
        let residual = self.matrix.residual_norm(&report.solution, b) / b_norm;
        attempts.push(AttemptRecord {
            attempt: analog_attempts + 1,
            residual: Some(residual),
            classification: None,
            action: RecoveryAction::DigitalFallback,
            error: None,
            analog_time_s: 0.0,
            wall_time_s: wall.elapsed().as_secs_f64(),
        });
        if aa_obs::is_active() {
            aa_obs::event(
                aa_obs::Event::new("solver.recovery.attempt")
                    .with("attempt", analog_attempts + 1)
                    .with("action", "cg_fallback")
                    .with("iterations", report.iterations),
            );
            aa_obs::event(
                aa_obs::Event::new("solver.recovery.final")
                    .with("path", FinalPath::DigitalFallback.label())
                    .with("attempts", attempts.len()),
            );
        }
        Ok(SupervisedSolveReport {
            solution: report.solution,
            analog: None,
            recovery: RecoveryReport {
                attempts,
                final_path: FinalPath::DigitalFallback,
                recalibrations,
                remaps,
                total_cooldown_s,
                final_residual: residual,
            },
        })
    }
}

/// Rayleigh-quotient estimate of `‖A⁻¹v‖` for a unit-peak `v`:
/// `vᵀv / vᵀA·v`. Costs one host mat-vec and two dot products.
pub(crate) fn rayleigh_inverse_gain(a: &CsrMatrix, v: &[f64]) -> f64 {
    let mut a_v = vec![0.0; v.len()];
    a.apply(v, &mut a_v);
    vector::dot(v, v) / vector::dot(v, &a_v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_analog::units::UnitId;
    use aa_analog::{EngineOptions, FaultEvent, FaultKind, Rail};
    use aa_linalg::stencil::PoissonStencil;

    fn poisson_3() -> CsrMatrix {
        CsrMatrix::from_row_access(&PoissonStencil::new_1d(3).unwrap())
    }

    /// A config with a short settle cap so faulted runs fail fast.
    fn test_config() -> SolverConfig {
        SolverConfig {
            engine: EngineOptions {
                stop_on_exception: true,
                max_tau: 300.0,
                ..EngineOptions::default()
            },
            ..SolverConfig::ideal()
        }
    }

    #[test]
    fn clean_solve_accepts_first_attempt() {
        let a = poisson_3();
        let mut s = SupervisedSolver::new(&a, &test_config(), &RecoveryConfig::default()).unwrap();
        let report = s.solve(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(report.recovery.final_path, FinalPath::Analog);
        assert_eq!(report.recovery.attempts.len(), 1);
        assert_eq!(report.recovery.attempts[0].action, RecoveryAction::Accept);
        assert!(report.recovery.final_residual <= 1e-2);
        assert!(report.analog.is_some());
    }

    #[test]
    fn transient_noise_burst_recovers_with_cooldown() {
        let a = poisson_3();
        let mut s = SupervisedSolver::new(&a, &test_config(), &RecoveryConfig::default()).unwrap();
        // Burst active for the first 2.5 ms of chip lifetime: attempt 1
        // cannot settle; the cool-down idles past the window.
        s.inject_faults(FaultPlan::new(21).with_event(FaultEvent::transient(
            FaultKind::NoiseBurst {
                unit: UnitId::Integrator(1),
                amplitude: 0.05,
            },
            0.0,
            2.5e-3,
        )));
        let report = s.solve(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(report.recovery.final_path, FinalPath::AnalogAfterRecovery);
        assert!(report.recovery.rejected_attempts() >= 1);
        assert!(matches!(
            report.recovery.attempts[0].classification,
            Some(FailureClass::NoSettle)
        ));
        assert!(report.recovery.total_cooldown_s > 0.0);
        assert!(report.recovery.final_residual <= 1e-2);
    }

    #[test]
    fn persistent_stuck_rail_degrades_to_digital() {
        let a = poisson_3();
        let recovery = RecoveryConfig {
            max_attempts: 3,
            ..RecoveryConfig::default()
        };
        let mut s = SupervisedSolver::new(&a, &test_config(), &recovery).unwrap();
        s.inject_faults(FaultPlan::new(0).with_event(FaultEvent::persistent(
            FaultKind::StuckAtRail {
                integrator: 0,
                rail: Rail::Positive,
            },
            0.0,
        )));
        let b = [1.0, 0.5, 1.0];
        let report = s.solve(&b).unwrap();
        assert_eq!(report.recovery.final_path, FinalPath::DigitalFallback);
        assert!(report.analog.is_none());
        assert!(report.recovery.remaps >= 1, "should have tried a remap");
        assert!(report
            .recovery
            .attempts
            .iter()
            .any(|a| a.classification == Some(FailureClass::PersistentOverflow)));
        // The digital answer is good.
        assert!(report.recovery.final_residual <= 1e-6);
    }

    /// The slowest mode of `tridiagonal(18, -1, 2, -1)` needs more than
    /// the 300 τ cap of [`test_config`] to settle, on a healthy chip, even
    /// under the supervised stop rule ([`assert_outlasts_the_cap`]).
    fn slow_settling() -> (CsrMatrix, Vec<f64>, RecoveryConfig) {
        let a = CsrMatrix::tridiagonal(18, -1.0, 2.0, -1.0).unwrap();
        let b = (0..18).map(|i| 0.1 + 0.075 * i as f64).collect();
        let recovery = RecoveryConfig {
            max_attempts: 3,
            ..RecoveryConfig::default()
        };
        (a, b, recovery)
    }

    /// The premise of [`slow_settling`]: one supervised run of `b` at solution
    /// scale `gamma`, on a healthy chip without the cap, settles only after
    /// more than the cap's 300 τ.
    fn assert_outlasts_the_cap(a: &CsrMatrix, b: &[f64], gamma: f64, recovery: &RecoveryConfig) {
        let mut healthy = AnalogSystemSolver::new(a, &SolverConfig::ideal()).unwrap();
        healthy.set_solution_factor(gamma);
        let (run, timed_out) = healthy
            .solve_or_time_out(b, recovery.residual_tolerance, WarmSlot::Request)
            .unwrap();
        let tau = 1.0 / healthy.chip().config().omega();
        assert!(!timed_out && run.runs == 1, "{run:?}");
        assert!(
            run.analog_time_s > test_config().engine.max_tau * tau,
            "settles in {} τ",
            run.analog_time_s / tau
        );
    }

    /// A supervisor on `tridiagonal(12, -1, 2, -1)` without a cap, and a
    /// rough right-hand side whose first answer is a settled near miss.
    fn near_miss() -> (SupervisedSolver, CsrMatrix, Vec<f64>) {
        let a = CsrMatrix::tridiagonal(12, -1.0, 2.0, -1.0).unwrap();
        let b = (0..12)
            .map(|i| 0.1 + 0.09 * ((i * 7) % 11) as f64)
            .collect();
        let (_, _, recovery) = slow_settling();
        let s = SupervisedSolver::new(&a, &SolverConfig::ideal(), &recovery).unwrap();
        (s, a, b)
    }

    #[test]
    fn settled_near_miss_is_refined_not_retried() {
        // Without a cap this system settles, but for this rough rhs its
        // answer sits at the converters' quantization floor, just above the
        // tolerance: a retry would reproduce it bit for bit.
        let (mut s, a, b) = near_miss();
        let report = s.solve(&b).unwrap();
        let first = &report.recovery.attempts[0];
        assert_eq!(first.classification, Some(FailureClass::ResidualTooHigh));
        assert!(first.residual.is_some_and(|r| r > 1e-2 && r <= 1e-1));
        assert_eq!(first.action, RecoveryAction::Refine);
        assert_eq!(report.recovery.attempts.len(), 2);
        assert_eq!(report.recovery.final_path, FinalPath::AnalogAfterRecovery);
        assert_eq!(report.recovery.recalibrations, 0);
        let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(a.residual_norm(&report.solution, &b) / b_norm <= 1e-2);
    }

    #[test]
    fn timed_out_near_miss_is_refined_not_retried() {
        let (a, b, recovery) = slow_settling();
        let mut s = SupervisedSolver::new(&a, &test_config(), &recovery).unwrap();
        let recorder = aa_obs::MemoryRecorder::shared();
        let report = aa_obs::with_recorder(recorder.clone(), || s.solve(&b).unwrap());
        let steps: Vec<_> = report
            .recovery
            .attempts
            .iter()
            .map(|a| (a.classification, a.action))
            .collect();
        assert_eq!(
            steps,
            [
                (Some(FailureClass::NoSettle), RecoveryAction::Refine),
                (None, RecoveryAction::Accept)
            ],
            "{:#?}",
            report.recovery
        );
        assert_eq!(report.recovery.final_path, FinalPath::AnalogAfterRecovery);
        // The first attempt timed out because the system is slow, not
        // because anything failed (the refined report keeps its γ).
        let gamma = report.analog.as_ref().unwrap().solution_factor;
        assert_outlasts_the_cap(&a, &b, gamma, &recovery);
        let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(a.residual_norm(&report.solution, &b) / b_norm <= 1e-2);
        // The old ladder ran every attempt to the cap before going digital.
        let first = report.recovery.attempts[0].analog_time_s;
        assert!(report.recovery.analog_time_s() < recovery.max_attempts as f64 * first);
        // The trace alone says why the request took the recovery path.
        if aa_obs::ENABLED {
            let trace = recorder.snapshot();
            let attempts: Vec<String> = trace
                .events_of_kind("solver.recovery.attempt")
                .map(|e| e.render())
                .collect();
            assert_eq!(attempts.len(), 2, "{attempts:?}");
            assert!(
                attempts[0].contains("class=no_settle action=refine residual="),
                "{attempts:?}"
            );
            assert!(attempts[1].contains("action=accept"), "{attempts:?}");
            assert_eq!(trace.counter("solver.recovery.refines"), 1);
        }
    }

    #[test]
    fn refined_recovery_replays_bit_identically() {
        let (a, b, recovery) = slow_settling();
        let run = || {
            let mut s = SupervisedSolver::new(&a, &test_config(), &recovery).unwrap();
            s.solve(&b).unwrap()
        };
        let (first, second) = (run(), run());
        assert_eq!(first.recovery, second.recovery);
        assert_eq!(first.solution, second.solution);
    }

    #[test]
    fn planned_round_aims_its_correction_at_the_tolerance() {
        // The fleet's weakly dominant n = 12 structure: once γ has settled,
        // its 12-bit readout floor sits above ¾ of the tolerance, so each
        // request is planned as two rounds.
        let a = CsrMatrix::tridiagonal(12, -1.0, 2.0, -1.0).unwrap();
        let (_, _, recovery) = slow_settling();
        let tol = recovery.residual_tolerance;
        let mut s = SupervisedSolver::new(&a, &test_config(), &recovery).unwrap();
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(41);
        let mut rhs = || -> Vec<f64> { (0..12).map(|_| rng.range(0.1, 1.0)).collect() };
        s.solve(&rhs()).unwrap();
        let recorder = aa_obs::MemoryRecorder::shared();
        let mut planned = 0;
        for _ in 0..12 {
            let b = rhs();
            let floor = s.inner().readout_floor(&b).expect("γ has settled");
            let report = aa_obs::with_recorder(recorder.clone(), || s.solve(&b).unwrap());
            let r = a.residual_norm(&report.solution, &b) / vector::norm2(&b);
            assert!(r <= tol, "residual {r}: {:#?}", report.recovery);
            let first = &report.recovery.attempts[0];
            if floor > (1.0 - SETTLE_SHARE) * tol && first.action == RecoveryAction::Refine {
                planned += 1;
                assert_eq!(first.classification, None);
                assert_eq!(report.recovery.rejected_attempts(), 0);
                assert_eq!(report.recovery.final_path, FinalPath::Analog);
                // The correction stopped at its own target, tol/r₁, not at
                // tol relative to its right-hand side.
                assert!((tol / 20.0..=tol).contains(&r), "refined residual {r}");
            }
        }
        assert!(planned >= 6, "{planned} of 12 requests planned");
        if aa_obs::ENABLED {
            let trace = recorder.snapshot();
            let planned_events = trace
                .events_of_kind("solver.recovery.attempt")
                .filter(|e| e.field("planned").is_some())
                .count();
            assert_eq!(planned_events, planned);
            assert!(trace
                .events_of_kind("solver.recovery.attempt")
                .filter(|e| e.field("planned").is_some())
                .all(|e| e.field("floor").is_some() && e.field("target").is_some()));
            assert_eq!(trace.counter("solver.recovery.rejected_attempts"), 0);
        }
    }

    #[test]
    fn give_up_without_fallback_is_structured_error() {
        let a = poisson_3();
        let recovery = RecoveryConfig {
            max_attempts: 2,
            digital_fallback: false,
            ..RecoveryConfig::default()
        };
        let mut s = SupervisedSolver::new(&a, &test_config(), &recovery).unwrap();
        s.inject_faults(FaultPlan::new(0).with_event(FaultEvent::persistent(
            FaultKind::StuckAtRail {
                integrator: 1,
                rail: Rail::Negative,
            },
            0.0,
        )));
        match s.solve(&[1.0, 1.0, 1.0]) {
            Err(SolverError::RecoveryExhausted { attempts, .. }) => assert!(attempts >= 1),
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
    }

    #[test]
    fn wrong_rhs_length_is_not_retried() {
        let a = poisson_3();
        let mut s = SupervisedSolver::new(&a, &test_config(), &RecoveryConfig::default()).unwrap();
        assert!(matches!(
            s.solve(&[1.0]),
            Err(SolverError::InvalidProblem { .. })
        ));
    }

    #[test]
    fn refined_answer_becomes_the_request_basis() {
        let (mut s, _, b) = near_miss();
        let report = s.solve(&b).unwrap();
        assert_eq!(report.recovery.attempts[0].action, RecoveryAction::Refine);
        assert_eq!(report.recovery.final_path, FinalPath::AnalogAfterRecovery);
        // The next request starts from the accepted answer, not from the
        // correction the refinement round read out.
        let state = s.export_state().solver;
        assert_eq!(state.warm_start.unwrap().basis, report.solution);
        let correction = state
            .correction_warm_start
            .expect("the round's run settled");
        assert_ne!(correction.basis, report.solution);
    }

    #[test]
    fn checkpoint_round_trips_both_warm_start_bases() {
        let (mut original, a, b) = near_miss();
        original.solve(&b).unwrap();
        let snap = original.export_state();
        assert!(snap.solver.warm_start.is_some());
        assert!(snap.solver.correction_warm_start.is_some());

        let mut restored =
            SupervisedSolver::new(&a, &SolverConfig::ideal(), &original.recovery).unwrap();
        restored.import_state(&snap).unwrap();
        // Further near misses read the correction basis as well.
        let stream: Vec<Vec<f64>> = (1..4)
            .map(|k| b.iter().map(|v| v * (1.0 - 0.1 * k as f64)).collect())
            .collect();
        for b in &stream {
            let from_restored = restored.solve(b).unwrap();
            let from_original = original.solve(b).unwrap();
            assert_eq!(from_restored, from_original);
        }
        assert_eq!(restored.export_state(), original.export_state());
    }

    #[test]
    fn remap_keeps_the_warm_start_bases() {
        let (mut s, _, b) = near_miss();
        s.solve(&b).unwrap();
        let before = s.export_state().solver;
        assert!(before.warm_start.is_some() && before.correction_warm_start.is_some());
        s.remap().unwrap();
        let after = s.export_state().solver;
        assert_eq!(after.warm_start, before.warm_start);
        assert_eq!(after.correction_warm_start, before.correction_warm_start);
    }

    #[test]
    fn mismatched_checkpoint_leaves_the_supervisor_untouched() {
        let a = poisson_3();
        let mut opt_cfg = test_config();
        opt_cfg.engine.passes = aa_analog::PassConfig::full();
        let mut original = SupervisedSolver::new(&a, &opt_cfg, &RecoveryConfig::default()).unwrap();
        original.solve(&[1.0, 0.5, 1.0]).unwrap();
        let snap = original.export_state();
        assert_eq!(snap.solver.passes, aa_analog::PassConfig::full());

        // Matching config restores cleanly.
        let mut restored = SupervisedSolver::new(&a, &opt_cfg, &RecoveryConfig::default()).unwrap();
        restored.import_state(&snap).unwrap();
        assert_eq!(restored.export_state(), snap);

        // A default-pass supervisor refuses — and stays exactly as it was,
        // including its own lifetime bookkeeping.
        let mut plain =
            SupervisedSolver::new(&a, &test_config(), &RecoveryConfig::default()).unwrap();
        let before = plain.export_state();
        assert!(matches!(
            plain.import_state(&snap),
            Err(SolverError::CheckpointMismatch { .. })
        ));
        assert_eq!(plain.export_state(), before);
    }
}
