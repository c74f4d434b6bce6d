//! The high-level analog linear-system solver.
//!
//! [`AnalogSystemSolver`] owns the full host-side flow of paper §III-B:
//! scale the problem into hardware range, compile it onto a chip, calibrate,
//! program the right-hand side, run to steady state, check the exception
//! vector, rescale-and-retry on overflow, and read out the solution through
//! averaged ADC conversions.

use aa_analog::{calibrate, ChipConfig, EngineOptions, NonIdealityConfig};
use aa_linalg::{vector, CsrMatrix, LinearOperator};

use crate::estimate::scaled_lambda_min;
use crate::mapping::MappedSystem;
use crate::scaling::ScaledSystem;
use crate::SolverError;

/// Configuration of the analog solve flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Analog bandwidth of the accelerator, Hz.
    pub bandwidth_hz: f64,
    /// ADC (and DAC) resolution in bits.
    pub adc_bits: u32,
    /// Non-ideality magnitudes of the chip instance.
    pub nonideal: NonIdealityConfig,
    /// Run calibration (`init`) before the first solve.
    pub calibrate: bool,
    /// Engine integration options. Each run stops at the looser of
    /// `engine.steady_tol` and the tolerance below which the ADC readout
    /// can no longer change ([`AnalogSystemSolver::new`]) — or, under a
    /// [`SupervisedSolver`](crate::SupervisedSolver), the looser of that
    /// and the tolerance at which the run's residual meets the
    /// supervisor's; `None` keeps steady-state detection off.
    pub engine: EngineOptions,
    /// Target fraction of full scale for the expected solution peak.
    pub margin: f64,
    /// Initial estimate of `‖u‖∞` used to pick the solution scale.
    pub solution_bound: f64,
    /// How many overflow-driven rescale attempts before giving up.
    pub max_rescale_attempts: usize,
    /// Re-run with less headroom when peak range usage falls below this
    /// fraction of full scale (the §III-B underuse response). Zero disables.
    pub underuse_threshold: f64,
    /// ADC conversions averaged per variable at readout.
    pub readout_samples: usize,
}

impl SolverConfig {
    /// An idealized accelerator (no offsets, gain errors, or noise) at the
    /// prototype's 20 kHz bandwidth with 12-bit converters. The right
    /// default for algorithmic studies.
    pub fn ideal() -> Self {
        SolverConfig {
            bandwidth_hz: 20e3,
            adc_bits: 12,
            nonideal: NonIdealityConfig::none(),
            calibrate: false,
            engine: EngineOptions {
                // Overflow never settles; let the host react immediately.
                stop_on_exception: true,
                max_tau: 2e5,
                ..EngineOptions::default()
            },
            margin: 0.7,
            solution_bound: 1.0,
            max_rescale_attempts: 8,
            underuse_threshold: 0.3,
            readout_samples: 16,
        }
    }

    /// A realistic calibrated chip: default process variation, calibration
    /// on, 8-bit converters — the fabricated prototype's operating point.
    pub fn prototype() -> Self {
        SolverConfig {
            adc_bits: 8,
            nonideal: NonIdealityConfig::default(),
            calibrate: true,
            ..SolverConfig::ideal()
        }
    }

    /// Returns a copy with a different bandwidth.
    pub fn bandwidth(mut self, hz: f64) -> Self {
        self.bandwidth_hz = hz;
        self
    }

    /// Returns a copy with a different converter resolution.
    pub fn adc_bits(mut self, bits: u32) -> Self {
        self.adc_bits = bits;
        self
    }

    /// The chip template this config describes.
    pub(crate) fn chip_template(&self) -> ChipConfig {
        let mut cfg = ChipConfig::prototype()
            .with_bandwidth(self.bandwidth_hz)
            .with_adc_bits(self.adc_bits)
            .with_nonideal(self.nonideal);
        cfg.dac_bits = self.adc_bits;
        cfg
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig::ideal()
    }
}

/// The outcome of one analog solve.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogSolveReport {
    /// The recovered (unscaled) solution.
    pub solution: Vec<f64>,
    /// Simulated analog computation time, in seconds, across all attempts.
    pub analog_time_s: f64,
    /// Number of `execStart` runs (1 + rescale retries).
    pub runs: usize,
    /// Overflow exceptions encountered on the way (empty if first-try).
    pub overflow_retries: usize,
    /// Underuse-driven rescales (range usage below the threshold).
    pub underuse_retries: usize,
    /// Peak integrator range usage of the final run, `max_i |ũ_i|/fs`.
    pub peak_range_usage: f64,
    /// The value-scale factor `s` that was applied (time stretch).
    pub value_factor: f64,
    /// The solution-scale factor `γ` of the final successful run.
    pub solution_factor: f64,
}

/// One column's outcome from a batched multi-RHS solve.
///
/// The batched fast path never walks the solution scale `γ`: a column whose
/// pre-checks or run outcome would have triggered a rescale retry leaves the
/// batch instead, so the caller can run the full sequential ladder on it
/// while the passing columns keep their shared-sweep result.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchColumn {
    /// The column solved inside the batch (exactly one run, no retries) —
    /// or, for the first column of a batch on an uncalibrated solver,
    /// through the sequential γ-calibration solve (whose report then
    /// carries the walk's run and retry counts).
    Solved(AnalogSolveReport),
    /// The column left the batched fast path; the label records why (stable
    /// telemetry vocabulary: `rhs_overflow`, `rhs_underuse`, `overflow`,
    /// `no_steady_state`, `underuse`).
    Fallback(&'static str),
}

/// The solver's one-vector warm-start basis: its last settled readout
/// `u_p` and the energy `u_pᵀA·u_p`.
///
/// A run for `b` starts at the A-norm-optimal multiple `α·u_p`, with the
/// Galerkin coefficient `α = u_pᵀb / u_pᵀA·u_p` (the one-vector case of
/// Fischer's projection method for successive right-hand sides). It
/// minimizes `‖u* − α·u_p‖_A` over `α`, and `α = 0` is the cold start, so
/// the guess is never further from the answer in the A-norm than zero is.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// The last settled (unscaled) readout `u_p`.
    pub basis: Vec<f64>,
    /// `u_pᵀA·u_p`, positive.
    pub energy: f64,
}

impl WarmStart {
    /// The basis for a settled readout `u` of `A·u = b`; `None` when
    /// `u_pᵀA·u_p` is not positive (a zero readout spans nothing).
    fn new(a: &CsrMatrix, u: &[f64]) -> Option<Self> {
        let energy = vector::dot(u, &a.apply_vec(u));
        (energy.is_finite() && energy > 0.0).then(|| WarmStart {
            basis: u.to_vec(),
            energy,
        })
    }

    /// The Galerkin coefficient `α` for `b` and the guess `α·u_p`.
    fn guess(&self, b: &[f64]) -> (f64, Vec<f64>) {
        let alpha = vector::dot(&self.basis, b) / self.energy;
        (alpha, self.basis.iter().map(|u| alpha * u).collect())
    }
}

/// Which warm-start basis a run starts from and, once settled, refreshes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WarmSlot {
    /// A request's own right-hand side.
    Request,
    /// A refinement round's normalized residual, or a Krylov
    /// preconditioner application after the first: its answer is a
    /// correction, a poor guess for the next request's solution.
    Correction,
}

/// The share `θ` of the supervisor's residual tolerance that a supervised
/// run may leave unsettled when it stops.
///
/// In the value-scaled flow `dũ/dτ = b̃ − Ã·ũ` the derivative the engine
/// checks for steady state is the run's residual, so a run stopped at
/// `max|dũ/dτ| ≤ θ·tol·‖b̃‖₂/√n` has
/// `‖b̃ − Ã·ũ‖₂ ≤ √n·max|dũ/dτ| ≤ θ·tol·‖b̃‖₂`. Every scaling is a scalar
/// (`b − A·u = s·γ·(b̃ − Ã·ũ)`), so the unscaled system has the same
/// relative residual. The remaining `1 − θ = ¾` of the tolerance is left
/// for what the readout adds to the settled state: ADC quantization and
/// readout noise.
pub(crate) const SETTLE_SHARE: f64 = 0.25;

/// A snapshot of one [`AnalogSystemSolver`]'s cross-solve mutable state:
/// the adaptive solution-scale factor `γ` (walked by overflow/underuse
/// retries across solves), the two warm-start bases, plus the underlying
/// chip's runtime state. The matrix, config, and compiled circuit are
/// excluded — the restore path rebuilds them deterministically with
/// [`AnalogSystemSolver::new`] before importing.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverCheckpoint {
    /// The solution-scale factor `γ` in effect at capture time.
    pub solution_factor: f64,
    /// Whether the `γ` walk had settled (any accepted solve) at capture
    /// time; governs batched-solve pre-calibration after restore.
    pub calibrated: bool,
    /// The engine pass configuration the solver ran with at capture time.
    /// Restore rejects a checkpoint whose passes disagree with the
    /// restoring solver's config
    /// ([`SolverError::CheckpointMismatch`](crate::SolverError)) — the
    /// cached plans and obs journals would not line up.
    pub passes: aa_analog::PassConfig,
    /// The warm-start basis the next request's runs start from (`None`
    /// starts cold).
    pub warm_start: Option<WarmStart>,
    /// The warm-start basis the next refinement round's correction run
    /// starts from (`None` starts cold).
    pub correction_warm_start: Option<WarmStart>,
    /// The chip's mutable runtime state.
    pub chip: aa_analog::ChipCheckpoint,
}

/// A solver bound to one matrix `A`, reusable across right-hand sides.
///
/// Construction compiles the circuit once (the expensive, static part);
/// each [`solve`](AnalogSystemSolver::solve) only reprograms DACs — exactly
/// the configuration/computation split of the paper's ISA.
pub struct AnalogSystemSolver {
    mapped: MappedSystem,
    scaled: ScaledSystem,
    matrix: CsrMatrix,
    config: SolverConfig,
    /// The engine options every run uses: `config.engine` with the settle
    /// tolerance loosened to [`readout_settle_tol`] (and, for a supervised
    /// run, further to [`residual_settle_tol`]).
    engine: EngineOptions,
    /// Whether any solve has been accepted under the current `γ` — i.e.
    /// the overflow/underuse walk has settled. A batch on an uncalibrated
    /// solver pre-pays one sequential solve to establish `γ` instead of
    /// running a sweep that every column would fall out of.
    calibrated: bool,
    /// The last settled answer every request's runs start from; `None`
    /// until a run settles, so a fresh solver's first solve starts at zero.
    warm_start: Option<WarmStart>,
    /// The last settled correction a refinement round's run starts from
    /// ([`WarmSlot::Correction`]).
    correction_warm_start: Option<WarmStart>,
}

impl std::fmt::Debug for AnalogSystemSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalogSystemSolver")
            .field("n", &self.matrix.dim())
            .field("value_factor", &self.scaled.value_factor)
            .field("config", &self.config)
            .finish()
    }
}

impl AnalogSystemSolver {
    /// Scales and compiles `a` onto a fresh accelerator instance.
    ///
    /// Every run of the solver stops once its readout is within half an
    /// ADC code of the settled state: the configured `steady_tol` is
    /// loosened to `λ̃_min · adc_lsb / (2√n)` whenever that is looser, with
    /// `λ̃_min` the smallest eigenvalue of the value-scaled matrix
    /// ([`scaled_lambda_min`]).
    ///
    /// # Errors
    ///
    /// * [`SolverError::InvalidProblem`] for degenerate matrices.
    /// * [`SolverError::Analog`] if calibration fails (bad die).
    pub fn new(a: &CsrMatrix, config: &SolverConfig) -> Result<Self, SolverError> {
        let template = config.chip_template();
        let scaled = ScaledSystem::new(
            a,
            template.max_gain,
            template.full_scale,
            config.margin,
            config.solution_bound,
        )?;
        let mut mapped = MappedSystem::new(&scaled.matrix, &template)?;
        if config.calibrate {
            calibrate(mapped.chip_mut())?;
        }
        let engine = EngineOptions {
            steady_tol: readout_settle_tol(a, &template, config.engine.steady_tol),
            ..config.engine.clone()
        };
        Ok(AnalogSystemSolver {
            mapped,
            scaled,
            matrix: a.clone(),
            config: config.clone(),
            engine,
            calibrated: false,
            warm_start: None,
            correction_warm_start: None,
        })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.matrix.dim()
    }

    /// The matrix this solver was compiled for.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// The settle tolerance every run of this solver stops at
    /// ([`readout_settle_tol`]).
    #[cfg(test)]
    pub(crate) fn steady_tol(&self) -> Option<f64> {
        self.engine.steady_tol
    }

    /// The scaling currently applied.
    pub fn scaling(&self) -> &ScaledSystem {
        &self.scaled
    }

    /// The compiled circuit (for inspection and ablations).
    pub fn mapped(&self) -> &MappedSystem {
        &self.mapped
    }

    /// The underlying chip instance.
    pub fn chip(&self) -> &aa_analog::AnalogChip {
        self.mapped.chip()
    }

    /// Mutable access to the underlying chip instance (fault injection,
    /// recalibration, idle cool-downs).
    pub fn chip_mut(&mut self) -> &mut aa_analog::AnalogChip {
        self.mapped.chip_mut()
    }

    /// Plan-cache activity of the underlying chip. Because `solve` only
    /// reprograms DACs/initial conditions between runs, a long sequence of
    /// solves against the same matrix shows exactly one lowered plan.
    pub fn plan_stats(&self) -> aa_analog::PlanStats {
        self.mapped.chip().plan_stats()
    }

    /// Captures the solver's cross-solve mutable state (see
    /// [`SolverCheckpoint`]).
    pub fn export_state(&self) -> SolverCheckpoint {
        SolverCheckpoint {
            solution_factor: self.scaled.solution_factor,
            calibrated: self.calibrated,
            passes: self.config.engine.passes,
            warm_start: self.warm_start.clone(),
            correction_warm_start: self.correction_warm_start.clone(),
            chip: self.mapped.chip().export_state(),
        }
    }

    /// Restores a checkpointed state onto a solver freshly rebuilt with
    /// [`new`](Self::new) for the same matrix and config.
    ///
    /// # Errors
    ///
    /// * [`SolverError::CheckpointMismatch`] if the checkpoint was captured
    ///   under a different engine pass configuration (checked before any
    ///   state is mutated).
    /// * [`SolverError::Analog`] if the chip-level import fails (checkpoint
    ///   and config disagree).
    pub fn import_state(&mut self, state: &SolverCheckpoint) -> Result<(), SolverError> {
        // Reject before mutating: a half-imported solver would be worse
        // than a cleanly refused restore.
        if state.passes != self.config.engine.passes {
            return Err(SolverError::CheckpointMismatch {
                chip: self.config.engine.passes,
                checkpoint: state.passes,
            });
        }
        self.scaled.solution_factor = state.solution_factor;
        self.calibrated = state.calibrated;
        self.warm_start = state.warm_start.clone();
        self.correction_warm_start = state.correction_warm_start.clone();
        self.mapped.chip_mut().import_state(&state.chip)?;
        Ok(())
    }

    /// Starts the next solve's overflow/underuse walk at solution scale
    /// `gamma` instead of where the previous solve left it.
    pub(crate) fn set_solution_factor(&mut self, gamma: f64) {
        self.scaled.solution_factor = gamma;
    }

    /// Carries both warm-start bases over from another solver of the same
    /// matrix (a remap onto a fresh chip keeps the host's last answers).
    pub(crate) fn keep_warm_starts_of(&mut self, other: &AnalogSystemSolver) {
        self.warm_start = other.warm_start.clone();
        self.correction_warm_start = other.correction_warm_start.clone();
    }

    /// Makes `u`, an answer the supervisor accepted for `A·u = b`, the
    /// basis the next run from `slot` starts from (a refined answer is
    /// better than the readout it refined).
    pub(crate) fn set_basis(&mut self, slot: WarmSlot, u: &[f64]) {
        let basis = WarmStart::new(&self.matrix, u);
        match slot {
            WarmSlot::Request => self.warm_start = basis,
            WarmSlot::Correction => self.correction_warm_start = basis,
        }
    }

    /// The Galerkin guess `(α, α·u_p)` for `b` from the basis in `slot`,
    /// and its count on `solver.warm_starts`.
    fn warm_guess(&self, b: &[f64], slot: WarmSlot) -> Option<(f64, Vec<f64>)> {
        let basis = match slot {
            WarmSlot::Request => &self.warm_start,
            WarmSlot::Correction => &self.correction_warm_start,
        };
        let guess = basis.as_ref()?.guess(b);
        aa_obs::counter("solver.warm_starts", 1);
        Some(guess)
    }

    /// The relative residual a settled readout of `b` at the current `γ` is
    /// expected to carry from the converters alone:
    /// `q̂ = ‖Ã‖_F·(adc_lsb/2)/‖b̃‖₂`, the residual of a readout whose every
    /// component is off by half a code. `None` until the `γ` walk has
    /// settled (and for a zero `b`), since `b̃` moves with `γ`.
    pub(crate) fn readout_floor(&self, b: &[f64]) -> Option<f64> {
        let b_norm = vector::norm2(&self.scaled.scale_rhs(b));
        if !self.calibrated || b_norm == 0.0 {
            return None;
        }
        let a_frobenius = self
            .scaled
            .matrix
            .iter()
            .map(|(_, _, v)| v * v)
            .sum::<f64>()
            .sqrt();
        Some(a_frobenius * 0.5 * self.mapped.chip().config().adc_lsb() / b_norm)
    }

    /// The engine options of one run: the solver's own, with the settle
    /// tolerance loosened to `target` (a supervised run's
    /// [`residual_settle_tol`]) when that is given and looser.
    fn run_options(&self, target: Option<f64>) -> EngineOptions {
        let mut engine = self.engine.clone();
        if let (Some(steady), Some(target)) = (engine.steady_tol.as_mut(), target) {
            *steady = steady.max(target);
        }
        engine
    }

    /// Solves `A·u = b` on the accelerator with overflow-driven retry.
    ///
    /// # Errors
    ///
    /// * [`SolverError::RescaleExhausted`] if overflow persists after the
    ///   configured retries.
    /// * [`SolverError::NoSteadyState`] if the flow does not settle (e.g.
    ///   non-positive-definite `A`).
    pub fn solve(&mut self, b: &[f64]) -> Result<AnalogSolveReport, SolverError> {
        self.solve_run(b, None, WarmSlot::Request, false)
            .map(|(report, _)| report)
    }

    /// [`solve`](Self::solve) for a supervisor whose answer must meet the
    /// relative residual `tol`: every run stops once its residual meets
    /// [`SETTLE_SHARE`] of `tol` ([`residual_settle_tol`]), starts from and
    /// refreshes the basis in `slot`, and a run which hits its time cap
    /// without an exception is read out instead of reported as
    /// [`SolverError::NoSteadyState`]. The flag is `true` for such a
    /// timed-out readout. Only the supervisor, which validates every
    /// answer and refines near misses, may take an unsettled state.
    pub(crate) fn solve_or_time_out(
        &mut self,
        b: &[f64],
        tol: f64,
        slot: WarmSlot,
    ) -> Result<(AnalogSolveReport, bool), SolverError> {
        self.solve_run(b, Some(tol), slot, true)
    }

    fn solve_run(
        &mut self,
        b: &[f64],
        tol: Option<f64>,
        slot: WarmSlot,
        read_timed_out: bool,
    ) -> Result<(AnalogSolveReport, bool), SolverError> {
        if b.len() != self.dim() {
            return Err(SolverError::invalid(format!(
                "rhs has {} entries, system has {}",
                b.len(),
                self.dim()
            )));
        }
        let _span = aa_obs::span("solver.solve");
        aa_obs::counter("solver.solves", 1);
        let mut total_time = 0.0;
        let mut runs = 0;
        let mut retries = 0;
        let mut underuse_retries = 0;
        // Once overflow forces headroom growth, further shrinking would
        // ping-pong; underuse retries are disabled from then on.
        let mut allow_shrink = true;
        // Every run of the γ walk starts from the same guess, rescaled to
        // the walk's current γ.
        let guess = self.warm_guess(b, slot);

        loop {
            let b_scaled = self.scaled.scale_rhs(b);
            // A too-small γ makes even the programmed rhs overflow; grow
            // headroom without wasting an analog run.
            let fs = self.mapped.chip().config().full_scale;
            let b_peak = b_scaled.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if b_peak > fs {
                if retries >= self.config.max_rescale_attempts {
                    return Err(SolverError::RescaleExhausted { attempts: retries });
                }
                self.scaled.grow_headroom();
                allow_shrink = false;
                retries += 1;
                aa_obs::counter("solver.rescales", 1);
                aa_obs::counter("solver.rescales.rhs_overflow", 1);
                aa_obs::event(
                    aa_obs::Event::new("solver.rescale")
                        .with("cause", "rhs_overflow")
                        .with("retry", retries),
                );
                continue;
            }
            // DAC-underuse pre-check: a programmed rhs below a few DAC
            // codes quantizes away (to exactly zero in the worst case) —
            // the most extreme form of the §III-B underuse hazard. Shrink
            // γ until the rhs is representable; a later overflow exception
            // (solution out of range) walks it back.
            let dac_floor = 4.0 * self.mapped.chip().config().dac_lsb();
            if allow_shrink
                && b_peak > 0.0
                && b_peak < dac_floor
                && underuse_retries < self.config.max_rescale_attempts
            {
                let factor = (b_peak / (self.config.margin * fs)).clamp(1e-6, 0.5);
                self.scaled.shrink_headroom(factor);
                underuse_retries += 1;
                aa_obs::counter("solver.rescales", 1);
                aa_obs::counter("solver.rescales.rhs_underuse", 1);
                aa_obs::event(
                    aa_obs::Event::new("solver.rescale")
                        .with("cause", "rhs_underuse")
                        .with("retry", underuse_retries),
                );
                continue;
            }
            let initial = guess.as_ref().map(|(_, u0)| self.scaled.scale_solution(u0));
            self.mapped.program_rhs(&b_scaled, initial.as_deref())?;
            let engine = self.run_options(tol.map(|tol| residual_settle_tol(tol, &b_scaled)));
            let report = self.mapped.chip_mut().exec(&engine)?;
            total_time += report.duration_s;
            runs += 1;

            if report.exceptions.any() {
                // §III-B: "When such exceptions occur the original problem
                // is scaled to fit in the dynamic range of the analog
                // accelerator and computation is reattempted."
                if retries >= self.config.max_rescale_attempts {
                    return Err(SolverError::RescaleExhausted { attempts: retries });
                }
                self.scaled.grow_headroom();
                allow_shrink = false;
                retries += 1;
                aa_obs::counter("solver.rescales", 1);
                aa_obs::counter("solver.rescales.overflow", 1);
                aa_obs::event(
                    aa_obs::Event::new("solver.rescale")
                        .with("cause", "overflow")
                        .with("retry", retries)
                        .with("exceptions", report.exceptions.len()),
                );
                continue;
            }
            let timed_out = !report.reached_steady_state;
            if timed_out && !read_timed_out {
                return Err(SolverError::NoSteadyState {
                    waited_s: report.duration_s,
                });
            }

            let peak = self
                .mapped
                .integrator_range_usage(&report)
                .values()
                .fold(0.0f64, |m, v| m.max(*v));
            // §III-B underuse response: if the solution sat far below full
            // scale, shrink the headroom so the next run uses the range —
            // and therefore the converter resolution — properly. A
            // timed-out run is read as it stands: a re-run would only time
            // out again.
            if allow_shrink
                && !timed_out
                && peak < self.config.underuse_threshold
                && underuse_retries < self.config.max_rescale_attempts
            {
                // A zero peak means the solve produced nothing measurable;
                // shrink aggressively to lift it into range.
                let factor = if peak > 0.0 {
                    (peak / self.config.margin).clamp(1e-3, 0.999)
                } else {
                    0.25
                };
                self.scaled.shrink_headroom(factor);
                underuse_retries += 1;
                aa_obs::counter("solver.rescales", 1);
                aa_obs::counter("solver.rescales.underuse", 1);
                aa_obs::event(
                    aa_obs::Event::new("solver.rescale")
                        .with("cause", "underuse")
                        .with("retry", underuse_retries)
                        .with("peak", peak),
                );
                continue;
            }

            let raw = self.mapped.read_solution(self.config.readout_samples)?;
            let solution = self.scaled.unscale_solution(&raw);
            // A timed-out readout skipped the underuse walk, so its γ is
            // not one a batch should start from, and its state is not a
            // settled answer to start the next run from.
            self.calibrated |= !timed_out;
            let kind = if timed_out {
                "solver.timed_out_readout"
            } else {
                self.set_basis(slot, &solution);
                "solver.accept"
            };
            if aa_obs::is_active() {
                let mut ev = aa_obs::Event::new(kind)
                    .with("runs", runs)
                    .with("overflow_retries", retries)
                    .with("underuse_retries", underuse_retries)
                    .with("peak", peak);
                if let Some((alpha, _)) = &guess {
                    ev = ev.with("alpha", *alpha);
                }
                aa_obs::event(ev);
            }
            let report = AnalogSolveReport {
                solution,
                analog_time_s: total_time,
                runs,
                overflow_retries: retries,
                underuse_retries,
                peak_range_usage: peak,
                value_factor: self.scaled.value_factor,
                solution_factor: self.scaled.solution_factor,
            };
            return Ok((report, timed_out));
        }
    }

    /// Solves `A·u = b_j` for K right-hand sides in **one** lockstep engine
    /// sweep sharing one compiled plan and one set of per-step fault and
    /// variation draws.
    ///
    /// If no solve has been accepted yet, the first column is solved
    /// sequentially up front — running the full overflow/underuse γ walk —
    /// exactly as it would be under sequential serving, so the batch sweep
    /// runs at a settled `γ` instead of falling out wholesale. All batched
    /// columns use the solution scale `γ` in effect after that (or at
    /// entry, once calibrated), and the batch never changes it: a column
    /// that would need a rescale walk
    /// (programmed-RHS overflow/underuse up front, or an overflow exception,
    /// no-settle, or range underuse in its run) is returned as
    /// [`BatchColumn::Fallback`] for the caller to solve sequentially, and
    /// the remaining columns keep their batched result. Each solved column's
    /// readout replays the readout-noise stream from the batch entry state,
    /// so its conversions match what a first sequential solve would see.
    ///
    /// Every lane starts from its own Galerkin multiple of the warm-start
    /// basis as it stood at batch entry (after the pre-calibration solve, if
    /// one ran); the last solved column becomes the basis afterwards.
    ///
    /// # Errors
    ///
    /// * [`SolverError::InvalidProblem`] if any `b_j` has the wrong length
    ///   (structural — nothing runs).
    /// * [`SolverError::Analog`] if the shared engine sweep itself fails;
    ///   no per-column outcome exists in that case.
    pub fn solve_batch(&mut self, bs: &[Vec<f64>]) -> Result<Vec<BatchColumn>, SolverError> {
        self.solve_batch_within(bs, None)
    }

    /// [`solve_batch`](Self::solve_batch), under a supervisor whose relative
    /// residual tolerance is `tol` when that is given: the pre-calibration
    /// solve then stops as a supervised run does, and the shared sweep at
    /// the smallest lane's [`residual_settle_tol`] (the engine has one
    /// settle tolerance for all lanes).
    pub(crate) fn solve_batch_within(
        &mut self,
        bs: &[Vec<f64>],
        tol: Option<f64>,
    ) -> Result<Vec<BatchColumn>, SolverError> {
        for b in bs {
            if b.len() != self.dim() {
                return Err(SolverError::invalid(format!(
                    "rhs has {} entries, system has {}",
                    b.len(),
                    self.dim()
                )));
            }
        }
        if bs.is_empty() {
            return Ok(Vec::new());
        }
        let _span = aa_obs::span("solver.solve_batch");
        aa_obs::counter("solver.batch_solves", 1);

        // γ pre-calibration: an uncalibrated solver still carries the
        // conservative construction-time γ, under which most well-scaled
        // systems read back far below full scale — every column of the
        // sweep would fall out as `underuse` and re-solve sequentially
        // anyway, doubling the work. Pay the γ walk once, up front, on the
        // first column; the batch then serves the rest at the settled γ.
        let calibration = if self.calibrated {
            None
        } else {
            aa_obs::counter("solver.batch_calibrations", 1);
            Some(self.solve_run(&bs[0], tol, WarmSlot::Request, false)?.0)
        };

        let fs = self.mapped.chip().config().full_scale;
        let dac_floor = 4.0 * self.mapped.chip().config().dac_lsb();

        let mut out: Vec<BatchColumn> = Vec::with_capacity(bs.len());
        let mut lanes = Vec::new();
        let mut lane_columns = Vec::new();
        // The loosest settle target every lane's residual still meets.
        let mut lane_target: Option<f64> = None;
        for (j, b) in bs.iter().enumerate() {
            if j == 0 {
                if let Some(report) = calibration.as_ref() {
                    out.push(BatchColumn::Solved(report.clone()));
                    continue;
                }
            }
            let b_scaled = self.scaled.scale_rhs(b);
            let b_peak = b_scaled.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            // The same pre-checks the sequential loop answers with a γ walk;
            // here they route the column out of the batch instead.
            if b_peak > fs {
                out.push(BatchColumn::Fallback("rhs_overflow"));
                continue;
            }
            if b_peak > 0.0 && b_peak < dac_floor {
                out.push(BatchColumn::Fallback("rhs_underuse"));
                continue;
            }
            let initial = self
                .warm_guess(b, WarmSlot::Request)
                .map(|(_, u0)| self.scaled.scale_solution(&u0));
            lanes.push(self.mapped.lane_bindings(&b_scaled, initial.as_deref())?);
            if let Some(tol) = tol {
                let target = residual_settle_tol(tol, &b_scaled);
                lane_target = Some(lane_target.map_or(target, |t| t.min(target)));
            }
            lane_columns.push(j);
            out.push(BatchColumn::Fallback("pending"));
        }
        if lanes.is_empty() {
            return Ok(out);
        }

        self.mapped.ensure_committed()?;
        let noise_entry = self.mapped.chip().noise_rng_state();
        let engine = self.run_options(lane_target);
        let batch = self.mapped.chip_mut().exec_batch(&lanes, &engine)?;
        for (lane, &j) in lane_columns.iter().enumerate() {
            let report = &batch.reports[lane];
            if report.exceptions.any() {
                out[j] = BatchColumn::Fallback("overflow");
                continue;
            }
            if !report.reached_steady_state {
                out[j] = BatchColumn::Fallback("no_steady_state");
                continue;
            }
            let peak = self
                .mapped
                .integrator_range_usage(report)
                .values()
                .fold(0.0f64, |m, v| m.max(*v));
            if peak < self.config.underuse_threshold {
                out[j] = BatchColumn::Fallback("underuse");
                continue;
            }
            self.mapped.chip_mut().select_lane(&batch, lane)?;
            self.mapped.chip_mut().set_noise_rng_state(noise_entry);
            let raw = self.mapped.read_solution(self.config.readout_samples)?;
            let solution = self.scaled.unscale_solution(&raw);
            out[j] = BatchColumn::Solved(AnalogSolveReport {
                solution,
                analog_time_s: report.duration_s,
                runs: 1,
                overflow_retries: 0,
                underuse_retries: 0,
                peak_range_usage: peak,
                value_factor: self.scaled.value_factor,
                solution_factor: self.scaled.solution_factor,
            });
        }
        self.mapped.chip_mut().finish_batch(&batch);
        let last_solved = lane_columns.iter().rev().find_map(|&j| match &out[j] {
            BatchColumn::Solved(report) => Some(&report.solution),
            BatchColumn::Fallback(_) => None,
        });
        if let Some(solution) = last_solved {
            self.warm_start = WarmStart::new(&self.matrix, solution);
        }
        if aa_obs::is_active() {
            let solved = out
                .iter()
                .filter(|c| matches!(c, BatchColumn::Solved(_)))
                .count();
            aa_obs::counter("solver.batch_lanes", lanes.len() as u64);
            aa_obs::event(
                aa_obs::Event::new("solver.batch")
                    .with("columns", bs.len())
                    .with("lanes", lanes.len())
                    .with("solved", solved),
            );
        }
        Ok(out)
    }
}

/// The steady tolerance at which a run's ADC readout can no longer change.
///
/// The value-scaled flow `du/dτ = b̃ − Ã·u` with SPD `Ã` leaves a drift
/// `‖u − u*‖∞ ≤ ‖u − u*‖₂ ≤ √n·max|du/dτ| / λ̃_min`, so once
/// `max|du/dτ| ≤ λ̃_min · adc_lsb / (2√n)` every integrator is within half
/// an ADC code of its settled state. That bound replaces `configured`
/// whenever it is looser; a looser configured tolerance is kept, `None`
/// (detection off) stays `None`, and a matrix whose `λ̃_min` cannot be
/// estimated ([`scaled_lambda_min`] errs) keeps `configured`.
fn readout_settle_tol(a: &CsrMatrix, chip: &ChipConfig, configured: Option<f64>) -> Option<f64> {
    let configured = configured?;
    let Ok(lambda) = scaled_lambda_min(a) else {
        return Some(configured);
    };
    // `Ã = A·max_gain/max|a_ij|`, so its λ_min is the estimate's times the gain.
    let bound = lambda * chip.max_gain * chip.adc_lsb() / (2.0 * (a.dim() as f64).sqrt());
    Some(configured.max(bound))
}

/// The settle tolerance at which a run programmed with `b_scaled` meets
/// [`SETTLE_SHARE`] of the supervisor's relative residual tolerance `tol`:
/// `θ·tol·‖b̃‖₂/√n`, since `‖b̃ − Ã·ũ‖₂ ≤ √n·max|dũ/dτ|`.
fn residual_settle_tol(tol: f64, b_scaled: &[f64]) -> f64 {
    SETTLE_SHARE * tol * vector::norm2(b_scaled) / (b_scaled.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_linalg::stencil::PoissonStencil;
    use aa_linalg::Triplet;

    fn poisson_1d(n: usize) -> CsrMatrix {
        CsrMatrix::from_row_access(&PoissonStencil::new_1d(n).unwrap())
    }

    #[test]
    fn solves_poisson_to_adc_precision() {
        let a = poisson_1d(6);
        let b = vec![1.0; 6];
        let exact = aa_linalg::direct::solve(&a.to_dense(), &b).unwrap();
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        let report = solver.solve(&b).unwrap();
        // One real solve plus at most a couple of underuse rescales.
        assert!(report.runs <= 3, "runs = {}", report.runs);
        assert_eq!(report.overflow_retries, 0);
        for (x, e) in report.solution.iter().zip(&exact) {
            // 12-bit quantization over the scaled range, unscaled back up.
            let tol = 2.0 * report.solution_factor / 4096.0 + 2e-3 * report.solution_factor;
            assert!((x - e).abs() < tol.max(2e-3), "{x} vs {e}");
        }
        assert!(
            report.peak_range_usage > 0.3,
            "dynamic range well used after underuse rescaling: {}",
            report.peak_range_usage
        );
    }

    #[test]
    fn overflow_triggers_rescale_and_retry() {
        // Solution bound deliberately underestimated: true solution peaks
        // near 1.125 of the identity scale... use a system whose solution is
        // much larger than the initial estimate.
        let a = poisson_1d(4);
        let b = vec![1.0; 4]; // solution peaks at 3.0 for [-1,2,-1]... (scaled by h²)
        let cfg = SolverConfig {
            solution_bound: 1e-3, // far too small: γ starts tiny, ũ overflows
            ..SolverConfig::ideal()
        };
        let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
        let report = solver.solve(&b).unwrap();
        assert!(report.overflow_retries > 0, "expected at least one retry");
        let exact = aa_linalg::direct::solve(&a.to_dense(), &b).unwrap();
        for (x, e) in report.solution.iter().zip(&exact) {
            assert!((x - e).abs() < 0.05 * e.abs().max(0.05), "{x} vs {e}");
        }
    }

    #[test]
    fn rescale_budget_is_enforced() {
        let a = poisson_1d(4);
        let cfg = SolverConfig {
            solution_bound: 1e-12,
            max_rescale_attempts: 2,
            ..SolverConfig::ideal()
        };
        let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
        assert!(matches!(
            solver.solve(&[1.0; 4]),
            Err(SolverError::RescaleExhausted { attempts: 2 })
        ));
    }

    #[test]
    fn non_positive_definite_never_settles() {
        // An indefinite matrix: gradient flow has a growing mode; the run
        // ends by cap/overflow rather than steady state.
        let a = CsrMatrix::from_triplets(2, &[Triplet::new(0, 0, 1.0), Triplet::new(1, 1, -1.0)])
            .unwrap();
        let cfg = SolverConfig {
            engine: EngineOptions {
                max_tau: 500.0,
                ..EngineOptions::default()
            },
            max_rescale_attempts: 2,
            ..SolverConfig::ideal()
        };
        let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
        let result = solver.solve(&[0.1, 0.1]);
        assert!(
            matches!(
                result,
                Err(SolverError::NoSteadyState { .. }) | Err(SolverError::RescaleExhausted { .. })
            ),
            "got {result:?}"
        );
    }

    #[test]
    fn reusing_the_solver_for_many_rhs() {
        let a = poisson_1d(5);
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        for scale in [0.5, 1.0, -0.75] {
            let b: Vec<f64> = (0..5).map(|i| scale * ((i as f64) - 2.0) / 4.0).collect();
            let report = solver.solve(&b).unwrap();
            let exact = aa_linalg::direct::solve(&a.to_dense(), &b).unwrap();
            for (x, e) in report.solution.iter().zip(&exact) {
                assert!((x - e).abs() < 5e-3 * exact.iter().fold(1.0f64, |m, v| m.max(v.abs())));
            }
        }
    }

    #[test]
    fn calibrated_prototype_solves_with_bounded_error() {
        let a = poisson_1d(4);
        let b = vec![0.8, -0.2, 0.4, 0.1];
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::prototype()).unwrap();
        let report = solver.solve(&b).unwrap();
        let exact = aa_linalg::direct::solve(&a.to_dense(), &b).unwrap();
        let err: f64 = report
            .solution
            .iter()
            .zip(&exact)
            .map(|(x, e)| (x - e).abs())
            .fold(0.0, f64::max);
        let umax = exact.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        // 8-bit converters + residual calibration error: a few percent.
        assert!(err / umax < 0.06, "relative error {}", err / umax);
    }

    #[test]
    fn higher_bandwidth_is_proportionally_faster() {
        let a = poisson_1d(4);
        let b = vec![0.5; 4];
        let time = |hz: f64| {
            let cfg = SolverConfig::ideal().bandwidth(hz);
            let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
            solver.solve(&b).unwrap().analog_time_s
        };
        let slow = time(20e3);
        let fast = time(80e3);
        assert!((slow / fast - 4.0).abs() < 0.05, "{}", slow / fast);
    }

    #[test]
    fn value_scaling_stretches_time() {
        // The same logical problem at two spatial resolutions: coefficients
        // grow ∝ L², and so must the (scaled-system) settle time.
        let time_for = |l: usize| {
            let a = poisson_1d(l);
            let b = vec![1.0; l];
            let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            (
                solver.solve(&b).unwrap().analog_time_s,
                solver.scaling().value_factor,
            )
        };
        let (t5, s5) = time_for(5);
        let (t11, s11) = time_for(11);
        assert!(s11 > s5);
        assert!(t11 > t5, "finer grid must take longer: {t5} vs {t11}");
    }

    #[test]
    fn settle_bound_readout_is_within_one_code_of_full_settle() {
        // 1D and 2D Poisson, and diagonally dominant tridiagonals like the
        // fleet's mixed workload.
        let mut matrices: Vec<CsrMatrix> = [4, 9, 16].into_iter().map(poisson_1d).collect();
        for l in [3, 4, 6, 8] {
            matrices.push(CsrMatrix::from_row_access(
                &PoissonStencil::new_2d(l).unwrap(),
            ));
        }
        for i in [0usize, 3, 6, 9, 12, 15] {
            let diag = 2.0 + 0.1 * (i % 4) as f64;
            matrices.push(CsrMatrix::tridiagonal(4 + (i * 5) % 13, -1.0, diag, -1.0).unwrap());
        }
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(17);
        for a in matrices {
            let n = a.dim();
            let b: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
            let mut bounded = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            assert!(bounded.steady_tol().is_some_and(|tol| tol > 1e-6));
            let report = bounded.solve(&b).unwrap();
            // A correlated second right-hand side, started warm from the
            // first answer.
            let b_next: Vec<f64> = b.iter().map(|v| 0.8 * v + rng.range(-0.2, 0.2)).collect();
            assert!(bounded.warm_start.is_some());
            let warm = bounded.solve(&b_next).unwrap();

            for (b, report) in [(&b, report), (&b_next, warm)] {
                // The same solve at the same γ, cold, with detection off,
                // integrated for 40 time constants of its slowest mode.
                let lambda = scaled_lambda_min(&a).unwrap();
                let mut cfg = SolverConfig::ideal();
                cfg.engine.steady_tol = None;
                cfg.engine.max_tau = 40.0 / lambda;
                let mut settled = AnalogSystemSolver::new(&a, &cfg).unwrap();
                settled.set_solution_factor(report.solution_factor);
                // Detection is off, so no tolerance can stop the run early.
                let (full, timed_out) = settled
                    .solve_or_time_out(b, 1e-2, WarmSlot::Request)
                    .unwrap();
                assert!(timed_out, "detection off runs to the cap");
                assert_eq!(full.solution_factor, report.solution_factor);

                let lsb = bounded.chip().config().adc_lsb();
                for (x, y) in report.solution.iter().zip(&full.solution) {
                    let codes = (x - y).abs() / (report.solution_factor * lsb);
                    assert!(codes <= 1.0 + 1e-9, "n = {n}: {codes} codes apart");
                }
                assert!(report.analog_time_s < full.analog_time_s);
            }
        }
    }

    /// 1D and 2D Poisson, and tridiagonals like the fleet's mixed workload,
    /// among them its weakly dominant `n = 11` and `n = 12` ones.
    fn stop_rule_matrices() -> Vec<CsrMatrix> {
        let mut matrices: Vec<CsrMatrix> = [4, 9, 16].into_iter().map(poisson_1d).collect();
        for l in [3, 4, 6] {
            matrices.push(CsrMatrix::from_row_access(
                &PoissonStencil::new_2d(l).unwrap(),
            ));
        }
        for i in [0usize, 3, 4, 9, 12, 15] {
            let diag = 2.0 + 0.1 * (i % 4) as f64;
            matrices.push(CsrMatrix::tridiagonal(4 + (i * 5) % 13, -1.0, diag, -1.0).unwrap());
        }
        matrices
    }

    #[test]
    fn supervised_answers_meet_a_quarter_of_the_tolerance() {
        // 24-bit converters make quantization negligible: what is left of
        // a first-try answer's residual is where its run stopped.
        let cfg = SolverConfig::ideal().adc_bits(24);
        let recovery = crate::RecoveryConfig::default();
        let bound = SETTLE_SHARE * recovery.residual_tolerance * (1.0 + 1e-9);
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(23);
        for a in stop_rule_matrices() {
            let n = a.dim();
            let mut solver = crate::SupervisedSolver::new(&a, &cfg, &recovery).unwrap();
            // A cold first solve, then warm ones.
            for _ in 0..3 {
                let b: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
                let report = solver.solve(&b).unwrap();
                assert_eq!(report.recovery.final_path, crate::FinalPath::Analog);
                let r = a.residual_norm(&report.solution, &b) / vector::norm2(&b);
                assert!(r <= bound, "n = {n}: residual {r} > {bound}");
            }
        }
    }

    #[test]
    fn readout_floor_predicts_the_settled_readout_residual() {
        // The fleet's mixed-workload tridiagonals, with its right-hand
        // sides (entries in [0.1, 1)). A settled readout is within half a
        // code of its state, so its residual is the converters'. The floor
        // is an expectation over the rounding of n components, so each
        // structure is judged on the RMS ratio over a few right-hand sides.
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(31);
        let (mut low, mut high) = (f64::INFINITY, 0.0f64);
        let (mut rms_low, mut rms_high) = (f64::INFINITY, 0.0f64);
        for n in [4, 8, 11, 12, 16] {
            for diag in [2.0, 2.1, 2.2, 2.3] {
                let a = CsrMatrix::tridiagonal(n, -1.0, diag, -1.0).unwrap();
                let mut rhs = || -> Vec<f64> { (0..n).map(|_| rng.range(0.1, 1.0)).collect() };
                let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
                let b = rhs();
                assert_eq!(solver.readout_floor(&b), None, "uncalibrated");
                solver.solve(&b).unwrap();
                let mut squares = 0.0;
                for _ in 0..4 {
                    let b = rhs();
                    let report = solver.solve(&b).unwrap();
                    // At the γ the readout ran at.
                    let floor = solver.readout_floor(&b).unwrap();
                    let ratio = a.residual_norm(&report.solution, &b) / vector::norm2(&b) / floor;
                    squares += ratio * ratio;
                    low = low.min(ratio);
                    high = high.max(ratio);
                }
                let rms = (squares / 4.0).sqrt();
                assert!(
                    (1.0 / 3.0..=3.0).contains(&rms),
                    "n = {n}, diag = {diag}: residual/floor RMS {rms}"
                );
                rms_low = rms_low.min(rms);
                rms_high = rms_high.max(rms);
            }
        }
        eprintln!(
            "readout residual / floor: per answer in [{low:.2}, {high:.2}], \
             RMS per structure in [{rms_low:.2}, {rms_high:.2}]"
        );
    }

    #[test]
    fn a_supervised_run_never_outlasts_the_unsupervised_one() {
        let tol = crate::RecoveryConfig::default().residual_tolerance;
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(29);
        let (mut supervised_s, mut unsupervised_s) = (0.0, 0.0);
        for a in stop_rule_matrices() {
            let n = a.dim();
            let mut plain = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            let b: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
            // Settles γ and fills the basis.
            plain.solve(&b).unwrap();
            for _ in 0..3 {
                let b: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
                // The same γ and basis.
                let mut supervised = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
                supervised.import_state(&plain.export_state()).unwrap();
                let (sup, timed_out) = supervised
                    .solve_or_time_out(&b, tol, WarmSlot::Request)
                    .unwrap();
                let full = plain.solve(&b).unwrap();
                assert!(!timed_out);
                assert!(
                    sup.analog_time_s <= full.analog_time_s,
                    "n = {n}: {} > {}",
                    sup.analog_time_s,
                    full.analog_time_s
                );
                supervised_s += sup.analog_time_s;
                unsupervised_s += full.analog_time_s;
            }
        }
        assert!(supervised_s < unsupervised_s);
    }

    /// `‖u* − u0‖_A` for `A·u* = b`.
    fn a_norm_error(a: &CsrMatrix, b: &[f64], u0: &[f64]) -> f64 {
        let exact = aa_linalg::direct::solve(&a.to_dense(), b).unwrap();
        let e: Vec<f64> = exact.iter().zip(u0).map(|(x, g)| x - g).collect();
        vector::dot(&e, &a.apply_vec(&e)).sqrt()
    }

    #[test]
    fn warm_guess_is_never_further_than_zero_in_the_a_norm() {
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(5);
        for a in [
            poisson_1d(7),
            CsrMatrix::from_row_access(&PoissonStencil::new_2d(4).unwrap()),
            CsrMatrix::tridiagonal(9, -1.0, 2.3, -1.0).unwrap(),
        ] {
            let n = a.dim();
            let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            assert!(solver.warm_start.is_none(), "a fresh solver starts cold");
            let mut b: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
            solver.solve(&b).unwrap();
            for step in 0..12 {
                let basis = solver.warm_start.clone().unwrap();
                b = match step % 4 {
                    // Sign-flipped.
                    0 => b.iter().map(|v| -v).collect(),
                    // A-orthogonal to u_p: u_pᵀA·u* = u_pᵀb = 0.
                    1 => {
                        let r: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
                        let c =
                            vector::dot(&basis.basis, &r) / vector::dot(&basis.basis, &basis.basis);
                        r.iter().zip(&basis.basis).map(|(r, u)| r - c * u).collect()
                    }
                    // Correlated with the last right-hand side.
                    2 => b.iter().map(|v| 0.7 * v + rng.range(-0.3, 0.3)).collect(),
                    // Fresh.
                    _ => (0..n).map(|_| rng.range(-1.0, 1.0)).collect(),
                };
                let (alpha, guess) = basis.guess(&b);
                let cold = a_norm_error(&a, &b, &vec![0.0; n]);
                let warm = a_norm_error(&a, &b, &guess);
                assert!(warm <= cold * (1.0 + 1e-12), "step {step}: {warm} > {cold}");
                if step % 4 == 1 {
                    assert!(alpha.abs() < 1e-12, "A-orthogonal rhs: α = {alpha}");
                }
                solver.solve(&b).unwrap();
            }

            // An all-zero right-hand side projects onto the zero guess.
            let zero = vec![0.0; n];
            let (alpha, guess) = solver.warm_start.as_ref().unwrap().guess(&zero);
            assert_eq!(alpha, 0.0);
            assert!(guess.iter().all(|g| *g == 0.0));
            assert_eq!(a_norm_error(&a, &zero, &guess), 0.0);
        }
    }

    #[test]
    fn warm_start_settles_a_correlated_stream_sooner_than_cold() {
        let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(4).unwrap());
        let n = a.dim();
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(9);
        let mut b: Vec<f64> = (0..n).map(|_| rng.range(0.2, 1.0)).collect();
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        solver.solve(&b).unwrap();
        for _ in 0..4 {
            b = b.iter().map(|v| v + rng.range(-0.1, 0.1)).collect();
            let warm = solver.solve(&b).unwrap();
            let mut fresh = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            fresh.set_solution_factor(warm.solution_factor);
            let cold = fresh.solve(&b).unwrap();
            assert_eq!((warm.runs, cold.runs), (1, 1));
            assert!(
                warm.analog_time_s < cold.analog_time_s,
                "warm {} vs cold {}",
                warm.analog_time_s,
                cold.analog_time_s
            );
        }
    }

    #[test]
    fn settle_bound_keeps_disabled_and_looser_tolerances() {
        let a = poisson_1d(6);
        let lambda = scaled_lambda_min(&a).unwrap();
        let lsb = SolverConfig::ideal().chip_template().adc_lsb();
        let bound = lambda * lsb / (2.0 * 6f64.sqrt());
        let solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        assert_eq!(solver.steady_tol(), Some(bound));

        // A configured tolerance looser than the bound is kept.
        let mut cfg = SolverConfig::ideal();
        cfg.engine.steady_tol = Some(10.0 * bound);
        let solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
        assert_eq!(solver.steady_tol(), Some(10.0 * bound));

        // Detection off stays off: the run goes to its cap.
        cfg.engine.steady_tol = None;
        cfg.engine.max_tau = 50.0;
        let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
        assert_eq!(solver.steady_tol(), None);
        let tau = 1.0 / solver.chip().config().omega();
        match solver.solve(&[1.0; 6]) {
            Err(SolverError::NoSteadyState { waited_s }) => {
                assert!((waited_s / tau - 50.0).abs() < 1e-6, "{}", waited_s / tau)
            }
            other => panic!("expected NoSteadyState, got {other:?}"),
        }
    }

    #[test]
    fn unestimable_spectrum_keeps_the_configured_tolerance() {
        // An indefinite matrix has no positive λ_min to bound the drift by,
        // and one with eigenvalues 2 ± i√2 no converged estimate of it.
        let indefinite = [Triplet::new(0, 0, 1.0), Triplet::new(1, 1, -1.0)];
        let rotating = [
            Triplet::new(0, 0, 2.0),
            Triplet::new(0, 1, 2.0),
            Triplet::new(1, 0, -1.0),
            Triplet::new(1, 1, 2.0),
        ];
        for triplets in [&indefinite[..], &rotating[..]] {
            let a = CsrMatrix::from_triplets(2, triplets).unwrap();
            assert!(scaled_lambda_min(&a).is_err());
            let solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            assert_eq!(solver.steady_tol(), SolverConfig::ideal().engine.steady_tol);
        }
    }

    #[test]
    fn rhs_length_checked() {
        let a = poisson_1d(3);
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        assert!(solver.solve(&[1.0]).is_err());
    }

    #[test]
    fn checkpoint_round_trips_with_matching_passes() {
        let a = poisson_1d(4);
        let stream = [
            vec![0.4, -0.1, 0.3, 0.2],
            vec![0.5, -0.2, 0.3, 0.1],
            vec![0.3, 0.0, 0.4, 0.2],
            vec![0.4, -0.1, 0.2, 0.3],
        ];
        let mut cfg = SolverConfig::ideal();
        cfg.engine.passes = aa_analog::PassConfig::full();
        let mut original = AnalogSystemSolver::new(&a, &cfg).unwrap();
        for b in &stream[..2] {
            original.solve(b).unwrap();
        }
        // Mid-stream: the snapshot carries the warm-start basis.
        let snap = original.export_state();
        assert_eq!(snap.passes, aa_analog::PassConfig::full());
        assert!(snap.warm_start.is_some());

        let mut restored = AnalogSystemSolver::new(&a, &cfg).unwrap();
        restored.import_state(&snap).unwrap();
        for b in &stream[2..] {
            let from_restored = restored.solve(b).unwrap();
            let from_original = original.solve(b).unwrap();
            assert_eq!(from_restored, from_original);
        }
        assert_eq!(restored.export_state(), original.export_state());
    }

    #[test]
    fn checkpoint_with_mismatched_passes_is_rejected() {
        let a = poisson_1d(4);
        let mut opt_cfg = SolverConfig::ideal();
        opt_cfg.engine.passes = aa_analog::PassConfig::full();
        let mut original = AnalogSystemSolver::new(&a, &opt_cfg).unwrap();
        original.solve(&[0.4, -0.1, 0.3, 0.2]).unwrap();
        let snap = original.export_state();

        // The restoring solver runs the default (no-pass) config: the
        // import must refuse before mutating anything.
        let mut plain = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        let before = plain.export_state();
        let err = plain.import_state(&snap).unwrap_err();
        assert!(
            matches!(
                err,
                SolverError::CheckpointMismatch { chip, checkpoint }
                    if chip == aa_analog::PassConfig::none()
                        && checkpoint == aa_analog::PassConfig::full()
            ),
            "got {err:?}"
        );
        assert_eq!(
            plain.export_state(),
            before,
            "refused import must not mutate"
        );
    }
}
