//! The high-level analog linear-system solver.
//!
//! [`AnalogSystemSolver`] owns the full host-side flow of paper §III-B:
//! scale the problem into hardware range, compile it onto a chip, calibrate,
//! program the right-hand side, run to steady state, check the exception
//! vector, rescale-and-retry on overflow, and read out the solution through
//! averaged ADC conversions.

use aa_analog::{calibrate, ChipConfig, EngineOptions, NonIdealityConfig};
use aa_linalg::{CsrMatrix, LinearOperator};

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
    /// can no longer change ([`AnalogSystemSolver::new`]); `None` keeps
    /// steady-state detection off.
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

/// A snapshot of one [`AnalogSystemSolver`]'s cross-solve mutable state:
/// the adaptive solution-scale factor `γ` (walked by overflow/underuse
/// retries across solves) plus the underlying chip's runtime state. The
/// matrix, config, and compiled circuit are excluded — the restore path
/// rebuilds them deterministically with [`AnalogSystemSolver::new`] before
/// importing.
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
    /// tolerance loosened to [`readout_settle_tol`].
    engine: EngineOptions,
    /// Whether any solve has been accepted under the current `γ` — i.e.
    /// the overflow/underuse walk has settled. A batch on an uncalibrated
    /// solver pre-pays one sequential solve to establish `γ` instead of
    /// running a sweep that every column would fall out of.
    calibrated: bool,
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

    /// Mutable access to the compiled circuit (fault injection, ablations).
    pub fn mapped_mut(&mut self) -> &mut MappedSystem {
        &mut self.mapped
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
        self.mapped.chip_mut().import_state(&state.chip)?;
        Ok(())
    }

    /// Starts the next solve's overflow/underuse walk at solution scale
    /// `gamma` instead of where the previous solve left it.
    pub(crate) fn set_solution_factor(&mut self, gamma: f64) {
        self.scaled.solution_factor = gamma;
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
        self.solve_run(b, false).map(|(report, _)| report)
    }

    /// [`solve`](Self::solve), except that a run which hits its time cap
    /// without an exception is read out instead of reported as
    /// [`SolverError::NoSteadyState`]. The flag is `true` for such a
    /// timed-out readout. Only the supervisor, which validates every
    /// answer and refines near misses, may take an unsettled state.
    pub(crate) fn solve_or_time_out(
        &mut self,
        b: &[f64],
    ) -> Result<(AnalogSolveReport, bool), SolverError> {
        self.solve_run(b, true)
    }

    fn solve_run(
        &mut self,
        b: &[f64],
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
            self.mapped.program_rhs(&b_scaled, None)?;
            let report = self.mapped.chip_mut().exec(&self.engine)?;
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
            // not one a batch should start from.
            self.calibrated |= !timed_out;
            let kind = if timed_out {
                "solver.timed_out_readout"
            } else {
                "solver.accept"
            };
            aa_obs::event(
                aa_obs::Event::new(kind)
                    .with("runs", runs)
                    .with("overflow_retries", retries)
                    .with("underuse_retries", underuse_retries)
                    .with("peak", peak),
            );
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
    /// # Errors
    ///
    /// * [`SolverError::InvalidProblem`] if any `b_j` has the wrong length
    ///   (structural — nothing runs).
    /// * [`SolverError::Analog`] if the shared engine sweep itself fails;
    ///   no per-column outcome exists in that case.
    pub fn solve_batch(&mut self, bs: &[Vec<f64>]) -> Result<Vec<BatchColumn>, SolverError> {
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
            Some(self.solve(&bs[0])?)
        };

        let fs = self.mapped.chip().config().full_scale;
        let dac_floor = 4.0 * self.mapped.chip().config().dac_lsb();

        let mut out: Vec<BatchColumn> = Vec::with_capacity(bs.len());
        let mut lanes = Vec::new();
        let mut lane_columns = Vec::new();
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
            lanes.push(self.mapped.lane_bindings(&b_scaled)?);
            lane_columns.push(j);
            out.push(BatchColumn::Fallback("pending"));
        }
        if lanes.is_empty() {
            return Ok(out);
        }

        self.mapped.ensure_committed()?;
        let noise_entry = self.mapped.chip().noise_rng_state();
        let batch = self.mapped.chip_mut().exec_batch(&lanes, &self.engine)?;
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

            // The same solve at the same γ, with detection off, integrated
            // for 40 time constants of its slowest mode.
            let lambda = scaled_lambda_min(&a).unwrap();
            let mut cfg = SolverConfig::ideal();
            cfg.engine.steady_tol = None;
            cfg.engine.max_tau = 40.0 / lambda;
            let mut settled = AnalogSystemSolver::new(&a, &cfg).unwrap();
            settled.set_solution_factor(report.solution_factor);
            let (full, timed_out) = settled.solve_or_time_out(&b).unwrap();
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
        let b = vec![0.4, -0.1, 0.3, 0.2];
        let mut cfg = SolverConfig::ideal();
        cfg.engine.passes = aa_analog::PassConfig::full();
        let mut original = AnalogSystemSolver::new(&a, &cfg).unwrap();
        original.solve(&b).unwrap();
        let snap = original.export_state();
        assert_eq!(snap.passes, aa_analog::PassConfig::full());

        let mut restored = AnalogSystemSolver::new(&a, &cfg).unwrap();
        restored.import_state(&snap).unwrap();
        let from_restored = restored.solve(&b).unwrap();
        let from_original = original.solve(&b).unwrap();
        assert_eq!(from_restored.solution, from_original.solution);
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
