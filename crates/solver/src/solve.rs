//! The high-level analog linear-system solver.
//!
//! [`AnalogSystemSolver`] owns the full host-side flow of paper §III-B:
//! scale the problem into hardware range, compile it onto a chip, calibrate,
//! program the right-hand side, run to steady state, check the exception
//! vector, rescale-and-retry on overflow, and read out the solution through
//! averaged ADC conversions.

use aa_analog::{calibrate, ChipConfig, EngineOptions, NonIdealityConfig};
use aa_linalg::{eigen, vector, CsrMatrix, LinearOperator};

use crate::estimate::slowest_mode;
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
    /// Number of runs (1 + rescale retries); a run continued from its held
    /// state counts once.
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
    /// The column solved inside the batch: exactly one run, no retries, at
    /// the batch's shared `γ`.
    Solved(AnalogSolveReport),
    /// The column left the batched fast path; the label records why (stable
    /// telemetry vocabulary: `rhs_overflow`, `guess_overflow`,
    /// `rhs_underuse`, `overflow`, `no_steady_state`, `underuse`).
    Fallback(&'static str),
}

/// One direction `d` of the warm-start span — a slow mode, a basis `u_p`
/// or the right-hand side `b` — with `A·d` and its energy `dᵀA·d`.
///
/// `A·d` is stored, not taken as `λ·v` for a mode, so the projection is
/// exact however closely the eigen iteration converged.
#[derive(Debug, Clone)]
struct Direction {
    /// `d` (unscaled; `v₁` has unit 2-norm).
    vector: Vec<f64>,
    /// `A·d`.
    applied: Vec<f64>,
    /// `dᵀA·d`, positive.
    energy: f64,
}

impl Direction {
    /// The direction `d` of `a`; `None` when `dᵀA·d` is not positive (a
    /// zero vector spans nothing).
    fn new(a: &CsrMatrix, vector: Vec<f64>) -> Option<Self> {
        let applied = a.apply_vec(&vector);
        let energy = vector::dot(&vector, &applied);
        (energy.is_finite() && energy > 0.0).then_some(Direction {
            vector,
            applied,
            energy,
        })
    }

    /// What is left of `self` once A-orthogonalized against the
    /// A-orthogonal `kept` (modified Gram–Schmidt, carried on `d` and `A·d`
    /// alike); `None` when that keeps at most [`DEPENDENT_SHARE`] of its
    /// energy.
    fn a_orthogonal_to(mut self, kept: &[Direction]) -> Option<Self> {
        for w in kept {
            let c = vector::dot(&w.vector, &self.applied) / w.energy;
            vector::axpy(-c, &w.vector, &mut self.vector);
            vector::axpy(-c, &w.applied, &mut self.applied);
        }
        let energy = vector::dot(&self.vector, &self.applied);
        (energy > DEPENDENT_SHARE * self.energy).then_some(Direction { energy, ..self })
    }
}

/// Below this share of its own energy `dᵀA·d`, what A-orthogonalization
/// leaves of a direction is taken as zero: the direction (nearly) lies in
/// the span of those before it and adds nothing.
const DEPENDENT_SHARE: f64 = 1e-10;

/// At most this many slow modes widen a warm start: past `v₄` the modes
/// settle fast enough that the flow takes them out at little cost.
const MAX_MODES: usize = 4;

/// At least this many rows per slow mode, `m ≤ ⌊n/4⌋`: at least ¾ of every
/// structure's modes stay on the analog flow, so the projection never
/// turns into a digital direct solve.
const ROWS_PER_MODE: usize = 4;

/// Block iterations the modes after `v₁` take. They have to span the slow
/// subspace well, not to converge to rounding: the projection is exact
/// for any directions, since `A·d` is stored.
const MODE_ITERATIONS: usize = 300;

/// How many slow modes widen the warm starts of an `n`-row system:
/// `min(4, ⌊n/4⌋)`, and at least `v₁`.
fn mode_count(n: usize) -> usize {
    (n / ROWS_PER_MODE).clamp(1, MAX_MODES)
}

/// The slow modes of `a`, A-orthogonal, `v₁` first, the estimated
/// eigenvalue `λ_{m+1}` of the slowest mode they leave out, and that
/// mode's [`shape_factor`] ρ.
///
/// `v₁` is the `λ̃_min` iteration's own vector, so `λ̃_min` and `v₁` are one
/// estimate. A block iteration ([`eigen::smallest_eigenpairs`]) of
/// [`mode_count`]` + 1` vectors gives the rest: its first vector estimates
/// `v₁` again and is passed over, the next `m − 1` are A-orthogonalized in
/// order against those kept before them, and the last one gives `λ_{m+1}`
/// and ρ. No modes when `v₁` spans nothing; just `v₁`, with its own
/// Rayleigh quotient as the rate, when the block iteration fails. Without
/// an `(m+1)`-th vector ρ is `√n`.
fn slow_modes(a: &CsrMatrix, v1: Vec<f64>) -> (Vec<Direction>, Option<f64>, f64) {
    let Some(v1) = Direction::new(a, v1) else {
        return (Vec::new(), None, shape_factor(None, a.dim()));
    };
    let mut modes = vec![v1];
    let m = mode_count(a.dim());
    let block = (m + 1).min(a.dim());
    let pairs = eigen::smallest_eigenpairs(a, block, MODE_ITERATIONS, 1e-10).unwrap_or_default();
    let mut pairs = pairs.into_iter().skip(1);
    for pair in pairs.by_ref().take(m - 1) {
        let mode = Direction::new(a, pair.vector).and_then(|d| d.a_orthogonal_to(&modes));
        modes.extend(mode);
    }
    let rest = pairs.next();
    let spread = shape_factor(rest.as_ref().map(|pair| &pair.vector[..]), a.dim());
    let rate = rest.map(|pair| pair.value).or_else(|| {
        modes
            .last()
            .map(|w| w.energy / vector::dot(&w.vector, &w.vector))
    });
    (modes, rate, spread)
}

/// The shape factor `ρ = ‖v‖₂/‖v‖∞` of the slowest mode `v` a warm run
/// leaves to the flow, clamped to `[1, √n]`: once the guess has removed
/// `v₁, …, v_m`, a settling run's residual has `v`'s shape, so
/// `‖r‖₂ ≈ ρ·max|r_i|` ([`residual_settle_tol`]). `√n`, the bound for any
/// residual, without a `v`.
fn shape_factor(v: Option<&[f64]>, n: usize) -> f64 {
    let root_n = (n as f64).sqrt();
    let Some(v) = v else {
        return root_n;
    };
    let ratio = vector::norm2(v) / vector::norm_inf(v);
    if ratio.is_finite() {
        ratio.clamp(1.0, root_n)
    } else {
        root_n
    }
}

/// A warm run's initial state and its coefficients on the original
/// directions of span{v₁, …, v_m, u_p, b}.
#[derive(Debug)]
struct Guess {
    /// The coefficients on the slow modes, `v₁`'s first.
    on_modes: Vec<f64>,
    /// The coefficient on the basis `u_p`.
    alpha: f64,
    /// The coefficient on the right-hand side `b`.
    rhs: f64,
    /// The (unscaled) initial state.
    start: Vec<f64>,
    /// The run's predicted peak `max_i |u_i(t)|` (unscaled): `‖u₀‖∞`, which
    /// [`AnalogSystemSolver::warm_guess`] widens by `‖b − A·u₀‖₂ / λ_{m+1}`.
    /// The flow keeps `‖u(t) − u₀‖₂ ≤ ‖u* − u₀‖₂`, and the guess's error is
    /// A-orthogonal to the kept modes, so it lies (up to the modes'
    /// accuracy) where `A` stretches by at least `λ_{m+1}`.
    reach: f64,
}

impl Guess {
    /// The coefficient on the slowest mode `v₁` (0 without one).
    fn slow(&self) -> f64 {
        self.on_modes.first().copied().unwrap_or(0.0)
    }
}

/// The A-norm Galerkin guess for `A·u* = b` on span{`modes`, `basis`,
/// `rhs`}, `basis` the settled answer a slot keeps (`None` before its first)
/// and `rhs` the direction of `b` (`None` for a zero `b`): the `u₀` in that
/// span which minimizes `‖u* − u₀‖_A` (Fischer's projection method for
/// successive right-hand sides, widened by the slow modes and by `b`
/// itself). The span contains zero, the cold start, so the guess is never
/// further from the answer in the A-norm than zero is.
///
/// The modes are A-orthogonal, so their Galerkin coefficients need no
/// solve: `w_iᵀA·u* = w_iᵀb`. What the basis and `b` add beyond them is
/// their A-orthogonal remainder `d̂ = d − Σ s_i·w_i`, `s_i = w_iᵀA·d / e_i`
/// (`e_i = w_iᵀA·w_i`), which is carried as Gram entries and never formed:
/// `d̂ᵀA·d̂ = dᵀA·d − Σ s_i²·e_i`, `d̂ᵀb = dᵀb − Σ s_i·w_iᵀb`, and
/// `ûᵀA·b̂ = (A·u)ᵀb − Σ s_i·t_i·e_i`. The remainders are A-orthogonalized
/// in order (basis, then `b`); one which keeps at most [`DEPENDENT_SHARE`]
/// of its own energy is dropped. The guess's error is A-orthogonal to every
/// direction kept, so the flow settles the rest of it only. Work: `3m + 4`
/// dots and `m + 2` axpys of length `n` on top of `rhs`'s one `A·b`;
/// without a basis, `2m + 2` dots and `m + 1` axpys.
fn galerkin_guess(
    modes: &[Direction],
    basis: Option<&Direction>,
    rhs: Option<&Direction>,
    b: &[f64],
) -> Guess {
    let mode_b: Vec<f64> = modes.iter().map(|w| vector::dot(&w.vector, b)).collect();
    // A remainder's energy, its product with b, and its coefficients s_i.
    let remainder = |d: &Direction| {
        let s: Vec<f64> = modes
            .iter()
            .map(|w| vector::dot(&w.vector, &d.applied) / w.energy)
            .collect();
        let mut energy = d.energy;
        let mut on_b = vector::dot(&d.vector, b);
        for ((si, w), wb) in s.iter().zip(modes).zip(&mode_b) {
            energy -= si * si * w.energy;
            on_b -= si * wb;
        }
        (energy, on_b, s)
    };
    let (basis_energy, basis_b, s) = match basis {
        Some(basis) => remainder(basis),
        None => (0.0, 0.0, vec![0.0; modes.len()]),
    };
    let basis = basis.filter(|basis| basis_energy > DEPENDENT_SHARE * basis.energy);
    let mut alpha = if basis.is_some() {
        basis_b / basis_energy
    } else {
        0.0
    };
    let mut on_rhs = 0.0;
    let mut t = vec![0.0; modes.len()];
    if let Some(rhs) = rhs {
        let (mut energy, mut on_b, rhs_s) = remainder(rhs);
        // b's remainder less its A-projection on the basis's remainder.
        let mut along = 0.0;
        if let Some(basis) = basis {
            let mut cross = vector::dot(&basis.applied, b);
            for ((si, ti), w) in s.iter().zip(&rhs_s).zip(modes) {
                cross -= si * ti * w.energy;
            }
            along = cross / basis_energy;
            energy -= along * cross;
            on_b -= along * basis_b;
        }
        if energy > DEPENDENT_SHARE * rhs.energy {
            on_rhs = on_b / energy;
            alpha -= along * on_rhs;
            t = rhs_s;
        }
    }
    let on_modes: Vec<f64> = modes
        .iter()
        .zip(&mode_b)
        .zip(s.iter().zip(&t))
        .map(|((w, wb), (si, ti))| wb / w.energy - alpha * si - on_rhs * ti)
        .collect();
    let mut start = vec![0.0; b.len()];
    for (c, w) in on_modes.iter().zip(modes) {
        vector::axpy(*c, &w.vector, &mut start);
    }
    if let Some(basis) = basis {
        vector::axpy(alpha, &basis.vector, &mut start);
    }
    vector::axpy(on_rhs, b, &mut start);
    Guess {
        on_modes,
        alpha,
        rhs: on_rhs,
        reach: vector::norm_inf(&start),
        start,
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

/// Checks that `b` is a right-hand side for a system of `n` unknowns: `n`
/// entries, every one finite. Either failure is the caller's error, which
/// no run, rescale or retry can cure.
///
/// # Errors
///
/// [`SolverError::InvalidProblem`] naming the length or the first
/// non-finite entry.
pub(crate) fn check_rhs(b: &[f64], n: usize) -> Result<(), SolverError> {
    if b.len() != n {
        return Err(SolverError::invalid(format!(
            "rhs has {} entries, system has {n}",
            b.len()
        )));
    }
    match b.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(SolverError::invalid(format!(
            "rhs entry {i} = {} is not finite",
            b[i]
        ))),
        None => Ok(()),
    }
}

/// The least share `θ` of its tolerance that a supervised run may leave
/// unsettled when it stops ([`settle_budget`]).
pub(crate) const SETTLE_SHARE: f64 = 0.25;

/// The relative residual a supervised run whose answer must meet `tol` may
/// leave unsettled when its readout floor is `floor` (q̂):
/// `max(θ·tol, tol − q̂)`, the tolerance less what the converters add to
/// the settled state.
///
/// In the value-scaled flow `dũ/dτ = b̃ − Ã·ũ` the derivative the engine
/// checks for steady state is the run's residual, so a run stopped at
/// `max|dũ/dτ| ≤ s·‖b̃‖₂/ρ` has `‖b̃ − Ã·ũ‖₂ ≈ ρ·max|dũ/dτ| ≤ s·‖b̃‖₂` when
/// its residual has the shape of the slowest mode left to the flow
/// ([`residual_settle_tol`], [`shape_factor`] ρ), and for certain at
/// `ρ = √n`. Every scaling is a scalar (`b − A·u = s·γ·(b̃ − Ã·ũ)`), so the
/// unscaled system has the same relative residual. Where `tol − q̂ < θ·tol`
/// the readout leaves no room, and the supervisor plans two rounds instead
/// of one run at `θ·tol`.
pub(crate) fn settle_budget(tol: f64, floor: f64) -> f64 {
    (tol - floor).max(SETTLE_SHARE * tol)
}

/// Where a supervised run stops, as a relative residual.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stop {
    /// The run's answer must meet this tolerance: it stops at the
    /// [`settle_budget`] its own readout floor leaves, read through the
    /// solver's shape factor ρ. A readout that misses the tolerance is
    /// continued from its held state to the same budget at `√n`, which
    /// bounds any residual.
    Meet(f64),
    /// At this residual, read at `√n`: a planned first round's
    /// `max(tol, q̂)`, past which a longer run buys nothing the readout
    /// keeps.
    At(f64),
}

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
    /// time; gates the readout-floor prediction after restore.
    pub calibrated: bool,
    /// The engine pass configuration the solver ran with at capture time.
    /// Restore rejects a checkpoint whose passes disagree with the
    /// restoring solver's config
    /// ([`SolverError::CheckpointMismatch`](crate::SolverError)) — the
    /// cached plans and obs journals would not line up.
    pub passes: aa_analog::PassConfig,
    /// The warm-start basis `u_p`, the last settled (unscaled) readout,
    /// the next request's runs start from (`None` starts from the guess on
    /// the slow modes and `b` alone).
    pub warm_start: Option<Vec<f64>>,
    /// The warm-start basis the next refinement round's correction run
    /// starts from (`None` as for `warm_start`).
    pub correction_warm_start: Option<Vec<f64>>,
    /// The chip's mutable runtime state.
    pub chip: aa_analog::ChipCheckpoint,
}

/// A solver bound to one matrix `A`, reusable across right-hand sides.
///
/// Construction compiles the circuit once (the expensive, static part);
/// each [`solve`](AnalogSystemSolver::solve) only binds its runs' DACs and
/// initial conditions — exactly the configuration/computation split of the
/// paper's ISA.
pub struct AnalogSystemSolver {
    mapped: MappedSystem,
    scaled: ScaledSystem,
    matrix: CsrMatrix,
    config: SolverConfig,
    /// The engine options every run uses: `config.engine` with the settle
    /// tolerance loosened to [`readout_settle_tol`] (and, for a supervised
    /// run, further to [`residual_settle_tol`]).
    engine: EngineOptions,
    /// `‖Ã‖_F`, which the readout floor scales with; `Ã` does not move
    /// with `γ`.
    a_frobenius: f64,
    /// Whether a sequential solve has been accepted, i.e. the
    /// overflow/underuse walk has settled; until then the readout floor
    /// ([`run_floor`](Self::run_floor)) has no `γ` to predict at. A batch
    /// moves `γ` to its aim and leaves the bit as it is.
    calibrated: bool,
    /// The last settled answer every request's runs start from; `None`
    /// until a run settles, so a fresh solver's first solve starts from the
    /// guess on the slow modes and `b` alone. Checkpoints carry `u_p` alone;
    /// `A·u_p` is recomputed on import.
    warm_start: Option<Direction>,
    /// The last settled correction a refinement round's run starts from
    /// ([`WarmSlot::Correction`]).
    correction_warm_start: Option<Direction>,
    /// The slow modes every warm start is widened by, A-orthogonal, `v₁`
    /// first ([`slow_modes`]); rebuilt from `A` by [`new`](Self::new), so
    /// no checkpoint carries them. Empty when `λ_min` could not be
    /// estimated.
    modes: Vec<Direction>,
    /// The estimated eigenvalue `λ_{m+1}` of the slowest mode `modes`
    /// leave out, which bounds the error of a warm guess ([`Guess::reach`]).
    rest_rate: Option<f64>,
    /// That mode's [`shape_factor`] ρ in `[1, √n]`, through which every
    /// [`Stop::Meet`] run and supervised batch lane reads its residual off
    /// `max|dũ/dτ|`; rebuilt by [`new`](Self::new) like the modes.
    spread: f64,
    /// Floating-point operations spent on warm guesses of runs since
    /// construction (host-side digital work, carried over a remap).
    guess_flops: u64,
    /// Every run starts at rest ([`start_at_rest`](Self::start_at_rest)).
    #[cfg(test)]
    at_rest: bool,
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
    /// ([`scaled_lambda_min`](crate::estimate::scaled_lambda_min)). The
    /// same iteration's eigenvector is kept as the slowest mode `v₁` every
    /// run's start removes, with up to three more from a block iteration
    /// (`min(4, ⌊n/4⌋)` modes in all), so even a fresh solver's first run
    /// starts from the Galerkin guess on span{v₁, …, v_m, b}.
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
        let (lambda, (modes, rest_rate, spread)) = match slowest_mode(a) {
            Ok((lambda, v)) => (Some(lambda), slow_modes(a, v)),
            Err(_) => (None, (Vec::new(), None, shape_factor(None, a.dim()))),
        };
        let engine = EngineOptions {
            steady_tol: readout_settle_tol(lambda, a.dim(), &template, config.engine.steady_tol),
            ..config.engine.clone()
        };
        let a_frobenius = scaled
            .matrix
            .iter()
            .map(|(_, _, v)| v * v)
            .sum::<f64>()
            .sqrt();
        Ok(AnalogSystemSolver {
            mapped,
            scaled,
            matrix: a.clone(),
            config: config.clone(),
            engine,
            a_frobenius,
            calibrated: false,
            warm_start: None,
            correction_warm_start: None,
            rest_rate,
            spread,
            modes,
            guess_flops: 0,
            #[cfg(test)]
            at_rest: false,
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

    /// Makes every later run of the solver start at rest, as a slot's
    /// first run did before it had a basis: the premise of tests that time
    /// a run against the from-rest settle model, or need a first run to
    /// outlast a cap.
    #[cfg(test)]
    pub(crate) fn start_at_rest(&mut self) {
        self.at_rest = true;
    }

    /// Whether a run for `b` from `slot` starts at rest.
    #[cfg(test)]
    pub(crate) fn starts_at_rest(&self, b: &[f64], slot: WarmSlot) -> bool {
        self.warm_guess(b, slot).is_none()
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
    /// binds new DACs/initial conditions to each run, a long sequence of
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
            warm_start: self.warm_start.as_ref().map(|d| d.vector.clone()),
            correction_warm_start: self
                .correction_warm_start
                .as_ref()
                .map(|d| d.vector.clone()),
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
        let basis = |u: &Option<Vec<f64>>| u.clone().and_then(|u| Direction::new(&self.matrix, u));
        self.warm_start = basis(&state.warm_start);
        self.correction_warm_start = basis(&state.correction_warm_start);
        self.mapped.chip_mut().import_state(&state.chip)?;
        Ok(())
    }

    /// Starts the next solve's overflow/underuse walk at solution scale
    /// `gamma` instead of where the previous solve left it.
    pub(crate) fn set_solution_factor(&mut self, gamma: f64) {
        self.scaled.solution_factor = gamma;
    }

    /// Sets `γ` where a solution peaking at `peak` (unscaled) fills
    /// `margin` of full scale: `γ = peak/(margin·full_scale)`. A peak that
    /// gives no positive, finite `γ` leaves it as it is.
    pub(crate) fn aim_solution_scale(&mut self, peak: f64) {
        let fs = self.mapped.chip().config().full_scale;
        let gamma = peak / (self.config.margin * fs);
        if gamma.is_finite() && gamma > 0.0 {
            self.scaled.solution_factor = gamma;
        }
    }

    /// Carries both warm-start bases over from another solver of the same
    /// matrix (a remap onto a fresh chip keeps the host's last answers),
    /// and its [`guess_flops`](Self::guess_flops) tally.
    pub(crate) fn keep_warm_starts_of(&mut self, other: &AnalogSystemSolver) {
        self.warm_start = other.warm_start.clone();
        self.correction_warm_start = other.correction_warm_start.clone();
        self.guess_flops = other.guess_flops;
    }

    /// Floating-point operations the host has spent on the warm guesses of
    /// runs since this solver was built (a run's guess is computed once for
    /// its whole `γ` walk; [`guess_flops_per_run`](Self::guess_flops_per_run)
    /// each).
    pub(crate) fn guess_flops(&self) -> u64 {
        self.guess_flops
    }

    /// Floating-point operations of one warm guess for `m` slow modes: the
    /// product `A·b`, `3m + 4` dots and `m + 2` axpys of length `n` with a
    /// basis, `2m + 2` and `m + 1` without ([`galerkin_guess`]), and its
    /// reach's residual `b − A·u₀` and norm.
    fn guess_flops_per_run(&self, basis: bool) -> u64 {
        let (n, m) = (self.dim() as u64, self.modes.len() as u64);
        let product = 2 * self.matrix.nnz() as u64;
        let vector_ops = if basis {
            (3 * m + 4) + (m + 2)
        } else {
            (2 * m + 2) + (m + 1)
        };
        product + 2 * n * vector_ops + product + 3 * n
    }

    /// Tallies the host work of one warm guess from `slot`, computed once
    /// for a run's whole `γ` walk.
    fn count_guess(&mut self, slot: WarmSlot) {
        let flops = self.guess_flops_per_run(self.basis(slot).is_some());
        self.guess_flops += flops;
        aa_obs::counter("solver.guess_flops", flops);
    }

    /// Tallies one run issued: `solver.warm_starts` when it starts from a
    /// guess, `solver.rest_starts` when it starts at rest.
    fn count_start(warm: bool) {
        let counter = if warm {
            "solver.warm_starts"
        } else {
            "solver.rest_starts"
        };
        aa_obs::counter(counter, 1);
    }

    /// The settled answer the runs from `slot` start from, if any.
    fn basis(&self, slot: WarmSlot) -> Option<&Direction> {
        match slot {
            WarmSlot::Request => self.warm_start.as_ref(),
            WarmSlot::Correction => self.correction_warm_start.as_ref(),
        }
    }

    /// Makes `u`, an answer the supervisor accepted for `A·u = b`, the
    /// basis the next run from `slot` starts from (a refined answer is
    /// better than the readout it refined).
    pub(crate) fn set_basis(&mut self, slot: WarmSlot, u: &[f64]) {
        let basis = Direction::new(&self.matrix, u.to_vec());
        match slot {
            WarmSlot::Request => self.warm_start = basis,
            WarmSlot::Correction => self.correction_warm_start = basis,
        }
    }

    /// The Galerkin guess for `b` on span{v₁, …, v_m, u_p, b} with the
    /// basis `u_p` in `slot` ([`galerkin_guess`]), on whichever of those
    /// directions exist: a slot's first run, before it has a basis, starts
    /// from the guess on span{v₁, …, v_m, b}. `None` only when none of them
    /// has positive energy (no slow modes, no basis, and `b = 0` or
    /// `bᵀA·b ≤ 0`): such a run starts at rest. Its
    /// [`reach`](Guess::reach) costs one more product, `A·u₀`.
    fn warm_guess(&self, b: &[f64], slot: WarmSlot) -> Option<Guess> {
        #[cfg(test)]
        if self.at_rest {
            return None;
        }
        let basis = self.basis(slot);
        let rhs = Direction::new(&self.matrix, b.to_vec());
        if self.modes.is_empty() && basis.is_none() && rhs.is_none() {
            return None;
        }
        let mut guess = galerkin_guess(&self.modes, basis, rhs.as_ref(), b);
        if let Some(rate) = self.rest_rate {
            guess.reach += self.matrix.residual_norm(&guess.start, b) / rate;
        }
        Some(guess)
    }

    /// The overflow pre-check of a run programmed with `b_scaled` from a
    /// warm guess whose scaled [`reach`](Guess::reach) is `reach`: its
    /// `(cause, counter)` when either peaks beyond full scale, since such
    /// a run would only end in an overflow exception.
    fn overflow_precheck(
        &self,
        b_scaled: &[f64],
        reach: Option<f64>,
    ) -> Option<(&'static str, &'static str)> {
        let fs = self.mapped.chip().config().full_scale;
        if vector::norm_inf(b_scaled) > fs {
            Some(("rhs_overflow", "solver.rescales.rhs_overflow"))
        } else if reach.is_some_and(|r| r > fs) {
            Some(("guess_overflow", "solver.rescales.guess_overflow"))
        } else {
            None
        }
    }

    /// The relative residual a settled request readout of `b` is expected
    /// to carry from the converters alone ([`run_floor`](Self::run_floor)
    /// for [`WarmSlot::Request`]).
    #[cfg(test)]
    pub(crate) fn readout_floor(&self, b: &[f64]) -> Option<f64> {
        self.run_floor(b, WarmSlot::Request)
    }

    /// The relative residual a settled readout of `b`, from a run started
    /// from `slot`, is expected to carry from the converters alone:
    /// `q̂ = ‖Ã‖_F·(adc_lsb/2)/‖b̃‖₂`, the residual of a readout whose every
    /// component is off by half a code, at the `γ` that run will use — the
    /// current one, doubled as often as the overflow pre-check of
    /// [`solve`](Self::solve) doubles it. `None` until the `γ` walk has
    /// settled (and for a zero `b`), since `b̃` moves with `γ`.
    pub(crate) fn run_floor(&self, b: &[f64], slot: WarmSlot) -> Option<f64> {
        if !self.calibrated {
            return None;
        }
        let mut b_scaled = self.scaled.scale_rhs(b);
        let mut reach = self
            .warm_guess(b, slot)
            .map(|g| g.reach / self.scaled.solution_factor);
        for _ in 0..self.config.max_rescale_attempts {
            if self.overflow_precheck(&b_scaled, reach).is_none() {
                break;
            }
            // Doubling γ halves both, exactly.
            for v in b_scaled.iter_mut().chain(reach.iter_mut()) {
                *v *= 0.5;
            }
        }
        let floor = self.floor_of(&b_scaled);
        floor.is_finite().then_some(floor)
    }

    /// [`run_floor`](Self::run_floor) of a run programmed with `b_scaled`
    /// (infinite for a zero one).
    fn floor_of(&self, b_scaled: &[f64]) -> f64 {
        self.a_frobenius * 0.5 * self.mapped.chip().config().adc_lsb() / vector::norm2(b_scaled)
    }

    /// The readout floor of a run programmed with `b_scaled`, the relative
    /// residual it stops at under `stop`, and the shape factor it reads
    /// that residual through: ρ for [`Stop::Meet`], `√n` for [`Stop::At`].
    fn settle(&self, stop: Stop, b_scaled: &[f64]) -> (f64, f64, f64) {
        let floor = self.floor_of(b_scaled);
        match stop {
            Stop::Meet(tol) => (floor, settle_budget(tol, floor), self.spread),
            Stop::At(residual) => (floor, residual, shape_factor(None, self.dim())),
        }
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

    /// The §III-B response to an overflow exception (`exceptions` units
    /// latched) after `retries` rescales: grow the headroom and count one
    /// more, for the caller to run again at the new `γ`.
    ///
    /// # Errors
    ///
    /// [`SolverError::RescaleExhausted`] once `max_rescale_attempts`
    /// rescales are spent.
    fn grow_after_overflow(
        &mut self,
        retries: &mut usize,
        exceptions: usize,
    ) -> Result<(), SolverError> {
        // §III-B: "When such exceptions occur the original problem is
        // scaled to fit in the dynamic range of the analog accelerator and
        // computation is reattempted."
        if *retries >= self.config.max_rescale_attempts {
            return Err(SolverError::RescaleExhausted { attempts: *retries });
        }
        self.scaled.grow_headroom();
        *retries += 1;
        aa_obs::counter("solver.rescales", 1);
        aa_obs::counter("solver.rescales.overflow", 1);
        aa_obs::event(
            aa_obs::Event::new("solver.rescale")
                .with("cause", "overflow")
                .with("retry", *retries)
                .with("exceptions", exceptions),
        );
        Ok(())
    }

    /// The peak integrator range usage of a run, `max_i |ũ_i|/fs`.
    fn peak_of(&self, report: &aa_analog::RunReport) -> f64 {
        self.mapped
            .integrator_range_usage(report)
            .values()
            .fold(0.0f64, |m, v| m.max(*v))
    }

    /// The engine options that continue a run stopped under `stop` with
    /// `engine`, programmed with `b_scaled`, from its held state, and the
    /// tolerance its readout must miss for that: the same settle budget read
    /// at `√n` ([`residual_settle_tol`]), which bounds the residual whatever
    /// its shape. `None` unless `stop` is [`Stop::Meet`] and the
    /// continuation settles further than the run did (not at `ρ = √n`, nor
    /// under a readout bound looser than both).
    fn continuation(
        &self,
        stop: Option<Stop>,
        settled: Option<(f64, f64, f64)>,
        engine: &EngineOptions,
        b_scaled: &[f64],
    ) -> Option<(EngineOptions, f64)> {
        let (Some(Stop::Meet(tol)), Some((_, settle, _))) = (stop, settled) else {
            return None;
        };
        let root_n = shape_factor(None, self.dim());
        let full = self.run_options(Some(residual_settle_tol(settle, b_scaled, root_n)));
        let further = matches!((full.steady_tol, engine.steady_tol), (Some(f), Some(e)) if f < e);
        further.then_some((full, tol))
    }

    /// Solves `A·u = b` on the accelerator with overflow-driven retry.
    ///
    /// # Errors
    ///
    /// * [`SolverError::InvalidProblem`] for a `b` of the wrong length or
    ///   with a NaN or infinite entry.
    /// * [`SolverError::RescaleExhausted`] if overflow persists after the
    ///   configured retries.
    /// * [`SolverError::NoSteadyState`] if the flow does not settle (e.g.
    ///   non-positive-definite `A`).
    pub fn solve(&mut self, b: &[f64]) -> Result<AnalogSolveReport, SolverError> {
        self.solve_run(b, None, WarmSlot::Request)
            .map(|(report, ..)| report)
    }

    /// [`solve`](Self::solve) for a supervisor: every run stops once its
    /// residual meets `stop` (for [`Stop::Meet`], the [`settle_budget`] of
    /// the floor at the `γ` that run uses, read through ρ, and continued to
    /// `√n` when its readout misses the tolerance), starts from and refreshes the
    /// basis in `slot`, and a run which hits its time cap without an
    /// exception is read out instead of reported as
    /// [`SolverError::NoSteadyState`]. The flag is `true` for such a
    /// timed-out readout. Only the supervisor, which validates every
    /// answer and refines near misses, may take an unsettled state. The
    /// last element is the answer's residual norm `‖b − A·u‖₂` when the
    /// host already computed it (a readout checked and kept without a
    /// continuation), for the supervisor to validate with.
    pub(crate) fn solve_or_time_out(
        &mut self,
        b: &[f64],
        stop: Stop,
        slot: WarmSlot,
    ) -> Result<(AnalogSolveReport, bool, Option<f64>), SolverError> {
        self.solve_run(b, Some(stop), slot)
    }

    fn solve_run(
        &mut self,
        b: &[f64],
        stop: Option<Stop>,
        slot: WarmSlot,
    ) -> Result<(AnalogSolveReport, bool, Option<f64>), SolverError> {
        // Only a supervisor, which names where its runs stop, reads a
        // timed-out run out.
        let read_timed_out = stop.is_some();
        check_rhs(b, self.dim())?;
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
        if guess.is_some() {
            self.count_guess(slot);
        }
        // One commit serves every run: each binds its own DACs and start.
        self.mapped.ensure_committed()?;

        loop {
            let b_scaled = self.scaled.scale_rhs(b);
            let initial = guess.as_ref().map(|g| self.scaled.scale_solution(&g.start));
            let reach = guess
                .as_ref()
                .map(|g| g.reach / self.scaled.solution_factor);
            // A too-small γ makes the programmed rhs, or the run from the
            // guess, overflow; grow headroom without wasting an analog run.
            if let Some((cause, counter)) = self.overflow_precheck(&b_scaled, reach) {
                if retries >= self.config.max_rescale_attempts {
                    return Err(SolverError::RescaleExhausted { attempts: retries });
                }
                self.scaled.grow_headroom();
                allow_shrink = false;
                retries += 1;
                aa_obs::counter("solver.rescales", 1);
                aa_obs::counter(counter, 1);
                aa_obs::event(
                    aa_obs::Event::new("solver.rescale")
                        .with("cause", cause)
                        .with("retry", retries),
                );
                continue;
            }
            let fs = self.mapped.chip().config().full_scale;
            let b_peak = vector::norm_inf(&b_scaled);
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
            let lane = self.mapped.lane_bindings(&b_scaled, initial.as_deref())?;
            let settled = stop.map(|stop| self.settle(stop, &b_scaled));
            let engine = self.run_options(
                settled.map(|(_, settle, spread)| residual_settle_tol(settle, &b_scaled, spread)),
            );
            Self::count_start(guess.is_some());
            let report = self.mapped.run(lane, &engine)?;
            total_time += report.duration_s;
            runs += 1;

            if report.exceptions.any() {
                self.grow_after_overflow(&mut retries, report.exceptions.len())?;
                allow_shrink = false;
                continue;
            }
            let mut timed_out = !report.reached_steady_state;
            if timed_out && !read_timed_out {
                return Err(SolverError::NoSteadyState {
                    waited_s: report.duration_s,
                });
            }

            let mut peak = self.peak_of(&report);
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
            let mut solution = self.scaled.unscale_solution(&raw);
            let mut steps = report.steps;
            // A readout that misses the tolerance its run must meet is
            // continued from the held state to the residual `√n` bounds:
            // the same run, neither refined nor retried. The miss is the
            // host's digital residual check, which a kept readout hands on
            // to the supervisor's validation.
            let mut checked = None;
            let full = match self.continuation(stop, settled, &engine, &b_scaled) {
                Some((full, tol)) if !timed_out => {
                    let residual = self.matrix.residual_norm(&solution, b);
                    if residual > tol * vector::norm2(b) {
                        Some(full)
                    } else {
                        checked = Some(residual);
                        None
                    }
                }
                _ => None,
            };
            let continued = full.is_some();
            if let Some(full) = full {
                let held = self.mapped.held(&report);
                Self::count_start(true);
                aa_obs::counter("solver.continued_runs", 1);
                let more = self.mapped.run(held, &full)?;
                total_time += more.duration_s;
                if more.exceptions.any() {
                    self.grow_after_overflow(&mut retries, more.exceptions.len())?;
                    allow_shrink = false;
                    continue;
                }
                timed_out = !more.reached_steady_state;
                peak = peak.max(self.peak_of(&more));
                steps += more.steps;
                let raw = self.mapped.read_solution(self.config.readout_samples)?;
                solution = self.scaled.unscale_solution(&raw);
            }
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
                    .with("peak", peak)
                    .with("steps", steps);
                if let Some(g) = &guess {
                    ev = ev
                        .with("alpha", g.alpha)
                        .with("slow", g.slow())
                        .with("rhs", g.rhs)
                        .with("modes", g.on_modes.len());
                }
                if let Some((floor, settle, spread)) = settled {
                    ev = ev
                        .with("floor", floor)
                        .with("settle", settle)
                        .with("spread", spread)
                        .with("continued", continued);
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
            return Ok((report, timed_out, checked));
        }
    }

    /// Solves `A·u = b_j` for K right-hand sides in **one** lockstep engine
    /// sweep sharing one compiled plan and one set of per-step fault and
    /// variation draws.
    ///
    /// The batch first aims the solution scale at the first column's warm
    /// guess `u₀`, `γ = ‖u₀‖∞/(margin·full_scale)`: the guess predicts the
    /// answer, so the sweep puts it near `margin` of full scale without a
    /// run to find `γ` first. All columns share that `γ`, and the batch
    /// never walks it: a column that would need a rescale walk
    /// (programmed-RHS overflow/underuse or a warm guess beyond full scale
    /// up front, or an overflow exception, no-settle, or range underuse in
    /// its run) is returned as [`BatchColumn::Fallback`] for the caller to
    /// solve sequentially from that `γ`, and the remaining columns keep
    /// their batched result. Each solved column's readout replays the
    /// readout-noise stream from the batch entry state, so its conversions
    /// match what a first sequential solve would see.
    ///
    /// Every lane starts from its own Galerkin guess on the slow modes,
    /// the warm-start basis as it stood at batch entry and its own
    /// right-hand side; the last solved column becomes the basis afterwards.
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
    /// residual tolerance is `tol` when that is given: the shared sweep then
    /// stops at the smallest lane's [`residual_settle_tol`] of its own
    /// [`settle_budget`] read through ρ (the engine has one settle
    /// tolerance for all lanes).
    pub(crate) fn solve_batch_within(
        &mut self,
        bs: &[Vec<f64>],
        tol: Option<f64>,
    ) -> Result<Vec<BatchColumn>, SolverError> {
        for b in bs {
            check_rhs(b, self.dim())?;
        }
        if bs.is_empty() {
            return Ok(Vec::new());
        }
        let _span = aa_obs::span("solver.solve_batch");
        aa_obs::counter("solver.batch_solves", 1);

        let guesses: Vec<Option<Guess>> = bs
            .iter()
            .map(|b| self.warm_guess(b, WarmSlot::Request))
            .collect();
        if let Some(first) = &guesses[0] {
            self.aim_solution_scale(vector::norm_inf(&first.start));
        }
        let stop = tol.map(Stop::Meet);
        let dac_floor = 4.0 * self.mapped.chip().config().dac_lsb();

        let mut out: Vec<BatchColumn> = Vec::with_capacity(bs.len());
        let mut lanes = Vec::new();
        let mut lane_columns = Vec::new();
        // The loosest settle target every lane's residual still meets.
        let mut lane_target: Option<f64> = None;
        for (j, (b, guess)) in bs.iter().zip(&guesses).enumerate() {
            let b_scaled = self.scaled.scale_rhs(b);
            let b_peak = vector::norm_inf(&b_scaled);
            let initial = guess.as_ref().map(|g| self.scaled.scale_solution(&g.start));
            let reach = guess
                .as_ref()
                .map(|g| g.reach / self.scaled.solution_factor);
            // The same pre-checks the sequential loop answers with a γ walk;
            // here they route the column out of the batch instead.
            if let Some((cause, _)) = self.overflow_precheck(&b_scaled, reach) {
                out.push(BatchColumn::Fallback(cause));
                continue;
            }
            if b_peak > 0.0 && b_peak < dac_floor {
                out.push(BatchColumn::Fallback("rhs_underuse"));
                continue;
            }
            if initial.is_some() {
                self.count_guess(WarmSlot::Request);
            }
            Self::count_start(initial.is_some());
            lanes.push(self.mapped.lane_bindings(&b_scaled, initial.as_deref())?);
            if let Some(stop) = stop {
                let (_, settle, spread) = self.settle(stop, &b_scaled);
                let target = residual_settle_tol(settle, &b_scaled, spread);
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
            let peak = self.peak_of(report);
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
            self.warm_start = Direction::new(&self.matrix, solution.clone());
        }
        if aa_obs::is_active() {
            let solved = out
                .iter()
                .filter(|c| matches!(c, BatchColumn::Solved(_)))
                .count();
            aa_obs::counter("solver.batch_lanes", lanes.len() as u64);
            let mut ev = aa_obs::Event::new("solver.batch")
                .with("columns", bs.len())
                .with("lanes", lanes.len())
                .with("solved", solved);
            if let Some(target) = lane_target {
                ev = ev.with("target", target);
            }
            aa_obs::event(ev);
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
/// (detection off) stays `None`, and an `n`-row matrix whose `λ̃_min` could
/// not be estimated (`lambda` is `None`) keeps `configured`.
fn readout_settle_tol(
    lambda: Option<f64>,
    n: usize,
    chip: &ChipConfig,
    configured: Option<f64>,
) -> Option<f64> {
    let configured = configured?;
    let Some(lambda) = lambda else {
        return Some(configured);
    };
    // `Ã = A·max_gain/max|a_ij|`, so its λ_min is the estimate's times the gain.
    let bound = lambda * chip.max_gain * chip.adc_lsb() / (2.0 * (n as f64).sqrt());
    Some(configured.max(bound))
}

/// The settle tolerance at which a run programmed with `b_scaled` has a
/// relative residual of about `settle` when its residual's 2-norm is
/// `spread` times its largest element: `settle·‖b̃‖₂/spread`. At
/// `spread = √n` the residual is at most `settle` whatever its shape, since
/// `‖b̃ − Ã·ũ‖₂ ≤ √n·max|dũ/dτ|`; at the solver's [`shape_factor`] ρ it is
/// `settle` once the residual has the shape of the slowest mode left to
/// the flow.
fn residual_settle_tol(settle: f64, b_scaled: &[f64], spread: f64) -> f64 {
    settle * vector::norm2(b_scaled) / spread
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::scaled_lambda_min;
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
                // From rest: a guess could sit beyond full scale at this γ
                // and walk it.
                settled.start_at_rest();
                assert!(settled.starts_at_rest(b, WarmSlot::Request));
                // Detection is off, so no tolerance can stop the run early.
                let (full, timed_out, _) = settled
                    .solve_or_time_out(b, Stop::Meet(1e-2), WarmSlot::Request)
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

    /// The residual a supervised run that must meet `tol` with readout floor
    /// `floor` stops at, written out here so that the tests check
    /// [`settle_budget`] rather than reuse it.
    fn budget(tol: f64, floor: f64) -> f64 {
        (tol - floor).max(0.25 * tol)
    }

    #[test]
    fn supervised_answers_meet_their_settle_budget() {
        // 24-bit converters make quantization negligible: what is left of
        // a first-try answer's residual is where its run stopped, the
        // tolerance less the answer's own readout floor.
        let cfg = SolverConfig::ideal().adc_bits(24);
        let recovery = crate::RecoveryConfig::default();
        let tol = recovery.residual_tolerance;
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(23);
        let recorder = aa_obs::MemoryRecorder::shared();
        for a in stop_rule_matrices() {
            let n = a.dim();
            let mut solver = crate::SupervisedSolver::new(&a, &cfg, &recovery).unwrap();
            // A first solve without a basis, then ones with it.
            for _ in 0..3 {
                let b: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
                let report = aa_obs::with_recorder(recorder.clone(), || solver.solve(&b).unwrap());
                assert_eq!(report.recovery.final_path, crate::FinalPath::Analog);
                // At the γ the answer was read out at.
                let floor = solver.inner().readout_floor(&b).unwrap();
                let bound = budget(tol, floor) * (1.0 + 1e-9);
                let r = a.residual_norm(&report.solution, &b) / vector::norm2(&b);
                assert!(r <= bound, "n = {n}: residual {r} > {bound}");
            }
        }
        // The sweep reaches the continuation: some of these answers are
        // continued runs' readouts.
        if aa_obs::ENABLED {
            let continued = recorder.snapshot().counter("solver.continued_runs");
            assert!(continued > 0, "no run continued");
        }
    }

    #[test]
    fn warm_first_tries_meet_the_tolerance_at_the_settle_budget() {
        // 12-bit converters and the fleet's right-hand sides (entries in
        // [0.1, 1)): the readout floor takes a real share of the tolerance,
        // and each run leaves it exactly that share.
        let recovery = crate::RecoveryConfig::default();
        let tol = recovery.residual_tolerance;
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(43);
        let (mut unplanned, mut loose) = (0, 0);
        for a in stop_rule_matrices() {
            let n = a.dim();
            let mut rhs = || -> Vec<f64> { (0..n).map(|_| rng.range(0.1, 1.0)).collect() };
            let mut solver =
                crate::SupervisedSolver::new(&a, &SolverConfig::ideal(), &recovery).unwrap();
            solver.solve(&rhs()).unwrap();
            for _ in 0..4 {
                let b = rhs();
                let planned =
                    solver.inner().readout_floor(&b).unwrap() > (1.0 - SETTLE_SHARE) * tol;
                let recorder = aa_obs::MemoryRecorder::shared();
                let report = aa_obs::with_recorder(recorder.clone(), || solver.solve(&b).unwrap());
                if planned {
                    continue;
                }
                unplanned += 1;
                let attempts = &report.recovery.attempts;
                assert_eq!(attempts.len(), 1, "n = {n}: {:#?}", report.recovery);
                assert_eq!(attempts[0].action, crate::RecoveryAction::Accept);
                let r = a.residual_norm(&report.solution, &b) / vector::norm2(&b);
                assert!(r <= tol, "n = {n}: residual {r}");
                if aa_obs::ENABLED {
                    let trace = recorder.snapshot();
                    let runs: Vec<_> = trace
                        .events_of_kind("solver.accept")
                        .map(|e| (e.field("floor"), e.field("settle")))
                        .collect();
                    let floor = solver.inner().readout_floor(&b).unwrap();
                    let settle = budget(tol, floor);
                    loose += usize::from(settle > SETTLE_SHARE * tol);
                    let expected = (aa_obs::Value::F64(floor), aa_obs::Value::F64(settle));
                    assert_eq!(runs, [(Some(&expected.0), Some(&expected.1))], "n = {n}");
                }
            }
        }
        assert!(unplanned >= 24, "{unplanned} unplanned requests");
        if aa_obs::ENABLED {
            assert!(
                loose >= unplanned - 4,
                "{loose} of {unplanned} runs above θ·tol"
            );
        }
    }

    #[test]
    fn batch_lanes_stop_at_the_smallest_settle_budget() {
        let a = CsrMatrix::tridiagonal(16, -1.0, 2.3, -1.0).unwrap();
        let recovery = crate::RecoveryConfig::default();
        let tol = recovery.residual_tolerance;
        let mut solver =
            crate::SupervisedSolver::new(&a, &SolverConfig::ideal(), &recovery).unwrap();
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(47);
        let mut rhs =
            |scale: f64| -> Vec<f64> { (0..16).map(|_| scale * rng.range(0.1, 1.0)).collect() };
        solver.solve(&rhs(1.0)).unwrap();
        // Four lanes of different norms, hence different floors.
        let bs: Vec<Vec<f64>> = [1.0, 0.8, 0.9, 0.7].into_iter().map(&mut rhs).collect();
        let recorder = aa_obs::MemoryRecorder::shared();
        let reports = aa_obs::with_recorder(recorder.clone(), || solver.solve_batch(&bs));
        let mut lane_budgets = Vec::new();
        for (b, report) in bs.iter().zip(reports) {
            let report = report.unwrap();
            assert_eq!(report.recovery.final_path, crate::FinalPath::Analog);
            let r = a.residual_norm(&report.solution, b) / vector::norm2(b);
            assert!(r <= tol, "residual {r}");
            // The lane's budget at the γ the sweep ran at.
            let mut scaling = solver.inner().scaling().clone();
            scaling.solution_factor = report.analog.unwrap().solution_factor;
            let b_scaled = scaling.scale_rhs(b);
            let floor = solver.inner().floor_of(&b_scaled);
            // The premise: the floor leaves the run more than θ·tol.
            assert!(floor < (1.0 - SETTLE_SHARE) * tol, "floor {floor}");
            // Read through the solver's shape factor ρ, as every lane is.
            let spread = solver.inner().spread;
            lane_budgets.push(residual_settle_tol(budget(tol, floor), &b_scaled, spread));
        }
        if aa_obs::ENABLED {
            let trace = recorder.snapshot();
            let batch = trace.events_of_kind("solver.batch").next().unwrap();
            assert_eq!(batch.field("solved"), Some(&aa_obs::Value::U64(4)));
            let smallest = lane_budgets.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(batch.field("target"), Some(&aa_obs::Value::F64(smallest)));
            assert!(
                lane_budgets.iter().any(|t| *t > smallest),
                "{lane_budgets:?}"
            );
            assert_eq!(trace.counter("solver.recovery.batch_fallbacks"), 0);
            assert_eq!(trace.counter("solver.supervised_solves"), 0);
        }
    }

    #[test]
    fn batch_lanes_that_miss_are_re_solved_and_validate() {
        // 2D Poisson n = 25, whose slowest remaining mode is among the
        // fleet's least flat (ρ ≈ 2.1 against √n = 5), and 24-bit
        // converters, so a lane's answer is where its run stopped; the
        // fleet's right-hand sides (entries in [0.1, 1)). A lane whose
        // readout misses the tolerance at ρ leaves the batch for a
        // sequential supervised solve, which continues its run to √n.
        let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(5).unwrap());
        let n = a.dim();
        let recovery = crate::RecoveryConfig::default();
        let tol = recovery.residual_tolerance;
        let cfg = SolverConfig::ideal().adc_bits(24);
        let mut solver = crate::SupervisedSolver::new(&a, &cfg, &recovery).unwrap();
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(71);
        let mut rhs = || -> Vec<f64> { (0..n).map(|_| rng.range(0.1, 1.0)).collect() };
        solver.solve(&rhs()).unwrap();
        let recorder = aa_obs::MemoryRecorder::shared();
        for _ in 0..4 {
            let bs: Vec<Vec<f64>> = (0..4).map(|_| rhs()).collect();
            let reports = aa_obs::with_recorder(recorder.clone(), || solver.solve_batch(&bs));
            for (b, report) in bs.iter().zip(reports) {
                let report = report.unwrap();
                assert_eq!(report.recovery.final_path, crate::FinalPath::Analog);
                let r = a.residual_norm(&report.solution, b) / vector::norm2(b);
                assert!(r <= tol, "residual {r}");
            }
        }
        if aa_obs::ENABLED {
            let trace = recorder.snapshot();
            // The premise: some lanes missed, and each was solved once more.
            let missed = trace.counter("solver.recovery.batch_fallbacks");
            assert!(missed > 0, "no lane missed");
            assert_eq!(trace.counter("solver.supervised_solves"), missed);
            // No run starts from rest, a continuation included.
            assert_eq!(
                trace.counter("solver.warm_starts"),
                trace.counter("engine.runs")
            );
        }
    }

    /// The fleet's structure families: its tridiagonals (n = 4 to 16,
    /// diagonals 2.0 to 2.3) and its 5-point grids (side 4 to 8, with the
    /// batched workload's anisotropic couplings).
    fn fleet_structures() -> Vec<CsrMatrix> {
        let mut matrices = Vec::new();
        for n in 4..=16 {
            for diag in [2.0, 2.1, 2.2, 2.3] {
                matrices.push(CsrMatrix::tridiagonal(n, -1.0, diag, -1.0).unwrap());
            }
        }
        let grid = |side: usize, cx: f64, cy: f64| {
            let at = |i: usize, j: usize| i * side + j;
            let mut entries = Vec::new();
            for i in 0..side {
                for j in 0..side {
                    entries.push(Triplet::new(at(i, j), at(i, j), 2.0 * (cx + cy)));
                    if j + 1 < side {
                        entries.push(Triplet::new(at(i, j), at(i, j + 1), -cx));
                        entries.push(Triplet::new(at(i, j + 1), at(i, j), -cx));
                    }
                    if i + 1 < side {
                        entries.push(Triplet::new(at(i, j), at(i + 1, j), -cy));
                        entries.push(Triplet::new(at(i + 1, j), at(i, j), -cy));
                    }
                }
            }
            CsrMatrix::from_triplets(side * side, &entries).unwrap()
        };
        for side in 4..=8 {
            for (cx, cy) in [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (1.0, 0.75)] {
                matrices.push(grid(side, cx, cy));
            }
        }
        matrices
    }

    #[test]
    fn spread_lies_between_one_and_root_n_on_every_fleet_structure() {
        for a in fleet_structures() {
            let n = a.dim();
            let solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            let rho = solver.spread;
            assert!(
                (1.0..=(n as f64).sqrt()).contains(&rho),
                "n = {n}: ρ = {rho}"
            );
            // A settling mode is never flat, so ρ reads a tighter stop
            // than √n on every one of them.
            assert!(rho < (n as f64).sqrt(), "n = {n}: ρ = {rho}");
        }
    }

    #[test]
    fn spread_is_root_n_without_a_further_mode() {
        // The identity's block iteration fails (every eigenvalue is 1), so
        // only v₁ is kept and no (m+1)-th vector shapes the stop.
        let identity = CsrMatrix::tridiagonal(6, 0.0, 1.0, 0.0).unwrap();
        let solver = AnalogSystemSolver::new(&identity, &SolverConfig::ideal()).unwrap();
        assert_eq!(solver.modes.len(), 1);
        assert_eq!(solver.spread, 6f64.sqrt());
        // A 1×1 system has no second mode either.
        let single = CsrMatrix::tridiagonal(1, 0.0, 2.0, 0.0).unwrap();
        let solver = AnalogSystemSolver::new(&single, &SolverConfig::ideal()).unwrap();
        assert_eq!(solver.spread, 1.0);
        // Nor does a v₁ that spans nothing.
        let a = poisson_1d(9);
        let (modes, _, spread) = slow_modes(&a, vec![0.0; 9]);
        assert!(modes.is_empty());
        assert_eq!(spread, 3.0);
    }

    /// Supervised solves of the fleet's right-hand sides (entries in
    /// [0.1, 1)) over [`stop_rule_matrices`] with `bits`-bit converters,
    /// read through `√n` instead of ρ when `root_n`. Each structure's first
    /// solve settles γ; per later solve: its final path, relative residual,
    /// and whether a run was continued (traced builds only).
    fn stop_rule_sweep(bits: u32, root_n: bool) -> Vec<(crate::FinalPath, f64, bool)> {
        let recovery = crate::RecoveryConfig::default();
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(67);
        let mut out = Vec::new();
        for a in stop_rule_matrices() {
            let n = a.dim();
            let mut rhs = || -> Vec<f64> { (0..n).map(|_| rng.range(0.1, 1.0)).collect() };
            let cfg = SolverConfig::ideal().adc_bits(bits);
            let mut solver = crate::SupervisedSolver::new(&a, &cfg, &recovery).unwrap();
            if root_n {
                solver.inner_mut().spread = (n as f64).sqrt();
            }
            solver.solve(&rhs()).unwrap();
            for _ in 0..8 {
                let b = rhs();
                let recorder = aa_obs::MemoryRecorder::shared();
                let report = aa_obs::with_recorder(recorder.clone(), || solver.solve(&b).unwrap());
                let r = a.residual_norm(&report.solution, &b) / vector::norm2(&b);
                let continued = recorder.snapshot().counter("solver.continued_runs") > 0;
                out.push((report.recovery.final_path, r, continued));
            }
        }
        out
    }

    #[test]
    fn every_first_try_at_12_bits_is_analog() {
        for (path, r, _) in stop_rule_sweep(12, false) {
            assert_eq!(path, crate::FinalPath::Analog, "residual {r}");
        }
    }

    #[test]
    fn a_root_n_solver_never_continues_a_run() {
        for bits in [12, 24] {
            for (path, r, continued) in stop_rule_sweep(bits, true) {
                assert_eq!(path, crate::FinalPath::Analog, "{bits} bits: residual {r}");
                assert!(!continued, "{bits} bits: residual {r}");
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
                let (sup, timed_out, _) = supervised
                    .solve_or_time_out(&b, Stop::Meet(tol), WarmSlot::Request)
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

    /// The A-norm Galerkin guess for `b` on span{`directions`} and its
    /// coefficients, from the normal equations `G·c = Dᵀb` with
    /// `G_ij = d_iᵀA·d_j`, solved densely: written out here so that the
    /// tests check [`galerkin_guess`] rather than reuse it.
    fn projected(a: &CsrMatrix, directions: &[&[f64]], b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let gram: Vec<f64> = directions
            .iter()
            .flat_map(|d| {
                let applied = a.apply_vec(d);
                directions.iter().map(move |e| vector::dot(e, &applied))
            })
            .collect();
        let gram = aa_linalg::DenseMatrix::from_row_major(directions.len(), &gram).unwrap();
        let on: Vec<f64> = directions.iter().map(|d| vector::dot(d, b)).collect();
        let coefs = aa_linalg::direct::solve(&gram, &on).unwrap();
        let mut guess = vec![0.0; b.len()];
        for (c, d) in coefs.iter().zip(directions) {
            vector::axpy(*c, d, &mut guess);
        }
        (coefs, guess)
    }

    #[test]
    fn warm_guess_is_never_further_than_zero_in_the_a_norm() {
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(5);
        // One, four and two slow modes.
        for a in [
            poisson_1d(7),
            CsrMatrix::from_row_access(&PoissonStencil::new_2d(4).unwrap()),
            CsrMatrix::tridiagonal(9, -1.0, 2.3, -1.0).unwrap(),
        ] {
            let n = a.dim();
            let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            assert!(solver.warm_start.is_none(), "a fresh solver has no basis");
            assert_eq!(solver.modes.len(), mode_count(n));
            let modes: Vec<Vec<f64>> = solver.modes.iter().map(|w| w.vector.clone()).collect();
            let v1 = modes[0].clone();
            let mut b: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
            solver.solve(&b).unwrap();
            let mut gained = 0;
            for step in 0..12 {
                let basis = solver.warm_start.clone().unwrap().vector;
                b = match step % 4 {
                    // Sign-flipped.
                    0 => b.iter().map(|v| -v).collect(),
                    // A-orthogonal to u_p: u_pᵀA·u* = u_pᵀb = 0.
                    1 => {
                        let r: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
                        let c = vector::dot(&basis, &r) / vector::dot(&basis, &basis);
                        r.iter().zip(&basis).map(|(r, u)| r - c * u).collect()
                    }
                    // Correlated with the last right-hand side.
                    2 => b.iter().map(|v| 0.7 * v + rng.range(-0.3, 0.3)).collect(),
                    // Fresh.
                    _ => (0..n).map(|_| rng.range(-1.0, 1.0)).collect(),
                };
                let (alpha, guess) = projected(&a, &[&basis], &b);
                let cold = a_norm_error(&a, &b, &vec![0.0; n]);
                let warm = a_norm_error(&a, &b, &guess);
                assert!(warm <= cold * (1.0 + 1e-12), "step {step}: {warm} > {cold}");
                // Widening the span by the slowest mode never loses ground.
                let (_, pair) = projected(&a, &[&v1, &basis], &b);
                let slow = a_norm_error(&a, &b, &pair);
                assert!(slow <= warm * (1.0 + 1e-12), "step {step}: {slow} > {warm}");
                // Nor does widening it by b.
                let (_, three) = projected(&a, &[&v1, &basis, &b], &b);
                let three = a_norm_error(&a, &b, &three);
                assert!(
                    three <= slow * (1.0 + 1e-12),
                    "step {step}: {three} > {slow}"
                );
                // Nor by the other slow modes, and the solver's guess is
                // that projection.
                let mut directions: Vec<&[f64]> = modes.iter().map(Vec::as_slice).collect();
                directions.extend([basis.as_slice(), b.as_slice()]);
                let (coefs, all) = projected(&a, &directions, &b);
                let widened = solver.warm_guess(&b, WarmSlot::Request).unwrap();
                let full = a_norm_error(&a, &b, &widened.start);
                assert!(
                    full <= three * (1.0 + 1e-12),
                    "step {step}: {full} > {three}"
                );
                let apart: Vec<f64> = all.iter().zip(&widened.start).map(|(x, y)| x - y).collect();
                let apart = vector::dot(&apart, &a.apply_vec(&apart)).sqrt();
                assert!(
                    apart <= 1e-9 * cold,
                    "step {step}: {apart} from the Galerkin guess"
                );
                let mut found = widened.on_modes.clone();
                found.extend([widened.alpha, widened.rhs]);
                assert_eq!(widened.slow(), found[0]);
                for (x, y) in found.iter().zip(&coefs) {
                    assert!(
                        (x - y).abs() <= 1e-6 * y.abs().max(1.0),
                        "{found:?} vs {coefs:?}"
                    );
                }
                gained += usize::from(three < 0.9 * slow);
                if step % 4 == 1 {
                    assert!(alpha[0].abs() < 1e-12, "A-orthogonal rhs: α = {}", alpha[0]);
                }
                solver.solve(&b).unwrap();
            }
            assert!(gained >= 6, "b shortened {gained} of 12 starts");

            // An all-zero right-hand side projects onto the zero guess.
            let zero = vec![0.0; n];
            let guess = solver.warm_guess(&zero, WarmSlot::Request).unwrap();
            assert!(guess.on_modes.iter().all(|c| *c == 0.0));
            assert_eq!((guess.alpha, guess.rhs), (0.0, 0.0));
            assert!(guess.start.iter().all(|g| *g == 0.0));
            assert_eq!(a_norm_error(&a, &zero, &guess.start), 0.0);
        }
    }

    #[test]
    fn slow_modes_follow_the_count_rule() {
        let grid = CsrMatrix::from_row_access(&PoissonStencil::new_2d(8).unwrap());
        let tri = |n| CsrMatrix::tridiagonal(n, -1.0, 2.0, -1.0).unwrap();
        for (a, m) in [(tri(4), 1), (tri(12), 3), (grid, 4)] {
            let n = a.dim();
            let solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            let modes = &solver.modes;
            assert_eq!(modes.len(), m, "n = {n}");
            // v₁ is the λ̃_min iteration's own vector, bit for bit.
            assert_eq!(modes[0].vector, slowest_mode(&a).unwrap().1);
            for (i, w) in modes.iter().enumerate() {
                // An approximate eigenvector.
                let lambda = w.energy / vector::dot(&w.vector, &w.vector);
                let residual: Vec<f64> = w
                    .applied
                    .iter()
                    .zip(&w.vector)
                    .map(|(x, y)| x - lambda * y)
                    .collect();
                let rel = vector::norm2(&residual) / (lambda * vector::norm2(&w.vector));
                assert!(rel <= 1e-3, "n = {n}, mode {i}: ‖Av − λv‖/‖λv‖ = {rel}");
                for (j, v) in modes[..i].iter().enumerate() {
                    let cross = vector::dot(&v.vector, &w.applied) / (v.energy * w.energy).sqrt();
                    assert!(cross.abs() <= 1e-12, "n = {n}: modes {j} and {i}: {cross}");
                }
            }
        }
    }

    #[test]
    fn warm_start_takes_the_slowest_mode_out_of_the_initial_error() {
        // The fleet's slowest mixed-workload structure: λ̃_min ≈ 0.03.
        let a = CsrMatrix::tridiagonal(12, -1.0, 2.0, -1.0).unwrap();
        let n = a.dim();
        let cfg = SolverConfig::ideal();
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(41);
        let mut rhs = || -> Vec<f64> { (0..n).map(|_| rng.range(0.1, 1.0)).collect() };
        let a_norm = |x: &[f64]| vector::dot(x, &a.apply_vec(x)).sqrt();
        let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
        solver.solve(&rhs()).unwrap();
        // The same γ and basis, started from α·u_p alone.
        let mut one_vector = AnalogSystemSolver::new(&a, &cfg).unwrap();
        one_vector.import_state(&solver.export_state()).unwrap();
        one_vector.modes.clear();

        let b = rhs();
        let exact = aa_linalg::direct::solve(&a.to_dense(), &b).unwrap();
        let v1 = solver.modes[0].vector.clone();
        let slow_share = |guess: &[f64]| {
            let e0: Vec<f64> = exact.iter().zip(guess).map(|(x, g)| x - g).collect();
            vector::dot(&v1, &a.apply_vec(&e0)).abs() / (a_norm(&v1) * a_norm(&e0))
        };
        let widened = solver.warm_guess(&b, WarmSlot::Request).unwrap();
        let single = one_vector.warm_guess(&b, WarmSlot::Request).unwrap();
        assert!(slow_share(&widened.start) <= 1e-3);
        assert!(
            slow_share(&single.start) > 1e-2,
            "the one-vector start keeps v₁"
        );

        // At a fixed RK4 step the run time counts its steps. Both solves
        // walk γ alike (every run of a walk starts from the same guess).
        let omega = solver.chip().config().omega();
        let steps = |t: f64| (t * omega / cfg.engine.dt_tau).round();
        let fast = solver.solve(&b).unwrap();
        let slow = one_vector.solve(&b).unwrap();
        assert_eq!(fast.runs, slow.runs);
        assert!(
            steps(fast.analog_time_s) < steps(slow.analog_time_s),
            "{} steps vs {} from α·u_p",
            steps(fast.analog_time_s),
            steps(slow.analog_time_s)
        );
    }

    #[test]
    fn more_slow_modes_settle_a_warm_run_in_fewer_steps() {
        // 2D Poisson at n = 64, the Krylov workload's largest structure:
        // λ₂ = λ₃ ≈ 2.4·λ₁ and λ₄ ≈ 3.9·λ₁ set the rate once v₁ is gone.
        let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(8).unwrap());
        let n = a.dim();
        let cfg = SolverConfig::ideal();
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(59);
        let mut rhs = || -> Vec<f64> { (0..n).map(|_| rng.range(0.1, 1.0)).collect() };
        let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
        assert_eq!(solver.modes.len(), 4);
        solver.solve(&rhs()).unwrap();
        let omega = solver.chip().config().omega();
        let steps = |t: f64| (t * omega / cfg.engine.dt_tau).round();
        let (mut fast_steps, mut slow_steps) = (0.0, 0.0);
        for _ in 0..4 {
            // The same γ and basis, started from span{v₁, u_p, b}.
            let mut one_mode = AnalogSystemSolver::new(&a, &cfg).unwrap();
            one_mode.import_state(&solver.export_state()).unwrap();
            one_mode.modes.truncate(1);
            let b = rhs();
            let fast = solver.solve(&b).unwrap();
            let slow = one_mode.solve(&b).unwrap();
            assert_eq!(fast.runs, slow.runs);
            assert!(
                steps(fast.analog_time_s) < steps(slow.analog_time_s),
                "{} steps vs {} from span{{v₁, u_p, b}}",
                steps(fast.analog_time_s),
                steps(slow.analog_time_s)
            );
            fast_steps += steps(fast.analog_time_s);
            slow_steps += steps(slow.analog_time_s);
        }
        eprintln!("RK4 steps over 4 warm runs: {fast_steps} vs {slow_steps} with v₁ alone");
    }

    #[test]
    fn a_guess_beyond_full_scale_issues_no_run() {
        let a = CsrMatrix::tridiagonal(12, -1.0, 2.0, -1.0).unwrap();
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(53);
        let mut rhs = || -> Vec<f64> { (0..12).map(|_| rng.range(0.1, 1.0)).collect() };
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        solver.solve(&rhs()).unwrap();
        let b = rhs();
        // A γ at which the guess peaks at 1.5× full scale while b̃ fits:
        // one doubling brings the guess to ¾ of it.
        let fs = solver.chip().config().full_scale;
        let guess = solver.warm_guess(&b, WarmSlot::Request).unwrap();
        let gamma = vector::norm_inf(&guess.start) / (1.5 * fs);
        let at = |gamma: f64| {
            let mut s = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            s.import_state(&solver.export_state()).unwrap();
            s.set_solution_factor(gamma);
            s
        };
        let (mut skipped, mut direct) = (at(gamma), at(2.0 * gamma));
        assert!(vector::norm_inf(&skipped.scaling().scale_rhs(&b)) <= fs);
        let recorder = aa_obs::MemoryRecorder::shared();
        let report = aa_obs::with_recorder(recorder.clone(), || skipped.solve(&b).unwrap());
        let plain = direct.solve(&b).unwrap();
        // The pre-check only doubled γ: the one run it issued is the run a
        // solver already at 2γ issues, and the chip aged by that run alone.
        assert_eq!((report.runs, report.overflow_retries), (1, 1));
        assert_eq!((plain.runs, plain.overflow_retries), (1, 0));
        assert_eq!(report.solution, plain.solution);
        assert_eq!(report.analog_time_s, plain.analog_time_s);
        assert_eq!(skipped.chip().lifetime_s(), direct.chip().lifetime_s());
        assert!((0.7..0.8).contains(&report.peak_range_usage), "{report:?}");
        if aa_obs::ENABLED {
            let trace = recorder.snapshot();
            assert_eq!(trace.counter("solver.rescales.guess_overflow"), 1);
            assert_eq!(trace.counter("solver.rescales"), 1);
            let causes: Vec<_> = trace
                .events_of_kind("solver.rescale")
                .map(|e| e.field("cause").cloned())
                .collect();
            assert_eq!(causes, [Some(aa_obs::Value::from("guess_overflow"))]);
        }
    }

    #[test]
    fn a_settled_gamma_walk_does_not_overflow_the_next_request() {
        // A fresh γ walk that overflowed settles at the edge of the range:
        // from rest, the first readout of tridiagonal(12, 2, −1) often
        // peaks above 0.8 of full scale, and a later right-hand side's
        // answer beyond it. Its warm guess predicts that peak, so the
        // headroom grows before the request's run instead of after an
        // overflow.
        let a = CsrMatrix::tridiagonal(12, -1.0, 2.0, -1.0).unwrap();
        let recovery = crate::RecoveryConfig::default();
        let overflow = aa_obs::Value::from("overflow");
        let (mut edge, mut overflows) = (0, 0);
        for seed in 0..200 {
            let mut rng = aa_linalg::rng::Rng64::seed_from_u64(seed);
            let mut rhs = || -> Vec<f64> { (0..12).map(|_| rng.range(0.1, 1.0)).collect() };
            let mut solver =
                crate::SupervisedSolver::new(&a, &SolverConfig::ideal(), &recovery).unwrap();
            let first = solver.solve(&rhs()).unwrap();
            if first.analog.unwrap().peak_range_usage < 0.8 {
                continue;
            }
            edge += 1;
            for _ in 0..7 {
                let b = rhs();
                let recorder = aa_obs::MemoryRecorder::shared();
                let report = aa_obs::with_recorder(recorder.clone(), || solver.solve(&b).unwrap());
                assert_eq!(report.recovery.rejected_attempts(), 0, "seed {seed}");
                // The request's own runs, before any correction round.
                overflows += recorder
                    .snapshot()
                    .events()
                    .take_while(|e| e.kind != "solver.recovery.attempt")
                    .filter(|e| e.kind == "solver.rescale" && e.field("cause") == Some(&overflow))
                    .count();
            }
        }
        assert!(edge >= 60, "{edge} of 200 first solves at the edge");
        if aa_obs::ENABLED {
            assert!(overflows <= 1, "{overflows} overflow runs aborted");
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
            fresh.start_at_rest();
            assert!(fresh.starts_at_rest(&b, WarmSlot::Request));
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
    fn a_solve_right_after_import_replays_bit_for_bit() {
        // Modes are rebuilt by `new` and never checkpointed, so a restored
        // solver's next run starts from the guess the original's does: on
        // span{v₁, …, v_m, b} before a slot has a basis, with it after.
        let tol = crate::RecoveryConfig::default().residual_tolerance;
        let mut rng = aa_linalg::rng::Rng64::seed_from_u64(67);
        for a in [
            CsrMatrix::tridiagonal(12, -1.0, 2.0, -1.0).unwrap(),
            CsrMatrix::from_row_access(&PoissonStencil::new_2d(4).unwrap()),
        ] {
            let n = a.dim();
            let mut original = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
            for step in 0..4 {
                let b: Vec<f64> = (0..n).map(|_| rng.range(0.1, 1.0)).collect();
                let snap = original.export_state();
                assert_eq!(snap.warm_start.is_none(), step == 0);
                assert_eq!(snap.correction_warm_start.is_none(), step < 2);
                let mut restored = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
                restored.import_state(&snap).unwrap();
                let slot = if step % 2 == 0 {
                    WarmSlot::Request
                } else {
                    WarmSlot::Correction
                };
                assert!(!restored.starts_at_rest(&b, slot), "n = {n}, step {step}");
                // The tally counts from construction, and is not restored.
                let flops = original.guess_flops();
                let from_restored = restored.solve_or_time_out(&b, Stop::Meet(tol), slot);
                let from_original = original.solve_or_time_out(&b, Stop::Meet(tol), slot);
                assert_eq!(from_restored.unwrap(), from_original.unwrap());
                assert_eq!(restored.export_state(), original.export_state());
                assert_eq!(restored.guess_flops(), original.guess_flops() - flops);
            }
        }
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
