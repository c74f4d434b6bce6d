//! The analog accelerator chip: registers, state machine, and data readout.
//!
//! Mirrors the paper's §III-B architecture: a digital host writes *static
//! configuration* (connections, gains, initial conditions, DAC constants,
//! lookup tables, a timeout) into registers, commits it, starts and stops
//! computation, and reads ADC outputs and the exception vector afterwards.

use std::collections::BTreeMap;

use aa_linalg::rng::Rng64;

use crate::config::ChipConfig;
use crate::engine::{
    run_committed, run_committed_batch, Compiled, EngineOptions, LaneBindings, PlanCache,
    PlanStats, RunReport, Structure,
};
use crate::error::AnalogError;
use crate::exceptions::ExceptionVector;
use crate::fault::FaultPlan;
use crate::lut::{quantize, LookupTable};
use crate::netlist::{InputPort, Netlist, OutputPort};
use crate::nonideal::ProcessVariation;
use crate::passes::{PassConfig, PassStat};
use crate::units::UnitId;

/// An external stimulus attached to an analog input channel.
pub type InputSignal = Box<dyn Fn(f64) -> f64 + Send + Sync>;

/// The draft configuration registers the host writes before `cfgCommit`.
#[derive(Debug, Clone)]
pub(crate) struct Registers {
    pub(crate) netlist: Netlist,
    /// Multiplier constant gains; absent means variable–variable mode
    /// (the multiplier computes `in0·in1/full_scale`).
    pub(crate) mul_gains: BTreeMap<usize, f64>,
    /// Integrator initial conditions.
    pub(crate) int_initial: BTreeMap<usize, f64>,
    /// DAC constant outputs (stored already quantized to DAC resolution).
    pub(crate) dac_values: BTreeMap<usize, f64>,
    /// Lookup-table contents.
    pub(crate) luts: BTreeMap<usize, LookupTable>,
    /// Computation timeout in control-clock cycles (`setTimeout`).
    pub(crate) timeout_cycles: Option<u64>,
    /// Which analog input channels are open (`setAnaInputEn`).
    pub(crate) inputs_enabled: BTreeMap<usize, bool>,
}

impl Registers {
    fn new(config: &ChipConfig) -> Self {
        Registers {
            netlist: Netlist::new(config.inventory),
            mul_gains: BTreeMap::new(),
            int_initial: BTreeMap::new(),
            dac_values: BTreeMap::new(),
            luts: BTreeMap::new(),
            timeout_cycles: None,
            inputs_enabled: BTreeMap::new(),
        }
    }
}

/// Control-clock frequency used to convert `setTimeout` cycles to seconds.
pub const CONTROL_CLOCK_HZ: f64 = 1.0e6;

/// The result of one batched execution ([`AnalogChip::exec_batch`]): K
/// per-lane run reports plus the batch's shared start instant on the chip's
/// lifetime clock. Pass it back to [`AnalogChip::select_lane`] to stage one
/// lane's outputs for readout, and to [`AnalogChip::finish_batch`] when all
/// lanes have been read.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchExec {
    /// Per-lane run reports, in lane order.
    pub reports: Vec<RunReport>,
    /// Chip lifetime at batch start — every lane's time axis begins here.
    pub start_lifetime_s: f64,
}

impl BatchExec {
    /// The batch's wall-clock (simulated) duration: the longest lane. The
    /// lanes ran in lockstep, so this is what the chip's lifetime advanced
    /// by — the throughput win over K sequential runs, whose durations
    /// would have added up.
    pub fn duration_s(&self) -> f64 {
        self.reports.iter().fold(0.0f64, |m, r| m.max(r.duration_s))
    }
}

/// A portable snapshot of one chip's **mutable runtime state** — everything
/// that diverges from a freshly constructed, freshly programmed chip as it
/// serves traffic. Captured by [`AnalogChip::export_state`] and replayed
/// into a deterministically rebuilt chip by [`AnalogChip::import_state`],
/// so a crashed host can resume with bit-identical noise streams, fault
/// clocks, and calibration trims.
///
/// The *static* configuration (netlist, gains, DAC constants, timeout) is
/// deliberately excluded: it is a pure function of the problem being
/// served, and the restore path re-programs it before importing.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipCheckpoint {
    /// Raw readout-noise RNG state ([`Rng64::state`]).
    pub noise_rng_state: u64,
    /// Cumulative powered seconds (the fault-event clock).
    pub lifetime_s: f64,
    /// Whether `init` (calibration) had run.
    pub calibrated: bool,
    /// Per-unit trim-DAC codes `(unit, offset_trim, gain_trim)` — chosen by
    /// calibration against lifetime-dependent faults, so they cannot be
    /// re-derived by recalibrating at a different lifetime instant.
    pub trims: Vec<(UnitId, i32, i32)>,
    /// The injected runtime-fault schedule, if any.
    pub fault_plan: Option<FaultPlan>,
    /// Cumulative plan-cache statistics at capture time.
    pub plan_stats: PlanStats,
    /// Whether the plan cache was warm (current for the chip's plan epoch)
    /// at capture time. Restore re-primes the cache only when this is set,
    /// so a chip that would have compiled fresh still compiles fresh.
    pub plan_cache_valid: bool,
    /// The pass configuration of the cached op tape at capture time, if it
    /// was lowered with at least one pass. Restore re-lowers the tape
    /// silently under it (or without passes when `None`), so the first
    /// post-restore run is a cache hit, keeping [`PlanStats`] and the obs
    /// journal bit-identical to the uninterrupted run.
    pub optimized_passes: Option<PassConfig>,
}

impl ChipCheckpoint {
    /// Checkpoint format version; bump on any incompatible layout change.
    /// Version 2 added [`optimized_passes`](Self::optimized_passes).
    pub const FORMAT_VERSION: u32 = 2;
}

/// A behavioural model of one analog accelerator chip instance.
///
/// Construction draws this instance's process variation; the same
/// [`ChipConfig`] with a different non-ideality seed is "a different copy of
/// the chip" whose calibration codes will differ (paper §III-B).
///
/// ```
/// use aa_analog::{AnalogChip, ChipConfig};
/// use aa_analog::units::UnitId;
/// use aa_analog::netlist::{OutputPort, InputPort};
///
/// # fn main() -> Result<(), aa_analog::AnalogError> {
/// let mut chip = AnalogChip::new(ChipConfig::ideal());
/// // du/dt = -u via a feedback multiplier with gain -1.
/// chip.set_conn(OutputPort::of(UnitId::Integrator(0)), InputPort::of(UnitId::Multiplier(0)))?;
/// chip.set_conn(OutputPort::of(UnitId::Multiplier(0)), InputPort::of(UnitId::Integrator(0)))?;
/// chip.set_mul_gain(0, -1.0)?;
/// chip.set_int_initial(0, 0.5)?;
/// chip.cfg_commit()?;
/// let report = chip.exec(&Default::default())?;
/// assert!(report.reached_steady_state);
/// assert!(report.integrator_values[&0].abs() < 1e-3); // decayed to zero
/// # Ok(())
/// # }
/// ```
pub struct AnalogChip {
    config: ChipConfig,
    variation: ProcessVariation,
    draft: Registers,
    committed: Option<Registers>,
    exceptions: ExceptionVector,
    /// ADC input values captured at the end of the last run.
    adc_inputs: BTreeMap<usize, f64>,
    /// Attached external stimuli (test-bench side, not a register).
    input_signals: BTreeMap<usize, InputSignal>,
    /// RNG for readout noise.
    noise_rng: Rng64,
    calibrated: bool,
    /// Injected runtime-fault schedule (test-bench side, like `variation`).
    fault_plan: Option<FaultPlan>,
    /// Cumulative analog seconds this chip instance has been powered:
    /// every `exec` run plus explicit [`idle`](Self::idle) waits. Fault
    /// events are scheduled on this clock.
    lifetime_s: f64,
    /// Cached compilation products (netlist structure + lowered plan),
    /// reused by `exec` while `plan_epoch` is unchanged.
    plan_cache: PlanCache,
    /// Bumped by every mutation that changes what compilation would
    /// produce; see [`PlanCache`] for what does and does not count.
    plan_epoch: u64,
}

impl std::fmt::Debug for AnalogChip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalogChip")
            .field("config", &self.config)
            .field("committed", &self.committed.is_some())
            .field("calibrated", &self.calibrated)
            .field("exceptions", &self.exceptions)
            .finish()
    }
}

impl AnalogChip {
    /// Instantiates a chip, drawing its process variation from the config's
    /// non-ideality seed.
    pub fn new(config: ChipConfig) -> Self {
        let variation = ProcessVariation::draw(&config.inventory, &config.nonideal);
        let noise_rng = Rng64::seed_from_u64(config.nonideal.seed ^ 0x5eed);
        AnalogChip {
            draft: Registers::new(&config),
            variation,
            config,
            committed: None,
            exceptions: ExceptionVector::new(),
            adc_inputs: BTreeMap::new(),
            input_signals: BTreeMap::new(),
            noise_rng,
            calibrated: false,
            fault_plan: None,
            lifetime_s: 0.0,
            plan_cache: PlanCache::default(),
            plan_epoch: 0,
        }
    }

    /// The chip's static configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// This instance's process variation (visible for tests and ablations;
    /// a real host can only observe it through calibration measurements).
    pub fn variation(&self) -> &ProcessVariation {
        &self.variation
    }

    /// Mutable access for the calibration routine. Trim changes alter the
    /// imperfection factors baked into a lowered plan, so taking this
    /// reference invalidates the plan cache.
    pub(crate) fn variation_mut(&mut self) -> &mut ProcessVariation {
        self.plan_epoch += 1;
        &mut self.variation
    }

    /// Cumulative plan-cache activity: structures built, plans lowered,
    /// cache hits. A long solve loop against an unchanged netlist shows
    /// `plans_lowered == 1` with one `cache_hits` increment per subsequent
    /// run — the observable guarantee that repeated `exec` calls do not
    /// recompile.
    pub fn plan_stats(&self) -> PlanStats {
        self.plan_cache.stats()
    }

    /// Per-pass op-count statistics from the cached op tape: one
    /// [`PassStat`] per pass that ran when it was lowered. Empty when the
    /// cached tape was lowered without passes, or none is cached (no
    /// compiled run yet, or the cache was invalidated since).
    pub fn pass_stats(&self) -> Vec<PassStat> {
        self.plan_cache.pass_log()
    }

    /// Renders the committed configuration's op tape, lowered through the
    /// `passes` pipeline, as a deterministic text dump — the snapshot
    /// format the pass tests pin. The dump compiles fresh from the
    /// committed registers with no fault plan at lifetime zero, and
    /// touches neither the plan cache nor its statistics.
    ///
    /// # Errors
    ///
    /// * [`AnalogError::ProtocolViolation`] if no configuration is
    ///   committed.
    /// * Any compilation error from the committed netlist.
    pub fn dump_plan(&self, passes: &PassConfig) -> Result<String, AnalogError> {
        let registers = self
            .committed
            .as_ref()
            .ok_or_else(|| AnalogError::protocol("plan dump before cfgCommit"))?;
        let structure = Structure::build(registers, &self.config)?;
        let circuit = Compiled {
            config: &self.config,
            variation: &self.variation,
            registers,
            signals: &self.input_signals,
            faults: None,
            t_offset: 0.0,
            structure: &structure,
        };
        Ok(crate::ir::lower_plan(&circuit, passes).dump())
    }

    /// Whether `init` (calibration) has run.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    pub(crate) fn set_calibrated(&mut self, calibrated: bool) {
        self.calibrated = calibrated;
    }

    // ----- Runtime-fault injection (test-bench side) -----

    /// Loads a runtime-fault schedule. Event windows are interpreted on the
    /// chip's [lifetime clock](Self::lifetime_s), so a plan injected now with
    /// an event at `start_s: 0.0` is already active.
    pub fn inject_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Removes any injected fault schedule.
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = None;
    }

    /// The injected fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Whether any injected fault event is active at the chip's current
    /// lifetime instant — the health signal a fleet scheduler polls when
    /// deciding to quarantine a chip.
    pub fn has_active_fault(&self) -> bool {
        self.fault_plan
            .as_ref()
            .is_some_and(|plan| plan.any_active(self.lifetime_s))
    }

    /// Cumulative analog seconds this instance has been powered (every
    /// `exec` run plus explicit [`idle`](Self::idle) waits).
    pub fn lifetime_s(&self) -> f64 {
        self.lifetime_s
    }

    /// Lets `seconds` of chip lifetime pass without computing — the host's
    /// cool-down move: a transient fault window can expire while the chip
    /// sits idle.
    pub fn idle(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            self.lifetime_s += seconds;
        }
    }

    /// One calibration probe through `imp` at `input`, including any active
    /// analog-path fault on `unit`: the calibration routine measures what
    /// the hardware *currently* does, so trims chosen by a recalibration
    /// pass cancel in-progress drift too.
    pub(crate) fn probe_value(
        &self,
        unit: UnitId,
        imp: &crate::nonideal::BlockImperfection,
        input: f64,
    ) -> f64 {
        let v = imp.apply(input);
        match &self.fault_plan {
            Some(plan) => plan.analog_adjust(unit, self.lifetime_s, v),
            None => v,
        }
    }

    // ----- Config instructions (Table I) -----

    /// `setConn`: creates an analog current connection between two units.
    ///
    /// # Errors
    ///
    /// See [`Netlist::connect`].
    pub fn set_conn(&mut self, from: OutputPort, to: InputPort) -> Result<(), AnalogError> {
        self.committed = None;
        self.plan_epoch += 1;
        self.draft.netlist.connect(from, to)
    }

    /// `setIntInitial`: sets an integrator's ODE initial condition.
    ///
    /// # Errors
    ///
    /// * [`AnalogError::NoSuchUnit`] for a bad index.
    /// * [`AnalogError::ValueOutOfRange`] if `|value|` exceeds full scale.
    pub fn set_int_initial(&mut self, index: usize, value: f64) -> Result<(), AnalogError> {
        let unit = UnitId::Integrator(index);
        if !self.config.inventory.contains(unit) {
            return Err(AnalogError::NoSuchUnit { unit });
        }
        if value.abs() > self.config.full_scale || !value.is_finite() {
            return Err(AnalogError::ValueOutOfRange {
                context: "integrator initial condition",
                value,
                limit: self.config.full_scale,
            });
        }
        self.committed = None;
        self.draft.int_initial.insert(index, value);
        Ok(())
    }

    /// `setMulGain`: puts a multiplier in constant-gain mode.
    ///
    /// # Errors
    ///
    /// * [`AnalogError::NoSuchUnit`] for a bad index.
    /// * [`AnalogError::ValueOutOfRange`] if `|gain|` exceeds the multiplier
    ///   range — the situation the paper's value-scaling procedure exists to
    ///   avoid.
    pub fn set_mul_gain(&mut self, index: usize, gain: f64) -> Result<(), AnalogError> {
        let unit = UnitId::Multiplier(index);
        if !self.config.inventory.contains(unit) {
            return Err(AnalogError::NoSuchUnit { unit });
        }
        if gain.abs() > self.config.max_gain || !gain.is_finite() {
            return Err(AnalogError::ValueOutOfRange {
                context: "multiplier gain",
                value: gain,
                limit: self.config.max_gain,
            });
        }
        self.committed = None;
        self.plan_epoch += 1;
        self.draft.mul_gains.insert(index, gain);
        Ok(())
    }

    /// Returns a multiplier to variable–variable mode (`out = in0·in1/fs`).
    ///
    /// # Errors
    ///
    /// [`AnalogError::NoSuchUnit`] for a bad index.
    pub fn set_mul_variable(&mut self, index: usize) -> Result<(), AnalogError> {
        let unit = UnitId::Multiplier(index);
        if !self.config.inventory.contains(unit) {
            return Err(AnalogError::NoSuchUnit { unit });
        }
        self.committed = None;
        self.plan_epoch += 1;
        self.draft.mul_gains.remove(&index);
        Ok(())
    }

    /// `setFunction`: programs a lookup table with a nonlinear function.
    ///
    /// # Errors
    ///
    /// [`AnalogError::NoSuchUnit`] for a bad index.
    pub fn set_function<F: Fn(f64) -> f64>(
        &mut self,
        index: usize,
        f: F,
    ) -> Result<(), AnalogError> {
        let unit = UnitId::Lut(index);
        if !self.config.inventory.contains(unit) {
            return Err(AnalogError::NoSuchUnit { unit });
        }
        self.committed = None;
        self.plan_epoch += 1;
        let lut = LookupTable::from_function(
            self.config.lut_depth,
            self.config.adc_bits,
            self.config.full_scale,
            f,
        );
        self.draft.luts.insert(index, lut);
        Ok(())
    }

    /// Writes one lookup-table entry directly (the `writeParallel` data path
    /// into the continuous-time SRAM). An unprogrammed table starts as the
    /// identity function.
    ///
    /// # Errors
    ///
    /// [`AnalogError::NoSuchUnit`] for a bad table index, or
    /// [`AnalogError::ValueOutOfRange`] for a bad entry index.
    pub fn write_lut_entry(
        &mut self,
        lut_index: usize,
        entry: usize,
        value: f64,
    ) -> Result<(), AnalogError> {
        let unit = UnitId::Lut(lut_index);
        if !self.config.inventory.contains(unit) {
            return Err(AnalogError::NoSuchUnit { unit });
        }
        if entry >= self.config.lut_depth {
            return Err(AnalogError::ValueOutOfRange {
                context: "lookup-table entry index",
                value: entry as f64,
                limit: self.config.lut_depth as f64 - 1.0,
            });
        }
        self.committed = None;
        self.plan_epoch += 1;
        let depth = self.config.lut_depth;
        let bits = self.config.adc_bits;
        let fs = self.config.full_scale;
        self.draft
            .luts
            .entry(lut_index)
            .or_insert_with(|| LookupTable::identity(depth, bits, fs))
            .write_entry(entry, value);
        Ok(())
    }

    /// `setDacConstant`: sets a DAC's constant bias output. The stored value
    /// is quantized to the DAC's resolution — an honest model of the paper's
    /// precision discussion.
    ///
    /// # Errors
    ///
    /// * [`AnalogError::NoSuchUnit`] for a bad index.
    /// * [`AnalogError::ValueOutOfRange`] if `|value|` exceeds full scale.
    pub fn set_dac_constant(&mut self, index: usize, value: f64) -> Result<(), AnalogError> {
        let unit = UnitId::Dac(index);
        if !self.config.inventory.contains(unit) {
            return Err(AnalogError::NoSuchUnit { unit });
        }
        if value.abs() > self.config.full_scale || !value.is_finite() {
            return Err(AnalogError::ValueOutOfRange {
                context: "dac constant",
                value,
                limit: self.config.full_scale,
            });
        }
        self.committed = None;
        let q = quantize(value, self.config.dac_bits, self.config.full_scale);
        self.draft.dac_values.insert(index, q);
        Ok(())
    }

    /// `setTimeout`: stops computation after `cycles` control-clock cycles.
    pub fn set_timeout(&mut self, cycles: u64) {
        self.committed = None;
        self.draft.timeout_cycles = Some(cycles);
    }

    /// `setAnaInputEn`: opens or closes an analog input channel.
    ///
    /// # Errors
    ///
    /// [`AnalogError::NoSuchUnit`] for a bad index.
    pub fn set_ana_input_en(&mut self, index: usize, enabled: bool) -> Result<(), AnalogError> {
        let unit = UnitId::AnalogInput(index);
        if !self.config.inventory.contains(unit) {
            return Err(AnalogError::NoSuchUnit { unit });
        }
        self.committed = None;
        self.draft.inputs_enabled.insert(index, enabled);
        Ok(())
    }

    /// Attaches an external stimulus waveform to an analog input channel
    /// (test-bench side; takes effect only while the channel is enabled).
    ///
    /// # Errors
    ///
    /// [`AnalogError::NoSuchUnit`] for a bad index.
    pub fn attach_input_signal(
        &mut self,
        index: usize,
        signal: InputSignal,
    ) -> Result<(), AnalogError> {
        let unit = UnitId::AnalogInput(index);
        if !self.config.inventory.contains(unit) {
            return Err(AnalogError::NoSuchUnit { unit });
        }
        self.input_signals.insert(index, signal);
        Ok(())
    }

    /// `cfgCommit`: validates and freezes the draft configuration.
    ///
    /// # Errors
    ///
    /// [`AnalogError::AlgebraicLoop`] if the netlist has a memoryless cycle.
    pub fn cfg_commit(&mut self) -> Result<(), AnalogError> {
        self.draft.netlist.validate()?;
        self.committed = Some(self.draft.clone());
        Ok(())
    }

    /// Whether a committed configuration exists.
    pub fn is_committed(&self) -> bool {
        self.committed.is_some()
    }

    /// Resets the draft configuration to empty (and invalidates the commit).
    pub fn reset_config(&mut self) {
        self.draft = Registers::new(&self.config);
        self.committed = None;
        self.plan_epoch += 1;
    }

    // ----- Control instructions -----

    /// `execStart` … `execStop`: runs the committed configuration.
    ///
    /// Integration starts from the programmed initial conditions and runs
    /// until the committed timeout (if any), the engine's steady-state
    /// detector (if enabled in `options`), or the safety cap — whichever
    /// comes first. Exception latches are cleared at start and captured at
    /// the end, along with every ADC's input value.
    ///
    /// # Errors
    ///
    /// * [`AnalogError::ProtocolViolation`] if no configuration is committed.
    /// * [`AnalogError::Diverged`] if the integration diverges.
    pub fn exec(&mut self, options: &EngineOptions) -> Result<RunReport, AnalogError> {
        let registers = self
            .committed
            .as_ref()
            .ok_or_else(|| AnalogError::protocol("execStart before cfgCommit"))?;
        self.exceptions.clear();
        let report = match &self.fault_plan {
            Some(plan) => {
                // LUT upsets corrupt what the SRAM *reads back*, not what was
                // programmed: apply them to a scratch copy of the register
                // file so a transient upset heals once its window closes.
                let overrides: Vec<_> = plan.lut_overrides(self.lifetime_s).collect();
                if overrides.is_empty() {
                    run_committed(
                        registers,
                        &self.config,
                        &self.variation,
                        &self.input_signals,
                        Some(plan),
                        self.lifetime_s,
                        Some((&mut self.plan_cache, self.plan_epoch)),
                        options,
                    )?
                } else {
                    let mut scratch = registers.clone();
                    let (depth, bits, fs) = (
                        self.config.lut_depth,
                        self.config.adc_bits,
                        self.config.full_scale,
                    );
                    for (lut, entry, value) in overrides {
                        if entry < depth {
                            scratch
                                .luts
                                .entry(lut)
                                .or_insert_with(|| LookupTable::identity(depth, bits, fs))
                                .write_entry(entry, value);
                        }
                    }
                    // The scratch register file (upset LUT contents) must
                    // not pollute the cache: compile fresh.
                    run_committed(
                        &scratch,
                        &self.config,
                        &self.variation,
                        &self.input_signals,
                        Some(plan),
                        self.lifetime_s,
                        None,
                        options,
                    )?
                }
            }
            None => run_committed(
                registers,
                &self.config,
                &self.variation,
                &self.input_signals,
                None,
                0.0,
                Some((&mut self.plan_cache, self.plan_epoch)),
                options,
            )?,
        };
        self.lifetime_s += report.duration_s;
        self.exceptions = report.exceptions.clone();
        self.adc_inputs = report.adc_inputs.clone();
        Ok(report)
    }

    /// Batched `execStart`: runs the committed configuration for K lanes in
    /// one lockstep RK4 sweep. Each lane overlays the committed registers
    /// with its own DAC constants and initial conditions — the per-run
    /// state that never invalidates the plan cache, so the whole batch
    /// shares one compiled plan.
    ///
    /// All lanes start at the chip's current lifetime instant and see the
    /// same fault/variation draws per `(unit, t)`; each lane's report is
    /// bit-identical to a sequential [`exec`](Self::exec) of that lane from
    /// this same instant. The lifetime clock advances by the **longest**
    /// lane (the lanes ran concurrently), and the readout latches hold the
    /// last lane's outputs until [`select_lane`](Self::select_lane) stages
    /// a specific one.
    ///
    /// # Errors
    ///
    /// * [`AnalogError::ProtocolViolation`] if no configuration is committed.
    /// * [`AnalogError::ValueOutOfRange`] for lane values beyond full scale.
    /// * [`AnalogError::Diverged`] if the integration diverges (any lane).
    pub fn exec_batch(
        &mut self,
        lanes: &[LaneBindings],
        options: &EngineOptions,
    ) -> Result<BatchExec, AnalogError> {
        let registers = self
            .committed
            .as_ref()
            .ok_or_else(|| AnalogError::protocol("execStart before cfgCommit"))?;
        for lane in lanes {
            for (&_, &v) in lane.dac_values.iter().flatten() {
                if v.abs() > self.config.full_scale || !v.is_finite() {
                    return Err(AnalogError::ValueOutOfRange {
                        context: "batch lane dac constant",
                        value: v,
                        limit: self.config.full_scale,
                    });
                }
            }
            for (&_, &v) in lane.int_initial.iter().flatten() {
                if v.abs() > self.config.full_scale || !v.is_finite() {
                    return Err(AnalogError::ValueOutOfRange {
                        context: "batch lane integrator initial condition",
                        value: v,
                        limit: self.config.full_scale,
                    });
                }
            }
        }
        let start_lifetime_s = self.lifetime_s;
        self.exceptions.clear();
        let reports = match &self.fault_plan {
            Some(plan) => {
                let overrides: Vec<_> = plan.lut_overrides(self.lifetime_s).collect();
                if overrides.is_empty() {
                    run_committed_batch(
                        registers,
                        &self.config,
                        &self.variation,
                        &self.input_signals,
                        Some(plan),
                        self.lifetime_s,
                        lanes,
                        Some((&mut self.plan_cache, self.plan_epoch)),
                        options,
                    )?
                } else {
                    // Active LUT upsets force the scratch-register path;
                    // run the lanes sequentially from the shared start
                    // instant (trivially identical to the batch semantics,
                    // since the lifetime clock only advances afterwards).
                    let (depth, bits, fs) = (
                        self.config.lut_depth,
                        self.config.adc_bits,
                        self.config.full_scale,
                    );
                    let mut scratch = registers.clone();
                    for (lut, entry, value) in overrides {
                        if entry < depth {
                            scratch
                                .luts
                                .entry(lut)
                                .or_insert_with(|| LookupTable::identity(depth, bits, fs))
                                .write_entry(entry, value);
                        }
                    }
                    lanes
                        .iter()
                        .map(|lane| {
                            let mut regs = scratch.clone();
                            if let Some(dacs) = &lane.dac_values {
                                regs.dac_values = dacs.clone();
                            }
                            if let Some(ints) = &lane.int_initial {
                                regs.int_initial = ints.clone();
                            }
                            run_committed(
                                &regs,
                                &self.config,
                                &self.variation,
                                &self.input_signals,
                                Some(plan),
                                start_lifetime_s,
                                None,
                                options,
                            )
                        })
                        .collect::<Result<Vec<_>, _>>()?
                }
            }
            None => run_committed_batch(
                registers,
                &self.config,
                &self.variation,
                &self.input_signals,
                None,
                0.0,
                lanes,
                Some((&mut self.plan_cache, self.plan_epoch)),
                options,
            )?,
        };
        let batch = BatchExec {
            reports,
            start_lifetime_s,
        };
        self.lifetime_s = start_lifetime_s + batch.duration_s();
        if let Some(last) = batch.reports.last() {
            self.exceptions = last.exceptions.clone();
            self.adc_inputs = last.adc_inputs.clone();
        }
        Ok(batch)
    }

    /// Stages one batch lane's end-of-run outputs for readout: loads its
    /// ADC input values and exception latches and rewinds the lifetime
    /// clock to that lane's own end instant, so `readSerial`/`analogAvg`/
    /// `readExp` behave exactly as they would after a sequential
    /// [`exec`](Self::exec) of that lane. Callers that also need the
    /// readout-noise stream to match save
    /// [`noise_rng_state`](Self::noise_rng_state) before the first lane and
    /// restore it before each. Call [`finish_batch`](Self::finish_batch) when done.
    ///
    /// # Errors
    ///
    /// [`AnalogError::ProtocolViolation`] for a lane index out of range.
    pub fn select_lane(&mut self, batch: &BatchExec, lane: usize) -> Result<(), AnalogError> {
        let report = batch
            .reports
            .get(lane)
            .ok_or_else(|| AnalogError::protocol("batch lane index out of range"))?;
        self.exceptions = report.exceptions.clone();
        self.adc_inputs = report.adc_inputs.clone();
        self.lifetime_s = batch.start_lifetime_s + report.duration_s;
        Ok(())
    }

    /// Restores the post-batch lifetime clock (batch start plus the longest
    /// lane) after per-lane readout rewound it via
    /// [`select_lane`](Self::select_lane).
    pub fn finish_batch(&mut self, batch: &BatchExec) {
        self.lifetime_s = batch.start_lifetime_s + batch.duration_s();
    }

    /// Raw readout-noise RNG state. Batched readout saves this before the
    /// first lane and restores it per lane so every column sees the same
    /// noise stream its sequential counterpart would.
    pub fn noise_rng_state(&self) -> u64 {
        self.noise_rng.state()
    }

    /// Restores a readout-noise RNG state captured by
    /// [`noise_rng_state`](Self::noise_rng_state).
    pub fn set_noise_rng_state(&mut self, state: u64) {
        self.noise_rng = Rng64::from_state(state);
    }

    /// Quantizes `value` to the DAC resolution — exactly what
    /// [`set_dac_constant`](Self::set_dac_constant) would store. Batch lane
    /// bindings must carry quantized values so a batched lane matches the
    /// sequential programming path bit for bit.
    pub fn quantize_dac(&self, value: f64) -> f64 {
        quantize(value, self.config.dac_bits, self.config.full_scale)
    }

    // ----- Data output instructions -----

    /// `readSerial`: reads one ADC conversion of the value at the ADC's
    /// input, as a digital code.
    ///
    /// Each conversion sees one sample of readout noise and quantizes to the
    /// configured resolution.
    ///
    /// # Errors
    ///
    /// [`AnalogError::NoSuchUnit`] for a bad index.
    pub fn read_serial(&mut self, adc_index: usize) -> Result<u32, AnalogError> {
        let value = self.sample_adc(adc_index)?;
        Ok(self.faulted_code(adc_index, self.code_of(value)))
    }

    /// `analogAvg`: averages `samples` ADC conversions, returning the mean
    /// *analog* estimate. Averaging suppresses readout noise by `√samples`
    /// (each individual sample is still quantized).
    ///
    /// # Errors
    ///
    /// * [`AnalogError::NoSuchUnit`] for a bad index.
    /// * [`AnalogError::ProtocolViolation`] if `samples == 0`.
    pub fn analog_avg(&mut self, adc_index: usize, samples: usize) -> Result<f64, AnalogError> {
        if samples == 0 {
            return Err(AnalogError::protocol("analogAvg needs at least one sample"));
        }
        let mut acc = 0.0;
        for _ in 0..samples {
            let v = self.sample_adc(adc_index)?;
            let code = self.faulted_code(adc_index, self.code_of(v));
            acc += self.value_of(code);
        }
        Ok(acc / samples as f64)
    }

    /// `readExp`: the exception vector from the last run, as a byte array.
    pub fn read_exp(&self) -> Vec<u8> {
        self.exceptions.to_bytes(&self.config.inventory)
    }

    /// The exception vector from the last run, in structured form.
    pub fn exceptions(&self) -> &ExceptionVector {
        &self.exceptions
    }

    /// One noisy analog sample at an ADC input (pre-quantization).
    fn sample_adc(&mut self, adc_index: usize) -> Result<f64, AnalogError> {
        let unit = UnitId::Adc(adc_index);
        if !self.config.inventory.contains(unit) {
            return Err(AnalogError::NoSuchUnit { unit });
        }
        let value = self.adc_inputs.get(&adc_index).copied().unwrap_or(0.0);
        let noise_std = self.variation.readout_noise_std();
        let noise = if noise_std > 0.0 {
            self.noise_rng.gaussian() * noise_std
        } else {
            0.0
        };
        // The ADC's own gain/offset imperfection applies at conversion,
        // followed by any active analog-path fault on the converter.
        let imperfect = self.variation.of(unit).apply(value + noise);
        let faulted = match &self.fault_plan {
            Some(plan) => plan.analog_adjust(unit, self.lifetime_s, imperfect),
            None => imperfect,
        };
        Ok(faulted)
    }

    /// Applies active ADC-code bit-flip faults to a converted code.
    fn faulted_code(&self, adc_index: usize, code: u32) -> u32 {
        match &self.fault_plan {
            Some(plan) => {
                let levels = 1u32 << self.config.adc_bits;
                plan.adc_code_adjust(adc_index, self.lifetime_s, code, levels)
            }
            None => code,
        }
    }

    /// Converts an analog value to the ADC's digital code (mid-tread
    /// quantization: zero maps exactly to the mid code, so small residuals
    /// read back unbiased — essential for Algorithm 2 refinement).
    fn code_of(&self, value: f64) -> u32 {
        let levels = 1u32 << self.config.adc_bits;
        let lsb = self.config.adc_lsb();
        let code = (value / lsb).round() + f64::from(levels / 2);
        (code.max(0.0) as u32).min(levels - 1)
    }

    /// Converts a digital code back to its analog value.
    pub fn value_of(&self, code: u32) -> f64 {
        let levels = 1u32 << self.config.adc_bits;
        let lsb = self.config.adc_lsb();
        (f64::from(code) - f64::from(levels / 2)) * lsb
    }

    // ----- Checkpoint / restore -----

    /// Captures this chip's mutable runtime state (see [`ChipCheckpoint`]).
    pub fn export_state(&self) -> ChipCheckpoint {
        ChipCheckpoint {
            noise_rng_state: self.noise_rng.state(),
            lifetime_s: self.lifetime_s,
            calibrated: self.calibrated,
            trims: self
                .variation
                .iter()
                .map(|(unit, imp)| (unit, imp.offset_trim, imp.gain_trim))
                .collect(),
            fault_plan: self.fault_plan.clone(),
            plan_stats: self.plan_stats(),
            plan_cache_valid: self.plan_cache.is_current(self.plan_epoch),
            optimized_passes: self.plan_cache.optimized_config(),
        }
    }

    /// Restores a checkpointed runtime state onto a deterministically
    /// rebuilt chip (same config seed, same committed registers).
    ///
    /// Besides the obvious fields, this silently re-primes the plan cache
    /// from the committed configuration: the first post-restore `exec` is
    /// then a cache *hit*, so the obs journal and [`PlanStats`] continue
    /// exactly where the uninterrupted run would have been.
    ///
    /// # Errors
    ///
    /// * [`AnalogError::NoSuchUnit`] if a trim record names a unit outside
    ///   this chip's inventory (checkpoint/config mismatch).
    /// * Any compilation error while re-priming the plan cache.
    pub fn import_state(&mut self, state: &ChipCheckpoint) -> Result<(), AnalogError> {
        for (unit, _, _) in &state.trims {
            if !self.config.inventory.contains(*unit) {
                return Err(AnalogError::NoSuchUnit { unit: *unit });
            }
        }
        self.noise_rng = Rng64::from_state(state.noise_rng_state);
        self.lifetime_s = state.lifetime_s;
        self.calibrated = state.calibrated;
        self.fault_plan = state.fault_plan.clone();
        for (unit, offset_trim, gain_trim) in &state.trims {
            let imp = self.variation.of_mut(*unit);
            imp.offset_trim = *offset_trim;
            imp.gain_trim = *gain_trim;
        }
        // Trims change what lowering produces: invalidate, then re-prime
        // (only when the capture-time cache was warm — a chip that would
        // have compiled fresh must still compile fresh after restore).
        self.plan_epoch += 1;
        if state.plan_cache_valid {
            if self.committed.is_none() {
                // A rebuilt-but-never-run chip holds its wiring in the
                // draft; the capture-time chip was committed, so commit.
                self.draft.netlist.validate()?;
                self.committed = Some(self.draft.clone());
            }
            self.plan_cache.prime(
                self.committed.as_ref().expect("committed ensured above"),
                &self.config,
                &self.variation,
                &self.input_signals,
                self.fault_plan.as_ref(),
                self.lifetime_s,
                self.plan_epoch,
                state.plan_stats,
                state.optimized_passes,
            )?;
        } else {
            self.plan_cache.restore_stats(state.plan_stats);
        }
        Ok(())
    }

    /// The committed timeout converted to seconds, if set.
    pub fn timeout_seconds(&self) -> Option<f64> {
        self.committed
            .as_ref()
            .and_then(|r| r.timeout_cycles)
            .map(|c| c as f64 / CONTROL_CLOCK_HZ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_chip() -> AnalogChip {
        AnalogChip::new(ChipConfig::ideal())
    }

    #[test]
    fn exec_before_commit_is_protocol_violation() {
        let mut chip = ideal_chip();
        assert!(matches!(
            chip.exec(&EngineOptions::default()),
            Err(AnalogError::ProtocolViolation { .. })
        ));
    }

    #[test]
    fn config_edits_invalidate_commit() {
        let mut chip = ideal_chip();
        chip.cfg_commit().unwrap();
        assert!(chip.is_committed());
        chip.set_timeout(100);
        assert!(!chip.is_committed());
    }

    #[test]
    fn register_validation() {
        let mut chip = ideal_chip();
        assert!(chip.set_int_initial(4, 0.0).is_err());
        assert!(chip.set_int_initial(0, 1.5).is_err());
        assert!(chip.set_int_initial(0, f64::NAN).is_err());
        assert!(chip.set_mul_gain(8, 0.5).is_err());
        assert!(chip.set_mul_gain(0, 2.0).is_err());
        assert!(chip.set_dac_constant(2, 0.0).is_err());
        assert!(chip.set_dac_constant(0, -2.0).is_err());
        assert!(chip.set_ana_input_en(4, true).is_err());
        assert!(chip.set_int_initial(0, 0.5).is_ok());
        assert!(chip.set_mul_gain(0, -1.0).is_ok());
        assert!(chip.set_dac_constant(0, 0.25).is_ok());
    }

    #[test]
    fn dac_values_are_quantized() {
        let mut chip = ideal_chip();
        chip.set_dac_constant(0, 0.123456).unwrap();
        let stored = chip.draft.dac_values[&0];
        let lsb = chip.config.dac_lsb();
        assert!((stored / lsb - (stored / lsb).round()).abs() < 1e-12);
        assert!((stored - 0.123456).abs() <= lsb);
    }

    #[test]
    fn adc_code_round_trip() {
        let chip = ideal_chip();
        for code in [0u32, 1, 127, 128, 255] {
            let v = chip.value_of(code);
            assert_eq!(chip.code_of(v), code);
        }
    }

    #[test]
    fn timeout_conversion() {
        let mut chip = ideal_chip();
        chip.set_timeout(2_000_000);
        chip.cfg_commit().unwrap();
        assert!((chip.timeout_seconds().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reset_config_clears_draft() {
        let mut chip = ideal_chip();
        chip.set_mul_gain(0, 0.5).unwrap();
        chip.reset_config();
        assert!(chip.draft.mul_gains.is_empty());
        assert!(!chip.is_committed());
    }

    #[test]
    fn checkpoint_round_trip_resumes_noise_and_lifetime() {
        use crate::netlist::{InputPort, OutputPort};

        let decay = |chip: &mut AnalogChip| {
            chip.set_conn(
                OutputPort::of(UnitId::Integrator(0)),
                InputPort::of(UnitId::Multiplier(0)),
            )
            .unwrap();
            chip.set_conn(
                OutputPort::of(UnitId::Multiplier(0)),
                InputPort::of(UnitId::Integrator(0)),
            )
            .unwrap();
            chip.set_mul_gain(0, -1.0).unwrap();
            chip.set_int_initial(0, 0.5).unwrap();
            chip.cfg_commit().unwrap();
        };
        let config = ChipConfig {
            nonideal: crate::config::NonIdealityConfig {
                readout_noise_std: 1e-3,
                ..crate::config::NonIdealityConfig::default()
            },
            ..ChipConfig::ideal()
        };

        // Run a chip for a while, checkpoint it, keep running.
        let mut original = AnalogChip::new(config.clone());
        decay(&mut original);
        original.exec(&EngineOptions::default()).unwrap();
        original.read_serial(0).unwrap();
        original.idle(0.25);
        let snap = original.export_state();

        // Restore onto a freshly rebuilt twin (same config seed, same
        // committed registers) and compare futures sample for sample.
        let mut restored = AnalogChip::new(config);
        decay(&mut restored);
        restored.import_state(&snap).unwrap();
        assert_eq!(restored.lifetime_s(), original.lifetime_s());
        assert_eq!(restored.plan_stats(), original.plan_stats());
        let a = original.exec(&EngineOptions::default()).unwrap();
        let b = restored.exec(&EngineOptions::default()).unwrap();
        assert_eq!(a, b, "post-restore runs are bit-identical");
        // The primed cache made the post-restore run a hit, not a rebuild.
        assert_eq!(restored.plan_stats(), original.plan_stats());
        for _ in 0..16 {
            assert_eq!(original.read_serial(0), restored.read_serial(0));
        }
    }

    #[test]
    fn import_rejects_foreign_trim_units() {
        let mut chip = ideal_chip();
        let mut snap = chip.export_state();
        snap.trims.push((UnitId::Integrator(999), 1, 1));
        assert!(matches!(
            chip.import_state(&snap),
            Err(AnalogError::NoSuchUnit { .. })
        ));
    }

    #[test]
    fn read_exp_is_empty_before_any_run() {
        let chip = ideal_chip();
        assert!(chip.read_exp().iter().all(|b| *b == 0));
        assert!(chip.exceptions().is_empty());
    }
}
