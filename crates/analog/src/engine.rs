//! The continuous-time execution engine.
//!
//! A committed configuration is compiled into a dataflow circuit: integrator
//! states form the ODE state vector, memoryless units (multipliers, fanouts,
//! lookup tables) are evaluated in dependency order, and input branches sum
//! the currents of their drivers. The circuit is then integrated with RK4 at
//! a fine fraction of the integrator time constant `τ = 1/ω_u`, with
//! per-block clipping, overflow-exception latching, and dynamic-range
//! tracking — the behaviours the paper's architecture (§III-B) is built
//! around.

use std::collections::BTreeMap;

use crate::chip::{InputSignal, Registers, CONTROL_CLOCK_HZ};
use crate::config::ChipConfig;
use crate::error::AnalogError;
use crate::exceptions::ExceptionVector;
use crate::fault::FaultPlan;
use crate::ir::lower_plan;
use crate::lut::LookupTable;
use crate::netlist::{output_port_count, InputPort, OutputPort};
use crate::nonideal::ProcessVariation;
use crate::passes::{pass_counter_names, PassConfig, PassStat};
use crate::plan::{BatchRun, CompiledPlan};
use crate::units::UnitId;

/// Which circuit evaluator drives the RK4 inner loop.
///
/// Both strategies produce **bit-identical** results without passes
/// (asserted by the differential property tests); they differ only in
/// speed. The compiled path runs the op tape (`plan::CompiledPlan`)
/// the committed netlist is lowered to once and cached, removing every map
/// lookup from the hot loop; the reference path walks the original
/// `BTreeMap`-based structures, never runs passes, and is kept as the
/// behavioural oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalStrategy {
    /// Flat-array compiled plan — the fast default.
    #[default]
    Compiled,
    /// Tree-walking interpreter retained for differential testing.
    Reference,
}

/// Options controlling the engine's numerical integration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOptions {
    /// RK4 step as a fraction of the integrator time constant `1/ω_u`.
    pub dt_tau: f64,
    /// Stop when the largest normalized state derivative (per `τ`) falls
    /// below this value. `None` disables steady-state detection (the real
    /// chip only stops on `execStop`/timeout; steady detection is a
    /// convenience of the simulation test-bench). The default `1e-6` is a
    /// floor for linear solves: `aa-solver`'s `AnalogSystemSolver` loosens
    /// it per matrix to the derivative below which the ADC readout can no
    /// longer change.
    pub steady_tol: Option<f64>,
    /// Safety cap on simulated time, in units of `τ`.
    pub max_tau: f64,
    /// Number of waveform samples to retain per analog output channel.
    pub waveform_samples: usize,
    /// Abort the run as soon as any overflow exception latches. The paper's
    /// host is designed "to be able to react when problems occur in the
    /// course of analog computation"; a saturated integrator never settles,
    /// so waiting out the timeout is wasted time.
    pub stop_on_exception: bool,
    /// Which evaluator runs the circuit (identical results either way).
    pub eval_strategy: EvalStrategy,
    /// Optimization passes applied when lowering the committed netlist
    /// into the [`EvalStrategy::Compiled`] op tape ([`crate::passes`]). The
    /// default, [`PassConfig::none`], keeps every run bit-exact against the
    /// reference evaluator; enabled passes trade that for the documented
    /// tolerance contract. Runs with an armed fault plan always lower
    /// without passes, whatever this is set to.
    pub passes: PassConfig,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            dt_tau: 0.05,
            steady_tol: Some(1e-6),
            max_tau: 1e6,
            waveform_samples: 256,
            stop_on_exception: false,
            eval_strategy: EvalStrategy::default(),
            passes: PassConfig::none(),
        }
    }
}

/// What the engine observed during one `execStart`…stop window.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Wall-clock (simulated) duration of the analog computation, seconds.
    pub duration_s: f64,
    /// RK4 steps taken.
    pub steps: usize,
    /// Whether the steady-state detector fired (vs timeout / cap).
    pub reached_steady_state: bool,
    /// Whether the committed timeout expired.
    pub timed_out: bool,
    /// Whether the run was aborted early by `stop_on_exception`.
    pub aborted_on_exception: bool,
    /// Units that clipped at any point during the run.
    pub exceptions: ExceptionVector,
    /// Peak `|value|/full_scale` seen at each used unit's output (or input,
    /// for sinks). Values near 1.0 used the full dynamic range; values well
    /// below 0.5 indicate the underuse the paper warns costs precision.
    pub range_usage: BTreeMap<UnitId, f64>,
    /// Final integrator states by integrator index.
    pub integrator_values: BTreeMap<usize, f64>,
    /// Value present at each ADC's input at the end of the run.
    pub adc_inputs: BTreeMap<usize, f64>,
    /// Sampled waveforms at each analog output channel.
    pub output_waveforms: BTreeMap<usize, Vec<(f64, f64)>>,
    /// RK4 steps during which at least one injected fault event was active
    /// (always zero when no [`FaultPlan`] is loaded).
    pub faults_active_steps: usize,
}

/// One value slot: either a unit output port or a sink (ADC / analog output)
/// input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Slot {
    Out(OutputPort),
    SinkIn(UnitId),
}

/// The netlist-derived skeleton of a compiled circuit: topological order,
/// slot numbering, driver lists, and used-unit indices. Everything here is
/// a pure function of the committed netlist and the chip config — no
/// per-run data — so it is owned (no borrows) and cacheable across runs in
/// a [`PlanCache`].
pub(crate) struct Structure {
    /// State-vector slot → integrator index.
    pub(crate) integrator_of_state: Vec<usize>,
    /// Memoryless units in dependency order.
    pub(crate) topo: Vec<UnitId>,
    /// Slot numbering.
    pub(crate) slot_index: BTreeMap<Slot, usize>,
    /// For each input port: the slots of its drivers.
    pub(crate) drivers: BTreeMap<InputPort, Vec<usize>>,
    /// Used DAC indices.
    pub(crate) dacs: Vec<usize>,
    /// Used analog input indices.
    pub(crate) analog_inputs: Vec<usize>,
    /// Used ADC indices.
    pub(crate) adcs: Vec<usize>,
    /// Used analog output indices.
    pub(crate) analog_outputs: Vec<usize>,
    /// Identity fallback for unprogrammed lookup tables.
    pub(crate) default_lut: LookupTable,
    /// Slot → owning unit, for exception attribution.
    pub(crate) unit_of_slot: Vec<UnitId>,
}

/// The compiled dataflow program — the tree-walking **reference**
/// representation, binding per-run register/fault/signal state to a
/// (possibly cached) [`Structure`]. [`crate::ir::lower_plan`] flattens it
/// into the map-free op tape.
pub(crate) struct Compiled<'a> {
    pub(crate) config: &'a ChipConfig,
    pub(crate) variation: &'a ProcessVariation,
    pub(crate) registers: &'a Registers,
    pub(crate) signals: &'a BTreeMap<usize, InputSignal>,
    /// Scheduled runtime faults, if any are injected.
    pub(crate) faults: Option<&'a FaultPlan>,
    /// Chip-lifetime second at which this run starts (fault-event windows
    /// are expressed on the lifetime clock, not the per-run clock).
    pub(crate) t_offset: f64,
    /// The netlist skeleton (owned by the caller or its plan cache).
    pub(crate) structure: &'a Structure,
}

/// Per-eval scratch and accumulated run observations for K lanes, stored
/// column-major (`[slot * k + lane]`) so a lane sweep over one slot is
/// contiguous; at K = 1 each array is a plain per-slot vector.
pub(crate) struct Tracker {
    pub(crate) values: Vec<f64>,
    pub(crate) max_abs: Vec<f64>,
    pub(crate) clipped: Vec<bool>,
}

/// Per-lane register overrides for one lane of a batched execution —
/// exactly the per-run state a `plan::BatchRun` binds per lane without
/// invalidating the plan cache: DAC constants (the RHS) and integrator
/// initial conditions. `None` means "use the committed registers".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneBindings {
    /// Full replacement DAC register map for this lane.
    pub dac_values: Option<BTreeMap<usize, f64>>,
    /// Full replacement integrator initial conditions for this lane.
    pub int_initial: Option<BTreeMap<usize, f64>>,
}

/// A circuit evaluator the RK4 driver ([`integrate`]) advances over
/// [`Evaluator::lanes`] lanes in lockstep: the op tape (`plan::BatchRun`,
/// any K) or the reference circuit (K = 1). `state`, `du` and the tracker
/// arrays are column-major, `[index * k + lane]`.
pub(crate) trait Evaluator {
    /// Number of lanes K advanced per eval.
    fn lanes(&self) -> usize;

    /// Minimum per-lane slot-buffer length this evaluator writes. The
    /// driver sizes its tracker to the larger of this and the circuit's
    /// slot count; only a pass-lowered tape ever needs more (scratch slots
    /// appended by `normalize_gains`).
    fn min_slots(&self) -> usize {
        0
    }

    /// Writes the per-run constants the evaluator keeps out of the per-eval
    /// loop (folded DAC constants) into a fresh tracker, once, before the
    /// first eval.
    fn prime(&self, _tracker: &mut Tracker) {}

    /// Evaluates the circuit at time `t` for every lane whose `active`
    /// entry is set, writing state derivatives into `du` and, when `track`
    /// is set, recording range usage and clip events (done once per step,
    /// on the k1 stage). Retired lanes are left untouched.
    fn eval(
        &mut self,
        t: f64,
        state: &[f64],
        du: &mut [f64],
        tracker: &mut Tracker,
        track: bool,
        active: &[bool],
    );
}

impl Structure {
    pub(crate) fn build(registers: &Registers, config: &ChipConfig) -> Result<Self, AnalogError> {
        let topo = registers.netlist.memoryless_topo_order()?;
        let used = registers.netlist.used_units();

        let mut integrator_of_state = Vec::new();
        let mut dacs = Vec::new();
        let mut analog_inputs = Vec::new();
        let mut adcs = Vec::new();
        let mut analog_outputs = Vec::new();
        let mut slot_index = BTreeMap::new();
        let mut unit_of_slot = Vec::new();

        let add_slot = |slot: Slot,
                        unit: UnitId,
                        slot_index: &mut BTreeMap<Slot, usize>,
                        unit_of_slot: &mut Vec<UnitId>| {
            let next = slot_index.len();
            slot_index.entry(slot).or_insert_with(|| {
                unit_of_slot.push(unit);
                next
            });
        };

        for unit in &used {
            match *unit {
                UnitId::Integrator(i) => integrator_of_state.push(i),
                UnitId::Dac(i) => dacs.push(i),
                UnitId::AnalogInput(i) => analog_inputs.push(i),
                UnitId::Adc(i) => adcs.push(i),
                UnitId::AnalogOutput(i) => analog_outputs.push(i),
                _ => {}
            }
            // Every output port of the unit gets a slot; sinks get an input slot.
            let n_out = output_port_count(*unit, &config.inventory);
            for port in 0..n_out {
                add_slot(
                    Slot::Out(OutputPort { unit: *unit, port }),
                    *unit,
                    &mut slot_index,
                    &mut unit_of_slot,
                );
            }
            if n_out == 0 {
                add_slot(
                    Slot::SinkIn(*unit),
                    *unit,
                    &mut slot_index,
                    &mut unit_of_slot,
                );
            }
        }

        // Resolve each connection's driver into slot indices per input port.
        let mut drivers: BTreeMap<InputPort, Vec<usize>> = BTreeMap::new();
        for (from, to) in registers.netlist.iter() {
            let slot = slot_index[&Slot::Out(from)];
            drivers.entry(to).or_default().push(slot);
        }

        Ok(Structure {
            integrator_of_state,
            topo,
            slot_index,
            drivers,
            dacs,
            analog_inputs,
            adcs,
            analog_outputs,
            default_lut: LookupTable::identity(
                config.lut_depth,
                config.adc_bits,
                config.full_scale,
            ),
            unit_of_slot,
        })
    }
}

impl Compiled<'_> {
    fn n_states(&self) -> usize {
        self.structure.integrator_of_state.len()
    }

    pub(crate) fn slot(&self, port: OutputPort) -> usize {
        self.structure.slot_index[&Slot::Out(port)]
    }

    pub(crate) fn sink_slot(&self, unit: UnitId) -> usize {
        self.structure.slot_index[&Slot::SinkIn(unit)]
    }

    /// Sum of driver currents at an input port.
    fn input_sum(&self, port: InputPort, values: &[f64]) -> f64 {
        self.structure
            .drivers
            .get(&port)
            .map(|slots| slots.iter().map(|s| values[*s]).sum())
            .unwrap_or(0.0)
    }

    /// Applies any active analog-path faults to `unit`'s output at per-run
    /// time `t` (the fault plan lives on the chip-lifetime clock).
    fn distort(&self, unit: UnitId, t: f64, value: f64) -> f64 {
        match self.faults {
            Some(plan) => plan.analog_adjust(unit, self.t_offset + t, value),
            None => value,
        }
    }

    /// Clips `value` to full scale, recording the event against `slot`.
    fn clip(
        &self,
        value: f64,
        slot: usize,
        max_abs: &mut [f64],
        clipped: &mut [bool],
        track: bool,
    ) -> f64 {
        let fs = self.config.full_scale;
        if track {
            let mag = value.abs();
            if mag > max_abs[slot] {
                max_abs[slot] = mag;
            }
            if mag > fs {
                clipped[slot] = true;
            }
        }
        value.clamp(-fs, fs)
    }
}

/// The reference evaluator: one lane, walking the `BTreeMap` structures. The
/// driver only evaluates while its lane is live, so `active` is never read.
impl Evaluator for Compiled<'_> {
    fn lanes(&self) -> usize {
        1
    }

    fn eval(
        &mut self,
        t: f64,
        state: &[f64],
        du: &mut [f64],
        tracker: &mut Tracker,
        track: bool,
        _active: &[bool],
    ) {
        let fs = self.config.full_scale;
        let Tracker {
            values,
            max_abs,
            clipped,
        } = tracker;

        // Sources: integrator outputs (their state, through imperfection).
        for (slot_state, &int_idx) in self.structure.integrator_of_state.iter().enumerate() {
            let unit = UnitId::Integrator(int_idx);
            let out = self.distort(unit, t, self.variation.of(unit).apply(state[slot_state]));
            let s = self.structure.slot_index[&Slot::Out(OutputPort::of(unit))];
            values[s] = out.clamp(-fs, fs);
            if track {
                let mag = out.abs();
                if mag > max_abs[s] {
                    max_abs[s] = mag;
                }
                if mag > fs {
                    clipped[s] = true;
                }
            }
        }
        // Sources: DAC constants.
        for &i in &self.structure.dacs {
            let unit = UnitId::Dac(i);
            let programmed = self.registers.dac_values.get(&i).copied().unwrap_or(0.0);
            let out = self.distort(unit, t, self.variation.of(unit).apply(programmed));
            let s = self.slot(OutputPort::of(unit));
            values[s] = self.clip(out, s, max_abs, clipped, track);
        }
        // Sources: external analog inputs.
        for &i in &self.structure.analog_inputs {
            let unit = UnitId::AnalogInput(i);
            let enabled = self
                .registers
                .inputs_enabled
                .get(&i)
                .copied()
                .unwrap_or(false);
            let raw = if enabled {
                self.signals.get(&i).map(|f| f(t)).unwrap_or(0.0)
            } else {
                0.0
            };
            let out = self.distort(unit, t, raw);
            let s = self.slot(OutputPort::of(unit));
            values[s] = self.clip(out, s, max_abs, clipped, track);
        }

        // Memoryless units in dependency order.
        for &unit in &self.structure.topo {
            match unit {
                UnitId::Multiplier(i) => {
                    let in0 = self.input_sum(InputPort { unit, port: 0 }, values);
                    let ideal = match self.registers.mul_gains.get(&i) {
                        Some(gain) => gain * in0,
                        None => {
                            let in1 = self.input_sum(InputPort { unit, port: 1 }, values);
                            in0 * in1 / fs
                        }
                    };
                    let out = self.distort(unit, t, self.variation.of(unit).apply(ideal));
                    let s = self.slot(OutputPort::of(unit));
                    values[s] = self.clip(out, s, max_abs, clipped, track);
                }
                UnitId::Fanout(_) => {
                    let input = self.input_sum(InputPort::of(unit), values);
                    let imp = self.variation.of(unit);
                    let out = self.distort(unit, t, imp.apply(input));
                    let n_branches = self.config.inventory.fanout_branches;
                    for port in 0..n_branches {
                        let s = self.slot(OutputPort { unit, port });
                        values[s] = self.clip(out, s, max_abs, clipped, track);
                    }
                }
                UnitId::Lut(i) => {
                    let input = self.input_sum(InputPort::of(unit), values);
                    let lut = self
                        .registers
                        .luts
                        .get(&i)
                        .unwrap_or(&self.structure.default_lut);
                    // The CT SRAM output is digital-to-analog: no analog
                    // gain/offset imperfection, but inherently quantized.
                    let out = self.distort(unit, t, lut.evaluate(input));
                    let s = self.slot(OutputPort::of(unit));
                    values[s] = self.clip(out, s, max_abs, clipped, track);
                }
                UnitId::Adc(_) | UnitId::AnalogOutput(_) => {
                    let input = self.input_sum(InputPort::of(unit), values);
                    let s = self.sink_slot(unit);
                    values[s] = self.clip(input, s, max_abs, clipped, track);
                }
                UnitId::Integrator(_) | UnitId::Dac(_) | UnitId::AnalogInput(_) => {
                    unreachable!("stateful/source units are not in the memoryless order")
                }
            }
        }

        // Integrator derivatives: ω_u times the summed input current.
        let omega = self.config.omega();
        for (slot_state, &int_idx) in self.structure.integrator_of_state.iter().enumerate() {
            let unit = UnitId::Integrator(int_idx);
            let input = self.input_sum(InputPort::of(unit), values);
            du[slot_state] = omega * input;
        }
    }
}

/// Cumulative counts of compilation work done through a chip's plan cache —
/// the observable proof that repeated runs of an unchanged netlist reuse
/// one lowered plan instead of re-lowering per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Netlist skeletons built (`Structure` compilations).
    pub structures_built: u64,
    /// Op tapes lowered (only on the [`EvalStrategy::Compiled`] path),
    /// whatever pass config they were lowered under.
    pub plans_lowered: u64,
    /// Runs that reused a cached structure without recompiling.
    pub cache_hits: u64,
    /// The subset of `plans_lowered` lowered with at least one pass
    /// enabled ([`EngineOptions::passes`]).
    pub optimized_lowered: u64,
    /// Stores per eval before the pass pipeline, from the most recent
    /// optimized lowering (zero while none has happened).
    pub ops_before: u64,
    /// Stores per eval after the pass pipeline, from the most recent
    /// optimized lowering.
    pub ops_after: u64,
}

/// Per-chip cache of the compilation products for one committed netlist.
///
/// Tagged with the chip's *plan epoch*: a counter the chip bumps on every
/// mutation that changes what compilation would produce (netlist edits,
/// multiplier mode/gain, LUT contents, calibration trims). Mutations that
/// only feed per-run state — DAC constants, initial conditions, timeout,
/// input signals, fault plans — leave the epoch alone, so a run bound to
/// new DACs and initial conditions ([`LaneBindings`]), or a reprogram,
/// `cfg_commit` and `exec`, hits the cache on every solve after the first.
#[derive(Default)]
pub(crate) struct PlanCache {
    epoch: u64,
    structure: Option<Structure>,
    /// The op tape, keyed by the *effective* pass config it was lowered
    /// under ([`effective_passes`]): a run whose effective config differs
    /// re-lowers and replaces it.
    plan: Option<(PassConfig, CompiledPlan)>,
    stats: PlanStats,
}

impl PlanCache {
    pub(crate) fn stats(&self) -> PlanStats {
        self.stats
    }

    /// The pass config of the cached tape, when it was lowered with at
    /// least one pass. Checkpoint capture records this so restore can
    /// rebuild the same cache contents without emitting lowering counters.
    pub(crate) fn optimized_config(&self) -> Option<PassConfig> {
        self.plan
            .as_ref()
            .map(|(cfg, _)| *cfg)
            .filter(PassConfig::any)
    }

    /// Per-pass statistics from the cached tape's lowering (empty when no
    /// tape is cached or it was lowered without passes).
    pub(crate) fn pass_log(&self) -> Vec<PassStat> {
        self.plan
            .as_ref()
            .map(|(_, plan)| plan.pass_log.clone())
            .unwrap_or_default()
    }

    /// Whether the cache holds compilation products for `epoch` — i.e. the
    /// next run through [`run_committed_batch`] would be a cache hit.
    pub(crate) fn is_current(&self, epoch: u64) -> bool {
        self.structure.is_some() && self.epoch == epoch
    }

    /// Overwrites the cumulative statistics (checkpoint restore on a chip
    /// whose cache was cold at capture time).
    pub(crate) fn restore_stats(&mut self, stats: PlanStats) {
        self.stats = stats;
    }

    /// Rebuilds the cached compilation products for `registers` at `epoch`
    /// — the tape lowered under `optimized_passes`, or without passes when
    /// `None` — and overwrites `stats` with a checkpointed value, emitting
    /// no obs counters and counting none of the work. Used when restoring a
    /// chip from a checkpoint: the first post-restore `exec` must be a
    /// cache hit, exactly as it would have been in the uninterrupted run.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn prime(
        &mut self,
        registers: &Registers,
        config: &ChipConfig,
        variation: &ProcessVariation,
        signals: &BTreeMap<usize, InputSignal>,
        faults: Option<&FaultPlan>,
        t_offset: f64,
        epoch: u64,
        stats: PlanStats,
        optimized_passes: Option<PassConfig>,
    ) -> Result<(), AnalogError> {
        let structure = Structure::build(registers, config)?;
        let passes = optimized_passes.unwrap_or_default();
        let plan = lower_plan(
            &Compiled {
                config,
                variation,
                registers,
                signals,
                faults,
                t_offset,
                structure: &structure,
            },
            &passes,
        );
        self.structure = Some(structure);
        self.plan = Some((passes, plan));
        self.epoch = epoch;
        self.stats = stats;
        Ok(())
    }

    /// Makes the cached structure current for `epoch`: rebuilt (dropping
    /// the tape) on a miss, counted as a hit otherwise.
    fn refresh(
        &mut self,
        registers: &Registers,
        config: &ChipConfig,
        epoch: u64,
    ) -> Result<(), AnalogError> {
        if self.is_current(epoch) {
            self.stats.cache_hits += 1;
            if aa_obs::is_active() {
                aa_obs::counter("engine.plan_cache_hits", 1);
            }
        } else {
            self.structure = Some(Structure::build(registers, config)?);
            self.plan = None;
            self.epoch = epoch;
            self.stats.structures_built += 1;
        }
        Ok(())
    }
}

/// The pass config a run lowers under, and the plan-cache key: the
/// requested [`EngineOptions::passes`], or [`PassConfig::none`] while a
/// fault plan is armed, so fault runs stay bit-exact against the reference
/// evaluator whatever passes were requested.
fn effective_passes(options: &EngineOptions, faults: Option<&FaultPlan>) -> PassConfig {
    if faults.is_some() {
        PassConfig::none()
    } else {
        options.passes
    }
}

/// Ensures the cache's plan slot holds a tape lowered under `passes`,
/// lowering it (and emitting the lowering counters inside the caller's
/// compile span) when the slot is empty or keyed by a different config.
fn ensure_plan<'c>(
    slot: &'c mut Option<(PassConfig, CompiledPlan)>,
    stats: &mut PlanStats,
    circuit: &Compiled<'_>,
    passes: PassConfig,
) -> &'c CompiledPlan {
    if slot.as_ref().is_none_or(|(cfg, _)| *cfg != passes) {
        let plan = lower_plan(circuit, &passes);
        stats.plans_lowered += 1;
        if passes.any() {
            stats.optimized_lowered += 1;
            stats.ops_before = plan.ops_before;
            stats.ops_after = plan.ops_after;
        }
        if aa_obs::is_active() {
            aa_obs::counter("engine.plans_lowered", 1);
            if passes.any() {
                aa_obs::counter("engine.plans_optimized", 1);
                for stat in &plan.pass_log {
                    let (before, after) = pass_counter_names(stat.pass);
                    aa_obs::counter(before, stat.ops_before);
                    aa_obs::counter(after, stat.ops_after);
                }
            }
        }
        *slot = Some((passes, plan));
    }
    &slot.as_ref().expect("ensured above").1
}

/// Compiles a committed register file inside the `engine.compile` span —
/// through the chip's plan cache when `cache` is given, fresh otherwise —
/// and hands `run` the circuit plus, under [`EvalStrategy::Compiled`], its
/// op tape (`None` selects the reference evaluator).
///
/// `cache` carries the chip's plan cache together with the chip's current
/// plan epoch; `None` (the LUT-upset scratch path) compiles fresh, since a
/// scratch register file must not pollute the cache.
#[allow(clippy::too_many_arguments)]
fn compile_then<R>(
    registers: &Registers,
    config: &ChipConfig,
    variation: &ProcessVariation,
    signals: &BTreeMap<usize, InputSignal>,
    faults: Option<&FaultPlan>,
    t_offset: f64,
    cache: Option<(&mut PlanCache, u64)>,
    options: &EngineOptions,
    run: impl FnOnce(&Compiled<'_>, Option<&CompiledPlan>) -> Result<R, AnalogError>,
) -> Result<R, AnalogError> {
    // Plan lowering sits inside the compile span so the Compiled and
    // Reference strategies emit identical journals (the differential tests
    // compare traces across strategies). Cache hits keep the span too: a
    // hit and a miss differ only in counters, never in the journal.
    let compile_span = aa_obs::span("engine.compile");
    let passes = effective_passes(options, faults);
    let compiled = options.eval_strategy == EvalStrategy::Compiled;
    match cache {
        Some((cache, epoch)) => {
            cache.refresh(registers, config, epoch)?;
            let PlanCache {
                structure,
                plan,
                stats,
                ..
            } = cache;
            let circuit = Compiled {
                config,
                variation,
                registers,
                signals,
                faults,
                t_offset,
                structure: structure.as_ref().expect("structure refreshed above"),
            };
            let plan = if compiled {
                Some(ensure_plan(plan, stats, &circuit, passes))
            } else {
                None
            };
            drop(compile_span);
            run(&circuit, plan)
        }
        None => {
            let structure = Structure::build(registers, config)?;
            let circuit = Compiled {
                config,
                variation,
                registers,
                signals,
                faults,
                t_offset,
                structure: &structure,
            };
            let plan = compiled.then(|| lower_plan(&circuit, &passes));
            drop(compile_span);
            run(&circuit, plan.as_ref())
        }
    }
}

/// The per-run observability block shared by the single-lane and batched
/// entry points (a batched lane accounts exactly like a sequential run).
fn observe_run(report: &RunReport) {
    if aa_obs::is_active() {
        aa_obs::counter("engine.runs", 1);
        aa_obs::counter("engine.steps", report.steps as u64);
        aa_obs::histogram("engine.steps_per_run", report.steps as f64);
        aa_obs::event(
            aa_obs::Event::new("engine.run")
                .with("steps", report.steps)
                .with("steady", report.reached_steady_state)
                .with("timed_out", report.timed_out)
                .with("aborted", report.aborted_on_exception)
                .with("exceptions", report.exceptions.len())
                .with("fault_steps", report.faults_active_steps),
        );
        for unit in report.exceptions.iter() {
            aa_obs::counter("engine.overflows", 1);
            aa_obs::event(aa_obs::Event::new("engine.overflow").with("unit", unit.to_string()));
        }
        if report.faults_active_steps > 0 {
            aa_obs::event(
                aa_obs::Event::new("engine.faults_active")
                    .with("steps", report.faults_active_steps),
            );
        }
    }
}

/// One lane's per-run state: the maps its [`LaneBindings`] bind, or the
/// committed registers' own where it binds none, borrowed either way.
struct LaneState<'a> {
    dac_values: &'a BTreeMap<usize, f64>,
    int_initial: &'a BTreeMap<usize, f64>,
}

/// Runs a committed register file for K lanes in one lockstep RK4 sweep —
/// every analog run the chip issues. A sequential run is the one-lane case
/// (`batch` unset): it opens `engine.run` and counts in no batch counter;
/// a batch opens `engine.run_batch` and counts in `engine.batch_runs` and
/// `engine.batch_lanes`. Either way each lane accounts like a run of its
/// own.
///
/// Each lane binds its own DAC constants and initial conditions
/// ([`LaneBindings`]) — the per-run state that never invalidates the plan
/// cache — so all lanes share one compilation. Under
/// [`EvalStrategy::Reference`] the lanes run as K sequential reference
/// integrations from the same start instant: the batched compiled path must
/// (and does, property-tested) match that column for column, bit for bit.
/// `cache` as in [`compile_then`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_committed_batch(
    registers: &Registers,
    config: &ChipConfig,
    variation: &ProcessVariation,
    signals: &BTreeMap<usize, InputSignal>,
    faults: Option<&FaultPlan>,
    t_offset: f64,
    lanes: &[LaneBindings],
    batch: bool,
    cache: Option<(&mut PlanCache, u64)>,
    options: &EngineOptions,
) -> Result<Vec<RunReport>, AnalogError> {
    if !(options.dt_tau > 0.0 && options.dt_tau.is_finite()) {
        return Err(AnalogError::protocol(format!(
            "engine dt_tau must be positive, got {}",
            options.dt_tau
        )));
    }
    if lanes.is_empty() {
        return Ok(Vec::new());
    }
    let run_span = aa_obs::span(if batch {
        "engine.run_batch"
    } else {
        "engine.run"
    });
    // Structure and plan are pure functions of the *shared* fields, so one
    // compilation serves every lane.
    let states: Vec<LaneState<'_>> = lanes
        .iter()
        .map(|lane| LaneState {
            dac_values: lane.dac_values.as_ref().unwrap_or(&registers.dac_values),
            int_initial: lane.int_initial.as_ref().unwrap_or(&registers.int_initial),
        })
        .collect();

    let reports = compile_then(
        registers,
        config,
        variation,
        signals,
        faults,
        t_offset,
        cache,
        options,
        |circuit, plan| execute_batch(circuit, plan, &states, options),
    )?;

    if batch && aa_obs::is_active() {
        aa_obs::counter("engine.batch_runs", 1);
        aa_obs::counter("engine.batch_lanes", reports.len() as u64);
    }
    for report in &reports {
        observe_run(report);
    }
    drop(run_span);
    Ok(reports)
}

/// Runs K lanes through the chosen evaluator inside the `engine.execute`
/// span: one lockstep sweep of the op tape (a sequential run is its K = 1
/// lane), or K sequential single-lane reference integrations from the same
/// start instant — the compiled path's behavioural oracle.
fn execute_batch(
    circuit: &Compiled<'_>,
    plan: Option<&CompiledPlan>,
    lanes: &[LaneState<'_>],
    options: &EngineOptions,
) -> Result<Vec<RunReport>, AnalogError> {
    let execute_span = aa_obs::span("engine.execute");
    let reports = match plan {
        Some(plan) => {
            let lane_dacs: Vec<&BTreeMap<usize, f64>> =
                lanes.iter().map(|lane| lane.dac_values).collect();
            let mut batch = BatchRun::bind(plan, circuit, &lane_dacs);
            integrate(circuit, &mut batch, lanes, options)?
        }
        None => {
            let mut reports = Vec::with_capacity(lanes.len());
            for lane in lanes {
                // The oracle reads DAC constants off a register file of
                // the lane's own.
                let registers = Registers {
                    dac_values: lane.dac_values.clone(),
                    ..circuit.registers.clone()
                };
                let mut reference = Compiled {
                    registers: &registers,
                    ..*circuit
                };
                let lane = std::slice::from_ref(lane);
                reports.extend(integrate(circuit, &mut reference, lane, options)?);
            }
            reports
        }
    };
    drop(execute_span);
    Ok(reports)
}

/// The RK4 driver — the engine's one integration loop — generic over the
/// circuit evaluator and its lane count K. `circuit` supplies the
/// structural metadata (slot numbering, used-unit lists, timeout, fault
/// schedule) shared by every lane, `lanes` each lane's initial
/// conditions, and `evaluator` the per-stage arithmetic. All lanes share the
/// time axis (`dt` and the end-of-run horizon are lane-independent), and a
/// lane **retires** individually the moment its own stop condition fires:
/// its state column, tracker entries, waveforms and step count freeze at
/// that instant, so every column's [`RunReport`] is bit-identical to the
/// single-lane run that would have stopped right there. A sequential run is
/// the K = 1 case.
// The lane loops index `active` plus several SoA columns in lockstep; a
// range loop is the clear form, not a needless one.
#[allow(clippy::needless_range_loop)]
fn integrate<E: Evaluator>(
    circuit: &Compiled<'_>,
    evaluator: &mut E,
    lanes: &[LaneState<'_>],
    options: &EngineOptions,
) -> Result<Vec<RunReport>, AnalogError> {
    let registers = circuit.registers;
    let config = circuit.config;
    let faults = circuit.faults;
    let t_offset = circuit.t_offset;
    let k = evaluator.lanes();
    debug_assert_eq!(k, lanes.len());
    let n = circuit.n_states();
    let n_slots = circuit
        .structure
        .slot_index
        .len()
        .max(evaluator.min_slots());
    let fs = config.full_scale;
    let omega = config.omega();
    let dt = options.dt_tau / omega;
    let timeout_s = registers
        .timeout_cycles
        .map(|c| c as f64 / CONTROL_CLOCK_HZ);
    let cap_s = options.max_tau / omega;
    let end_s = timeout_s.map_or(cap_s, |t| t.min(cap_s));

    let mut tracker = Tracker {
        values: vec![0.0; n_slots * k],
        max_abs: vec![0.0; n_slots * k],
        clipped: vec![false; n_slots * k],
    };
    evaluator.prime(&mut tracker);

    // Slot lookups resolved once, outside the loop: integrator output slots
    // (stuck-rail and saturation tracking) and analog-output sink slots
    // (waveform sampling).
    let int_out_slots: Vec<usize> = circuit
        .structure
        .integrator_of_state
        .iter()
        .map(|&i| circuit.slot(OutputPort::of(UnitId::Integrator(i))))
        .collect();
    let aout_sinks: Vec<usize> = circuit
        .structure
        .analog_outputs
        .iter()
        .map(|&i| circuit.sink_slot(UnitId::AnalogOutput(i)))
        .collect();

    // Initial conditions, column-major: `state[slot_state * k + lane]`.
    let mut state = vec![0.0; n * k];
    for (slot_state, i) in circuit.structure.integrator_of_state.iter().enumerate() {
        for (lane, bound) in lanes.iter().enumerate() {
            state[slot_state * k + lane] = bound.int_initial.get(i).copied().unwrap_or(0.0);
        }
    }

    let mut k1 = vec![0.0; n * k];
    let mut k2 = vec![0.0; n * k];
    let mut k3 = vec![0.0; n * k];
    let mut k4 = vec![0.0; n * k];
    let mut mid = vec![0.0; n * k];

    // Per-lane waveform decimation state and retirement bookkeeping.
    // Sampling starts dense and decimates by two whenever the buffer
    // doubles past the target, so the retained samples span the whole
    // (unknown-in-advance) run at roughly uniform spacing.
    let mut stride = vec![1usize; k];
    let mut waves: Vec<Vec<Vec<(f64, f64)>>> = vec![vec![Vec::new(); aout_sinks.len()]; k];
    let mut active = vec![true; k];
    let mut reached_steady = vec![false; k];
    let mut timed_out = vec![false; k];
    let mut aborted_on_exception = vec![false; k];
    let mut faults_active_steps = vec![0usize; k];
    let mut lane_t = vec![0.0f64; k];
    let mut lane_steps = vec![0usize; k];

    let mut t = 0.0;
    let mut steps = 0usize;

    loop {
        // Stuck-at-rail faults pin the integrator state and latch an
        // overflow exception, exactly as a genuine saturation would — the
        // draw is per `(integrator, t)`, shared by every still-active lane.
        if let Some(plan) = faults {
            if plan.any_active(t_offset + t) {
                for lane in 0..k {
                    if active[lane] {
                        faults_active_steps[lane] += 1;
                    }
                }
            }
            for (slot_state, &int_idx) in circuit.structure.integrator_of_state.iter().enumerate() {
                if let Some(rail) = plan.stuck_rail(int_idx, t_offset + t) {
                    let s = int_out_slots[slot_state];
                    for lane in 0..k {
                        if !active[lane] {
                            continue;
                        }
                        state[slot_state * k + lane] = rail.sign() * fs;
                        let idx = s * k + lane;
                        tracker.clipped[idx] = true;
                        tracker.max_abs[idx] = tracker.max_abs[idx].max(fs * 1.0000001);
                    }
                }
            }
        }

        // k1 also refreshes slot values at time t (used for sampling below).
        evaluator.eval(t, &state, &mut k1, &mut tracker, true, &active);

        // Record output waveforms, per lane (decimation state is per lane:
        // a retired lane's buffers must stop exactly where its sequential
        // run would have stopped).
        for lane in 0..k {
            if !active[lane] {
                continue;
            }
            if steps.is_multiple_of(stride[lane]) || t >= end_s {
                let mut overflow = false;
                for (wave, &slot) in waves[lane].iter_mut().zip(&aout_sinks) {
                    wave.push((t, tracker.values[slot * k + lane]));
                    overflow |=
                        options.waveform_samples > 0 && wave.len() >= 2 * options.waveform_samples;
                }
                if overflow {
                    for wave in waves[lane].iter_mut() {
                        let mut keep = 0;
                        wave.retain(|_| {
                            keep += 1;
                            keep % 2 == 1
                        });
                    }
                    stride[lane] = stride[lane].saturating_mul(2);
                }
            }
        }

        // Stop checks, per lane: a lane retires the moment its own steady /
        // timeout / exception condition fires.
        for lane in 0..k {
            if !active[lane] {
                continue;
            }
            if n > 0 {
                if let Some(tol) = options.steady_tol {
                    let column = k1[lane..].iter().step_by(k);
                    let dnorm = column.fold(0.0f64, |m, v| m.max(v.abs())) / omega;
                    if dnorm <= tol {
                        reached_steady[lane] = true;
                    }
                }
            }
            if t >= end_s {
                timed_out[lane] = timeout_s.is_some_and(|ts| t >= ts);
            }
            if options.stop_on_exception && (0..n_slots).any(|s| tracker.clipped[s * k + lane]) {
                aborted_on_exception[lane] = true;
            }
            if reached_steady[lane] || aborted_on_exception[lane] || t >= end_s || n == 0 {
                active[lane] = false;
                lane_t[lane] = t;
                lane_steps[lane] = steps;
            }
        }
        if active.iter().all(|a| !a) {
            break;
        }

        // RK4 step (k1 already computed). Retired lanes are masked out of
        // every stage so their columns freeze; while every lane is still
        // live the stage combines run unmasked over the whole SoA block
        // (same arithmetic, branch-free and vectorizable).
        let h = dt.min(end_s - t);
        let all_active = active.iter().all(|&a| a);
        if all_active {
            for idx in 0..n * k {
                mid[idx] = state[idx] + 0.5 * h * k1[idx];
            }
        } else {
            for i in 0..n {
                for lane in 0..k {
                    if active[lane] {
                        mid[i * k + lane] = state[i * k + lane] + 0.5 * h * k1[i * k + lane];
                    }
                }
            }
        }
        evaluator.eval(t + 0.5 * h, &mid, &mut k2, &mut tracker, false, &active);
        if all_active {
            for idx in 0..n * k {
                mid[idx] = state[idx] + 0.5 * h * k2[idx];
            }
        } else {
            for i in 0..n {
                for lane in 0..k {
                    if active[lane] {
                        mid[i * k + lane] = state[i * k + lane] + 0.5 * h * k2[i * k + lane];
                    }
                }
            }
        }
        evaluator.eval(t + 0.5 * h, &mid, &mut k3, &mut tracker, false, &active);
        if all_active {
            for idx in 0..n * k {
                mid[idx] = state[idx] + h * k3[idx];
            }
        } else {
            for i in 0..n {
                for lane in 0..k {
                    if active[lane] {
                        mid[i * k + lane] = state[i * k + lane] + h * k3[i * k + lane];
                    }
                }
            }
        }
        evaluator.eval(t + h, &mid, &mut k4, &mut tracker, false, &active);
        if all_active {
            for idx in 0..n * k {
                state[idx] += h / 6.0 * (k1[idx] + 2.0 * k2[idx] + 2.0 * k3[idx] + k4[idx]);
            }
        } else {
            for i in 0..n {
                for lane in 0..k {
                    if active[lane] {
                        let idx = i * k + lane;
                        state[idx] += h / 6.0 * (k1[idx] + 2.0 * k2[idx] + 2.0 * k3[idx] + k4[idx]);
                    }
                }
            }
        }

        // Integrator saturation at the rails, per active lane.
        for (row, &s) in state.chunks_exact_mut(k).zip(&int_out_slots) {
            for (lane, (x, &live)) in row.iter_mut().zip(&active).enumerate() {
                if !live {
                    continue;
                }
                if x.abs() > fs {
                    *x = x.clamp(-fs, fs);
                    let tidx = s * k + lane;
                    tracker.clipped[tidx] = true;
                    tracker.max_abs[tidx] = tracker.max_abs[tidx].max(fs * 1.0000001);
                }
                if !x.is_finite() {
                    return Err(AnalogError::Diverged { at_time: t });
                }
            }
        }

        t += h;
        steps += 1;
    }

    // Harvest per-lane observations over each lane's column of the tracker
    // and state.
    let mut reports = Vec::with_capacity(k);
    for lane in 0..k {
        let mut exceptions = ExceptionVector::new();
        let mut range_usage = BTreeMap::new();
        for (slot, unit) in circuit.structure.unit_of_slot.iter().enumerate() {
            if tracker.clipped[slot * k + lane] {
                exceptions.latch(*unit);
            }
            let usage = tracker.max_abs[slot * k + lane] / fs;
            range_usage
                .entry(*unit)
                .and_modify(|u: &mut f64| *u = u.max(usage))
                .or_insert(usage);
        }
        let integrator_values: BTreeMap<usize, f64> = circuit
            .structure
            .integrator_of_state
            .iter()
            .enumerate()
            .map(|(s, &i)| (i, state[s * k + lane]))
            .collect();
        let adc_inputs: BTreeMap<usize, f64> = circuit
            .structure
            .adcs
            .iter()
            .map(|&i| {
                (
                    i,
                    tracker.values[circuit.sink_slot(UnitId::Adc(i)) * k + lane],
                )
            })
            .collect();
        let output_waveforms: BTreeMap<usize, Vec<(f64, f64)>> = circuit
            .structure
            .analog_outputs
            .iter()
            .copied()
            .zip(std::mem::take(&mut waves[lane]))
            .collect();

        reports.push(RunReport {
            duration_s: lane_t[lane],
            steps: lane_steps[lane],
            reached_steady_state: reached_steady[lane],
            timed_out: timed_out[lane],
            aborted_on_exception: aborted_on_exception[lane],
            exceptions,
            range_usage,
            integrator_values,
            adc_inputs,
            output_waveforms,
            faults_active_steps: faults_active_steps[lane],
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::AnalogChip;
    use crate::config::ChipConfig;
    use crate::netlist::{InputPort, OutputPort};

    /// Builds the paper's Figure 1 circuit: du/dt = a·u + b.
    /// u → fanout → {ADC branch, multiplier·a branch}; DAC(b) joins the
    /// multiplier output at the integrator input.
    fn figure1_chip(a: f64, b: f64, u_init: f64, config: ChipConfig) -> AnalogChip {
        let mut chip = AnalogChip::new(config);
        let int0 = UnitId::Integrator(0);
        let fan0 = UnitId::Fanout(0);
        let mul0 = UnitId::Multiplier(0);
        let adc0 = UnitId::Adc(0);
        let dac0 = UnitId::Dac(0);
        chip.set_conn(OutputPort::of(int0), InputPort::of(fan0))
            .unwrap();
        chip.set_conn(
            OutputPort {
                unit: fan0,
                port: 0,
            },
            InputPort::of(adc0),
        )
        .unwrap();
        chip.set_conn(
            OutputPort {
                unit: fan0,
                port: 1,
            },
            InputPort::of(mul0),
        )
        .unwrap();
        chip.set_conn(OutputPort::of(mul0), InputPort::of(int0))
            .unwrap();
        chip.set_conn(OutputPort::of(dac0), InputPort::of(int0))
            .unwrap();
        chip.set_mul_gain(0, a).unwrap();
        chip.set_dac_constant(0, b).unwrap();
        chip.set_int_initial(0, u_init).unwrap();
        chip.cfg_commit().unwrap();
        chip
    }

    #[test]
    fn figure1_circuit_settles_at_equation_solution() {
        // du/dt = -u + 0.5 settles at u = 0.5.
        let mut chip = figure1_chip(-1.0, 0.5, 0.0, ChipConfig::ideal());
        let report = chip.exec(&EngineOptions::default()).unwrap();
        assert!(report.reached_steady_state);
        assert!((report.integrator_values[&0] - 0.5).abs() < 1e-4);
        // The ADC branch sees the same value.
        assert!((report.adc_inputs[&0] - 0.5).abs() < 1e-4);
        assert!(report.exceptions.is_empty());
    }

    #[test]
    fn settle_time_matches_time_constant() {
        // du/dt = ω·(-u + b): the settling transient is e^{-ω t}, so steady
        // state at tolerance ε arrives at ≈ ln(1/ε)/ω seconds.
        let mut chip = figure1_chip(-1.0, 0.5, 0.0, ChipConfig::ideal());
        let report = chip
            .exec(&EngineOptions {
                steady_tol: Some(1e-6),
                ..EngineOptions::default()
            })
            .unwrap();
        let omega = chip.config().omega();
        let expected = (0.5e6f64).ln() / omega; // |du|/ω = 0.5·e^{-ωt} = 1e-6
        assert!(
            (report.duration_s - expected).abs() / expected < 0.02,
            "settled in {} s, expected ≈ {} s",
            report.duration_s,
            expected
        );
    }

    #[test]
    fn twenty_khz_chip_is_slower_than_80khz_chip() {
        let run = |bw: f64| {
            let mut chip = figure1_chip(-1.0, 0.25, 0.0, ChipConfig::ideal().with_bandwidth(bw));
            chip.exec(&EngineOptions::default()).unwrap().duration_s
        };
        let slow = run(20e3);
        let fast = run(80e3);
        let ratio = slow / fast;
        assert!((ratio - 4.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn overflow_sets_exception_latch() {
        // du/dt = +u from 0.5: grows to the rail and saturates.
        let mut chip = figure1_chip(1.0, 0.0, 0.5, ChipConfig::ideal());
        let report = chip
            .exec(&EngineOptions {
                steady_tol: None,
                max_tau: 50.0,
                ..EngineOptions::default()
            })
            .unwrap();
        assert!(report.exceptions.is_latched(UnitId::Integrator(0)));
        assert!((report.integrator_values[&0].abs() - 1.0).abs() < 1e-9);
        // readExp sees it too.
        assert!(chip.exceptions().any());
    }

    #[test]
    fn timeout_stops_the_run() {
        let mut chip = figure1_chip(-1.0, 0.5, 0.0, ChipConfig::ideal());
        chip.set_timeout(10); // 10 µs at the 1 MHz control clock
        chip.cfg_commit().unwrap();
        let report = chip
            .exec(&EngineOptions {
                steady_tol: None,
                ..EngineOptions::default()
            })
            .unwrap();
        assert!(report.timed_out);
        assert!((report.duration_s - 10e-6).abs() < 1e-6);
        // 10 µs ≪ the 20 kHz time constant: far from steady.
        assert!((report.integrator_values[&0] - 0.5).abs() > 0.1);
    }

    #[test]
    fn range_usage_reports_underuse() {
        // Tiny problem values: b = 0.01 → steady state 0.01, far below fs.
        let mut chip = figure1_chip(-1.0, 0.01, 0.0, ChipConfig::ideal());
        let report = chip.exec(&EngineOptions::default()).unwrap();
        assert!(report.range_usage[&UnitId::Integrator(0)] < 0.5);
        // A full-range problem is not underused.
        let mut chip = figure1_chip(-1.0, 0.9, 0.0, ChipConfig::ideal());
        let report = chip.exec(&EngineOptions::default()).unwrap();
        assert!(report.range_usage[&UnitId::Integrator(0)] >= 0.5);
    }

    #[test]
    fn offsets_shift_the_steady_state_until_calibrated() {
        let cfg = ChipConfig::prototype(); // has offsets/gain errors
        let mut chip = figure1_chip(-1.0, 0.5, 0.0, cfg);
        let report = chip.exec(&EngineOptions::default()).unwrap();
        let err = (report.integrator_values[&0] - 0.5).abs();
        assert!(
            err > 1e-4,
            "uncalibrated hardware should visibly miss the ideal solution, err = {err}"
        );
    }

    #[test]
    fn waveform_is_monotone_exponential_approach() {
        // Route the fanout's ADC branch to an analog output instead to watch
        // the waveform.
        let mut chip = AnalogChip::new(ChipConfig::ideal());
        let int0 = UnitId::Integrator(0);
        let fan0 = UnitId::Fanout(0);
        let mul0 = UnitId::Multiplier(0);
        let aout0 = UnitId::AnalogOutput(0);
        let dac0 = UnitId::Dac(0);
        chip.set_conn(OutputPort::of(int0), InputPort::of(fan0))
            .unwrap();
        chip.set_conn(
            OutputPort {
                unit: fan0,
                port: 0,
            },
            InputPort::of(aout0),
        )
        .unwrap();
        chip.set_conn(
            OutputPort {
                unit: fan0,
                port: 1,
            },
            InputPort::of(mul0),
        )
        .unwrap();
        chip.set_conn(OutputPort::of(mul0), InputPort::of(int0))
            .unwrap();
        chip.set_conn(OutputPort::of(dac0), InputPort::of(int0))
            .unwrap();
        chip.set_mul_gain(0, -1.0).unwrap();
        chip.set_dac_constant(0, 0.75).unwrap();
        chip.set_int_initial(0, 0.0).unwrap();
        chip.cfg_commit().unwrap();
        let report = chip.exec(&EngineOptions::default()).unwrap();
        let wave = &report.output_waveforms[&0];
        assert!(wave.len() > 10);
        // Monotone rise toward 0.75.
        for pair in wave.windows(2) {
            assert!(pair[1].1 >= pair[0].1 - 1e-9);
        }
        assert!((wave.last().unwrap().1 - 0.75).abs() < 1e-3);
    }

    #[test]
    fn variable_variable_multiplication() {
        // mul in variable mode computing u·u: du/dt = b − u² settles at √b.
        let mut chip = AnalogChip::new(ChipConfig::ideal());
        let int0 = UnitId::Integrator(0);
        let fan0 = UnitId::Fanout(0);
        let mul0 = UnitId::Multiplier(0);
        let mul1 = UnitId::Multiplier(1);
        let dac0 = UnitId::Dac(0);
        chip.set_conn(OutputPort::of(int0), InputPort::of(fan0))
            .unwrap();
        chip.set_conn(
            OutputPort {
                unit: fan0,
                port: 0,
            },
            InputPort {
                unit: mul0,
                port: 0,
            },
        )
        .unwrap();
        chip.set_conn(
            OutputPort {
                unit: fan0,
                port: 1,
            },
            InputPort {
                unit: mul0,
                port: 1,
            },
        )
        .unwrap();
        // Negate u² through a gain multiplier.
        chip.set_conn(OutputPort::of(mul0), InputPort::of(mul1))
            .unwrap();
        chip.set_mul_gain(1, -1.0).unwrap();
        chip.set_conn(OutputPort::of(mul1), InputPort::of(int0))
            .unwrap();
        chip.set_conn(OutputPort::of(dac0), InputPort::of(int0))
            .unwrap();
        chip.set_dac_constant(0, 0.25).unwrap();
        chip.set_int_initial(0, 0.9).unwrap();
        chip.cfg_commit().unwrap();
        let report = chip.exec(&EngineOptions::default()).unwrap();
        assert!(report.reached_steady_state);
        assert!((report.integrator_values[&0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn external_input_drives_the_circuit() {
        // Integrator integrates a constant external stimulus.
        let mut chip = AnalogChip::new(ChipConfig::ideal());
        let int0 = UnitId::Integrator(0);
        let ain0 = UnitId::AnalogInput(0);
        chip.set_conn(OutputPort::of(ain0), InputPort::of(int0))
            .unwrap();
        chip.set_ana_input_en(0, true).unwrap();
        chip.attach_input_signal(0, Box::new(|_t| 0.1)).unwrap();
        chip.set_int_initial(0, 0.0).unwrap();
        chip.set_timeout(50);
        chip.cfg_commit().unwrap();
        let report = chip
            .exec(&EngineOptions {
                steady_tol: None,
                ..EngineOptions::default()
            })
            .unwrap();
        // After 50 µs at ω·0.1 per second: u = 0.1·ω·5e-5 ≈ 0.63 (within
        // full scale, so no saturation).
        let expected = 0.1 * chip.config().omega() * 50e-6;
        assert!((report.integrator_values[&0] - expected).abs() < 1e-3);
    }

    #[test]
    fn noise_burst_prevents_settling_then_clears() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};

        // Clean chip settles quickly; under an active noise burst the steady
        // detector never fires and the run hits the cap.
        let opts = EngineOptions {
            max_tau: 200.0,
            ..EngineOptions::default()
        };
        let mut chip = figure1_chip(-1.0, 0.5, 0.0, ChipConfig::ideal());
        chip.inject_fault_plan(FaultPlan::new(11).with_event(FaultEvent::transient(
            FaultKind::NoiseBurst {
                unit: UnitId::Integrator(0),
                amplitude: 0.05,
            },
            0.0,
            2e-3,
        )));
        let noisy = chip.exec(&opts).unwrap();
        assert!(!noisy.reached_steady_state);
        assert!(noisy.faults_active_steps > 0);
        // Idle past the burst window: the chip settles again.
        chip.idle(2e-3);
        let clean = chip.exec(&opts).unwrap();
        assert!(clean.reached_steady_state);
        assert_eq!(clean.faults_active_steps, 0);
        assert!((clean.integrator_values[&0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn stuck_at_rail_pins_state_and_latches_exception() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan, Rail};

        let mut chip = figure1_chip(-1.0, 0.5, 0.0, ChipConfig::ideal());
        chip.inject_fault_plan(FaultPlan::new(0).with_event(FaultEvent::persistent(
            FaultKind::StuckAtRail {
                integrator: 0,
                rail: Rail::Negative,
            },
            0.0,
        )));
        let report = chip
            .exec(&EngineOptions {
                stop_on_exception: true,
                max_tau: 200.0,
                ..EngineOptions::default()
            })
            .unwrap();
        assert!(report.aborted_on_exception);
        assert!(report.exceptions.is_latched(UnitId::Integrator(0)));
        assert_eq!(report.integrator_values[&0], -1.0);
    }

    #[test]
    fn offset_drift_shifts_the_settled_solution() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};

        let mut chip = figure1_chip(-1.0, 0.5, 0.0, ChipConfig::ideal());
        chip.inject_fault_plan(FaultPlan::new(0).with_event(FaultEvent::persistent(
            FaultKind::OffsetDrift {
                unit: UnitId::Integrator(0),
                magnitude: 0.05,
                ramp_s: 0.0,
            },
            0.0,
        )));
        let report = chip.exec(&EngineOptions::default()).unwrap();
        assert!(report.reached_steady_state);
        // The integrator *output* (state + offset) settles at 0.5, so the
        // internal state sits 0.05 low; the ADC branch sees ≈ 0.5.
        assert!((report.integrator_values[&0] - 0.45).abs() < 1e-3);
    }

    #[test]
    fn disabled_input_contributes_nothing() {
        let mut chip = AnalogChip::new(ChipConfig::ideal());
        let int0 = UnitId::Integrator(0);
        let ain0 = UnitId::AnalogInput(0);
        chip.set_conn(OutputPort::of(ain0), InputPort::of(int0))
            .unwrap();
        chip.attach_input_signal(0, Box::new(|_t| 0.5)).unwrap();
        // Not enabled: stimulus must be ignored.
        chip.set_int_initial(0, 0.25).unwrap();
        chip.set_timeout(1000);
        chip.cfg_commit().unwrap();
        let report = chip
            .exec(&EngineOptions {
                steady_tol: None,
                ..EngineOptions::default()
            })
            .unwrap();
        assert!((report.integrator_values[&0] - 0.25).abs() < 1e-12);
    }
}
