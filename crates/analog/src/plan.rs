//! The compiled evaluation plan: the engine's one linear op tape.
//!
//! [`crate::engine`] first builds the tree-walking `Compiled` circuit, whose
//! `eval` resolves every unit through `BTreeMap`s (`slot_index`, `drivers`,
//! per-unit register maps) four times per RK4 step. `CompiledPlan` is that
//! circuit lowered **once per committed netlist** into flat arrays:
//!
//! * CSR-style driver lists — one shared `driver_slots` array with
//!   `(start, end)` ranges per consumer, so an input-branch current sum is a
//!   contiguous slice walk;
//! * a dense, topologically ordered op tape with pre-resolved output slot
//!   indices, pre-fetched multiplier gains, owned lookup-table copies, and
//!   per-unit imperfection parameters pre-expanded into the factors the
//!   reference formula uses.
//!
//! There is one lowering: `ir::lower_plan` walks the circuit into
//! the typed IR, runs the [`crate::passes`] pipeline the run's effective
//! [`PassConfig`](crate::passes::PassConfig) enables, and emits this tape.
//! With no pass enabled — the default, and forced whenever a fault plan is
//! armed — the lowering is purely structural: every floating-point
//! operation keeps the exact order and association of the reference
//! evaluator, so compiled runs are **bit-identical** to reference runs (the
//! differential property tests in `tests/property_tests.rs` assert this
//! across random netlists, process variation, and active fault plans).
//! Enabled passes add two things to the same tape — `Mac` ops for fused
//! gain chains and folded DAC constants written once per run — under the
//! tolerance contract documented in [`crate::passes`].
//!
//! The plan owns everything it bakes in, so the chip's `PlanCache` can keep
//! it alive across runs — repeated solves against an unchanged netlist (the
//! block-Jacobi sweep loop, supervised retries) lower once and reuse. What
//! changes from run to run without invalidating the cache — DAC constants,
//! input-signal attachment/enables, the fault plan, and the lifetime-clock
//! offset — is **not** baked in: `BatchRun` snapshots those per run (per
//! lane for the DAC constants) and pairs them with the shared plan for the
//! RK4 driver. What cannot be pre-resolved — fault-plan adjustments and
//! external input signals, both functions of time — stays a per-eval call,
//! exactly as in the reference path.

use std::collections::BTreeMap;

use crate::chip::InputSignal;
use crate::engine::{Compiled, Evaluator, Tracker};
use crate::fault::FaultPlan;
use crate::lut::LookupTable;
use crate::nonideal::BlockImperfection;
use crate::passes::PassStat;
use crate::units::UnitId;

/// A block's transfer imperfection with the trim-DAC conversions done ahead
/// of time. `apply` reproduces [`BlockImperfection::apply`] bit for bit:
/// the reference computes `((x·f1)·f2 + o1) + o2` with these exact
/// sub-expressions, so precomputing them cannot change a single ulp.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Imp {
    pub(crate) f1: f64,
    pub(crate) f2: f64,
    pub(crate) o1: f64,
    pub(crate) o2: f64,
}

impl Imp {
    pub(crate) fn lower(b: &BlockImperfection) -> Self {
        Imp {
            f1: 1.0 + b.gain_error,
            f2: 1.0 + b.gain_trim_value(),
            o1: b.offset,
            o2: b.offset_trim_value(),
        }
    }

    #[inline]
    pub(crate) fn apply(&self, ideal: f64) -> f64 {
        ((ideal * self.f1) * self.f2 + self.o1) + self.o2
    }

    /// The affine coefficient `f1·f2` — what `apply` multiplies by, up to
    /// reassociation. Used by gain-chain fusion, which accepts the
    /// documented reassociation tolerance.
    pub(crate) fn coefficient(&self) -> f64 {
        self.f1 * self.f2
    }

    /// The affine constant `o1 + o2` — what `apply` adds, up to
    /// reassociation.
    pub(crate) fn constant(&self) -> f64 {
        self.o1 + self.o2
    }

    /// Whether `apply` is exactly the identity (an ideal, untrimmed block).
    pub(crate) fn is_identity(&self) -> bool {
        self.f1 == 1.0 && self.f2 == 1.0 && self.o1 == 0.0 && self.o2 == 0.0
    }

    /// Bit-exact fingerprint, for structural value-numbering in CSE.
    pub(crate) fn bits(&self) -> [u64; 4] {
        [
            self.f1.to_bits(),
            self.f2.to_bits(),
            self.o1.to_bits(),
            self.o2.to_bits(),
        ]
    }
}

/// A consumer's driver list: a `(start, end)` range into
/// [`CompiledPlan::driver_slots`]. An unconnected port is the empty range.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DriverRange {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// One integrator output: state slot `i` feeds output slot `out`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntSource {
    pub(crate) unit: UnitId,
    pub(crate) imp: Imp,
    pub(crate) out: u32,
}

/// One DAC output. The programmed constant is **not** baked in — every
/// solve binds new DACs without invalidating the plan cache, so
/// [`BatchRun`] fetches each lane's value from its bindings per run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DacSource {
    pub(crate) unit: UnitId,
    /// DAC register index, for the per-run value fetch.
    pub(crate) dac: usize,
    pub(crate) imp: Imp,
    pub(crate) out: u32,
}

/// One external analog input. Whether the channel is enabled and which
/// stimulus is attached are per-run state (resolved by [`BatchRun`]); only
/// the channel index and output slot are structural.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InputSource {
    pub(crate) unit: UnitId,
    /// Analog-input channel index, for the per-run signal lookup.
    pub(crate) channel: usize,
    pub(crate) out: u32,
}

/// One memoryless unit on the op tape, in topological order.
pub(crate) enum Op {
    /// Multiplier in gain mode: `gain · Σin0`.
    MulGain {
        unit: UnitId,
        gain: f64,
        imp: Imp,
        in0: DriverRange,
        out: u32,
    },
    /// Fused multiply-accumulate `a · Σin0 + b` (one `mul_add`): a gain
    /// chain collapsed by `fuse_gain_chains`, labelled with the chain's
    /// downstream multiplier. Never produced without passes.
    Mac {
        unit: UnitId,
        a: f64,
        b: f64,
        in0: DriverRange,
        out: u32,
    },
    /// Multiplier in variable mode: `Σin0 · Σin1 / full_scale`.
    MulVar {
        unit: UnitId,
        imp: Imp,
        in0: DriverRange,
        in1: DriverRange,
        out: u32,
    },
    /// Fanout: one imperfection application, one clip per branch. Branch
    /// output slots are contiguous starting at `out0` (the slot builder
    /// numbers a unit's ports consecutively).
    Fanout {
        unit: UnitId,
        imp: Imp,
        input: DriverRange,
        out0: u32,
        branches: u32,
    },
    /// Lookup table: quantized, no analog gain/offset imperfection. The
    /// table contents are owned (LUT writes bump the plan epoch, so a
    /// cached plan never sees stale entries).
    Lut {
        unit: UnitId,
        lut: LookupTable,
        input: DriverRange,
        out: u32,
    },
    /// ADC / analog-output sink: clip the summed input into the sink slot
    /// (sinks see no distortion or imperfection in the reference path).
    Sink { input: DriverRange, out: u32 },
}

/// The flat-array execution plan for one committed netlist under one pass
/// configuration.
///
/// Emitted by [`crate::ir::lower_plan`], owned (cacheable across runs), and
/// executed through a [`BatchRun`] bound to one run's register/fault/signal
/// state — K lanes, or one for a sequential run.
pub(crate) struct CompiledPlan {
    pub(crate) full_scale: f64,
    pub(crate) omega: f64,
    /// Slot-buffer length the tape writes — the structure's slot count
    /// plus any scratch slots `normalize_gains` appended for peeled
    /// stages. The run loops size their trackers to at least this.
    pub(crate) n_slots: usize,
    /// Shared driver-slot array indexed by the `DriverRange`s (CSR layout).
    pub(crate) driver_slots: Vec<u32>,
    pub(crate) int_sources: Vec<IntSource>,
    /// DAC sources fetched per run and applied per eval.
    pub(crate) dac_sources: Vec<DacSource>,
    /// DAC sources folded by `fold_constants`: their imperfection-applied
    /// values are computed at bind and written once per run, before the
    /// first eval ([`Evaluator::prime`]). Folding only happens with passes
    /// enabled, so these never meet an armed fault plan.
    pub(crate) const_dacs: Vec<DacSource>,
    pub(crate) input_sources: Vec<InputSource>,
    pub(crate) ops: Vec<Op>,
    /// Per-state derivative input range (the integrator's input port).
    pub(crate) derivs: Vec<DriverRange>,
    /// Per-pass before/after store counts, in pipeline order (empty when
    /// no pass ran).
    pub(crate) pass_log: Vec<PassStat>,
    /// Output stores per circuit evaluation before any pass ran — the
    /// pass-statistics metric: one per per-eval source, one per op output
    /// slot (a fanout stores once per branch).
    pub(crate) ops_before: u64,
    /// Output stores per circuit evaluation of this tape (folded DAC
    /// constants excluded: they are written once per run).
    pub(crate) ops_after: u64,
}

impl CompiledPlan {
    /// Renders the plan in the deterministic textual snapshot format pinned
    /// by `tests/ir_passes.rs` (documented in DESIGN.md §13): one header
    /// line, one line per source, one per op in tape order, one per state
    /// derivative, then one line per pass that ran. Floats print via
    /// `Display` (shortest round-trip), block imperfections only when
    /// non-identity — an ideal config dumps tidy.
    pub(crate) fn dump(&self) -> String {
        let mut buf = String::new();
        buf.push_str(&format!(
            "plan fs={} states={} stores={}\n",
            self.full_scale,
            self.derivs.len(),
            self.ops_after
        ));
        for src in &self.int_sources {
            buf.push_str(&format!(
                "src int u={}{} -> s{}\n",
                dump_unit(src.unit),
                dump_imp(&src.imp),
                src.out
            ));
        }
        for (kind, dacs) in [("dac", &self.dac_sources), ("dac.const", &self.const_dacs)] {
            for src in dacs {
                buf.push_str(&format!(
                    "src {kind} u={}{} -> s{}\n",
                    dump_unit(src.unit),
                    dump_imp(&src.imp),
                    src.out
                ));
            }
        }
        for src in &self.input_sources {
            buf.push_str(&format!(
                "src in u={} ch={} -> s{}\n",
                dump_unit(src.unit),
                src.channel,
                src.out
            ));
        }
        let slots = |range: DriverRange| dump_slots(&self.driver_slots, range);
        for op in &self.ops {
            match op {
                Op::MulGain {
                    unit,
                    gain,
                    imp,
                    in0,
                    out,
                } => buf.push_str(&format!(
                    "op mul.gain u={} g={}{} in={} -> s{}\n",
                    dump_unit(*unit),
                    gain,
                    dump_imp(imp),
                    slots(*in0),
                    out
                )),
                Op::Mac {
                    unit,
                    a,
                    b,
                    in0,
                    out,
                } => buf.push_str(&format!(
                    "op mac u={} a={} b={} in={} -> s{}\n",
                    dump_unit(*unit),
                    a,
                    b,
                    slots(*in0),
                    out
                )),
                Op::MulVar {
                    unit,
                    imp,
                    in0,
                    in1,
                    out,
                } => buf.push_str(&format!(
                    "op mul.var u={}{} in0={} in1={} -> s{}\n",
                    dump_unit(*unit),
                    dump_imp(imp),
                    slots(*in0),
                    slots(*in1),
                    out
                )),
                Op::Fanout {
                    unit,
                    imp,
                    input,
                    out0,
                    branches,
                } => buf.push_str(&format!(
                    "op fanout u={}{} in={} -> s{}..s{} ({})\n",
                    dump_unit(*unit),
                    dump_imp(imp),
                    slots(*input),
                    out0,
                    out0 + branches - 1,
                    branches
                )),
                Op::Lut {
                    unit, input, out, ..
                } => buf.push_str(&format!(
                    "op lut u={} in={} -> s{}\n",
                    dump_unit(*unit),
                    slots(*input),
                    out
                )),
                Op::Sink { input, out } => {
                    buf.push_str(&format!("op sink in={} -> s{}\n", slots(*input), out))
                }
            }
        }
        for (state, range) in self.derivs.iter().enumerate() {
            buf.push_str(&format!("deriv state{} in={}\n", state, slots(*range)));
        }
        for stat in &self.pass_log {
            buf.push_str(&format!(
                "pass {}: {} -> {}\n",
                stat.pass, stat.ops_before, stat.ops_after
            ));
        }
        buf
    }

    /// Resolves each input source's stimulus for one run: `None` when the
    /// channel is disabled or has no attached signal (both read as 0.0).
    fn signals<'a>(&self, c: &Compiled<'a>) -> Vec<Option<&'a InputSignal>> {
        self.input_sources
            .iter()
            .map(|src| {
                let enabled = c
                    .registers
                    .inputs_enabled
                    .get(&src.channel)
                    .copied()
                    .unwrap_or(false);
                if enabled {
                    c.signals.get(&src.channel)
                } else {
                    None
                }
            })
            .collect()
    }
}

/// A DAC register's programmed constant (0.0 when unprogrammed).
fn dac_value(dacs: &BTreeMap<usize, f64>, src: &DacSource) -> f64 {
    dacs.get(&src.dac).copied().unwrap_or(0.0)
}

/// Short deterministic unit label for plan dumps (`int0`, `mul3`, …).
fn dump_unit(unit: UnitId) -> String {
    match unit {
        UnitId::Integrator(i) => format!("int{i}"),
        UnitId::Multiplier(i) => format!("mul{i}"),
        UnitId::Fanout(i) => format!("fan{i}"),
        UnitId::Adc(i) => format!("adc{i}"),
        UnitId::Dac(i) => format!("dac{i}"),
        UnitId::Lut(i) => format!("lut{i}"),
        UnitId::AnalogInput(i) => format!("ain{i}"),
        UnitId::AnalogOutput(i) => format!("aout{i}"),
    }
}

/// Imperfection suffix for plan dumps: empty for an ideal block, the four
/// affine terms otherwise.
fn dump_imp(imp: &Imp) -> String {
    if imp.is_identity() {
        String::new()
    } else {
        format!(" imp=({},{},{},{})", imp.f1, imp.f2, imp.o1, imp.o2)
    }
}

/// A driver-slot list for plan dumps: `[s1 s4]`, `[]` when unconnected.
fn dump_slots(driver_slots: &[u32], range: DriverRange) -> String {
    let slots: Vec<String> = driver_slots[range.start as usize..range.end as usize]
        .iter()
        .map(|s| format!("s{s}"))
        .collect();
    format!("[{}]", slots.join(" "))
}

/// The K-lane batched view of a (shared, possibly cached) [`CompiledPlan`]:
/// one RK4 sweep advances K right-hand sides in lockstep.
///
/// All per-lane arrays are column-major SoA — `values[slot * k + lane]` — so
/// the inner loop of every tape op is a tight sweep over the K lanes of one
/// slot. Each lane performs **exactly** the floating-point sequence of the
/// reference evaluator for that lane alone: the plan metadata, process
/// variation, and fault schedule are shared (loaded once per op, applied per
/// lane), and fault adjustments are pure functions of `(unit, t, value)`, so
/// a lane's trajectory is bit-identical to a sequential solve started from
/// the same chip instant. Only the DAC constants differ per lane — the K
/// RHS snapshots the batch carries. A sequential run is the K = 1 batch.
pub(crate) struct BatchRun<'a> {
    plan: &'a CompiledPlan,
    faults: Option<&'a FaultPlan>,
    t_offset: f64,
    k: usize,
    /// Per-lane DAC constants, source-major: `dac_values[src_idx * k + lane]`.
    dac_values: Vec<f64>,
    /// Per-lane imperfection-applied folded constants, source-major like
    /// `dac_values` (lane bindings override DAC registers, so a folded
    /// value is lane-specific too).
    const_values: Vec<f64>,
    /// Resolved stimuli (shared across lanes; signals are pure functions of
    /// time, the workspace-wide determinism assumption).
    signals: Vec<Option<&'a InputSignal>>,
    /// Lane-wide accumulator scratch for the unmasked fast path at a
    /// runtime width (two buffers: `MulVar` needs both operand sums live at
    /// once); the monomorphized widths use stack arrays instead.
    scratch0: Vec<f64>,
    scratch1: Vec<f64>,
}

/// Sums each lane's driver currents over a CSR range into `acc[..k]` — the
/// same per-lane fold order as [`BatchRun::sum`], restructured so the lane
/// dimension is the innermost (contiguous, vectorizable) loop.
#[inline]
fn sum_into(plan: &CompiledPlan, k: usize, range: DriverRange, values: &[f64], acc: &mut [f64]) {
    let acc = &mut acc[..k];
    acc.fill(0.0);
    for &s in &plan.driver_slots[range.start as usize..range.end as usize] {
        // A one-lane column is one element: index it directly, so a
        // sequential run's fetch takes one bounds check, as scalar code's.
        let col = if k == 1 {
            std::slice::from_ref(&values[s as usize])
        } else {
            &values[s as usize * k..][..k]
        };
        for (a, &v) in acc.iter_mut().zip(col) {
            *a += v;
        }
    }
}

impl<'a> BatchRun<'a> {
    /// Binds the plan to K lanes' DAC register maps plus the shared run
    /// state (faults, lifetime offset, input signals) from `c`.
    pub(crate) fn bind(
        plan: &'a CompiledPlan,
        c: &Compiled<'a>,
        lane_dacs: &[&BTreeMap<usize, f64>],
    ) -> Self {
        let k = lane_dacs.len();
        let mut dac_values = Vec::with_capacity(plan.dac_sources.len() * k);
        for src in &plan.dac_sources {
            dac_values.extend(lane_dacs.iter().map(|dacs| dac_value(dacs, src)));
        }
        let mut const_values = Vec::with_capacity(plan.const_dacs.len() * k);
        for src in &plan.const_dacs {
            const_values.extend(
                lane_dacs
                    .iter()
                    .map(|dacs| src.imp.apply(dac_value(dacs, src))),
            );
        }
        BatchRun {
            plan,
            faults: c.faults,
            t_offset: c.t_offset,
            k,
            dac_values,
            const_values,
            signals: plan.signals(c),
            scratch0: vec![0.0; k],
            scratch1: vec![0.0; k],
        }
    }

    /// Lane `lane`'s sum of driver currents over a CSR range — the same fold
    /// order as the reference `input_sum` (`0.0 + v₀ + v₁ + …` over the
    /// connection order). `KC` as in [`Self::eval_lanes_masked`].
    #[inline]
    fn sum<const KC: usize>(&self, range: DriverRange, values: &[f64], lane: usize) -> f64 {
        let k = if KC == 0 { self.k } else { KC };
        let mut acc = 0.0;
        for &s in &self.plan.driver_slots[range.start as usize..range.end as usize] {
            acc += values[s as usize * k + lane];
        }
        acc
    }

    /// Applies any active analog-path faults, identically to the reference
    /// `distort` — the draw is shared per `(unit, t)` across lanes because
    /// the adjustment is a pure counter-based function.
    #[inline]
    fn distort(&self, unit: UnitId, t: f64, value: f64) -> f64 {
        match self.faults {
            Some(plan) => plan.analog_adjust(unit, self.t_offset + t, value),
            None => value,
        }
    }

    /// Clips to full scale, recording range usage and clip events against
    /// the lane-expanded index `idx = slot * k + lane` when tracking.
    #[inline]
    fn clip(
        &self,
        value: f64,
        idx: usize,
        max_abs: &mut [f64],
        clipped: &mut [bool],
        track: bool,
    ) -> f64 {
        let fs = self.plan.full_scale;
        if track {
            let mag = value.abs();
            if mag > max_abs[idx] {
                max_abs[idx] = mag;
            }
            if mag > fs {
                clipped[idx] = true;
            }
        }
        value.clamp(-fs, fs)
    }

    /// The branch-free all-lanes-live evaluation: per op, the operand sums
    /// are swept into a lane-wide accumulator first ([`sum_into`]), then one
    /// contiguous lane loop applies the op's arithmetic — the same ops in
    /// the same order as [`Self::eval_lanes_masked`] with the `active` mask
    /// and the identity fault adjustment peeled away, so the results match
    /// bit for bit while the inner loops vectorize.
    ///
    /// `KC` is the compile-time lane count for the monomorphized widths, or
    /// 0 for the generic runtime-width instantiation.
    fn eval_lanes_unmasked<const KC: usize>(
        &mut self,
        t: f64,
        state: &[f64],
        du: &mut [f64],
        tracker: &mut Tracker,
        track: bool,
    ) {
        let plan = self.plan;
        let k = if KC == 0 { self.k } else { KC };
        let fs = plan.full_scale;
        // Lane-wide accumulators: stack arrays at a compile-time width, so
        // the K = 1 sums of a sequential run stay in registers as scalar
        // code's would; the reusable heap scratch at a runtime width.
        let (mut fixed0, mut fixed1) = ([0.0f64; KC], [0.0f64; KC]);
        let (mut heap0, mut heap1) = if KC == 0 {
            (
                std::mem::take(&mut self.scratch0),
                std::mem::take(&mut self.scratch1),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let (acc0, acc1): (&mut [f64], &mut [f64]) = if KC == 0 {
            (&mut heap0, &mut heap1)
        } else {
            (&mut fixed0, &mut fixed1)
        };
        let dac_values: &[f64] = &self.dac_values;
        let signals = &self.signals;
        let Tracker {
            values,
            max_abs,
            clipped,
        } = tracker;

        // Maps `$src` (a lane-wide slice) through `$v` into the output
        // column at `$col`, tracking range usage when asked. The `track`
        // branch is hoisted out of the lane loop, and both bodies walk
        // exact-length subslices so the bounds checks lift out and the
        // untracked loop vectorizes.
        macro_rules! store_map {
            ($col:expr, $src:expr, |$x:ident| $v:expr) => {{
                let col = $col;
                let src = &$src[..k];
                let out = &mut values[col..col + k];
                if track {
                    let mab = &mut max_abs[col..col + k];
                    let clp = &mut clipped[col..col + k];
                    for lane in 0..k {
                        let $x = src[lane];
                        let v: f64 = $v;
                        let mag = v.abs();
                        if mag > mab[lane] {
                            mab[lane] = mag;
                        }
                        if mag > fs {
                            clp[lane] = true;
                        }
                        out[lane] = v.clamp(-fs, fs);
                    }
                } else {
                    for (o, &$x) in out.iter_mut().zip(src) {
                        let v: f64 = $v;
                        *o = v.clamp(-fs, fs);
                    }
                }
            }};
        }

        // Sources: integrator outputs (their state, through imperfection).
        for (slot_state, src) in plan.int_sources.iter().enumerate() {
            let imp = src.imp;
            store_map!(src.out as usize * k, state[slot_state * k..], |x| imp
                .apply(x));
        }
        // Sources: DAC constants — the K per-lane RHS snapshots.
        for (src_idx, src) in plan.dac_sources.iter().enumerate() {
            let imp = src.imp;
            store_map!(src.out as usize * k, dac_values[src_idx * k..], |x| imp
                .apply(x));
        }
        // Sources: external analog inputs, evaluated once and shared. The
        // accumulator doubles as the broadcast buffer.
        for (src, signal) in plan.input_sources.iter().zip(signals) {
            let raw = signal.map(|f| f(t)).unwrap_or(0.0);
            acc0[..k].fill(raw);
            store_map!(src.out as usize * k, acc0, |x| x);
        }

        // The op tape: operand sums first, then one lane sweep per op.
        for op in &plan.ops {
            match op {
                Op::MulGain {
                    gain,
                    imp,
                    in0,
                    out,
                    ..
                } => {
                    sum_into(plan, k, *in0, values, acc0);
                    let (gain, imp) = (*gain, *imp);
                    store_map!(*out as usize * k, acc0, |x| imp.apply(gain * x));
                }
                Op::Mac { a, b, in0, out, .. } => {
                    sum_into(plan, k, *in0, values, acc0);
                    let (a, b) = (*a, *b);
                    store_map!(*out as usize * k, acc0, |x| a.mul_add(x, b));
                }
                Op::MulVar {
                    imp, in0, in1, out, ..
                } => {
                    sum_into(plan, k, *in0, values, acc0);
                    sum_into(plan, k, *in1, values, acc1);
                    let imp = *imp;
                    for (a, &b) in acc0[..k].iter_mut().zip(&acc1[..k]) {
                        *a = *a * b / fs;
                    }
                    store_map!(*out as usize * k, acc0, |x| imp.apply(x));
                }
                Op::Fanout {
                    imp,
                    input,
                    out0,
                    branches,
                    ..
                } => {
                    sum_into(plan, k, *input, values, acc0);
                    for a in acc0[..k].iter_mut() {
                        *a = imp.apply(*a);
                    }
                    for port in 0..*branches {
                        store_map!((out0 + port) as usize * k, acc0, |x| x);
                    }
                }
                Op::Lut {
                    lut, input, out, ..
                } => {
                    sum_into(plan, k, *input, values, acc0);
                    store_map!(*out as usize * k, acc0, |x| lut.evaluate(x));
                }
                Op::Sink { input, out } => {
                    sum_into(plan, k, *input, values, acc0);
                    store_map!(*out as usize * k, acc0, |x| x);
                }
            }
        }

        // Integrator derivatives: ω_u times the summed input current.
        for (slot_state, &range) in plan.derivs.iter().enumerate() {
            sum_into(plan, k, range, values, acc0);
            let out = &mut du[slot_state * k..][..k];
            for (o, &a) in out.iter_mut().zip(&acc0[..k]) {
                *o = plan.omega * a;
            }
        }

        if KC == 0 {
            self.scratch0 = heap0;
            self.scratch1 = heap1;
        }
    }

    /// The general evaluation: per-lane `active` masking and per-`(unit,t)`
    /// fault adjustments, lane loop innermost over the shared op metadata.
    ///
    /// `KC` is 1 for a sequential run (every faulted sequential run lands
    /// here, so its lane loops must fold away) or 0 for the runtime width.
    // The lane loops index `active` plus several SoA columns in lockstep;
    // a range loop is the clear form, not a needless one.
    #[allow(clippy::needless_range_loop)]
    fn eval_lanes_masked<const KC: usize>(
        &self,
        t: f64,
        state: &[f64],
        du: &mut [f64],
        tracker: &mut Tracker,
        track: bool,
        active: &[bool],
    ) {
        let plan = self.plan;
        let k = if KC == 0 { self.k } else { KC };
        // A lone lane is live whenever the driver evaluates.
        let live = |lane: usize| KC == 1 || active[lane];
        let fs = plan.full_scale;
        let Tracker {
            values,
            max_abs,
            clipped,
        } = tracker;

        // Sources: integrator outputs (their state, through imperfection).
        for (slot_state, src) in plan.int_sources.iter().enumerate() {
            let s = src.out as usize;
            for lane in 0..k {
                if !live(lane) {
                    continue;
                }
                let out = self.distort(src.unit, t, src.imp.apply(state[slot_state * k + lane]));
                let idx = s * k + lane;
                values[idx] = out.clamp(-fs, fs);
                if track {
                    let mag = out.abs();
                    if mag > max_abs[idx] {
                        max_abs[idx] = mag;
                    }
                    if mag > fs {
                        clipped[idx] = true;
                    }
                }
            }
        }
        // Sources: DAC constants — the K per-lane RHS snapshots.
        for (src_idx, src) in plan.dac_sources.iter().enumerate() {
            let s = src.out as usize;
            for lane in 0..k {
                if !live(lane) {
                    continue;
                }
                let value = self.dac_values[src_idx * k + lane];
                let out = self.distort(src.unit, t, src.imp.apply(value));
                let idx = s * k + lane;
                values[idx] = self.clip(out, idx, max_abs, clipped, track);
            }
        }
        // Sources: external analog inputs (no imperfection applied). The
        // stimulus is evaluated once per step and shared across lanes.
        for (src, signal) in plan.input_sources.iter().zip(&self.signals) {
            let raw = signal.map(|f| f(t)).unwrap_or(0.0);
            let s = src.out as usize;
            for lane in 0..k {
                if !live(lane) {
                    continue;
                }
                let out = self.distort(src.unit, t, raw);
                let idx = s * k + lane;
                values[idx] = self.clip(out, idx, max_abs, clipped, track);
            }
        }

        // The op tape: metadata decoded once per op, swept over the lanes.
        for op in &plan.ops {
            match op {
                Op::MulGain {
                    unit,
                    gain,
                    imp,
                    in0,
                    out,
                } => {
                    let s = *out as usize;
                    for lane in 0..k {
                        if !live(lane) {
                            continue;
                        }
                        let ideal = gain * self.sum::<KC>(*in0, values, lane);
                        let v = self.distort(*unit, t, imp.apply(ideal));
                        let idx = s * k + lane;
                        values[idx] = self.clip(v, idx, max_abs, clipped, track);
                    }
                }
                Op::Mac {
                    unit,
                    a,
                    b,
                    in0,
                    out,
                } => {
                    let s = *out as usize;
                    for lane in 0..k {
                        if !live(lane) {
                            continue;
                        }
                        let ideal = a.mul_add(self.sum::<KC>(*in0, values, lane), *b);
                        let v = self.distort(*unit, t, ideal);
                        let idx = s * k + lane;
                        values[idx] = self.clip(v, idx, max_abs, clipped, track);
                    }
                }
                Op::MulVar {
                    unit,
                    imp,
                    in0,
                    in1,
                    out,
                } => {
                    let s = *out as usize;
                    for lane in 0..k {
                        if !live(lane) {
                            continue;
                        }
                        let ideal = self.sum::<KC>(*in0, values, lane)
                            * self.sum::<KC>(*in1, values, lane)
                            / fs;
                        let v = self.distort(*unit, t, imp.apply(ideal));
                        let idx = s * k + lane;
                        values[idx] = self.clip(v, idx, max_abs, clipped, track);
                    }
                }
                Op::Fanout {
                    unit,
                    imp,
                    input,
                    out0,
                    branches,
                } => {
                    for lane in 0..k {
                        if !live(lane) {
                            continue;
                        }
                        let v =
                            self.distort(*unit, t, imp.apply(self.sum::<KC>(*input, values, lane)));
                        for port in 0..*branches {
                            let idx = (out0 + port) as usize * k + lane;
                            values[idx] = self.clip(v, idx, max_abs, clipped, track);
                        }
                    }
                }
                Op::Lut {
                    unit,
                    lut,
                    input,
                    out,
                } => {
                    let s = *out as usize;
                    for lane in 0..k {
                        if !live(lane) {
                            continue;
                        }
                        let v = self.distort(
                            *unit,
                            t,
                            lut.evaluate(self.sum::<KC>(*input, values, lane)),
                        );
                        let idx = s * k + lane;
                        values[idx] = self.clip(v, idx, max_abs, clipped, track);
                    }
                }
                Op::Sink { input, out } => {
                    let s = *out as usize;
                    for lane in 0..k {
                        if !live(lane) {
                            continue;
                        }
                        let v = self.sum::<KC>(*input, values, lane);
                        let idx = s * k + lane;
                        values[idx] = self.clip(v, idx, max_abs, clipped, track);
                    }
                }
            }
        }

        // Integrator derivatives: ω_u times the summed input current.
        for (slot_state, &range) in plan.derivs.iter().enumerate() {
            for lane in 0..k {
                if !live(lane) {
                    continue;
                }
                du[slot_state * k + lane] = plan.omega * self.sum::<KC>(range, values, lane);
            }
        }
    }
}

impl Evaluator for BatchRun<'_> {
    fn lanes(&self) -> usize {
        self.k
    }

    fn min_slots(&self) -> usize {
        self.plan.n_slots
    }

    /// Writes every lane's folded DAC constants, tracked — exactly what the
    /// first (tracked k1) eval would record if they were still per-eval
    /// sources. Nothing else writes their slots, so a retired lane's column
    /// freezes on its own.
    fn prime(&self, tracker: &mut Tracker) {
        let k = self.k;
        for (cidx, src) in self.plan.const_dacs.iter().enumerate() {
            for lane in 0..k {
                let idx = src.out as usize * k + lane;
                let v = self.const_values[cidx * k + lane];
                tracker.values[idx] =
                    self.clip(v, idx, &mut tracker.max_abs, &mut tracker.clipped, true);
            }
        }
    }

    /// Dispatches between two bodies performing the identical per-lane
    /// floating-point sequence: an unmasked fast path when every lane is
    /// live and no fault plan is armed (lane loops innermost and
    /// branch-free, so they vectorize), and the masked general path. A lone
    /// lane is live whenever the driver evaluates, so K = 1 skips the mask
    /// scan.
    fn eval(
        &mut self,
        t: f64,
        state: &[f64],
        du: &mut [f64],
        tracker: &mut Tracker,
        track: bool,
        active: &[bool],
    ) {
        let all_live = self.k == 1 || active.iter().all(|&a| a);
        if self.faults.is_none() && all_live {
            // Monomorphize the hot widths: with the lane count a compile-
            // time constant, every lane loop unrolls and vectorizes and the
            // accumulator fills stop being runtime-length memsets — the
            // difference between a batched sweep that beats K sequential
            // runs and one that loses to them at small K. K = 1 is every
            // sequential compiled run.
            match self.k {
                1 => self.eval_lanes_unmasked::<1>(t, state, du, tracker, track),
                2 => self.eval_lanes_unmasked::<2>(t, state, du, tracker, track),
                4 => self.eval_lanes_unmasked::<4>(t, state, du, tracker, track),
                8 => self.eval_lanes_unmasked::<8>(t, state, du, tracker, track),
                16 => self.eval_lanes_unmasked::<16>(t, state, du, tracker, track),
                _ => self.eval_lanes_unmasked::<0>(t, state, du, tracker, track),
            }
        } else if self.k == 1 {
            self.eval_lanes_masked::<1>(t, state, du, tracker, track, active);
        } else {
            self.eval_lanes_masked::<0>(t, state, du, tracker, track, active);
        }
    }
}
