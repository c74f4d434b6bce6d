//! The typed plan IR: the one lowering path from circuit to op tape.
//!
//! [`IrGraph::lower`] turns the engine's reference circuit into a typed op
//! graph — one node per memoryless unit in topological order, its input
//! slots held as ranges into one shared driver-slot array that the passes
//! in [`crate::passes`] rewrite in place. [`IrGraph::emit`] then packs the
//! surviving nodes, still in topological order, into the linear
//! [`CompiledPlan`] tape that [`crate::plan::PlanRun`] and
//! [`crate::plan::BatchRun`] execute, handing over the same driver-slot
//! array; [`lower_plan`] chains the three steps.
//!
//! With no pass enabled the emitted tape is a pure restructuring of the
//! reference circuit (bit-identical runs). The tolerance contract for the
//! passes is documented in [`crate::passes`]: `fold_constants`, `cse`, and
//! `dce` preserve solution values bit for bit (they only skip redundant
//! stores), while `fuse_gain_chains` reassociates the affine arithmetic and
//! elides the intermediate clip, so fused plans match the reference within
//! a relative error bound rather than exactly. Ops eliminated by any pass
//! report zero range usage and never latch exceptions.

use std::collections::BTreeMap;

use crate::engine::Compiled;
use crate::lut::LookupTable;
use crate::netlist::{InputPort, OutputPort};
use crate::passes::{run_pipeline, PassConfig, PassStat};
use crate::plan::{CompiledPlan, DacSource, DriverRange, Imp, InputSource, IntSource, Op};
use crate::units::UnitId;

/// One memoryless op's kind and kind-specific payload. Input/output slots
/// live on [`IrNode`] so the passes rewrite them uniformly.
pub(crate) enum IrKind {
    /// Multiplier in gain mode: `clip(imp(gain · Σin0))`.
    MulGain { unit: UnitId, gain: f64, imp: Imp },
    /// Fused multiply-accumulate: `clip(a · Σin0 + b)` — produced by
    /// `fuse_gain_chains`, never by lowering.
    Mac { unit: UnitId, a: f64, b: f64 },
    /// Multiplier in variable mode: `clip(imp(Σin0 · Σin1 / fs))`.
    MulVar { unit: UnitId, imp: Imp },
    /// Fanout: one imperfection application, one clipped store per branch.
    Fanout {
        unit: UnitId,
        imp: Imp,
        branches: u32,
    },
    /// Lookup table (owned contents, moved into the tape at emit).
    Lut { unit: UnitId, lut: LookupTable },
    /// ADC / analog-output sink: clip the summed input into the sink slot.
    Sink,
}

/// One op graph node, in the netlist's topological order.
pub(crate) struct IrNode {
    pub(crate) kind: IrKind,
    /// Primary input's driver slots (every kind). Each range is owned by
    /// one node, so a pass may rewrite its slots in place.
    pub(crate) in0: DriverRange,
    /// Secondary input's driver slots (`MulVar` only, empty otherwise).
    pub(crate) in1: DriverRange,
    /// Output slot (`Fanout`: first branch slot, branches contiguous).
    pub(crate) out: u32,
    /// Cleared instead of removing the node, so slot numbering and topo
    /// order stay stable across passes.
    pub(crate) live: bool,
}

/// The typed op graph the pass pipeline rewrites. Lowered per committed
/// netlist, consumed by [`IrGraph::emit`] into a [`CompiledPlan`].
pub(crate) struct IrGraph {
    full_scale: f64,
    omega: f64,
    /// Largest programmable multiplier gain magnitude
    /// ([`crate::ChipConfig::max_gain`]) — the limit `normalize_gains`
    /// rescales fused coefficients back inside.
    max_gain: f64,
    n_slots: usize,
    int_sources: Vec<IntSource>,
    /// DAC sources still fetched per run (before `fold_constants`).
    dac_sources: Vec<DacSource>,
    /// DAC sources folded to per-run constants: written once at bind, not
    /// once per RK4 stage.
    const_dacs: Vec<DacSource>,
    input_sources: Vec<InputSource>,
    /// Shared driver-slot array the node and derivative ranges index.
    driver_slots: Vec<u32>,
    nodes: Vec<IrNode>,
    derivs: Vec<DriverRange>,
}

impl IrGraph {
    /// Lowers the reference circuit into the typed op graph: one node per
    /// memoryless unit in the netlist's topological order, driver ranges
    /// laid out node by node (`in0`, then a `MulVar`'s `in1`), then the
    /// state derivatives.
    pub(crate) fn lower(c: &Compiled<'_>) -> Self {
        let mut driver_slots: Vec<u32> = Vec::new();
        let mut slots_of = |port: InputPort| -> DriverRange {
            let start = driver_slots.len() as u32;
            if let Some(slots) = c.structure.drivers.get(&port) {
                driver_slots.extend(slots.iter().map(|&s| s as u32));
            }
            DriverRange {
                start,
                end: driver_slots.len() as u32,
            }
        };

        let int_sources: Vec<IntSource> = c
            .structure
            .integrator_of_state
            .iter()
            .map(|&i| {
                let unit = UnitId::Integrator(i);
                IntSource {
                    unit,
                    imp: Imp::lower(c.variation.of(unit)),
                    out: c.slot(OutputPort::of(unit)) as u32,
                }
            })
            .collect();

        let dac_sources: Vec<DacSource> = c
            .structure
            .dacs
            .iter()
            .map(|&i| {
                let unit = UnitId::Dac(i);
                DacSource {
                    unit,
                    dac: i,
                    imp: Imp::lower(c.variation.of(unit)),
                    out: c.slot(OutputPort::of(unit)) as u32,
                }
            })
            .collect();

        let input_sources: Vec<InputSource> = c
            .structure
            .analog_inputs
            .iter()
            .map(|&i| {
                let unit = UnitId::AnalogInput(i);
                InputSource {
                    unit,
                    channel: i,
                    out: c.slot(OutputPort::of(unit)) as u32,
                }
            })
            .collect();

        let mut nodes: Vec<IrNode> = Vec::with_capacity(c.structure.topo.len());
        for &unit in &c.structure.topo {
            match unit {
                UnitId::Multiplier(i) => {
                    let imp = Imp::lower(c.variation.of(unit));
                    let in0 = slots_of(InputPort { unit, port: 0 });
                    let out = c.slot(OutputPort::of(unit)) as u32;
                    match c.registers.mul_gains.get(&i) {
                        Some(&gain) => nodes.push(IrNode {
                            kind: IrKind::MulGain { unit, gain, imp },
                            in0,
                            in1: DriverRange::default(),
                            out,
                            live: true,
                        }),
                        None => nodes.push(IrNode {
                            kind: IrKind::MulVar { unit, imp },
                            in0,
                            in1: slots_of(InputPort { unit, port: 1 }),
                            out,
                            live: true,
                        }),
                    }
                }
                UnitId::Fanout(_) => nodes.push(IrNode {
                    kind: IrKind::Fanout {
                        unit,
                        imp: Imp::lower(c.variation.of(unit)),
                        branches: c.config.inventory.fanout_branches as u32,
                    },
                    in0: slots_of(InputPort::of(unit)),
                    in1: DriverRange::default(),
                    out: c.slot(OutputPort { unit, port: 0 }) as u32,
                    live: true,
                }),
                UnitId::Lut(i) => nodes.push(IrNode {
                    kind: IrKind::Lut {
                        unit,
                        lut: c
                            .registers
                            .luts
                            .get(&i)
                            .unwrap_or(&c.structure.default_lut)
                            .clone(),
                    },
                    in0: slots_of(InputPort::of(unit)),
                    in1: DriverRange::default(),
                    out: c.slot(OutputPort::of(unit)) as u32,
                    live: true,
                }),
                UnitId::Adc(_) | UnitId::AnalogOutput(_) => nodes.push(IrNode {
                    kind: IrKind::Sink,
                    in0: slots_of(InputPort::of(unit)),
                    in1: DriverRange::default(),
                    out: c.sink_slot(unit) as u32,
                    live: true,
                }),
                UnitId::Integrator(_) | UnitId::Dac(_) | UnitId::AnalogInput(_) => {
                    unreachable!("stateful/source units are not in the memoryless order")
                }
            }
        }

        let derivs: Vec<DriverRange> = c
            .structure
            .integrator_of_state
            .iter()
            .map(|&i| slots_of(InputPort::of(UnitId::Integrator(i))))
            .collect();

        IrGraph {
            full_scale: c.config.full_scale,
            omega: c.config.omega(),
            max_gain: c.config.max_gain,
            n_slots: c.structure.slot_index.len(),
            int_sources,
            dac_sources,
            const_dacs: Vec::new(),
            input_sources,
            driver_slots,
            nodes,
            derivs,
        }
    }

    /// The driver slots a range covers.
    fn slots(&self, range: DriverRange) -> &[u32] {
        &self.driver_slots[range.start as usize..range.end as usize]
    }

    /// The pass-statistics metric: output stores per circuit evaluation —
    /// one per (non-folded) source, one per live op output slot, a fanout
    /// counting once per branch. Folded DAC constants are excluded: they
    /// are written once per run, not once per eval.
    pub(crate) fn ops_per_eval(&self) -> u64 {
        let ops: u64 = self
            .nodes
            .iter()
            .filter(|n| n.live)
            .map(|n| match &n.kind {
                IrKind::Fanout { branches, .. } => *branches as u64,
                _ => 1,
            })
            .sum();
        (self.int_sources.len() + self.dac_sources.len() + self.input_sources.len()) as u64 + ops
    }

    /// `fold_constants`: DAC registers only change between runs (reprogram
    /// happens before `execStart`), so every DAC source becomes a per-run
    /// constant — its imperfection-applied value computed once at bind time.
    /// Bit-exact: the same `imp.apply(value)` arithmetic runs, just once.
    pub(crate) fn fold_constants(&mut self) {
        self.const_dacs.append(&mut self.dac_sources);
    }

    /// `cse`: value-numbers structurally identical multiplier ops into one,
    /// and collapses multi-branch fanouts (every branch carries the same
    /// clipped value) to a single branch, re-pointing consumers at the
    /// canonical slot. Bit-exact for solution values: deduped slots simply
    /// stop being written, and their owners report zero range usage.
    pub(crate) fn cse(&mut self) {
        let mut subst: Vec<u32> = (0..self.n_slots as u32).collect();
        let mut seen: BTreeMap<Vec<u64>, u32> = BTreeMap::new();
        let IrGraph {
            driver_slots,
            nodes,
            derivs,
            ..
        } = self;
        let substitute = |driver_slots: &mut [u32], subst: &[u32], range: DriverRange| {
            for s in &mut driver_slots[range.start as usize..range.end as usize] {
                *s = subst[*s as usize];
            }
        };
        for node in nodes.iter_mut() {
            if !node.live {
                continue;
            }
            // Producers precede consumers in topo order, so applying the
            // substitution at read time resolves every chain in one walk.
            substitute(driver_slots, &subst, node.in0);
            substitute(driver_slots, &subst, node.in1);
            let slots = |range: DriverRange| {
                driver_slots[range.start as usize..range.end as usize]
                    .iter()
                    .map(|&s| s as u64)
            };
            let key = match &mut node.kind {
                IrKind::Fanout { branches, .. } => {
                    for p in 1..*branches {
                        subst[(node.out + p) as usize] = node.out;
                    }
                    *branches = 1;
                    continue;
                }
                IrKind::MulGain { gain, imp, .. } => {
                    let mut key = vec![0u64, gain.to_bits()];
                    key.extend(imp.bits());
                    key.extend(slots(node.in0));
                    key
                }
                IrKind::MulVar { imp, .. } => {
                    let mut key = vec![1u64];
                    key.extend(imp.bits());
                    key.extend(slots(node.in0));
                    key.push(u64::MAX);
                    key.extend(slots(node.in1));
                    key
                }
                _ => continue,
            };
            match seen.get(&key) {
                Some(&canon) => {
                    subst[node.out as usize] = canon;
                    node.live = false;
                }
                None => {
                    seen.insert(key, node.out);
                }
            }
        }
        for &d in derivs.iter() {
            substitute(driver_slots, &subst, d);
        }
    }

    /// `fuse_gain_chains`: a gain multiplier whose single input is the sole
    /// consumption of another gain multiplier (or an already-fused MAC)
    /// fuses into one `Mac`, multiplying the affine coefficients through
    /// and eliding the intermediate clip. This is the one pass that
    /// reassociates floats — the source of the documented tolerance.
    pub(crate) fn fuse_gain_chains(&mut self) {
        // Static consumer counts are sound here: fusion only ever drops a
        // slot's count from one to zero, never from two to one.
        let mut consumers = vec![0u32; self.n_slots];
        let live_inputs = self
            .nodes
            .iter()
            .filter(|n| n.live)
            .flat_map(|n| [n.in0, n.in1]);
        for range in live_inputs.chain(self.derivs.iter().copied()) {
            for &s in self.slots(range) {
                consumers[s as usize] += 1;
            }
        }
        let mut producer: Vec<Option<usize>> = vec![None; self.n_slots];
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.live && matches!(node.kind, IrKind::MulGain { .. }) {
                producer[node.out as usize] = Some(idx);
            }
        }
        // Forward topo walk: once a consumer fuses and becomes a Mac, its
        // own producer-map entry stays valid, so chains of three or more
        // collapse link by link.
        for j in 0..self.nodes.len() {
            let (s, k_j, c_j, unit_j) = match &self.nodes[j] {
                IrNode {
                    live: true,
                    kind: IrKind::MulGain { unit, gain, imp },
                    in0,
                    ..
                } if in0.end - in0.start == 1 => (
                    self.driver_slots[in0.start as usize] as usize,
                    gain * imp.coefficient(),
                    imp.constant(),
                    *unit,
                ),
                _ => continue,
            };
            if consumers[s] != 1 {
                continue;
            }
            let Some(i) = producer[s] else { continue };
            if !self.nodes[i].live {
                continue;
            }
            let (k_i, c_i) = match &self.nodes[i].kind {
                IrKind::MulGain { gain, imp, .. } => (gain * imp.coefficient(), imp.constant()),
                IrKind::Mac { a, b, .. } => (*a, *b),
                _ => continue,
            };
            // j(i(x)) = k_j·(k_i·x + c_i) + c_j, standalone gains stay exact.
            let a = k_j * k_i;
            let b = k_j * c_i + c_j;
            let inherited = self.nodes[i].in0;
            self.nodes[i].live = false;
            producer[s] = None;
            consumers[s] = 0;
            let node_j = &mut self.nodes[j];
            node_j.kind = IrKind::Mac { unit: unit_j, a, b };
            node_j.in0 = inherited;
        }
    }

    /// `normalize_gains`: peels any fused multiply-accumulate whose
    /// coefficient magnitude exceeds the hardware gain limit
    /// ([`crate::ChipConfig::max_gain`]) into a chain of stages each
    /// within the limit. Fusion multiplies affine coefficients through, so
    /// a chain of individually programmable multipliers can fuse into a
    /// coefficient no real multiplier could be set to; this pass restores
    /// hardware realizability at the cost of one store per extra stage
    /// (the only pass that can *raise* the op count). Each peeled prefix
    /// stage is a pure `±max_gain` multiply into a fresh scratch slot; the
    /// surviving node keeps the affine constant, so
    /// `residual·(g·…·(g·x)) + b` recomposes `a·x + b` exactly when
    /// `max_gain` is a power of two and within one rounding per stage
    /// otherwise — inside the documented pass tolerance. Stage gains all
    /// exceed unity (the residual lands in `(1, max_gain]`), so partial
    /// products grow monotonically and a peeled chain never saturates at
    /// an intermediate stage unless its fused output would have clipped
    /// too. Skipped when `max_gain ≤ 1`: no chain of within-limit stages
    /// can then reach a product above the limit.
    pub(crate) fn normalize_gains(&mut self) {
        let mg = self.max_gain;
        if mg <= 1.0 {
            return;
        }
        let mut rewritten: Vec<IrNode> = Vec::with_capacity(self.nodes.len());
        for mut node in std::mem::take(&mut self.nodes) {
            let split = match &node.kind {
                IrKind::Mac { a, .. } => node.live && a.is_finite() && a.abs() > mg,
                _ => false,
            };
            if !split {
                rewritten.push(node);
                continue;
            }
            let IrKind::Mac { unit, a, b } = node.kind else {
                unreachable!("matched above");
            };
            // Peel `max_gain` prefix stages until the residual coefficient
            // is programmable; each prefix writes a fresh slot the next
            // stage reads, so topo order holds by construction.
            let mut residual = a;
            let mut in0 = node.in0;
            while residual.abs() > mg {
                residual /= mg;
                let out = self.n_slots as u32;
                self.n_slots += 1;
                rewritten.push(IrNode {
                    kind: IrKind::Mac {
                        unit,
                        a: mg,
                        b: 0.0,
                    },
                    in0,
                    in1: DriverRange::default(),
                    out,
                    live: true,
                });
                let start = self.driver_slots.len() as u32;
                self.driver_slots.push(out);
                in0 = DriverRange {
                    start,
                    end: start + 1,
                };
            }
            node.kind = IrKind::Mac {
                unit,
                a: residual,
                b,
            };
            node.in0 = in0;
            rewritten.push(node);
        }
        self.nodes = rewritten;
    }

    /// `dce`: removes ops whose outputs reach neither an integrator input
    /// nor a sink (ADC / analog output). Sinks are the observables, so they
    /// always survive; sources always survive (integrator outputs carry the
    /// state, DACs/inputs are cheap and may feed eliminated consumers whose
    /// range records the report still omits either way).
    pub(crate) fn dce(&mut self) {
        let mut needed = vec![false; self.n_slots];
        for &d in &self.derivs {
            for &s in self.slots(d) {
                needed[s as usize] = true;
            }
        }
        for idx in (0..self.nodes.len()).rev() {
            let keep = {
                let node = &self.nodes[idx];
                if !node.live {
                    continue;
                }
                match &node.kind {
                    IrKind::Sink => true,
                    IrKind::Fanout { branches, .. } => {
                        (0..*branches).any(|p| needed[(node.out + p) as usize])
                    }
                    _ => needed[node.out as usize],
                }
            };
            if keep {
                let node = &self.nodes[idx];
                for range in [node.in0, node.in1] {
                    for &s in self.slots(range) {
                        needed[s as usize] = true;
                    }
                }
            } else {
                self.nodes[idx].live = false;
            }
        }
    }

    /// Packs the surviving nodes, in topological order, into the linear op
    /// tape. The driver-slot array moves over as is: ranges of eliminated
    /// nodes stay behind unread.
    pub(crate) fn emit(self, pass_log: Vec<PassStat>, ops_before: u64) -> CompiledPlan {
        let ops_after = self.ops_per_eval();
        let mut ops = Vec::with_capacity(self.nodes.len());
        for node in self.nodes.into_iter().filter(|n| n.live) {
            let IrNode { in0, in1, out, .. } = node;
            ops.push(match node.kind {
                IrKind::MulGain { unit, gain, imp } => Op::MulGain {
                    unit,
                    gain,
                    imp,
                    in0,
                    out,
                },
                IrKind::Mac { unit, a, b } => Op::Mac {
                    unit,
                    a,
                    b,
                    in0,
                    out,
                },
                IrKind::MulVar { unit, imp } => Op::MulVar {
                    unit,
                    imp,
                    in0,
                    in1,
                    out,
                },
                IrKind::Fanout {
                    unit,
                    imp,
                    branches,
                } => Op::Fanout {
                    unit,
                    imp,
                    input: in0,
                    out0: out,
                    branches,
                },
                IrKind::Lut { unit, lut } => Op::Lut {
                    unit,
                    lut,
                    input: in0,
                    out,
                },
                IrKind::Sink => Op::Sink { input: in0, out },
            });
        }
        CompiledPlan {
            full_scale: self.full_scale,
            omega: self.omega,
            n_slots: self.n_slots,
            driver_slots: self.driver_slots,
            int_sources: self.int_sources,
            dac_sources: self.dac_sources,
            const_dacs: self.const_dacs,
            input_sources: self.input_sources,
            ops,
            derivs: self.derivs,
            pass_log,
            ops_before,
            ops_after,
        }
    }
}

/// Lowers the reference circuit into the engine's op tape: the IR walk,
/// the pass pipeline `cfg` enables (none for `PassConfig::none()`), and
/// the emit.
pub(crate) fn lower_plan(c: &Compiled<'_>, cfg: &PassConfig) -> CompiledPlan {
    let mut graph = IrGraph::lower(c);
    let ops_before = graph.ops_per_eval();
    let pass_log = run_pipeline(&mut graph, cfg);
    graph.emit(pass_log, ops_before)
}
