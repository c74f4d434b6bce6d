//! Per-pass snapshot tests for the plan IR pipeline: each optimization
//! pass gets at least one pinned before/after tape dump through the
//! deterministic `AnalogChip::dump_plan` format (DESIGN.md §13), plus
//! pass-statistics plumbing checks (`pass_stats`, `PlanStats` counters),
//! batched and fault-plan runs of the pass-lowered tape, and
//! checkpoint/restore of the optimized-plan cache.
//!
//! The snapshots are exact-string pins on an ideal chip (no process
//! variation), so every float prints tidily and any change to lowering,
//! pass behaviour, or the dump format shows up as a readable
//! text diff.

use analog_accel::analog::netlist::{InputPort, OutputPort};
use analog_accel::analog::units::UnitId;
use analog_accel::analog::{EvalStrategy, LaneBindings, PassConfig};
use analog_accel::prelude::*;

fn conn(chip: &mut AnalogChip, from: OutputPort, to: InputPort) {
    chip.set_conn(from, to).unwrap();
}

fn out(unit: UnitId, port: usize) -> OutputPort {
    OutputPort { unit, port }
}

/// The paper's Figure 1 circuit: `du/dt = a·u + b` with the drive on a
/// DAC. Exercises every source kind the constant folder cares about.
fn driven_chip() -> AnalogChip {
    let mut chip = AnalogChip::new(ChipConfig::ideal());
    let (int0, fan0, mul0, adc0, dac0) = (
        UnitId::Integrator(0),
        UnitId::Fanout(0),
        UnitId::Multiplier(0),
        UnitId::Adc(0),
        UnitId::Dac(0),
    );
    conn(&mut chip, OutputPort::of(int0), InputPort::of(fan0));
    conn(&mut chip, out(fan0, 0), InputPort::of(adc0));
    conn(&mut chip, out(fan0, 1), InputPort::of(mul0));
    conn(&mut chip, OutputPort::of(mul0), InputPort::of(int0));
    conn(&mut chip, OutputPort::of(dac0), InputPort::of(int0));
    chip.set_mul_gain(0, -1.0).unwrap();
    chip.set_dac_constant(0, 0.3).unwrap();
    chip.set_int_initial(0, 0.0).unwrap();
    chip.cfg_commit().unwrap();
    chip
}

/// A two-multiplier gain chain `int0 → mul0(×0.8) → mul1(×-0.5) → int0`:
/// the fusion pass's bread and butter (`du/dt = -0.4·u` once fused).
fn chain_chip() -> AnalogChip {
    let mut chip = AnalogChip::new(ChipConfig::ideal());
    let (int0, mul0, mul1) = (
        UnitId::Integrator(0),
        UnitId::Multiplier(0),
        UnitId::Multiplier(1),
    );
    conn(&mut chip, OutputPort::of(int0), InputPort::of(mul0));
    conn(&mut chip, OutputPort::of(mul0), InputPort::of(mul1));
    conn(&mut chip, OutputPort::of(mul1), InputPort::of(int0));
    chip.set_mul_gain(0, 0.8).unwrap();
    chip.set_mul_gain(1, -0.5).unwrap();
    chip.set_int_initial(0, 0.5).unwrap();
    chip.cfg_commit().unwrap();
    chip
}

/// Two structurally identical feedback paths through one fanout:
/// `int0 → fan0`, each branch through its own gain-(-1) multiplier back
/// into `int0`. CSE first collapses the fanout branches (both carry the
/// same current), which makes the two multipliers identical, so one dies
/// and the integrator's driver list sums the survivor twice.
fn twin_chip() -> AnalogChip {
    let mut chip = AnalogChip::new(ChipConfig::ideal());
    let (int0, fan0, mul0, mul1) = (
        UnitId::Integrator(0),
        UnitId::Fanout(0),
        UnitId::Multiplier(0),
        UnitId::Multiplier(1),
    );
    conn(&mut chip, OutputPort::of(int0), InputPort::of(fan0));
    conn(&mut chip, out(fan0, 0), InputPort::of(mul0));
    conn(&mut chip, out(fan0, 1), InputPort::of(mul1));
    conn(&mut chip, OutputPort::of(mul0), InputPort::of(int0));
    conn(&mut chip, OutputPort::of(mul1), InputPort::of(int0));
    chip.set_mul_gain(0, -1.0).unwrap();
    chip.set_mul_gain(1, -1.0).unwrap();
    chip.set_int_initial(0, 0.5).unwrap();
    chip.cfg_commit().unwrap();
    chip
}

/// The driven circuit plus a dangling side computation: `dac1 → mul1`,
/// whose output drives nothing observable. DCE's job.
fn dangling_chip() -> AnalogChip {
    let mut chip = driven_chip();
    conn(
        &mut chip,
        OutputPort::of(UnitId::Dac(1)),
        InputPort::of(UnitId::Multiplier(1)),
    );
    chip.set_mul_gain(1, 0.5).unwrap();
    chip.set_dac_constant(1, 0.25).unwrap();
    chip.cfg_commit().unwrap();
    chip
}

fn opts(passes: PassConfig) -> EngineOptions {
    EngineOptions {
        passes,
        ..EngineOptions::default()
    }
}

/// The unoptimized tape dump: the `PassConfig::none()` baseline every
/// optimized snapshot below diffs against. No folded `dac.const` sources,
/// no `mac` ops, no `pass` statistics lines.
#[test]
fn unoptimized_tape_snapshot() {
    assert_eq!(
        driven_chip().dump_plan(&PassConfig::none()).unwrap(),
        "plan fs=1 states=1 stores=6\n\
         src int u=int0 -> s0\n\
         src dac u=dac0 -> s5\n\
         op fanout u=fan0 in=[s0] -> s2..s3 (2)\n\
         op mul.gain u=mul0 g=-1 in=[s3] -> s1\n\
         op sink in=[s2] -> s4\n\
         deriv state0 in=[s1 s5]\n"
    );
}

/// `fold_constants` reclassifies the DAC source as `dac.const` (computed
/// once at run bind, not once per RK4 stage), dropping one store per eval.
#[test]
fn fold_constants_snapshot() {
    assert_eq!(
        driven_chip()
            .dump_plan(&PassConfig {
                fold_constants: true,
                ..PassConfig::none()
            })
            .unwrap(),
        "plan fs=1 states=1 stores=5\n\
         src int u=int0 -> s0\n\
         src dac.const u=dac0 -> s5\n\
         op fanout u=fan0 in=[s0] -> s2..s3 (2)\n\
         op mul.gain u=mul0 g=-1 in=[s3] -> s1\n\
         op sink in=[s2] -> s4\n\
         deriv state0 in=[s1 s5]\n\
         pass fold_constants: 6 -> 5\n"
    );
}

/// `cse` first collapses the fanout's identical branches to one store,
/// which exposes the two gain multipliers as structurally identical: one
/// dies and the integrator sums the survivor's slot twice (`[s2 s2]`) —
/// the same value the two branches carried.
#[test]
fn cse_snapshot() {
    assert_eq!(
        twin_chip()
            .dump_plan(&PassConfig {
                cse: true,
                ..PassConfig::none()
            })
            .unwrap(),
        "plan fs=1 states=1 stores=3\n\
         src int u=int0 -> s0\n\
         op fanout u=fan0 in=[s0] -> s3..s3 (1)\n\
         op mul.gain u=mul1 g=-1 in=[s3] -> s2\n\
         deriv state0 in=[s2 s2]\n\
         pass cse: 5 -> 3\n"
    );
}

/// `fuse_gain_chains` folds the two-multiplier chain into one
/// multiply-accumulate with the product coefficient (`a = 0.8·-0.5`),
/// eliding the intermediate store and clip.
#[test]
fn fuse_gain_chains_snapshot() {
    let chip = chain_chip();
    assert_eq!(
        chip.dump_plan(&PassConfig::none()).unwrap(),
        "plan fs=1 states=1 stores=3\n\
         src int u=int0 -> s0\n\
         op mul.gain u=mul0 g=0.8 in=[s0] -> s1\n\
         op mul.gain u=mul1 g=-0.5 in=[s1] -> s2\n\
         deriv state0 in=[s2]\n"
    );
    assert_eq!(
        chip.dump_plan(&PassConfig {
            fuse_gain_chains: true,
            ..PassConfig::none()
        })
        .unwrap(),
        "plan fs=1 states=1 stores=2\n\
         src int u=int0 -> s0\n\
         op mac u=mul1 a=-0.4 b=0 in=[s0] -> s2\n\
         deriv state0 in=[s2]\n\
         pass fuse_gain_chains: 3 -> 2\n"
    );
}

/// A gain chain `int0 → mul0(×1.8) → mul1(×-1.5) → int0` on a chip whose
/// hardware gain limit is 2: both stages are individually programmable,
/// but fusion multiplies them into an unrealizable `a = -2.7`.
fn hot_chain_chip() -> AnalogChip {
    let mut chip = AnalogChip::new(ChipConfig {
        max_gain: 2.0,
        ..ChipConfig::ideal()
    });
    let (int0, mul0, mul1) = (
        UnitId::Integrator(0),
        UnitId::Multiplier(0),
        UnitId::Multiplier(1),
    );
    conn(&mut chip, OutputPort::of(int0), InputPort::of(mul0));
    conn(&mut chip, OutputPort::of(mul0), InputPort::of(mul1));
    conn(&mut chip, OutputPort::of(mul1), InputPort::of(int0));
    chip.set_mul_gain(0, 1.8).unwrap();
    chip.set_mul_gain(1, -1.5).unwrap();
    // Small enough that no multiplier output (peak |-1.5·1.8·u| = 0.675)
    // reaches full scale: the tolerance contract only binds clip-free runs.
    chip.set_int_initial(0, 0.25).unwrap();
    chip.cfg_commit().unwrap();
    chip
}

/// `normalize_gains` peels a fused MAC whose coefficient exceeds the
/// hardware gain limit back into chained stages inside the limit: fusion
/// alone leaves the unrealizable `a = -2.7` on a `max_gain = 2` chip;
/// normalization splits it into a `×2` prefix stage (fresh scratch slot
/// `s3`) and a programmable `×-1.35` residual — the one pass that raises
/// the op count (`2 -> 3`).
#[test]
fn normalize_gains_snapshot() {
    let chip = hot_chain_chip();
    assert_eq!(
        chip.dump_plan(&PassConfig {
            fuse_gain_chains: true,
            ..PassConfig::none()
        })
        .unwrap(),
        "plan fs=1 states=1 stores=2\n\
         src int u=int0 -> s0\n\
         op mac u=mul1 a=-2.7 b=0 in=[s0] -> s2\n\
         deriv state0 in=[s2]\n\
         pass fuse_gain_chains: 3 -> 2\n"
    );
    assert_eq!(
        chip.dump_plan(&PassConfig {
            fuse_gain_chains: true,
            normalize_gains: true,
            ..PassConfig::none()
        })
        .unwrap(),
        "plan fs=1 states=1 stores=3\n\
         src int u=int0 -> s0\n\
         op mac u=mul1 a=2 b=0 in=[s0] -> s3\n\
         op mac u=mul1 a=-1.35 b=0 in=[s3] -> s2\n\
         deriv state0 in=[s2]\n\
         pass fuse_gain_chains: 3 -> 2\n\
         pass normalize_gains: 2 -> 3\n"
    );
}

/// The peeled chain computes the same dynamics as the reference evaluator
/// (`du/dt = -2.7·u` decaying from 0.25) within the documented pass
/// tolerance, even though its tape writes a scratch slot beyond the
/// structure's slot count.
#[test]
fn normalized_exec_matches_reference() {
    let mut chip = hot_chain_chip();
    let reference = chip
        .exec(&EngineOptions {
            eval_strategy: EvalStrategy::Reference,
            ..EngineOptions::default()
        })
        .unwrap();
    let optimized = chip.exec(&opts(PassConfig::full())).unwrap();
    assert!(!reference.exceptions.any());
    for (idx, r) in &reference.integrator_values {
        let o = optimized.integrator_values[idx];
        assert!(
            (o - r).abs() <= 1e-5 * (1.0 + r.abs()),
            "integrator {idx}: optimized {o} vs reference {r}"
        );
    }
    let log = chip.pass_stats();
    let norm = log
        .iter()
        .find(|s| s.pass == "normalize_gains")
        .expect("normalize_gains ran");
    assert_eq!((norm.ops_before, norm.ops_after), (2, 3), "{log:?}");
}

/// `dce` removes the dangling multiplier (its output reaches neither an
/// integrator nor a sink); the now-unread DAC source survives as a source
/// line but feeds nothing.
#[test]
fn dce_snapshot() {
    assert_eq!(
        dangling_chip()
            .dump_plan(&PassConfig {
                dce: true,
                ..PassConfig::none()
            })
            .unwrap(),
        "plan fs=1 states=1 stores=7\n\
         src int u=int0 -> s0\n\
         src dac u=dac0 -> s6\n\
         src dac u=dac1 -> s7\n\
         op fanout u=fan0 in=[s0] -> s3..s4 (2)\n\
         op mul.gain u=mul0 g=-1 in=[s4] -> s1\n\
         op sink in=[s3] -> s5\n\
         deriv state0 in=[s1 s6]\n\
         pass dce: 8 -> 7\n"
    );
}

/// The whole pipeline composing on one circuit, with the per-pass
/// statistics trail showing which pass claimed which op: folding claims
/// the two DACs, CSE the redundant fanout branch and then the dangling
/// multiplier's input chain shrinks until DCE removes the multiplier.
#[test]
fn full_pipeline_snapshot() {
    assert_eq!(
        dangling_chip().dump_plan(&PassConfig::full()).unwrap(),
        "plan fs=1 states=1 stores=4\n\
         src int u=int0 -> s0\n\
         src dac.const u=dac0 -> s6\n\
         src dac.const u=dac1 -> s7\n\
         op fanout u=fan0 in=[s0] -> s3..s3 (1)\n\
         op mul.gain u=mul0 g=-1 in=[s3] -> s1\n\
         op sink in=[s3] -> s5\n\
         deriv state0 in=[s1 s6]\n\
         pass fold_constants: 8 -> 6\n\
         pass cse: 6 -> 5\n\
         pass fuse_gain_chains: 5 -> 5\n\
         pass normalize_gains: 5 -> 5\n\
         pass dce: 5 -> 4\n"
    );
}

/// Optimized execution honours the documented tolerance contract against
/// the reference evaluator, and the pass/plan statistics plumbing reports
/// the lowering: one optimized lowering, cache hits afterwards, per-pass
/// before/after counts visible through `pass_stats`.
#[test]
fn optimized_exec_matches_reference_and_reports_stats() {
    let mut chip = dangling_chip();
    let reference = chip
        .exec(&EngineOptions {
            eval_strategy: EvalStrategy::Reference,
            ..EngineOptions::default()
        })
        .unwrap();
    let optimized = chip.exec(&opts(PassConfig::full())).unwrap();
    assert!(!reference.exceptions.any());
    for (idx, r) in &reference.integrator_values {
        let o = optimized.integrator_values[idx];
        assert!(
            (o - r).abs() <= 1e-5 * (1.0 + r.abs()),
            "integrator {idx}: optimized {o} vs reference {r}"
        );
    }
    for (idx, r) in &reference.adc_inputs {
        let o = optimized.adc_inputs[idx];
        assert!(
            (o - r).abs() <= 1e-5 * (1.0 + r.abs()),
            "adc {idx}: optimized {o} vs reference {r}"
        );
    }

    let stats = chip.plan_stats();
    assert_eq!(stats.optimized_lowered, 1, "{stats:?}");
    assert_eq!(stats.ops_before, 8, "{stats:?}");
    assert_eq!(stats.ops_after, 4, "{stats:?}");
    let log = chip.pass_stats();
    let names: Vec<&str> = log.iter().map(|s| s.pass).collect();
    assert_eq!(
        names,
        [
            "fold_constants",
            "cse",
            "fuse_gain_chains",
            "normalize_gains",
            "dce"
        ]
    );
    assert!(log.iter().all(|s| s.ops_after <= s.ops_before), "{log:?}");

    // Re-running with the same config is a cache hit, not a re-lowering;
    // a *different* pass config re-lowers.
    chip.exec(&opts(PassConfig::full())).unwrap();
    assert_eq!(chip.plan_stats().optimized_lowered, 1);
    chip.exec(&opts(PassConfig {
        dce: true,
        ..PassConfig::none()
    }))
    .unwrap();
    assert_eq!(chip.plan_stats().optimized_lowered, 2);
}

/// `PassConfig::none()` never touches the optimized path: the run is
/// bit-identical (whole-report `assert_eq`) to a default-options run and
/// lowers no optimized plan.
#[test]
fn none_config_is_bit_identical_to_default() {
    let mut chip = driven_chip();
    let baseline = chip.exec(&EngineOptions::default()).unwrap();
    let none = chip.exec(&opts(PassConfig::none())).unwrap();
    assert_eq!(baseline, none);
    assert_eq!(chip.plan_stats().optimized_lowered, 0);
    assert!(chip.pass_stats().is_empty());
}

/// An armed fault plan forces the unoptimized tape (fault semantics stay
/// bit-exact), even when passes are requested.
#[test]
fn fault_plans_bypass_the_optimized_path() {
    let mut chip = driven_chip();
    chip.inject_fault_plan(FaultPlan::new(7).with_event(FaultEvent {
        kind: FaultKind::GainDrift {
            unit: UnitId::Multiplier(0),
            magnitude: 0.05,
            ramp_s: 0.0,
        },
        start_s: 0.0,
        duration_s: None,
    }));
    chip.exec(&opts(PassConfig::full())).unwrap();
    let stats = chip.plan_stats();
    assert_eq!(stats.optimized_lowered, 0, "{stats:?}");
}

/// Checkpoint/restore round-trips the optimized-plan cache: the restored
/// chip's first optimized run is a cache *hit* (no re-lowering beyond the
/// silent re-prime), so `PlanStats` continue exactly where the
/// uninterrupted chip's would.
#[test]
fn checkpoint_restores_the_optimized_plan_cache() {
    let mut original = driven_chip();
    original.exec(&opts(PassConfig::full())).unwrap();
    let snap = original.export_state();
    assert_eq!(snap.optimized_passes, Some(PassConfig::full()));

    let mut restored = driven_chip();
    restored.import_state(&snap).unwrap();
    restored.exec(&opts(PassConfig::full())).unwrap();
    original.exec(&opts(PassConfig::full())).unwrap();
    assert_eq!(original.plan_stats(), restored.plan_stats());
    assert_eq!(original.pass_stats(), restored.pass_stats());
}

/// `chip` with a DAC drive added on the integrator input (`du/dt = a·u + d`
/// once fused), so batch lanes can differ in their right-hand side.
fn with_drive(mut chip: AnalogChip) -> AnalogChip {
    conn(
        &mut chip,
        OutputPort::of(UnitId::Dac(0)),
        InputPort::of(UnitId::Integrator(0)),
    );
    chip.set_dac_constant(0, 0.0).unwrap();
    chip.cfg_commit().unwrap();
    chip
}

/// A fully pass-lowered batch — fused `Mac` ops, folded per-lane DAC
/// constants, and (on the hot chain) a `normalize_gains` scratch slot —
/// answers every lane bit-identically to a sequential full-pass run with
/// that lane's bindings. The drives are chosen so the lanes settle at
/// different steps: the sweep runs unmasked while all lanes are live and
/// masked after the first retires, so both lane evaluators are covered.
#[test]
fn full_pass_batch_lanes_match_sequential_runs() {
    let options = opts(PassConfig::full());
    for (name, fixture) in [
        ("chain", chain_chip as fn() -> AnalogChip),
        ("hot chain", hot_chain_chip),
    ] {
        let dump = fixture().dump_plan(&PassConfig::full()).unwrap();
        assert!(
            dump.contains("op mac"),
            "{name}: the chain must fuse\n{dump}"
        );
        let mut chip = with_drive(fixture());
        let drives: Vec<f64> = [0.0, 0.05, -0.1, 0.15]
            .iter()
            .map(|&d| chip.quantize_dac(d))
            .collect();
        let lanes: Vec<LaneBindings> = drives
            .iter()
            .map(|&d| LaneBindings {
                dac_values: Some([(0, d)].into()),
                int_initial: None,
            })
            .collect();
        let batch = chip.exec_batch(&lanes, &options).unwrap();
        let mut steps: Vec<usize> = batch.reports.iter().map(|r| r.steps).collect();
        steps.sort_unstable();
        steps.dedup();
        assert_eq!(steps.len(), drives.len(), "{name}: lanes must retire apart");
        for (lane, (&d, batched)) in drives.iter().zip(&batch.reports).enumerate() {
            let mut seq = with_drive(fixture());
            seq.set_dac_constant(0, d).unwrap();
            seq.cfg_commit().unwrap();
            let sequential = seq.exec(&options).unwrap();
            assert_eq!(batched, &sequential, "{name} lane {lane}");
        }
    }
}

/// A chip configured for full passes that alternates an armed and a
/// disarmed fault plan: every armed run lowers without passes and equals a
/// `PassConfig::none()` run bit for bit (a twin chip at the same lifetime
/// instant), and every disarmed run equals the first full-pass run. The
/// one-slot plan cache re-lowers on each switch.
#[test]
fn alternating_fault_plans_switch_between_full_and_pass_free_tapes() {
    let options = EngineOptions {
        max_tau: 300.0,
        ..opts(PassConfig::full())
    };
    let none_options = EngineOptions {
        passes: PassConfig::none(),
        ..options.clone()
    };
    let plan = FaultPlan::new(11)
        .with_event(FaultEvent {
            kind: FaultKind::GainDrift {
                unit: UnitId::Multiplier(0),
                magnitude: 0.05,
                ramp_s: 0.0,
            },
            start_s: 0.0,
            duration_s: None,
        })
        .with_event(FaultEvent {
            kind: FaultKind::NoiseBurst {
                unit: UnitId::Integrator(0),
                amplitude: 0.01,
            },
            start_s: 0.0,
            duration_s: None,
        });
    let mut chip = with_drive(chain_chip());
    let mut twin = with_drive(chain_chip());
    let first = chip.exec(&options).unwrap();
    twin.exec(&options).unwrap();
    for round in 0..3 {
        chip.inject_fault_plan(plan.clone());
        twin.inject_fault_plan(plan.clone());
        let armed = chip.exec(&options).unwrap();
        let pass_free = twin.exec(&none_options).unwrap();
        assert!(armed.faults_active_steps > 0, "round {round}");
        assert_eq!(armed, pass_free, "round {round}: armed run");
        chip.clear_fault_plan();
        twin.clear_fault_plan();
        assert_eq!(
            chip.exec(&options).unwrap(),
            first,
            "round {round}: disarmed run"
        );
        twin.exec(&options).unwrap();
    }
    let stats = chip.plan_stats();
    assert_eq!(stats.optimized_lowered, 4, "{stats:?}");
    assert_eq!(stats.plans_lowered, 7, "{stats:?}");
}
