//! Integration tests of the committed-netlist plan cache: the lowered
//! evaluation plan is keyed on the netlist's structural generation, so DAC
//! reprogramming between runs reuses it, structural recommits invalidate
//! it, and the compiled strategy stays bit-identical to the tree-walking
//! reference evaluator through every transition.

use analog_accel::analog::netlist::{InputPort, OutputPort};
use analog_accel::analog::units::UnitId;
use analog_accel::analog::EvalStrategy;
use analog_accel::prelude::*;

/// The paper's Figure 1 circuit: `du/dt = a·u + b` with the drive `b` on a
/// DAC — settles at `u = −b/a`, which makes plan reuse observable from the
/// outside (stale DAC values in a cached plan would freeze the answer).
fn driven_chip() -> AnalogChip {
    let mut chip = AnalogChip::new(ChipConfig::ideal());
    let (int0, fan0, mul0, adc0, dac0) = (
        UnitId::Integrator(0),
        UnitId::Fanout(0),
        UnitId::Multiplier(0),
        UnitId::Adc(0),
        UnitId::Dac(0),
    );
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
    chip.set_mul_gain(0, -1.0).unwrap();
    chip.set_dac_constant(0, 0.3).unwrap();
    chip.set_int_initial(0, 0.0).unwrap();
    chip.cfg_commit().unwrap();
    chip
}

fn options(strategy: EvalStrategy) -> EngineOptions {
    EngineOptions {
        eval_strategy: strategy,
        ..EngineOptions::default()
    }
}

/// The tentpole's differential guarantee: compiled and reference reports
/// are bit-identical before a reconfigure, the structural recommit
/// invalidates the cached plan, and they are bit-identical again after.
#[test]
fn compiled_matches_reference_through_a_reconfigure() {
    let mut chip = driven_chip();
    let before_compiled = chip.exec(&options(EvalStrategy::Compiled)).unwrap();
    let before_reference = chip.exec(&options(EvalStrategy::Reference)).unwrap();
    assert_eq!(before_compiled, before_reference);
    let settled = before_compiled.integrator_values[&0];
    assert!((settled - 0.3).abs() < 0.02 * 0.3, "settled at {settled}");

    // Halve the decay gain: a structural change that must invalidate the
    // cached plan (the new settling point is 0.3 / 0.5 = 0.6).
    chip.set_mul_gain(0, -0.5).unwrap();
    chip.cfg_commit().unwrap();
    let after_compiled = chip.exec(&options(EvalStrategy::Compiled)).unwrap();
    let after_reference = chip.exec(&options(EvalStrategy::Reference)).unwrap();
    assert_eq!(after_compiled, after_reference);
    let settled = after_compiled.integrator_values[&0];
    assert!((settled - 0.6).abs() < 0.02 * 0.6, "settled at {settled}");

    let stats = chip.plan_stats();
    assert_eq!(stats.structures_built, 2, "one per committed structure");
    assert_eq!(
        stats.plans_lowered, 2,
        "one lowering per committed structure"
    );
}

/// Reprogramming DACs and initial conditions (the solver's per-run
/// pattern, including the `cfg_commit` it performs each time) must reuse
/// the cached plan — and the answers must track the fresh DAC values,
/// proving the cache snapshots per-run state instead of baking it in.
#[test]
fn dac_reprogramming_reuses_the_cached_plan() {
    let mut chip = driven_chip();
    for k in 0..12usize {
        let drive = 0.1 + 0.05 * k as f64;
        chip.set_dac_constant(0, drive).unwrap();
        chip.set_int_initial(0, 0.0).unwrap();
        chip.cfg_commit().unwrap();
        let report = chip.exec(&EngineOptions::default()).unwrap();
        let settled = report.integrator_values[&0];
        assert!(
            (settled - drive).abs() < 0.02 * drive,
            "run {k} must settle near the freshly programmed drive {drive}, got {settled}"
        );
    }
    let stats = chip.plan_stats();
    assert_eq!(stats.plans_lowered, 1, "{stats:?}");
    assert_eq!(stats.structures_built, 1, "{stats:?}");
    assert!(stats.cache_hits >= 11, "{stats:?}");
}

/// The reference evaluator shares the cached structure but never pays for
/// a lowering it will not use.
#[test]
fn reference_strategy_never_lowers_a_plan() {
    let mut chip = driven_chip();
    for _ in 0..3 {
        chip.exec(&options(EvalStrategy::Reference)).unwrap();
    }
    let stats = chip.plan_stats();
    assert_eq!(stats.plans_lowered, 0);
    assert_eq!(stats.structures_built, 1);
    assert_eq!(stats.cache_hits, 2);
}

/// Solver-level view of the same property: a sequence of `solve` calls
/// against one matrix only binds new DACs/initial conditions, so the
/// whole sequence lowers exactly one plan.
#[test]
fn repeated_system_solves_lower_one_plan() {
    let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap();
    let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
    for seed in 0..5usize {
        let b: Vec<f64> = (0..4)
            .map(|i| 0.2 + 0.1 * ((seed + i) % 3) as f64)
            .collect();
        solver.solve(&b).unwrap();
    }
    let stats = solver.plan_stats();
    assert_eq!(stats.plans_lowered, 1, "{stats:?}");
    assert_eq!(stats.structures_built, 1, "{stats:?}");
    assert!(stats.cache_hits >= 4, "{stats:?}");
}
