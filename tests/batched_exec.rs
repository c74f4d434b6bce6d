//! Per-column bit-identity of batched multi-RHS execution.
//!
//! The batched engine path advances K right-hand sides in one lockstep RK4
//! sweep. Its contract is differential: every lane's [`RunReport`] must be
//! **bit-identical** to a sequential `exec` of that lane from the same chip
//! instant — across random netlists, process-variation draws, fault plans,
//! and both evaluator strategies. These tests draw many cases from seeded
//! streams, so every failure reproduces from the fixed seed.
//!
//! [`RunReport`]: analog_accel::analog::RunReport

use std::collections::BTreeMap;

use analog_accel::analog::netlist::{InputPort, OutputPort};
use analog_accel::analog::units::UnitId;
use analog_accel::analog::{
    AnalogChip, ChipConfig, EngineOptions, EvalStrategy, FaultEvent, FaultKind, FaultPlan,
    LaneBindings, NonIdealityConfig,
};
use analog_accel::linalg::rng::Rng64;

fn arbitrary_unit(rng: &mut Rng64, max_index: usize) -> UnitId {
    let i = rng.below(max_index);
    match rng.below(8) {
        0 => UnitId::Integrator(i),
        1 => UnitId::Multiplier(i),
        2 => UnitId::Fanout(i),
        3 => UnitId::Adc(i),
        4 => UnitId::Dac(i),
        5 => UnitId::Lut(i),
        6 => UnitId::AnalogInput(i),
        _ => UnitId::AnalogOutput(i),
    }
}

/// Configures an arbitrary committed chip from a seeded stream: random
/// topology (invalid connections skipped), gains, DAC constants, initial
/// conditions, LUT programs, input stimuli, and optionally a drawn process
/// variation. Returns `None` when the random netlist fails commit.
fn arbitrary_chip(rng: &mut Rng64) -> Option<AnalogChip> {
    arbitrary_chip_with(rng, |_| {})
}

/// [`arbitrary_chip`] with `prewire` applied to the fresh chip before the
/// random topology is drawn; `prewire` draws nothing from `rng`.
fn arbitrary_chip_with(
    rng: &mut Rng64,
    prewire: impl FnOnce(&mut AnalogChip),
) -> Option<AnalogChip> {
    let nonideal = if rng.flip() {
        NonIdealityConfig::default().with_seed(rng.next_u64())
    } else {
        NonIdealityConfig::none()
    };
    let mut chip = AnalogChip::new(ChipConfig::ideal().with_nonideal(nonideal));
    prewire(&mut chip);
    for _ in 0..(8 + rng.below(25)) {
        let from = OutputPort {
            unit: arbitrary_unit(rng, 4),
            port: rng.below(3),
        };
        let to = InputPort {
            unit: arbitrary_unit(rng, 4),
            port: rng.below(3),
        };
        let _ = chip.set_conn(from, to);
    }
    for i in 0..4 {
        if rng.flip() {
            let _ = chip.set_mul_gain(i, rng.range(-1.0, 1.0));
        } else {
            let _ = chip.set_mul_variable(i);
        }
        let _ = chip.set_dac_constant(i, rng.range(-0.5, 0.5));
        let _ = chip.set_int_initial(i, rng.range(-0.5, 0.5));
    }
    if rng.flip() {
        let steepness = rng.range(2.0, 10.0);
        let _ = chip.set_function(0, move |x| (steepness * x).tanh());
    }
    if rng.flip() {
        let amplitude = rng.range(0.0, 0.4);
        let _ = chip.set_ana_input_en(0, true);
        let _ = chip.attach_input_signal(0, Box::new(move |t| (3.0e4 * t).sin() * amplitude));
    }
    chip.set_timeout(20 + rng.below(480) as u64);
    chip.cfg_commit().ok()?;
    Some(chip)
}

/// Wires integrators 0 and 1 into the Figure 1 loop — output through a
/// fanout into a multiplier back into its own input, plus a DAC drive, the
/// fanout's second branch tapping an ADC — so every lane integrates for
/// many steps whatever the random topology adds.
fn prewire_loops(chip: &mut AnalogChip) {
    for i in 0..2 {
        let (int, fan, mul) = (
            UnitId::Integrator(i),
            UnitId::Fanout(i),
            UnitId::Multiplier(i),
        );
        let wires = [
            (OutputPort::of(int), InputPort::of(fan)),
            (OutputPort { unit: fan, port: 0 }, InputPort::of(mul)),
            (OutputPort::of(mul), InputPort::of(int)),
            (OutputPort::of(UnitId::Dac(i)), InputPort::of(int)),
            (
                OutputPort { unit: fan, port: 1 },
                InputPort::of(UnitId::Adc(i)),
            ),
        ];
        for (from, to) in wires {
            chip.set_conn(from, to).unwrap();
        }
    }
}

/// Draws a small schedule of mixed transient fault events.
fn arbitrary_plan(rng: &mut Rng64) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.next_u64());
    for _ in 0..(1 + rng.below(3)) {
        let start = rng.range(0.0, 1e-3);
        let duration = rng.range(1e-5, 1e-3);
        let kind = match rng.below(5) {
            0 => FaultKind::NoiseBurst {
                unit: UnitId::Integrator(0),
                amplitude: rng.range(0.0, 0.02),
            },
            1 => FaultKind::OffsetDrift {
                unit: UnitId::Integrator(0),
                magnitude: rng.range(-0.02, 0.02),
                ramp_s: 5e-4,
            },
            2 => FaultKind::GainDrift {
                unit: UnitId::Multiplier(0),
                magnitude: rng.range(-0.05, 0.05),
                ramp_s: 5e-4,
            },
            3 => FaultKind::AdcBitFlip {
                adc: 0,
                bit: rng.below(12) as u32,
            },
            _ => FaultKind::LutCorruption {
                lut: 0,
                entry: rng.below(64),
                value: rng.range(-1.0, 1.0),
            },
        };
        plan.push(FaultEvent::transient(kind, start, duration));
    }
    plan
}

/// Per-lane RHS material: raw (unquantized) DAC constants for the two DACs
/// the ideal inventory provides, plus initial conditions for all four
/// integrators.
type RawLane = (BTreeMap<usize, f64>, BTreeMap<usize, f64>);

fn lane_values(rng: &mut Rng64) -> RawLane {
    let dacs = (0..2).map(|i| (i, rng.range(-0.5, 0.5))).collect();
    let ints = (0..4).map(|i| (i, rng.range(-0.5, 0.5))).collect();
    (dacs, ints)
}

/// Builds lane bindings from raw values the way the solver does: DAC
/// constants pre-quantized through the chip's own DAC model, initial
/// conditions verbatim.
fn bindings_for(chip: &AnalogChip, raw: &[RawLane]) -> Vec<LaneBindings> {
    raw.iter()
        .map(|(dacs, ints)| LaneBindings {
            dac_values: Some(
                dacs.iter()
                    .map(|(&i, &v)| (i, chip.quantize_dac(v)))
                    .collect(),
            ),
            int_initial: Some(ints.clone()),
        })
        .collect()
}

/// The batched path's differential guarantee: every column of a batched run
/// is bit-identical to a sequential run of that lane — reports, exception
/// latches, ADC inputs, waveforms, everything — under both evaluator
/// strategies, with and without active fault plans, at K = 1, every
/// monomorphized lane width and the generic one (K = 3).
///
/// Sequential and batched compiled runs share one RK4 driver and one op-tape
/// executor, so under [`EvalStrategy::Compiled`] each column is also checked
/// against a sequential [`EvalStrategy::Reference`] run: the independent
/// oracle a defect common to both compiled paths cannot slip past.
#[test]
fn batched_exec_is_bit_identical_per_column() {
    // Case `c` runs width `WIDTHS[c % 6]`, so the 24 cases cover every
    // width under every (strategy, fault plan) pairing: the compiled
    // fault-free cases run the unmasked eval body, the faulted ones the
    // masked body.
    const WIDTHS: [usize; 6] = [1, 2, 3, 4, 8, 16];
    let mut rng = Rng64::seed_from_u64(0xba7c4);
    let mut compared = 0;
    let mut attempts = 0;
    while compared < 4 * WIDTHS.len() {
        attempts += 1;
        assert!(attempts < 400, "too few valid random netlists");
        let case_seed = rng.next_u64();
        let k = WIDTHS[compared % WIDTHS.len()];
        let with_faults = (compared / WIDTHS.len()) % 2 == 1;
        let strategy = if compared < 2 * WIDTHS.len() {
            EvalStrategy::Compiled
        } else {
            EvalStrategy::Reference
        };
        let mut lane_rng = Rng64::seed_from_u64(case_seed ^ 0x1a9e);
        let lane_raw: Vec<_> = (0..k).map(|_| lane_values(&mut lane_rng)).collect();

        // Replaying the case seed configures identical chips, so the only
        // difference between the two paths is batched vs sequential.
        let build = || {
            let mut case_rng = Rng64::seed_from_u64(case_seed);
            let mut chip = arbitrary_chip_with(&mut case_rng, prewire_loops)?;
            // A negative gain on loop 0 keeps one state settling (lanes
            // retire at different steps) or mid-transient at the timeout,
            // where any arithmetic defect shows in the report.
            chip.set_mul_gain(0, -0.75).unwrap();
            chip.cfg_commit().ok()?;
            if with_faults {
                chip.inject_fault_plan(arbitrary_plan(&mut case_rng));
            }
            Some(chip)
        };
        let options = EngineOptions {
            steady_tol: Some(1e-6),
            max_tau: 100.0,
            eval_strategy: strategy,
            ..EngineOptions::default()
        };

        let Some(mut batch_chip) = build() else {
            continue; // random netlist failed commit — not a comparison case
        };
        let lanes = bindings_for(&batch_chip, &lane_raw);
        let batch = batch_chip
            .exec_batch(&lanes, &options)
            .unwrap_or_else(|e| panic!("batch failed (case seed {case_seed:#x}): {e}"));
        assert_eq!(batch.reports.len(), k);

        let noise_start = batch_chip.noise_rng_state();
        for (j, (dacs, ints)) in lane_raw.iter().enumerate() {
            let mut seq_chip = build().expect("same seed committed once already");
            for (&i, &v) in dacs {
                seq_chip.set_dac_constant(i, v).unwrap();
            }
            for (&i, &v) in ints {
                seq_chip.set_int_initial(i, v).unwrap();
            }
            seq_chip.cfg_commit().unwrap();
            let seq = seq_chip.exec(&options).unwrap_or_else(|e| {
                panic!("sequential lane {j} failed (case {case_seed:#x}): {e}")
            });
            assert_eq!(
                batch.reports[j], seq,
                "batched lane diverged from sequential (case seed {case_seed:#x}, lane {j}/{k})"
            );
            if strategy == EvalStrategy::Compiled {
                let mut ref_chip = build().expect("same seed committed once already");
                for (&i, &v) in dacs {
                    ref_chip.set_dac_constant(i, v).unwrap();
                }
                for (&i, &v) in ints {
                    ref_chip.set_int_initial(i, v).unwrap();
                }
                ref_chip.cfg_commit().unwrap();
                let reference = ref_chip
                    .exec(&EngineOptions {
                        eval_strategy: EvalStrategy::Reference,
                        ..options.clone()
                    })
                    .unwrap_or_else(|e| {
                        panic!("reference lane {j} failed (case {case_seed:#x}): {e}")
                    });
                assert_eq!(
                    batch.reports[j], reference,
                    "batched lane diverged from the reference evaluator \
                     (case seed {case_seed:#x}, lane {j}/{k})"
                );
            }

            // Readout equality: staging the lane and matching the noise
            // stream makes every ADC conversion identical too.
            batch_chip.select_lane(&batch, j).unwrap();
            batch_chip.set_noise_rng_state(noise_start);
            let batched_read = batch_chip.analog_avg(0, 4).unwrap();
            let sequential_read = seq_chip.analog_avg(0, 4).unwrap();
            assert_eq!(
                batched_read, sequential_read,
                "lane readout diverged (case seed {case_seed:#x}, lane {j})"
            );
            assert_eq!(batch_chip.read_exp(), seq_chip.read_exp());
        }
        batch_chip.finish_batch(&batch);
        compared += 1;
    }
}

/// Batching from a warm chip: a prior run has advanced the lifetime clock,
/// so fault windows sit mid-schedule. Every lane must still match a
/// sequential run issued from the same instant.
#[test]
fn batched_exec_matches_sequential_from_advanced_lifetime() {
    let mut rng = Rng64::seed_from_u64(0x11f37);
    let options = EngineOptions {
        steady_tol: Some(1e-6),
        max_tau: 100.0,
        ..EngineOptions::default()
    };
    let mut compared = 0;
    let mut attempts = 0;
    while compared < 6 {
        attempts += 1;
        assert!(attempts < 120, "too few valid random netlists");
        let case_seed = rng.next_u64();
        let mut lane_rng = Rng64::seed_from_u64(case_seed ^ 0x77);
        let lane_raw: Vec<_> = (0..3).map(|_| lane_values(&mut lane_rng)).collect();
        let build = || {
            let mut case_rng = Rng64::seed_from_u64(case_seed);
            let mut chip = arbitrary_chip(&mut case_rng)?;
            chip.inject_fault_plan(arbitrary_plan(&mut case_rng));
            Some(chip)
        };

        let Some(mut batch_chip) = build() else {
            continue;
        };
        // Warm up: one sequential run advances the fault-plan clock.
        if batch_chip.exec(&options).is_err() {
            continue;
        }
        let lanes = bindings_for(&batch_chip, &lane_raw);
        let batch = batch_chip.exec_batch(&lanes, &options).unwrap();

        for (j, (dacs, ints)) in lane_raw.iter().enumerate() {
            let mut seq_chip = build().expect("same seed committed once already");
            seq_chip.exec(&options).unwrap();
            for (&i, &v) in dacs {
                seq_chip.set_dac_constant(i, v).unwrap();
            }
            for (&i, &v) in ints {
                seq_chip.set_int_initial(i, v).unwrap();
            }
            seq_chip.cfg_commit().unwrap();
            let seq = seq_chip.exec(&options).unwrap();
            assert_eq!(
                batch.reports[j], seq,
                "warm-chip batch lane diverged (case seed {case_seed:#x}, lane {j})"
            );
        }
        compared += 1;
    }
}

/// Degenerate and error cases: an empty batch is a no-op, lane values are
/// range-checked up front, and staging a lane that does not exist is a
/// protocol violation.
#[test]
fn batch_edge_cases() {
    let mut chip = AnalogChip::new(ChipConfig::ideal());
    let int0 = UnitId::Integrator(0);
    let dac0 = UnitId::Dac(0);
    chip.set_conn(OutputPort::of(dac0), InputPort::of(int0))
        .unwrap();
    chip.set_int_initial(0, 0.0).unwrap();
    chip.set_dac_constant(0, 0.25).unwrap();
    chip.set_timeout(50);
    chip.cfg_commit().unwrap();

    let empty = chip.exec_batch(&[], &EngineOptions::default()).unwrap();
    assert!(empty.reports.is_empty());
    assert_eq!(empty.duration_s(), 0.0);
    assert!(chip.select_lane(&empty, 0).is_err());

    let out_of_range = LaneBindings {
        dac_values: Some([(0usize, 7.5f64)].into_iter().collect()),
        int_initial: None,
    };
    assert!(chip
        .exec_batch(
            std::slice::from_ref(&out_of_range),
            &EngineOptions::default()
        )
        .is_err());

    // A lane with no overrides at all replays the committed registers.
    let passthrough = chip
        .exec_batch(&[LaneBindings::default()], &EngineOptions::default())
        .unwrap();
    let mut twin = AnalogChip::new(ChipConfig::ideal());
    twin.set_conn(OutputPort::of(dac0), InputPort::of(int0))
        .unwrap();
    twin.set_int_initial(0, 0.0).unwrap();
    twin.set_dac_constant(0, 0.25).unwrap();
    twin.set_timeout(50);
    twin.cfg_commit().unwrap();
    let sequential = twin.exec(&EngineOptions::default()).unwrap();
    assert_eq!(passthrough.reports[0], sequential);
}

/// The solver's batched entry: a shared-γ batch solves in-range columns in
/// one sweep (`runs == 1`, no rescale walks) and routes columns its shared
/// scaling cannot serve to a typed `Fallback` instead of perturbing γ.
#[test]
fn solver_batch_solves_columns_and_routes_overflow_to_fallback() {
    use analog_accel::linalg::{vector, CsrMatrix, LinearOperator};
    use analog_accel::solver::{AnalogSystemSolver, BatchColumn, SolverConfig};

    let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap();
    let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
    let bs = vec![
        vec![1.0, 0.0, 0.0, 1.0],
        // Far beyond the DAC full scale at the entry γ: the batch must not
        // grow headroom mid-sweep, so this column falls back.
        vec![40.0, -25.0, 10.0, 55.0],
        vec![0.8, -0.2, 0.4, 1.0],
    ];
    let columns = solver.solve_batch(&bs).unwrap();
    assert_eq!(columns.len(), 3);
    match &columns[1] {
        BatchColumn::Fallback(reason) => assert_eq!(*reason, "rhs_overflow"),
        other => panic!("expected rhs_overflow fallback, got {other:?}"),
    }
    for idx in [0usize, 2] {
        match &columns[idx] {
            BatchColumn::Solved(report) => {
                assert_eq!(report.runs, 1, "column {idx} solved in the one sweep");
                assert_eq!(report.overflow_retries, 0);
                let rel = vector::norm2(&a.residual(&report.solution, &bs[idx]))
                    / vector::norm2(&bs[idx]);
                assert!(rel < 1e-2, "column {idx}: rel residual {rel}");
            }
            other => panic!("column {idx}: expected Solved, got {other:?}"),
        }
    }

    // Structural misuse is a batch-level error, not a per-column verdict.
    assert!(solver.solve_batch(&[vec![1.0; 3]]).is_err());
    assert!(solver.solve_batch(&[]).unwrap().is_empty());
}

/// The supervised batched entry answers *every* column: batch-certified
/// columns come back as single-attempt analog reports, and columns the
/// batch could not serve are re-solved through the full recovery ladder.
#[test]
fn supervised_batch_answers_every_column() {
    use analog_accel::linalg::CsrMatrix;
    use analog_accel::solver::{FinalPath, RecoveryConfig, SolverConfig, SupervisedSolver};

    let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap();
    let mut solver =
        SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default()).unwrap();
    let bs = vec![
        vec![1.0, 0.0, 0.0, 1.0],
        vec![40.0, -25.0, 10.0, 55.0], // overflows the batch's shared γ
        vec![0.8, -0.2, 0.4, 1.0],
    ];
    let results = solver.solve_batch(&bs);
    assert_eq!(results.len(), 3);
    for (idx, result) in results.iter().enumerate() {
        let report = result.as_ref().expect("every column answered");
        assert!(
            report.recovery.final_residual <= RecoveryConfig::default().residual_tolerance,
            "column {idx}: residual {}",
            report.recovery.final_residual
        );
        assert_eq!(
            report.recovery.final_path,
            FinalPath::Analog,
            "column {idx}"
        );
    }
    // Batch-certified columns took exactly one (accepted) attempt.
    for idx in [0usize, 2] {
        let report = results[idx].as_ref().unwrap();
        assert_eq!(report.recovery.attempts.len(), 1, "column {idx}");
    }
}
