//! Failure-injection tests: the architecture's error paths under hostile
//! conditions — bad dies, overflowing problems, indefinite matrices,
//! resource exhaustion, protocol misuse.

use analog_accel::analog::netlist::{InputPort, OutputPort};
use analog_accel::analog::units::UnitId;
use analog_accel::obs;
use analog_accel::prelude::*;
use analog_accel::solver::SolverError;

/// A die whose process variation exceeds the trim range fails calibration —
/// and the solver surfaces it rather than silently computing garbage.
#[test]
fn bad_die_fails_calibration() {
    let bad = analog_accel::analog::NonIdealityConfig {
        offset_std: 0.5, // far beyond the ±0.08 trim range
        gain_error_std: 0.0,
        readout_noise_std: 0.0,
        seed: 9,
    };
    let cfg = SolverConfig {
        nonideal: bad,
        calibrate: true,
        ..SolverConfig::ideal()
    };
    let a = CsrMatrix::tridiagonal(3, -1.0, 2.0, -1.0).unwrap();
    let result = AnalogSystemSolver::new(&a, &cfg);
    assert!(
        matches!(result, Err(SolverError::Analog(_))),
        "expected a calibration failure, got {result:?}"
    );
}

/// An indefinite matrix makes the gradient flow diverge: the exception /
/// no-steady-state machinery reports it instead of hanging.
#[test]
fn indefinite_system_is_reported() {
    let a = CsrMatrix::from_triplets(
        2,
        &[
            Triplet::new(0, 0, 1.0),
            Triplet::new(0, 1, 0.9),
            Triplet::new(1, 0, 0.9),
            Triplet::new(1, 1, -1.0),
        ],
    )
    .unwrap();
    let cfg = SolverConfig {
        max_rescale_attempts: 3,
        ..SolverConfig::ideal()
    };
    let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
    let result = solver.solve(&[0.2, 0.2]);
    assert!(
        matches!(
            result,
            Err(SolverError::NoSteadyState { .. }) | Err(SolverError::RescaleExhausted { .. })
        ),
        "got {result:?}"
    );
}

/// Exhausting the prototype's four integrators is a structured error.
#[test]
fn prototype_resource_exhaustion() {
    let mut chip = AnalogChip::new(ChipConfig::prototype());
    // The prototype has 4 integrators; int4 does not exist.
    let err = chip
        .set_conn(
            OutputPort::of(UnitId::Integrator(4)),
            InputPort::of(UnitId::Fanout(0)),
        )
        .unwrap_err();
    assert!(err.to_string().contains("int4"), "{err}");
    // And only 8 multipliers.
    assert!(chip.set_mul_gain(8, 0.5).is_err());
}

/// Protocol misuse: running before committing, and committing an algebraic
/// loop, both fail loudly.
#[test]
fn protocol_violations_are_loud() {
    let mut chip = AnalogChip::new(ChipConfig::ideal());
    assert!(chip.exec(&Default::default()).is_err());

    // A memoryless cycle: mul0 → mul1 → mul0.
    chip.set_conn(
        OutputPort::of(UnitId::Multiplier(0)),
        InputPort::of(UnitId::Multiplier(1)),
    )
    .unwrap();
    chip.set_conn(
        OutputPort::of(UnitId::Multiplier(1)),
        InputPort::of(UnitId::Multiplier(0)),
    )
    .unwrap();
    let err = chip.cfg_commit().unwrap_err();
    assert!(err.to_string().contains("algebraic loop"), "{err}");
}

/// Overflow exceptions are visible to the host through `readExp` after a
/// run that drives an integrator into the rails.
#[test]
fn overflow_is_latched_and_readable() {
    let mut host = Host::new(AnalogChip::new(ChipConfig::ideal()));
    // Positive feedback: du/dt = +u from 0.5 → slams into the +1 rail.
    let program = vec![
        Instruction::SetConn {
            from: OutputPort::of(UnitId::Integrator(0)),
            to: InputPort::of(UnitId::Multiplier(0)),
        },
        Instruction::SetConn {
            from: OutputPort::of(UnitId::Multiplier(0)),
            to: InputPort::of(UnitId::Integrator(0)),
        },
        Instruction::SetMulGain {
            multiplier: 0,
            gain: 1.0,
        },
        Instruction::SetIntInitial {
            integrator: 0,
            value: 0.5,
        },
        Instruction::SetTimeout { cycles: 2_000 },
        Instruction::CfgCommit,
        Instruction::ExecStart,
        Instruction::ReadExp,
    ];
    let responses = host.run_program(&program).unwrap();
    let Response::Exceptions(bytes) = responses.last().unwrap() else {
        panic!("expected exception vector");
    };
    assert!(
        bytes.iter().any(|b| *b != 0),
        "overflow must set a latch bit"
    );
    assert!(host.chip().exceptions().is_latched(UnitId::Integrator(0)));
}

/// A pathological rhs (max f64) cannot crash the solver: scaling absorbs it
/// or a structured error is returned.
#[test]
fn extreme_magnitudes_are_handled() {
    let a = CsrMatrix::tridiagonal(3, -1e12, 3e12, -1e12).unwrap();
    let b = vec![5e11, -2e11, 7e11];
    let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
    let report = solver.solve(&b).unwrap();
    let exact = analog_accel::linalg::direct::solve(&a.to_dense(), &b).unwrap();
    let scale = exact.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
    for (x, e) in report.solution.iter().zip(&exact) {
        assert!((x - e).abs() / scale < 0.01, "{x} vs {e}");
    }
    // Value scaling absorbed the 1e12 coefficients.
    assert!(report.value_factor > 1e11);
}

/// Zero-length and mismatched inputs never panic across the public API.
#[test]
fn shape_errors_are_structured_everywhere() {
    let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap();
    let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
    assert!(solver.solve(&[]).is_err());
    assert!(solver.solve(&[1.0; 5]).is_err());
    assert!(solve_refined(&mut solver, &[1.0; 2], &RefineConfig::default()).is_err());
    assert!(solve_decomposed(&a, &[1.0; 3], &DecomposeConfig::default()).is_err());
}

/// A solver config whose settle cap is short enough that faulted runs fail
/// fast instead of integrating for hundreds of thousands of time constants.
fn faultable_config() -> SolverConfig {
    SolverConfig {
        engine: EngineOptions {
            stop_on_exception: true,
            max_tau: 300.0,
            ..EngineOptions::default()
        },
        ..SolverConfig::ideal()
    }
}

/// End-to-end acceptance: a transient noise burst hits mid-run, the
/// supervisor retries with an idle cool-down until the window expires, and
/// the returned solution passes an independent digital residual check.
///
/// The burst hits two integrators with independent noise: a supervised run
/// stops as soon as every derivative is within its residual target (the
/// tolerance less the readout floor), and one noisy integrator alone, or
/// two at amplitude 0.1, pass through zero often enough to let that
/// happen mid-burst.
#[test]
fn mid_run_transient_fault_is_recovered_end_to_end() {
    let a = CsrMatrix::tridiagonal(3, -1.0, 2.0, -1.0).unwrap();
    let b = vec![1.0, 0.0, 1.0];
    let window_s = 2.5e-3;
    let burst = |integrator| {
        FaultEvent::transient(
            FaultKind::NoiseBurst {
                unit: UnitId::Integrator(integrator),
                amplitude: 0.2,
            },
            0.0,
            window_s,
        )
    };
    let mut solver =
        SupervisedSolver::new(&a, &faultable_config(), &RecoveryConfig::default()).unwrap();
    solver.inject_faults(FaultPlan::new(77).with_event(burst(1)).with_event(burst(2)));
    let report = solver.solve(&b).unwrap();
    assert_eq!(report.recovery.final_path, FinalPath::AnalogAfterRecovery);
    assert!(
        report.recovery.rejected_attempts() >= 1,
        "the burst must cost at least one attempt"
    );
    // The premise: the rejected attempt is the burst's doing. The burst
    // kept it from settling inside the window, and the same solve on a
    // chip without the burst is accepted on its first attempt.
    assert_eq!(
        report.recovery.attempts[0].classification,
        Some(FailureClass::NoSettle),
        "{:#?}",
        report.recovery
    );
    assert!(report.recovery.attempts[0].analog_time_s <= window_s);
    let mut healthy =
        SupervisedSolver::new(&a, &faultable_config(), &RecoveryConfig::default()).unwrap();
    assert_eq!(
        healthy.solve(&b).unwrap().recovery.final_path,
        FinalPath::Analog
    );
    // Independent check, not the supervisor's own bookkeeping.
    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(a.residual_norm(&report.solution, &b) / b_norm < 1e-2);
}

/// Replay determinism end to end: the same seed and fault plan produce
/// bit-identical recovery reports and solutions (report equality ignores
/// host wall-clock timings).
#[test]
fn recovery_reports_replay_bit_identically() {
    let a = CsrMatrix::tridiagonal(3, -1.0, 2.0, -1.0).unwrap();
    let b = vec![0.5, 1.0, -0.25];
    let plan = FaultPlan::new(1234)
        .with_event(FaultEvent::transient(
            FaultKind::NoiseBurst {
                unit: UnitId::Integrator(0),
                amplitude: 0.04,
            },
            0.0,
            2.5e-3,
        ))
        .with_event(FaultEvent::transient(
            FaultKind::OffsetDrift {
                unit: UnitId::Integrator(2),
                magnitude: 0.03,
                ramp_s: 1e-4,
            },
            3e-3,
            4e-3,
        ));
    let run = || {
        let mut solver =
            SupervisedSolver::new(&a, &faultable_config(), &RecoveryConfig::default()).unwrap();
        solver.inject_faults(plan.clone());
        solver.solve(&b).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first.recovery, second.recovery);
    assert_eq!(first.solution, second.solution);
    assert_eq!(first.analog, second.analog);
}

/// The full fault matrix on a 3×3 Poisson system: every fault kind is either
/// recovered from (analog or digital path) or surfaced as a structured
/// error — never a panic, never a silently wrong answer.
#[test]
fn every_fault_kind_is_recovered_or_reported() {
    let a = CsrMatrix::tridiagonal(3, -1.0, 2.0, -1.0).unwrap();
    let b = vec![1.0, 0.5, 1.0];
    let b_norm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    let events = vec![
        FaultEvent::transient(
            FaultKind::OffsetDrift {
                unit: UnitId::Integrator(1),
                magnitude: 0.05,
                ramp_s: 1e-4,
            },
            0.0,
            5e-3,
        ),
        FaultEvent::transient(
            FaultKind::GainDrift {
                unit: UnitId::Multiplier(0),
                magnitude: 0.1,
                ramp_s: 1e-4,
            },
            0.0,
            5e-3,
        ),
        FaultEvent::transient(
            FaultKind::NoiseBurst {
                unit: UnitId::Integrator(0),
                amplitude: 0.05,
            },
            0.0,
            2.5e-3,
        ),
        FaultEvent::persistent(
            FaultKind::StuckAtRail {
                integrator: 0,
                rail: Rail::Positive,
            },
            0.0,
        ),
        FaultEvent::transient(FaultKind::AdcBitFlip { adc: 0, bit: 11 }, 0.0, 4e-3),
        FaultEvent::persistent(FaultKind::SpiBitFlip { byte: 2, bit: 5 }, 0.0),
        FaultEvent::persistent(
            FaultKind::LutCorruption {
                lut: 0,
                entry: 10,
                value: 0.9,
            },
            0.0,
        ),
    ];
    for event in events {
        let label = format!("{event:?}");
        let mut solver =
            SupervisedSolver::new(&a, &faultable_config(), &RecoveryConfig::default()).unwrap();
        solver.inject_faults(FaultPlan::new(5).with_event(event));
        match solver.solve(&b) {
            Ok(report) => {
                // Whatever path was taken, the answer must actually be good.
                let residual = a.residual_norm(&report.solution, &b) / b_norm;
                assert!(residual < 1e-2, "{label}: residual {residual:.3e}");
            }
            Err(e) => {
                // Acceptable only as a structured solver error.
                assert!(
                    matches!(
                        e,
                        SolverError::RecoveryExhausted { .. }
                            | SolverError::NoSteadyState { .. }
                            | SolverError::RescaleExhausted { .. }
                            | SolverError::Analog(_)
                    ),
                    "{label}: unexpected error {e:?}"
                );
            }
        }
    }
}

/// The `action=` field of every `solver.recovery.attempt` event, in order.
fn recovery_actions(snapshot: &TraceSnapshot) -> Vec<String> {
    snapshot
        .events()
        .filter(|e| e.kind == "solver.recovery.attempt")
        .map(|e| {
            e.field("action")
                .expect("attempt event carries an action")
                .to_string()
        })
        .collect()
}

/// The `path=` field of the single `solver.recovery.final` event.
fn final_recovery_path(snapshot: &TraceSnapshot) -> String {
    let finals: Vec<_> = snapshot
        .events()
        .filter(|e| e.kind == "solver.recovery.final")
        .collect();
    assert_eq!(finals.len(), 1, "exactly one final event per solve");
    finals[0]
        .field("path")
        .expect("final event carries a path")
        .to_string()
}

/// Golden escalation ladder: a persistent offset drift far beyond the ±0.08
/// trim range defeats every analog recovery rung in the documented order —
/// cool-down retry, recalibration, remap onto a fresh instance, one last
/// retry — before the supervisor hands the problem to digital CG. The
/// structured event journal records exactly that ladder, and a replay of
/// the same fault plan reproduces it line for line.
#[test]
fn recovery_ladder_journal_matches_golden_sequence() {
    if !obs::ENABLED {
        return;
    }
    let a = CsrMatrix::tridiagonal(3, -1.0, 2.0, -1.0).unwrap();
    let b = [1.0, 0.5, 1.0];
    let run = || {
        let rec = MemoryRecorder::shared();
        let report = obs::with_recorder(rec.clone(), || {
            let mut solver =
                SupervisedSolver::new(&a, &faultable_config(), &RecoveryConfig::default()).unwrap();
            solver.inject_faults(FaultPlan::new(3).with_event(FaultEvent::persistent(
                FaultKind::OffsetDrift {
                    unit: UnitId::Multiplier(0),
                    magnitude: 0.3,
                    ramp_s: 0.0,
                },
                0.0,
            )));
            solver.solve(&b).unwrap()
        });
        (report, rec.snapshot())
    };
    let (report, snapshot) = run();
    assert_eq!(report.recovery.final_path, FinalPath::DigitalFallback);
    assert_eq!(
        recovery_actions(&snapshot),
        [
            "retry",
            "recalibrate",
            "remap",
            "retry",
            "digital_fallback",
            "cg_fallback"
        ],
        "journal:\n{}",
        snapshot.deterministic_lines().join("\n")
    );
    assert_eq!(final_recovery_path(&snapshot), "digital_fallback");
    assert_eq!(snapshot.counter("solver.recovery.recalibrations"), 1);
    assert_eq!(snapshot.counter("solver.recovery.remaps"), 1);
    assert_eq!(snapshot.counter("solver.recovery.rejected_attempts"), 5);
    // Replay: same fault plan, bit-identical journal.
    let (_, replay) = run();
    assert_eq!(snapshot.deterministic_lines(), replay.deterministic_lines());
}

/// The happy half of the ladder: a drift *within* the trim range costs one
/// cool-down retry, is trimmed out by the recalibration rung, and the next
/// attempt is accepted — the journal stops at `recalibrate → accept` with
/// no remap and no fallback.
#[test]
fn recalibration_rung_cures_trimmable_drift() {
    if !obs::ENABLED {
        return;
    }
    let a = CsrMatrix::tridiagonal(3, -1.0, 2.0, -1.0).unwrap();
    let b = [1.0, 0.5, 1.0];
    let rec = MemoryRecorder::shared();
    let report = obs::with_recorder(rec.clone(), || {
        let mut solver =
            SupervisedSolver::new(&a, &faultable_config(), &RecoveryConfig::default()).unwrap();
        solver.inject_faults(FaultPlan::new(3).with_event(FaultEvent::persistent(
            FaultKind::OffsetDrift {
                unit: UnitId::Multiplier(0),
                magnitude: 0.05,
                ramp_s: 0.0,
            },
            0.0,
        )));
        solver.solve(&b).unwrap()
    });
    let snapshot = rec.snapshot();
    assert_eq!(report.recovery.final_path, FinalPath::AnalogAfterRecovery);
    assert_eq!(
        recovery_actions(&snapshot),
        ["retry", "recalibrate", "accept"],
        "journal:\n{}",
        snapshot.deterministic_lines().join("\n")
    );
    assert_eq!(final_recovery_path(&snapshot), "analog_after_recovery");
    assert_eq!(snapshot.counter("solver.recovery.recalibrations"), 1);
    assert_eq!(snapshot.counter("solver.recovery.remaps"), 0);
}

/// A persistent stuck-at-rail integrator cannot be retried away: the
/// supervisor remaps once, then degrades gracefully to the digital fallback.
#[test]
fn persistent_fault_degrades_to_digital_fallback() {
    let a = CsrMatrix::tridiagonal(3, -1.0, 2.0, -1.0).unwrap();
    let recovery = RecoveryConfig {
        max_attempts: 3,
        ..RecoveryConfig::default()
    };
    let mut solver = SupervisedSolver::new(&a, &faultable_config(), &recovery).unwrap();
    solver.inject_faults(FaultPlan::new(0).with_event(FaultEvent::persistent(
        FaultKind::StuckAtRail {
            integrator: 1,
            rail: Rail::Negative,
        },
        0.0,
    )));
    let b = vec![1.0, 1.0, 1.0];
    let report = solver.solve(&b).unwrap();
    assert_eq!(report.recovery.final_path, FinalPath::DigitalFallback);
    assert!(report.recovery.remaps >= 1);
    assert!(report
        .recovery
        .attempts
        .iter()
        .any(|attempt| attempt.classification.is_some()));
    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(a.residual_norm(&report.solution, &b) / b_norm < 1e-6);
}
