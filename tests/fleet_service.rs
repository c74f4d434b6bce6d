//! End-to-end fleet serving tests: a three-chip fleet where one chip
//! carries a persistent stuck-at-rail fault must quarantine that chip,
//! redistribute its traffic, and still answer every accepted request
//! within the residual tolerance — plus typed admission backpressure.

use analog_accel::analog::units::UnitId;
use analog_accel::analog::EngineOptions;
use analog_accel::prelude::*;
use analog_accel::sched::{ChipState, ScheduleEvent};
use analog_accel::solver::RecoveryConfig;

/// A fleet solver template that latches stuck-at-rail faults as exceptions
/// quickly and keeps per-solve recovery short.
fn faultable_fleet(chips: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(chips).with_seed(0xF1EE7);
    cfg.solver.engine = EngineOptions {
        stop_on_exception: true,
        max_tau: 300.0,
        ..EngineOptions::default()
    };
    cfg.recovery = RecoveryConfig {
        max_attempts: 2,
        ..RecoveryConfig::default()
    };
    cfg.batch_size = 2;
    cfg
}

fn stuck_at_rail() -> FaultPlan {
    FaultPlan::new(99).with_event(FaultEvent::persistent(
        FaultKind::StuckAtRail {
            integrator: 0,
            rail: Rail::Positive,
        },
        0.0,
    ))
}

#[test]
fn faulty_chip_is_quarantined_and_traffic_redistributes() {
    let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap();
    let config = faultable_fleet(3).with_fault_plan(1, stuck_at_rail());
    let tolerance = config.recovery.residual_tolerance;
    let mut fleet = FleetService::new(config, vec![a]).unwrap();

    let mut tickets = Vec::new();
    for i in 0..18 {
        let rhs = vec![1.0 + 0.1 * i as f64, -0.5, 0.25, 1.0];
        tickets.push(fleet.submit(SolveRequest::new(0, rhs)).unwrap());
    }
    let completed = fleet.run_until_idle();
    assert_eq!(completed, 18, "every admitted request is answered");

    // The faulty chip was quarantined; the healthy chips were not.
    let quarantine_round = fleet
        .log()
        .events
        .iter()
        .find_map(|e| match e {
            ScheduleEvent::Quarantined { chip: 1, round } => Some(*round),
            _ => None,
        })
        .expect("chip 1 must be quarantined");
    assert!(
        matches!(fleet.health()[1].state, ChipState::Quarantined { .. })
            || fleet.health()[1].quarantines > 0,
        "chip 1 left rotation: {:?}",
        fleet.health()[1]
    );
    assert_eq!(fleet.health()[0].quarantines, 0);
    assert_eq!(fleet.health()[2].quarantines, 0);

    // Traffic redistributes: chip 1 gets no regular batches after the
    // quarantine round (a single probation probe is the only exception),
    // while the healthy chips keep serving.
    let mut chip1_after = 0;
    let mut healthy_after = 0;
    let mut probes = 0;
    for e in &fleet.log().events {
        match e {
            ScheduleEvent::Dispatched {
                round,
                chip,
                tickets,
            } if *round > quarantine_round => {
                if *chip == 1 {
                    chip1_after += 1;
                    assert_eq!(tickets.len(), 1, "probation probes carry one request");
                    probes += 1;
                } else {
                    healthy_after += tickets.len();
                }
            }
            _ => {}
        }
    }
    assert!(healthy_after > 0, "healthy chips keep serving");
    assert!(
        chip1_after == probes,
        "chip 1 sees only probation probes after quarantine"
    );

    // Zero failed-but-accepted requests: every ticket resolved within the
    // supervisor's residual tolerance.
    for ticket in tickets {
        let done = fleet.completion(ticket).expect("accepted ⇒ answered");
        assert!(
            done.residual <= tolerance,
            "ticket {:?} residual {} exceeds {}",
            ticket,
            done.residual,
            tolerance
        );
    }

    // The faulty chip's solves all degraded to a fallback path; the
    // healthy chips served analog.
    let faulty: Vec<_> = fleet
        .log()
        .events
        .iter()
        .filter_map(|e| match e {
            ScheduleEvent::Completed {
                chip: Some(1),
                path,
                ..
            } => Some(*path),
            _ => None,
        })
        .collect();
    assert!(!faulty.is_empty());
    assert!(
        faulty.iter().all(|p| !p.is_analog()),
        "stuck-at-rail can never pass validation: {faulty:?}"
    );
    let analog_served = fleet
        .log()
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                ScheduleEvent::Completed { chip: Some(c), path, .. }
                if *c != 1 && path.is_analog()
            )
        })
        .count();
    assert!(analog_served > 0, "healthy chips answer on the analog path");

    // Energy was accounted for the served class.
    assert!(fleet.log().energy_per_request_j(Priority::Normal).unwrap() > 0.0);
}

#[test]
fn queue_full_backpressure_is_typed_and_recoverable() {
    let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap();
    let mut fleet = FleetService::new(FleetConfig::new(1).with_queue_capacity(3), vec![a]).unwrap();
    for _ in 0..3 {
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
    }
    // The 4th is rejected — typed, not a panic — and nothing is lost.
    match fleet.submit(SolveRequest::new(0, vec![1.0; 4])) {
        Err(Rejected::QueueFull {
            capacity,
            retry_after_s,
        }) => {
            assert_eq!(capacity, 3);
            assert!(
                retry_after_s > 0.0,
                "a full queue predicts a positive drain time"
            );
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(fleet.queue_depth(), 3);
    // After the fleet drains, submission works again.
    fleet.run_until_idle();
    assert_eq!(fleet.queue_depth(), 0);
    fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
    fleet.run_until_idle();
    assert_eq!(fleet.log().completed(), 4);
    assert_eq!(fleet.log().rejected, 1);
}

#[test]
fn all_chips_quarantined_still_serves_digitally() {
    let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap();
    let config = faultable_fleet(1).with_fault_plan(0, stuck_at_rail());
    let mut fleet = FleetService::new(config, vec![a]).unwrap();
    let mut tickets = Vec::new();
    for _ in 0..10 {
        tickets.push(fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap());
    }
    fleet.run_until_idle();
    // The lone chip is quarantined mid-stream; the dispatcher's digital
    // lane keeps the service live.
    assert!(fleet.health()[0].quarantines > 0);
    let digital_only = tickets
        .iter()
        .filter(|t| fleet.completion(**t).unwrap().path == CompletionPath::DigitalOnly)
        .count();
    assert!(digital_only > 0, "digital lane served the tail");
    for t in &tickets {
        assert!(fleet.completion(*t).is_some());
    }
}

#[test]
fn probation_readmits_a_recovered_chip() {
    // A noise burst that outlives the quarantine decision but expires on
    // the chip's lifetime clock (~5.8 ms burn per failed solve): the chip
    // fails early requests, gets quarantined, probes dirty while the
    // window is still open, then probes clean and rejoins the rotation.
    // It hits two integrators: a supervised run stops once every
    // derivative is within its residual target, and one noisy integrator
    // passes through zero often enough to let a run stop mid-burst.
    let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap();
    let burst = |integrator| {
        FaultEvent::transient(
            FaultKind::NoiseBurst {
                unit: UnitId::Integrator(integrator),
                amplitude: 0.2,
            },
            0.0,
            0.03,
        )
    };
    let transient = FaultPlan::new(5).with_event(burst(0)).with_event(burst(1));
    let serve = |config: FleetConfig| {
        let mut fleet = FleetService::new(config, vec![a.clone()]).unwrap();
        for _ in 0..40 {
            fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        }
        fleet.run_until_idle();
        fleet
    };
    let quarantines = |fleet: &FleetService| {
        fleet
            .log()
            .events
            .iter()
            .filter(|e| matches!(e, ScheduleEvent::Quarantined { chip: 0, .. }))
            .count()
    };
    // The premise: quarantine is the burst's doing. The same fleet without
    // it keeps chip 0 in rotation.
    assert_eq!(quarantines(&serve(faultable_fleet(2))), 0);
    let mut config = faultable_fleet(2).with_fault_plan(0, transient);
    config.health.readmit_after_rounds = 1;
    let fleet = serve(config);
    let quarantined = quarantines(&fleet) > 0;
    let readmitted = fleet
        .log()
        .events
        .iter()
        .any(|e| matches!(e, ScheduleEvent::Readmitted { chip: 0, .. }));
    assert!(quarantined, "chip 0 fails while the fault window is open");
    assert!(
        readmitted,
        "chip 0 rejoins once its fault window expired: {:?}",
        fleet.log().lines()
    );
    assert_eq!(fleet.log().completed(), 40);
}
