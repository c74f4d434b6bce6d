//! Runtime faults and supervised recovery.
//!
//! A deterministic fault schedule is injected into the chip model, and the
//! `SupervisedSolver` reacts the way the paper's host processor is designed
//! to (§III-B): validate every analog result digitally, classify the
//! failure, refine a near miss once (the paper's Algorithm 2), and
//! otherwise escalate — retry after an idle cool-down, recalibrate, remap,
//! and finally degrade to a digital CG solve.
//!
//! Run with: `cargo run --release --example fault_recovery`

use analog_accel::analog::units::UnitId;
use analog_accel::prelude::*;

fn describe(report: &analog_accel::solver::SupervisedSolveReport) {
    for a in &report.recovery.attempts {
        let outcome = match a.residual {
            Some(r) => format!("residual {r:.3e}"),
            None => a.error.clone().unwrap_or_default(),
        };
        let class = a
            .classification
            .map(|c| format!("{c:?}"))
            .unwrap_or_else(|| "ok".into());
        println!(
            "  attempt {}: {class:<18} -> {:?}  ({outcome})",
            a.attempt, a.action
        );
    }
    println!(
        "  path: {:?}, recalibrations: {}, remaps: {}, cooldown: {:.2} ms, analog time: {:.3} ms",
        report.recovery.final_path,
        report.recovery.recalibrations,
        report.recovery.remaps,
        report.recovery.total_cooldown_s * 1e3,
        report.recovery.analog_time_s() * 1e3,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let a = CsrMatrix::tridiagonal(3, -1.0, 2.0, -1.0)?;
    let b = vec![1.0, 0.0, 1.0];
    let cfg = SolverConfig {
        engine: EngineOptions {
            stop_on_exception: true,
            max_tau: 300.0,
            ..EngineOptions::default()
        },
        ..SolverConfig::ideal()
    };

    // A burst on every integrator in the first 2.5 ms of chip lifetime
    // keeps the derivative alive. A weak one passes through zero often
    // enough that the run, which stops once its residual read through the
    // slowest remaining mode's shape meets the tolerance, stops mid-burst
    // with an answer that validates. A strong one keeps the run going to
    // its time cap, far from the answer, and the supervisor waits the
    // burst out.
    for (label, amplitude) in [("weak", 0.05), ("strong", 0.5)] {
        println!("== {label} transient noise burst (first 2.5 ms of chip lifetime) ==");
        let mut solver = SupervisedSolver::new(&a, &cfg, &RecoveryConfig::default())?;
        let burst = |integrator| {
            FaultEvent::transient(
                FaultKind::NoiseBurst {
                    unit: UnitId::Integrator(integrator),
                    amplitude,
                },
                0.0,
                2.5e-3,
            )
        };
        solver.inject_faults(
            FaultPlan::new(77)
                .with_event(burst(0))
                .with_event(burst(1))
                .with_event(burst(2)),
        );
        let report = solver.solve(&b)?;
        describe(&report);
        println!("  solution: {:?}\n", report.solution);
    }

    println!("== persistent stuck-at-rail integrator ==");
    let mut solver = SupervisedSolver::new(
        &a,
        &cfg,
        &RecoveryConfig {
            max_attempts: 3,
            ..RecoveryConfig::default()
        },
    )?;
    solver.inject_faults(FaultPlan::new(0).with_event(FaultEvent::persistent(
        FaultKind::StuckAtRail {
            integrator: 0,
            rail: Rail::Positive,
        },
        0.0,
    )));
    let report = solver.solve(&b)?;
    describe(&report);
    println!("  solution: {:?}\n", report.solution);

    println!("== multiplier gain drift, cured by recalibration ==");
    let mut solver = SupervisedSolver::new(&a, &cfg, &RecoveryConfig::default())?;
    solver.inject_faults(FaultPlan::new(5).with_event(FaultEvent::persistent(
        FaultKind::GainDrift {
            unit: UnitId::Multiplier(0),
            magnitude: 0.1,
            ramp_s: 1e-4,
        },
        0.0,
    )));
    let report = solver.solve(&b)?;
    describe(&report);
    println!("  solution: {:?}", report.solution);
    Ok(())
}
