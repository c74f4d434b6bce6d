//! The accelerator as a *preconditioner* instead of a primary solver:
//! flexible CG where every z ≈ M⁻¹·r application is one supervised analog
//! solve. Compares iteration counts against plain digital CG, with the
//! digital work of each loop priced on the paper's Xeon model (`CpuModel`)
//! beside the simulated analog time, then injects a hard fault to show the
//! loop demoting gracefully to a digital Jacobi application instead of
//! diverging.
//!
//! ```bash
//! cargo run --release --example krylov_precond
//! ```

use analog_accel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let side = 8;
    let n = side * side;
    let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(side)?);
    let b: Vec<f64> = (0..n).map(|i| 0.5 + ((i % 7) as f64) * 0.25).collect();

    // Baseline: unpreconditioned digital CG to 1e-8.
    let config = KrylovConfig::default();
    let plain = cg(
        &a,
        &b,
        &IterativeConfig::with_stopping(StoppingCriterion::RelativeResidual(config.tolerance)),
    )?;
    let cpu = CpuModel::xeon_x5550();
    println!(
        "plain CG:               {:>3} iterations  ({:.2} modelled cpu µs)",
        plain.iterations,
        cpu.solve_time_s(plain.iterations, n) * 1e6
    );

    // Analog-preconditioned flexible CG: each application reuses the chip's
    // committed structure, plan cache, and calibration.
    let mut sup = SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default())?;
    let mut precond = AnalogPreconditioner::new(&mut sup);
    let fcg = fcg_solve(&mut precond, &b, &config)?;
    println!(
        "analog-preconditioned:  {:>3} iterations  ({} analog applications, {:.1} simulated \
         analog µs + {:.2} modelled cpu µs)",
        fcg.iterations,
        fcg.precond.analog_applications,
        fcg.precond.analog_time_s * 1e6,
        cpu.solve_time_s(fcg.iterations, n) * 1e6
    );
    assert!(fcg.converged && fcg.iterations < plain.iterations);

    // Independent digital residual check — never trust the inner loop.
    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    let rel = a.residual_norm(&fcg.solution, &b) / b_norm;
    println!("relative residual:      {rel:.2e}");

    // Now break the chip: an integrator stuck at the positive rail from
    // t = 0 means no analog application can ever validate. The
    // preconditioner demotes itself to digital Jacobi — iteration counts
    // degrade toward plain CG, but the loop still converges.
    let mut broken = SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default())?;
    broken.inject_faults(FaultPlan::new(1).with_event(FaultEvent::persistent(
        FaultKind::StuckAtRail {
            integrator: 0,
            rail: Rail::Positive,
        },
        0.0,
    )));
    let mut demoted = AnalogPreconditioner::new(&mut broken);
    let report = fcg_solve(&mut demoted, &b, &config)?;
    println!(
        "stuck-at-rail chip:     {:>3} iterations  (converged={}, {} fallback applications)",
        report.iterations, report.converged, report.precond.fallback_applications
    );
    assert!(report.converged);
    assert_eq!(report.precond.final_path(), FinalPath::DigitalFallback);

    // The same mode is servable from a fleet: `with_krylov()` requests get
    // their own deadline profile priced from the FCG cost model.
    let mut fleet = FleetService::new(FleetConfig::new(2).with_seed(7), vec![a])?;
    let ticket = fleet.submit(SolveRequest::new(0, b).with_krylov())?;
    fleet.run_until_idle();
    let done = fleet.completion(ticket).expect("accepted => answered");
    println!(
        "fleet krylov request:   served on chip {:?} via {:?}",
        done.chip, done.path
    );
    Ok(())
}
