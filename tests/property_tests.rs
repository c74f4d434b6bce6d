//! Property-style tests on core invariants, spanning crates.
//!
//! Cases are drawn from seeded deterministic streams, so every run sweeps
//! the same parameter sets and any failure reproduces immediately.

use analog_accel::linalg::rng::Rng64;
use analog_accel::prelude::*;

/// Builds a random SPD, diagonally dominant matrix of dimension `n` from a
/// seed (strict dominance guarantees positive definiteness).
fn spd_matrix(n: usize, seed: u64) -> CsrMatrix {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 // in [0, 1)
    };
    let mut triplets = Vec::new();
    let mut row_sums = vec![0.0; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if next() < 0.4 {
                let v = next() - 0.5;
                triplets.push(Triplet::new(i, j, v));
                triplets.push(Triplet::new(j, i, v));
                row_sums[i] += v.abs();
                row_sums[j] += v.abs();
            }
        }
    }
    for (i, s) in row_sums.iter().enumerate() {
        triplets.push(Triplet::new(i, i, s + 0.5 + next()));
    }
    CsrMatrix::from_triplets(n, &triplets).unwrap()
}

/// The analog gradient-flow steady state solves the system: for any SPD
/// diagonally-dominant matrix and bounded rhs, the accelerator's answer
/// matches the direct solve within ADC-limited tolerance.
#[test]
fn analog_steady_state_solves_spd_systems() {
    let mut rng = Rng64::seed_from_u64(10);
    for _ in 0..16 {
        let n = 2 + rng.below(4);
        let seed = 1 + rng.next_u64() % 499;
        let a = spd_matrix(n, seed);
        let mut state = 1 + rng.next_u64() % 499;
        let b: Vec<f64> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0
            })
            .collect();

        let exact = analog_accel::linalg::direct::solve(&a.to_dense(), &b).unwrap();
        let umax = exact.iter().fold(0.1f64, |m, v| m.max(v.abs()));

        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        let report = solver.solve(&b).unwrap();
        for (x, e) in report.solution.iter().zip(&exact) {
            assert!((x - e).abs() < 0.02 * umax, "{} vs {}", x, e);
        }
    }
}

/// Value/time scaling invariance: scaling A and b by the same factor leaves
/// the recovered solution unchanged (the §VI inset).
#[test]
fn scaling_invariance() {
    let mut rng = Rng64::seed_from_u64(11);
    for _ in 0..16 {
        let n = 2 + rng.below(4);
        let seed = 1 + rng.next_u64() % 499;
        let scale_exp = rng.below(9) as i32 - 3;
        let a = spd_matrix(n, seed);
        let s = 10f64.powi(scale_exp);
        let a_scaled = a.scaled(s);
        let b: Vec<f64> = (0..n).map(|i| 0.3 + 0.1 * i as f64).collect();
        let b_scaled: Vec<f64> = b.iter().map(|v| v * s).collect();

        let mut solver1 = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        let mut solver2 = AnalogSystemSolver::new(&a_scaled, &SolverConfig::ideal()).unwrap();
        let u1 = solver1.solve(&b).unwrap().solution;
        let u2 = solver2.solve(&b_scaled).unwrap().solution;
        for (x, y) in u1.iter().zip(&u2) {
            assert!((x - y).abs() < 0.02 * x.abs().max(0.1), "{} vs {}", x, y);
        }
    }
}

/// Refinement monotonicity: Algorithm 2 never increases the residual.
#[test]
fn refinement_never_regresses() {
    let mut rng = Rng64::seed_from_u64(12);
    for _ in 0..16 {
        let n = 2 + rng.below(4);
        let seed = 1 + rng.next_u64() % 199;
        let a = spd_matrix(n, seed);
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) - 1.0) / 3.0).collect();
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        let refined = solve_refined(
            &mut solver,
            &b,
            &RefineConfig {
                tolerance: 1e-9,
                max_rounds: 10,
                min_progress: 1.0,
                compensated: false,
            },
        )
        .unwrap();
        for pair in refined.residual_history.windows(2) {
            assert!(pair[1] <= pair[0] * 1.0 + 1e-12);
        }
    }
}

/// CG and the analog path agree on Poisson problems of any small size.
#[test]
fn cg_and_analog_agree_on_poisson() {
    for l in 2usize..7 {
        let problem = Poisson2d::new(l, |x, y| x - y + 0.5).unwrap();
        let a = problem.assemble();
        let digital = cg(
            problem.operator(),
            problem.rhs(),
            &IterativeConfig::with_stopping(StoppingCriterion::RelativeResidual(1e-12)),
        )
        .unwrap();
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).unwrap();
        let refined = solve_refined(
            &mut solver,
            problem.rhs(),
            &RefineConfig {
                tolerance: 1e-8,
                ..RefineConfig::default()
            },
        )
        .unwrap();
        let scale = digital.solution.iter().fold(0.01f64, |m, v| m.max(v.abs()));
        for (x, e) in refined.solution.iter().zip(&digital.solution) {
            assert!((x - e).abs() < 1e-5 * scale.max(1.0), "{} vs {}", x, e);
        }
    }
}

/// ADC round trip: every code survives value_of → (re)conversion.
#[test]
fn adc_code_round_trip() {
    let mut rng = Rng64::seed_from_u64(14);
    for _ in 0..32 {
        let bits = 4 + rng.below(10) as u32;
        let code_frac = rng.uniform();
        let chip = AnalogChip::new(ChipConfig::ideal().with_adc_bits(bits));
        let levels = 2u32.pow(bits);
        let code = ((code_frac * levels as f64) as u32).min(levels - 1);
        let v = chip.value_of(code);
        assert!(v.abs() <= 1.0);
        // Quantization error of any in-range value is at most one LSB.
        let lsb = 2.0 / levels as f64;
        assert!((chip.value_of(code) - v).abs() < lsb);
    }
}

// ---------------------------------------------------------------------------
// Differential fuzzing of the plan-optimization pipeline (DESIGN.md §13):
// seeded random netlists × random process variation × random fault plans,
// checked against the reference evaluator and the unoptimized tape.
// ---------------------------------------------------------------------------

use analog_accel::analog::netlist::{InputPort, OutputPort};
use analog_accel::analog::units::UnitId;
use analog_accel::analog::{
    EvalStrategy, LaneBindings, NonIdealityConfig, PassConfig, Rail, RunReport,
};

/// What a random case needs to replay itself: the committed chip plus the
/// indices it actually wired (for generating in-range lane bindings).
struct RandomCircuit {
    chip: AnalogChip,
    n_int: usize,
    dacs: Vec<usize>,
}

/// Builds a random committed netlist from `seed` — same seed, same chip,
/// including the process-variation draw.
///
/// Every integrator's output runs through a fanout whose first branch
/// closes a strictly negative self-feedback loop (gain magnitude ≥ 0.3,
/// sometimes through a two-multiplier chain for the fusion pass to find);
/// the second branch randomly taps an ADC, couples weakly (|g| ≤ 0.2,
/// below every self gain, preserving diagonal dominance) into the next
/// integrator, drives a dangling multiplier (DCE fodder), or floats (a
/// sink op). DACs add constant drives. Dominance makes every draw settle,
/// so the differential checks compare steady states, not timeouts.
fn random_circuit(seed: u64) -> RandomCircuit {
    let mut rng = Rng64::seed_from_u64(seed);
    let n_int = 1 + rng.below(3);
    let mut config = ChipConfig::ideal();
    config.nonideal = NonIdealityConfig {
        offset_std: rng.range(0.0, 2e-3),
        gain_error_std: rng.range(0.0, 5e-3),
        readout_noise_std: 0.0,
        seed: rng.next_u64(),
    };
    let mut chip = AnalogChip::new(config);
    let mut mul = 0usize; // next free multiplier (8 on the prototype)
    let mut adc = 0usize; // next free ADC (2)
    let mut dacs = Vec::new();
    for i in 0..n_int {
        // One self-loop multiplier must stay free per pending integrator.
        let reserved = n_int - i - 1;
        let fan = UnitId::Fanout(i);
        chip.set_conn(OutputPort::of(UnitId::Integrator(i)), InputPort::of(fan))
            .unwrap();
        // Branch 0: the stabilizing self-loop. |g| ≥ 0.5 with DAC drives
        // ≤ 0.2 and couplings ≤ 0.1 keeps every steady state inside the
        // ±1 rails, so no draw clips-and-spins until the τ cap.
        let g = -rng.range(0.5, 0.95);
        let m0 = mul;
        mul += 1;
        chip.set_conn(
            OutputPort { unit: fan, port: 0 },
            InputPort::of(UnitId::Multiplier(m0)),
        )
        .unwrap();
        let loop_tail = if mul + reserved < 8 && rng.below(2) == 0 {
            // Two-multiplier chain with the same net gain: fusion fodder.
            // g1 ≥ |g| keeps both factors inside the ±1 gain limit.
            let g1 = rng.range(g.abs().max(0.5), 1.0);
            let m1 = mul;
            mul += 1;
            chip.set_mul_gain(m0, g1).unwrap();
            chip.set_mul_gain(m1, g / g1).unwrap();
            chip.set_conn(
                OutputPort::of(UnitId::Multiplier(m0)),
                InputPort::of(UnitId::Multiplier(m1)),
            )
            .unwrap();
            m1
        } else {
            chip.set_mul_gain(m0, g).unwrap();
            m0
        };
        chip.set_conn(
            OutputPort::of(UnitId::Multiplier(loop_tail)),
            InputPort::of(UnitId::Integrator(i)),
        )
        .unwrap();
        // Branch 1: observation, weak coupling, dead code, or nothing.
        let b1 = OutputPort { unit: fan, port: 1 };
        match rng.below(4) {
            0 if adc < 2 => {
                chip.set_conn(b1, InputPort::of(UnitId::Adc(adc))).unwrap();
                adc += 1;
            }
            1 if n_int > 1 && mul + reserved < 8 => {
                let m = mul;
                mul += 1;
                let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                chip.set_mul_gain(m, sign * rng.range(0.05, 0.1)).unwrap();
                chip.set_conn(b1, InputPort::of(UnitId::Multiplier(m)))
                    .unwrap();
                chip.set_conn(
                    OutputPort::of(UnitId::Multiplier(m)),
                    InputPort::of(UnitId::Integrator((i + 1) % n_int)),
                )
                .unwrap();
            }
            2 if mul + reserved < 8 => {
                let m = mul;
                mul += 1;
                chip.set_mul_gain(m, rng.range(-1.0, 1.0)).unwrap();
                chip.set_conn(b1, InputPort::of(UnitId::Multiplier(m)))
                    .unwrap();
            }
            _ => {} // floats: lowers to a sink op
        }
        if dacs.len() < 2 && rng.below(2) == 0 {
            let d = dacs.len();
            chip.set_dac_constant(d, rng.range(-0.2, 0.2)).unwrap();
            chip.set_conn(
                OutputPort::of(UnitId::Dac(d)),
                InputPort::of(UnitId::Integrator(i)),
            )
            .unwrap();
            dacs.push(d);
        }
        chip.set_int_initial(i, rng.range(-0.5, 0.5)).unwrap();
    }
    chip.cfg_commit().unwrap();
    RandomCircuit { chip, n_int, dacs }
}

/// Fuzz-harness engine options: `max_tau` capped so a pathological draw
/// times out in milliseconds instead of spinning through the default 10⁶ τ
/// (a timed-out run still compares fine — every leg runs the same span).
fn base() -> EngineOptions {
    EngineOptions {
        max_tau: 2_000.0,
        ..EngineOptions::default()
    }
}

fn engine(passes: PassConfig) -> EngineOptions {
    EngineOptions { passes, ..base() }
}

/// Asserts `opt` is inside the documented tolerance contract of `reference`
/// (`|opt − ref| ≤ 1e-5·(1 + |ref|)` on integrator values and ADC inputs).
fn assert_within_contract(opt: &RunReport, reference: &RunReport, label: &str) {
    for (idx, r) in &reference.integrator_values {
        let o = opt.integrator_values[idx];
        assert!(
            (o - r).abs() <= 1e-5 * (1.0 + r.abs()),
            "{label} integrator {idx}: optimized {o} vs reference {r}"
        );
    }
    for (idx, r) in &reference.adc_inputs {
        let o = opt.adc_inputs[idx];
        assert!(
            (o - r).abs() <= 1e-5 * (1.0 + r.abs()),
            "{label} adc {idx}: optimized {o} vs reference {r}"
        );
    }
}

/// Fully-optimized plans on 64 random netlists stay inside the tolerance
/// contract against the reference evaluator (and every case actually
/// lowers an optimized plan). Exception-latching draws are exempt per the
/// contract — but the generator's diagonal dominance keeps those rare.
#[test]
fn optimized_plans_match_reference_on_random_netlists() {
    let mut skipped = 0usize;
    for case in 0..64u64 {
        let seed = 0xD1FF_0000 + case;
        let mut reference = random_circuit(seed);
        let reference = reference
            .chip
            .exec(&EngineOptions {
                eval_strategy: EvalStrategy::Reference,
                ..base()
            })
            .unwrap();
        let mut optimized = random_circuit(seed);
        let report = optimized.chip.exec(&engine(PassConfig::full())).unwrap();
        assert_eq!(optimized.chip.plan_stats().optimized_lowered, 1);
        if reference.exceptions.any() {
            skipped += 1;
            continue;
        }
        assert_within_contract(&report, &reference, &format!("case {case}"));
    }
    assert!(skipped <= 8, "{skipped} of 64 draws latched exceptions");
}

/// `PassConfig::none()` is bit-identical to the default options on every
/// random netlist — whole-`RunReport` equality, sequential and through
/// `exec_batch` lanes — and optimized batch lanes obey the same tolerance
/// contract lane by lane.
#[test]
fn none_config_stays_bit_identical_on_random_netlists() {
    for case in 0..64u64 {
        let seed = 0xB17E_0000 + case;
        let mut rng = Rng64::seed_from_u64(!seed);
        let mut a = random_circuit(seed);
        let baseline = a.chip.exec(&base()).unwrap();
        let mut b = random_circuit(seed);
        let via_none = b.chip.exec(&engine(PassConfig::none())).unwrap();
        assert_eq!(baseline, via_none, "case {case}: sequential");

        let shape = random_circuit(seed);
        let lanes: Vec<LaneBindings> = (0..2 + rng.below(3))
            .map(|_| {
                let mut lane = LaneBindings::default();
                if !shape.dacs.is_empty() && rng.below(2) == 0 {
                    lane.dac_values = Some(
                        shape
                            .dacs
                            .iter()
                            .map(|&d| (d, rng.range(-0.4, 0.4)))
                            .collect(),
                    );
                }
                if rng.below(2) == 0 {
                    lane.int_initial = Some(
                        (0..shape.n_int)
                            .map(|i| (i, rng.range(-0.5, 0.5)))
                            .collect(),
                    );
                }
                lane
            })
            .collect();
        let mut a = random_circuit(seed);
        let batch_default = a.chip.exec_batch(&lanes, &base()).unwrap();
        let mut b = random_circuit(seed);
        let batch_none = b
            .chip
            .exec_batch(&lanes, &engine(PassConfig::none()))
            .unwrap();
        assert_eq!(batch_default, batch_none, "case {case}: batched");

        let mut o = random_circuit(seed);
        let batch_opt = o
            .chip
            .exec_batch(&lanes, &engine(PassConfig::full()))
            .unwrap();
        for (lane, (ro, rr)) in batch_opt
            .reports
            .iter()
            .zip(&batch_default.reports)
            .enumerate()
        {
            if rr.exceptions.any() {
                continue;
            }
            assert_within_contract(ro, rr, &format!("case {case} lane {lane}"));
        }
    }
}

/// An armed fault plan always routes through the bit-exact unoptimized
/// tape, whatever passes were requested: whole-report equality against a
/// `PassConfig::none()` run, and no optimized lowering, on 64 random
/// netlist × fault-plan draws.
#[test]
fn fault_plans_stay_bit_exact_on_random_netlists() {
    for case in 0..64u64 {
        let seed = 0xFA17_0000 + case;
        let mut rng = Rng64::seed_from_u64(seed ^ 0x5EED_CAFE);
        let kind = match rng.below(3) {
            0 => FaultKind::GainDrift {
                unit: UnitId::Multiplier(rng.below(2)),
                magnitude: rng.range(0.01, 0.1),
                ramp_s: 0.0,
            },
            1 => FaultKind::NoiseBurst {
                unit: UnitId::Integrator(0),
                amplitude: rng.range(0.005, 0.02),
            },
            _ => FaultKind::StuckAtRail {
                integrator: 0,
                rail: Rail::Positive,
            },
        };
        let plan = FaultPlan::new(rng.next_u64()).with_event(FaultEvent {
            kind,
            start_s: 0.0,
            duration_s: Some(rng.range(1e-4, 2e-3)),
        });
        let run = |passes: PassConfig| {
            let mut circuit = random_circuit(seed);
            circuit.chip.inject_fault_plan(plan.clone());
            let report = circuit.chip.exec(&engine(passes)).unwrap();
            (report, circuit.chip.plan_stats().optimized_lowered)
        };
        let (with_passes, lowered) = run(PassConfig::full());
        let (without, _) = run(PassConfig::none());
        assert_eq!(
            with_passes, without,
            "case {case}: armed faults must use the bit-exact tape"
        );
        assert_eq!(
            lowered, 0,
            "case {case}: no optimized lowering under faults"
        );
    }
}

/// Gershgorin bounds always enclose the power-iteration estimate.
#[test]
fn gershgorin_encloses_dominant_eigenvalue() {
    let mut rng = Rng64::seed_from_u64(15);
    for _ in 0..32 {
        let n = 2 + rng.below(6);
        let seed = 1 + rng.next_u64() % 299;
        let a = spd_matrix(n, seed);
        let (lo, hi) = analog_accel::linalg::eigen::gershgorin_bounds(&a);
        let est = analog_accel::linalg::eigen::power_iteration(&a, 20_000, 1e-10).unwrap();
        assert!(est.value <= hi + 1e-9);
        assert!(est.value >= lo - 1e-9);
    }
}
