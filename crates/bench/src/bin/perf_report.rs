//! Performance report for the simulator's critical paths, written to
//! `BENCH_engine.json` so successive changes can track the trajectory.
//!
//! Five groups of measurements:
//!
//! 1. **Engine microbench** — RK4 steps/sec of the analog engine on a
//!    coupled integrator-chain circuit, compiled-plan path vs. the
//!    tree-walking reference evaluator (the tentpole's ≥3× target), plus a
//!    plan-cache proof: ≥100 solves against one matrix must lower exactly
//!    one plan. Rides along with the **batched multi-RHS** group: one
//!    K-lane sweep vs. K sequential runs at K = 1/4/16 (the K=16 ratio is
//!    gated at ≥2.0× on multi-core machines), and fleet serving throughput
//!    with RHS coalescing on vs. off.
//! 2. **Figure sweeps** — wall time of a fig7-style analog system solve and
//!    the fig8 digital-CG baseline measurement. Rides along with the
//!    **krylov_precond** group: plain digital CG vs analog-preconditioned
//!    flexible CG on 2D Poisson systems, each row tagged with
//!    `krylov_speedup` (the CG/FCG iteration ratio — gated at ≥1/0.7x for
//!    n ≥ 64 on every host: iteration counts are exact, not host time; the
//!    FCG row's config also names the preconditioner's simulated analog
//!    time, gated at n = 64 on every host as well), and the
//!    **refine_compensated** pair: iterative refinement with f64 vs
//!    two-float compensated residual accumulation on an ill-conditioned
//!    system, the floor ratio recorded as `refine_ulp_gain`.
//! 3. **Decomposed-solver scaling** — block-Jacobi decomposition of a 2D
//!    Poisson problem at 1/2/4 threads (identical results, best-of-N
//!    speedup, with `cores`/`undersubscribed` recorded per row). A
//!    two-thread speedup below 1.0× aborts the report on multi-core
//!    machines and prints a loud warning on single-core ones.
//! 4. **Fleet serving throughput** — completed solve requests per
//!    wall-clock second through [`aa_sched::FleetService`] with one
//!    dispatcher shard per chip: one chip on one worker vs. four chips on
//!    four workers, plus a 1/4/16-chip `fleet_scaling` curve over a
//!    16-structure stream (each point tagged with `fleet_chips`, the curve
//!    also exported as `FLEET_SCALING.json`). Same gating policy as the
//!    scaling group: the 4-chip configurations must not serve slower than
//!    the 1-chip ones, enforced only when the machine has ≥2 cores; on
//!    single-core runners the ratios are still recorded and a loud
//!    NOT-GATED banner replaces the silent skip.
//! 5. **Resilience** — wall time of one fleet checkpoint + restore cycle
//!    (`checkpoint_restore_ms`), and a seeded chaos soak whose completed
//!    request count rides along as `soak_requests_completed`; the soak's
//!    invariants must hold for the report to be written.
//!
//! `--quick` shrinks every problem for the CI smoke run. `--trace-out
//! <path>` installs an [`aa_obs`] recorder around the measurements and
//! exports the structured trace (spans, counters, histograms, event
//! journal) as versioned JSON. The report itself is schema-validated before
//! `BENCH_engine.json` is overwritten.

use std::collections::BTreeMap;
use std::time::Instant;

use aa_analog::netlist::{InputPort, OutputPort};
use aa_analog::units::UnitId;
use aa_analog::{AnalogChip, ChipConfig, EngineOptions, EvalStrategy, LaneBindings};
use aa_bench::{banner, measure_cg_2d, records_to_json, validate_bench_json, BenchRecord};
use aa_hwmodel::CpuModel;
use aa_linalg::compensated::{self, TwoFloat};
use aa_linalg::iterative::{cg, IterativeConfig, StoppingCriterion};
use aa_linalg::stencil::PoissonStencil;
use aa_linalg::{CsrMatrix, ParallelConfig, Triplet};
use aa_sched::chaos::{run_soak, ChaosConfig};
use aa_sched::{FleetConfig, FleetService, SolveRequest};
use aa_solver::refine::solve_refined;
use aa_solver::{
    fcg_solve, solve_decomposed, AnalogPreconditioner, AnalogSystemSolver, DecomposeConfig,
    FinalPath, KrylovConfig, OuterMethod, RecoveryConfig, RefineConfig, SolverConfig,
    SupervisedSolver,
};

/// A stable, bounded circuit that exercises every hot unit kind: a ring of
/// integrators, each with self-decay through one multiplier and coupling to
/// its successor through another, copied by a fanout, driven by a DAC.
///
/// `du_i/dt = ω·(−u_i + 0.5·u_{i−1} + 0.3·[i = 0])` — diagonally dominant,
/// so every state settles well inside full scale.
fn microbench_chip(macroblocks: usize) -> AnalogChip {
    let n = macroblocks; // one integrator per macroblock
    let mut chip = AnalogChip::new(ChipConfig::ideal().with_macroblocks(macroblocks));
    for i in 0..n {
        let int = UnitId::Integrator(i);
        let fan = UnitId::Fanout(i);
        let decay = UnitId::Multiplier(i);
        let couple = UnitId::Multiplier(n + i);
        chip.set_conn(OutputPort::of(int), InputPort::of(fan))
            .expect("ring wiring");
        chip.set_conn(OutputPort { unit: fan, port: 0 }, InputPort::of(decay))
            .expect("ring wiring");
        chip.set_conn(OutputPort { unit: fan, port: 1 }, InputPort::of(couple))
            .expect("ring wiring");
        chip.set_conn(OutputPort::of(decay), InputPort::of(int))
            .expect("ring wiring");
        chip.set_conn(
            OutputPort::of(couple),
            InputPort::of(UnitId::Integrator((i + 1) % n)),
        )
        .expect("ring wiring");
        chip.set_mul_gain(i, -1.0).expect("gain");
        chip.set_mul_gain(n + i, 0.5).expect("gain");
        chip.set_int_initial(i, 0.02 * (i % 7) as f64).expect("ic");
    }
    chip.set_conn(
        OutputPort::of(UnitId::Dac(0)),
        InputPort::of(UnitId::Integrator(0)),
    )
    .expect("drive wiring");
    chip.set_dac_constant(0, 0.3).expect("dac");
    chip.cfg_commit().expect("microbench circuit commits");
    chip
}

/// Best-of-`reps` wall time of one `exec` under `strategy`; returns
/// `(best_seconds, steps)`.
fn time_engine(chip: &mut AnalogChip, options: &EngineOptions, reps: usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut steps = 0;
    for _ in 0..reps {
        let start = Instant::now();
        let report = chip.exec(options).expect("microbench run");
        best = best.min(start.elapsed().as_secs_f64());
        steps = report.steps;
    }
    (best, steps)
}

/// An ill-conditioned SPD tridiagonal (variable-coefficient Dirichlet
/// Laplacian, interface coefficients spanning two orders of magnitude) whose
/// f64 residual-recompute floor `n·ε·cond(A)` sits well above the
/// compensated one — the fixture behind the `refine_ulp_gain` measurement.
fn ill_conditioned(n: usize) -> CsrMatrix {
    let k = |i: usize| (1.0 + 2.0 * (i as f64 / n as f64).powi(2)) / 8.0;
    let mut t = Vec::new();
    for i in 0..n {
        if i > 0 {
            t.push(Triplet::new(i, i - 1, -k(i)));
            t.push(Triplet::new(i - 1, i, -k(i)));
        }
        t.push(Triplet::new(i, i, k(i) + k(i + 1)));
    }
    CsrMatrix::from_triplets(n, &t).expect("valid triplets")
}

/// Extracts the value of `--trace-out <path>` / `--trace-out=<path>`.
fn trace_out_path(args: &[String]) -> Option<String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--trace-out" {
            return Some(
                iter.next()
                    .unwrap_or_else(|| panic!("--trace-out requires a path argument"))
                    .clone(),
            );
        }
        if let Some(path) = arg.strip_prefix("--trace-out=") {
            return Some(path.to_string());
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trace_out = trace_out_path(&args);

    // Only install a recorder when a trace was requested, so plain perf
    // runs measure the recorder-disabled fast path.
    let recorder = trace_out.as_ref().map(|_| aa_obs::MemoryRecorder::shared());
    let records = match &recorder {
        Some(rec) => aa_obs::with_recorder(rec.clone(), || run_benchmarks(quick)),
        None => run_benchmarks(quick),
    };

    let json = records_to_json(&records);
    validate_bench_json(&json).expect("BENCH_engine.json failed schema validation");
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json ({} records)", records.len());

    if let (Some(path), Some(rec)) = (&trace_out, &recorder) {
        let snapshot = rec.snapshot();
        std::fs::write(path, snapshot.to_json()).expect("write trace JSON");
        println!(
            "wrote {path} ({} journal entries, {} counters, {} dropped)",
            snapshot.journal.len(),
            snapshot.counters.len(),
            snapshot.dropped_entries
        );
    }
}

fn run_benchmarks(quick: bool) -> Vec<BenchRecord> {
    let mut records: Vec<BenchRecord> = Vec::new();

    banner(
        "perf_report",
        if quick {
            "engine + solver performance (quick smoke)"
        } else {
            "engine + solver performance"
        },
    );

    // 1. Engine microbench: compiled plan vs. reference evaluator.
    let macroblocks = if quick { 16 } else { 32 };
    let max_tau = if quick { 30.0 } else { 150.0 };
    let reps = if quick { 3 } else { 5 };
    let mut chip = microbench_chip(macroblocks);
    let options = |strategy: EvalStrategy| EngineOptions {
        steady_tol: None,
        max_tau,
        eval_strategy: strategy,
        ..EngineOptions::default()
    };
    let (ref_s, ref_steps) = time_engine(&mut chip, &options(EvalStrategy::Reference), reps);
    let (com_s, com_steps) = time_engine(&mut chip, &options(EvalStrategy::Compiled), reps);
    assert_eq!(ref_steps, com_steps, "strategies must take identical steps");
    let ref_sps = ref_steps as f64 / ref_s;
    let com_sps = com_steps as f64 / com_s;
    println!("\nengine microbench ({macroblocks} macroblocks, {ref_steps} RK4 steps)");
    println!("  reference evaluator: {ref_s:9.4} s  ({ref_sps:11.0} steps/s)");
    println!(
        "  compiled plan:       {com_s:9.4} s  ({com_sps:11.0} steps/s)  — {:.2}x",
        com_sps / ref_sps
    );
    records.push(BenchRecord {
        bench: "engine_microbench".to_string(),
        config: format!("{macroblocks} macroblocks, reference evaluator"),
        wall_ms: ref_s * 1e3,
        steps_per_sec: Some(ref_sps),
        requests_per_sec: None,
        speedup_vs_serial: None,
        cores: None,
        undersubscribed: None,
        soak_requests_completed: None,
        checkpoint_restore_ms: None,
        batched_speedup: None,
        ir_speedup: None,
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: None,
    });
    records.push(BenchRecord {
        bench: "engine_microbench".to_string(),
        config: format!("{macroblocks} macroblocks, compiled plan"),
        wall_ms: com_s * 1e3,
        steps_per_sec: Some(com_sps),
        requests_per_sec: None,
        speedup_vs_serial: Some(com_sps / ref_sps),
        cores: None,
        undersubscribed: None,
        soak_requests_completed: None,
        checkpoint_restore_ms: None,
        batched_speedup: None,
        ir_speedup: None,
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: None,
    });

    // 1b. Plan-cache reuse: a long sequence of solves against one matrix
    // reprograms DACs/initial conditions (and recommits) every run, yet the
    // netlist structure never changes — so the evaluation plan must be
    // lowered exactly once. This is the microbench proof behind the
    // decomposed solver's sweep loop, which replays exactly this pattern.
    let cache_l = if quick { 3 } else { 4 };
    let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(cache_l).expect("grid"));
    let n = cache_l * cache_l;
    let runs = 120;
    let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).expect("maps");
    let start = Instant::now();
    for run in 0..runs {
        let rhs: Vec<f64> = (0..n)
            .map(|i| 0.4 + 0.001 * ((run + i) % 7) as f64)
            .collect();
        solver.solve(&rhs).expect("solves");
    }
    let cache_s = start.elapsed().as_secs_f64();
    let stats = solver.plan_stats();
    assert_eq!(
        stats.plans_lowered, 1,
        "plan must be lowered once across {runs} solves, got {stats:?}"
    );
    assert_eq!(stats.structures_built, 1, "structure rebuilt: {stats:?}");
    assert!(
        stats.cache_hits >= runs as u64 - 1,
        "expected ≥{} cache hits, got {stats:?}",
        runs - 1
    );
    println!(
        "plan cache ({runs} solves, n = {n}): {cache_s:9.4} s — {} lowered, {} hits",
        stats.plans_lowered, stats.cache_hits
    );
    records.push(BenchRecord {
        bench: "plan_cache_reuse".to_string(),
        config: format!(
            "poisson 2d n={n}, {runs} solves, plans_lowered={}, cache_hits={}",
            stats.plans_lowered, stats.cache_hits
        ),
        wall_ms: cache_s * 1e3,
        steps_per_sec: None,
        requests_per_sec: None,
        speedup_vs_serial: None,
        cores: None,
        undersubscribed: None,
        soak_requests_completed: None,
        checkpoint_restore_ms: None,
        batched_speedup: None,
        ir_speedup: None,
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: None,
    });

    // 1c. Batched multi-RHS execution: one K-lane RK4 sweep against K
    // sequential runs of the same committed circuit. The lanes differ only
    // in their DAC constants and integrator initial conditions — exactly
    // the per-run state `LaneBindings` snapshots — so the batched path
    // amortizes plan dispatch and cache traffic across the lanes while the
    // sequential path pays a full recommit + sweep per lane.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let batch_blocks = if quick { 8 } else { 16 };
    let batch_tau = if quick { 20.0 } else { 60.0 };
    let batch_reps = if quick { 3 } else { 5 };
    let batch_options = EngineOptions {
        steady_tol: None,
        max_tau: batch_tau,
        eval_strategy: EvalStrategy::Compiled,
        ..EngineOptions::default()
    };
    println!("\nbatched multi-RHS execution ({batch_blocks} macroblocks, best of {batch_reps})");
    let mut batched_speedup_16 = 0.0;
    for k in [1usize, 4, 16] {
        let mut chip = microbench_chip(batch_blocks);
        let lanes: Vec<LaneBindings> = (0..k)
            .map(|lane| {
                let ints: BTreeMap<usize, f64> = (0..batch_blocks)
                    .map(|i| (i, 0.02 * ((i + lane) % 7) as f64))
                    .collect();
                let dacs: BTreeMap<usize, f64> =
                    BTreeMap::from([(0, chip.quantize_dac(0.2 + 0.01 * lane as f64))]);
                LaneBindings {
                    dac_values: Some(dacs),
                    int_initial: Some(ints),
                }
            })
            .collect();
        // Warm the plan cache so neither path's best-of window pays the
        // one-time structure build + plan lowering.
        chip.exec_batch(&lanes, &batch_options).expect("warmup");
        let mut batched_s = f64::INFINITY;
        let mut batched_steps = 0usize;
        for _ in 0..batch_reps {
            let start = Instant::now();
            let batch = chip
                .exec_batch(&lanes, &batch_options)
                .expect("batched run");
            batched_s = batched_s.min(start.elapsed().as_secs_f64());
            batched_steps = batch.reports.iter().map(|r| r.steps).sum();
        }
        let mut seq_s = f64::INFINITY;
        let mut seq_steps = 0usize;
        for _ in 0..batch_reps {
            let start = Instant::now();
            let mut total = 0usize;
            for lane in 0..k {
                for i in 0..batch_blocks {
                    chip.set_int_initial(i, 0.02 * ((i + lane) % 7) as f64)
                        .expect("ic");
                }
                chip.set_dac_constant(0, 0.2 + 0.01 * lane as f64)
                    .expect("dac");
                chip.cfg_commit().expect("recommit");
                total += chip.exec(&batch_options).expect("sequential run").steps;
            }
            seq_s = seq_s.min(start.elapsed().as_secs_f64());
            seq_steps = total;
        }
        assert_eq!(batched_steps, seq_steps, "paths must take identical steps");
        let batched_sps = batched_steps as f64 / batched_s;
        let seq_sps = seq_steps as f64 / seq_s;
        let ratio = batched_sps / seq_sps;
        if k == 16 {
            batched_speedup_16 = ratio;
        }
        println!(
            "  K = {k:2}: batched {batched_s:9.4} s  ({batched_sps:11.0} steps/s)  \
             sequential {seq_s:9.4} s  — {ratio:.2}x"
        );
        records.push(BenchRecord {
            bench: "batched_rhs".to_string(),
            config: format!("{batch_blocks} macroblocks, K={k}"),
            wall_ms: batched_s * 1e3,
            steps_per_sec: Some(batched_sps),
            requests_per_sec: None,
            speedup_vs_serial: None,
            cores: None,
            undersubscribed: None,
            soak_requests_completed: None,
            checkpoint_restore_ms: None,
            batched_speedup: Some(ratio),
            ir_speedup: None,
            fleet_chips: None,
            krylov_speedup: None,
            refine_ulp_gain: None,
        });
    }
    // The batched-execution gate: a 16-lane sweep must run at least twice
    // the sequential throughput. The measurement is single-threaded, but a
    // 1-core CI runner is noisy enough (time-sliced against its own host)
    // that the check degrades to a loud warning there, mirroring the
    // scaling gates below.
    if cores >= 2 {
        assert!(
            batched_speedup_16 >= 2.0,
            "batched_rhs regression: K=16 batched speedup {batched_speedup_16:.3}x < 2.0x"
        );
    } else if batched_speedup_16 < 2.0 {
        println!(
            "WARNING: K=16 batched speedup {batched_speedup_16:.2}x < 2.0x, but only \
             {cores} core is available (noisy runner — not gating)"
        );
    }

    // 1d. Plan-IR optimization passes: sequential RK4 throughput of the op
    // tape lowered with every pass against the same tape lowered without
    // passes, on the solver-mapped 2D Poisson circuit (n = 16) — the
    // pipeline's headline number. Both run the same fixed τ span (steady
    // detection off), so the ratio isolates per-step evaluation cost. The
    // per-pass op counts are written to PASS_STATS.json as a non-gating
    // artifact.
    let ir_l = 4usize;
    let ir_n = ir_l * ir_l;
    let ir_tau = if quick { 30.0 } else { 120.0 };
    let ir_reps = if quick { 3 } else { 5 };
    let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(ir_l).expect("grid"));
    let mut ir_solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).expect("maps");
    // One real solve programs the RHS DACs and commits the configuration;
    // after that the chip can be stepped directly.
    ir_solver.solve(&vec![1.0; ir_n]).expect("prime solve");
    let ir_chip = ir_solver.chip_mut();
    let ir_options = |passes: aa_analog::PassConfig| EngineOptions {
        steady_tol: None,
        max_tau: ir_tau,
        eval_strategy: EvalStrategy::Compiled,
        passes,
        ..EngineOptions::default()
    };
    // The chip caches one tape, so switching configs re-lowers: the warm-up
    // runs pay the first lowerings, and each best-of window below pays one
    // more in its first repetition, which the minimum discards.
    ir_chip
        .exec(&ir_options(aa_analog::PassConfig::none()))
        .expect("warmup");
    ir_chip
        .exec(&ir_options(aa_analog::PassConfig::full()))
        .expect("warmup");
    let (plain_s, plain_steps) =
        time_engine(ir_chip, &ir_options(aa_analog::PassConfig::none()), ir_reps);
    let (opt_s, opt_steps) =
        time_engine(ir_chip, &ir_options(aa_analog::PassConfig::full()), ir_reps);
    assert_eq!(plain_steps, opt_steps, "paths must take identical steps");
    let plain_sps = plain_steps as f64 / plain_s;
    let opt_sps = opt_steps as f64 / opt_s;
    let ir_speedup = opt_sps / plain_sps;
    let pass_log = ir_chip.pass_stats();
    println!("\nplan-IR passes (poisson 2d n = {ir_n}, {plain_steps} RK4 steps)");
    println!("  unoptimized tape: {plain_s:9.4} s  ({plain_sps:11.0} steps/s)");
    println!("  optimized tape:   {opt_s:9.4} s  ({opt_sps:11.0} steps/s)  — {ir_speedup:.2}x");
    for stat in &pass_log {
        println!(
            "    pass {}: {} -> {} ops",
            stat.pass, stat.ops_before, stat.ops_after
        );
    }
    records.push(BenchRecord {
        bench: "engine_ir".to_string(),
        config: format!("poisson 2d n={ir_n}, unoptimized tape"),
        wall_ms: plain_s * 1e3,
        steps_per_sec: Some(plain_sps),
        requests_per_sec: None,
        speedup_vs_serial: None,
        cores: None,
        undersubscribed: None,
        soak_requests_completed: None,
        checkpoint_restore_ms: None,
        batched_speedup: None,
        ir_speedup: None,
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: None,
    });
    records.push(BenchRecord {
        bench: "engine_ir".to_string(),
        config: format!("poisson 2d n={ir_n}, passes=full"),
        wall_ms: opt_s * 1e3,
        steps_per_sec: Some(opt_sps),
        requests_per_sec: None,
        speedup_vs_serial: None,
        cores: None,
        undersubscribed: None,
        soak_requests_completed: None,
        checkpoint_restore_ms: None,
        batched_speedup: None,
        ir_speedup: Some(ir_speedup),
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: None,
    });
    // Non-gating pass-statistics artifact for the CI upload.
    let pass_rows: Vec<String> = pass_log
        .iter()
        .map(|s| {
            format!(
                "  {{\"pass\": \"{}\", \"ops_before\": {}, \"ops_after\": {}}}",
                s.pass, s.ops_before, s.ops_after
            )
        })
        .collect();
    std::fs::write(
        "PASS_STATS.json",
        format!("[\n{}\n]\n", pass_rows.join(",\n")),
    )
    .expect("write PASS_STATS.json");
    println!("  wrote PASS_STATS.json ({} passes)", pass_log.len());
    // The pass-pipeline gate: the pass-lowered tape must hold a ≥1.15x
    // sequential advantage. Same single-core escape hatch as above.
    if cores >= 2 {
        assert!(
            ir_speedup >= 1.15,
            "engine_ir regression: optimized/unoptimized {ir_speedup:.3}x < 1.15x"
        );
    } else if ir_speedup < 1.15 {
        println!(
            "WARNING: optimized/unoptimized {ir_speedup:.2}x < 1.15x, but only {cores} core \
             is available (noisy runner — not gating)"
        );
    }

    // 2a. Fig7-style analog system solve.
    let l = if quick { 4 } else { 6 };
    let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(l).expect("grid"));
    let b = vec![0.5; l * l];
    let start = Instant::now();
    let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).expect("maps");
    solver.solve(&b).expect("solves");
    let fig7_s = start.elapsed().as_secs_f64();
    println!("\nfig7-style analog solve (n = {}): {fig7_s:9.4} s", l * l);
    records.push(BenchRecord {
        bench: "fig7_analog_solve".to_string(),
        config: format!("poisson 2d, n={}", l * l),
        wall_ms: fig7_s * 1e3,
        steps_per_sec: None,
        requests_per_sec: None,
        speedup_vs_serial: None,
        cores: None,
        undersubscribed: None,
        soak_requests_completed: None,
        checkpoint_restore_ms: None,
        batched_speedup: None,
        ir_speedup: None,
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: None,
    });

    // 2b. Fig8 digital-CG baseline.
    let cg_l = if quick { 15 } else { 31 };
    let (cg_report, cg_s) = measure_cg_2d(cg_l, 8);
    println!(
        "fig8 digital CG (l = {cg_l}, 8-bit stop, {} iters): {cg_s:9.4} s",
        cg_report.iterations
    );
    records.push(BenchRecord {
        bench: "fig8_digital_cg".to_string(),
        config: format!("l={cg_l}, 8-bit equal-accuracy stop"),
        wall_ms: cg_s * 1e3,
        steps_per_sec: None,
        requests_per_sec: None,
        speedup_vs_serial: None,
        cores: None,
        undersubscribed: None,
        soak_requests_completed: None,
        checkpoint_restore_ms: None,
        batched_speedup: None,
        ir_speedup: None,
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: None,
    });

    // 2c. Analog-preconditioned flexible CG vs plain digital CG. The
    // analog solve drops from primary solver to a preconditioner
    // application z ≈ M⁻¹·r inside digital Krylov iteration, so the
    // iteration count — not the per-iteration cost — carries the win.
    let krylov_sides: &[usize] = if quick {
        &[8, 11, 16]
    } else {
        &[8, 10, 11, 16]
    };
    // The paper's digital baseline prices each CG or FCG iteration's host
    // work; it is printed beside the simulated analog time.
    let cpu = CpuModel::xeon_x5550();
    let ktol = KrylovConfig::default().tolerance;
    println!("\nanalog-preconditioned FCG vs plain CG (relative tolerance {ktol:.0e})");
    for &side in krylov_sides {
        let n = side * side;
        let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(side).expect("grid"));
        let b: Vec<f64> = (0..n).map(|i| 0.5 + ((i % 7) as f64) * 0.25).collect();
        let start = Instant::now();
        let plain = cg(
            &a,
            &b,
            &IterativeConfig::with_stopping(StoppingCriterion::RelativeResidual(ktol)),
        )
        .expect("plain CG");
        let cg_s = start.elapsed().as_secs_f64();
        assert!(plain.converged, "plain CG must converge at n={n}");
        let start = Instant::now();
        let mut sup = SupervisedSolver::new(&a, &SolverConfig::ideal(), &RecoveryConfig::default())
            .expect("maps");
        let mut precond = AnalogPreconditioner::new(&mut sup);
        let fcg = fcg_solve(&mut precond, &b, &KrylovConfig::default()).expect("fcg solve");
        let fcg_s = start.elapsed().as_secs_f64();
        assert!(fcg.converged, "FCG must converge at n={n}");
        let iter_ratio = plain.iterations as f64 / fcg.iterations as f64;
        // Simulated chip time of every preconditioner application: the
        // time to tolerance the iteration count alone does not show.
        let precond_ms = fcg.precond.analog_time_s * 1e3;
        let cg_cpu_us = cpu.solve_time_s(plain.iterations, n) * 1e6;
        let fcg_cpu_us = cpu.solve_time_s(fcg.iterations, n) * 1e6;
        let path = fcg.precond.final_path();
        println!(
            "  n = {n:>4}: cg {:>3} iters ({cg_s:9.4} s, {cg_cpu_us:.2} µs modelled cpu)   \
             fcg {:>3} iters ({fcg_s:9.4} s, {precond_ms:.3} ms simulated analog + \
             {fcg_cpu_us:.2} µs modelled cpu)   {iter_ratio:5.2}x fewer iterations, \
             precond path {}",
            plain.iterations,
            fcg.iterations,
            path.label()
        );
        records.push(BenchRecord {
            bench: "krylov_precond".to_string(),
            config: format!(
                "poisson 2d n={n}, plain cg, {} iters, {cg_cpu_us:.3} us modelled cpu",
                plain.iterations
            ),
            wall_ms: cg_s * 1e3,
            steps_per_sec: None,
            requests_per_sec: None,
            speedup_vs_serial: None,
            cores: None,
            undersubscribed: None,
            soak_requests_completed: None,
            checkpoint_restore_ms: None,
            batched_speedup: None,
            ir_speedup: None,
            fleet_chips: None,
            krylov_speedup: None,
            refine_ulp_gain: None,
        });
        records.push(BenchRecord {
            bench: "krylov_precond".to_string(),
            config: format!(
                "poisson 2d n={n}, fcg analog precond, {} iters, \
                 {precond_ms:.3} ms simulated analog, {fcg_cpu_us:.3} us modelled cpu",
                fcg.iterations
            ),
            wall_ms: fcg_s * 1e3,
            steps_per_sec: None,
            requests_per_sec: None,
            speedup_vs_serial: None,
            cores: None,
            undersubscribed: None,
            soak_requests_completed: None,
            checkpoint_restore_ms: None,
            batched_speedup: None,
            ir_speedup: None,
            fleet_chips: None,
            krylov_speedup: Some(iter_ratio),
            refine_ulp_gain: None,
        });
        // Every application of the ideal chip must validate on its first
        // run, at every size: the path is exact and host-independent, so
        // the gate fires on every host.
        assert_eq!(
            path,
            FinalPath::Analog,
            "krylov_precond regression: precond path {} at n={n}",
            path.label()
        );
        // At n ≥ 64 the analog preconditioner must cut the iteration
        // count to ≤0.7x plain CG. Iteration counts are exact and
        // host-independent, so the gate fires on every host.
        if n >= 64 {
            assert!(
                (fcg.iterations as f64) <= 0.7 * plain.iterations as f64,
                "krylov_precond regression: fcg {} iters > 0.7x cg {} iters at n={n}",
                fcg.iterations,
                plain.iterations
            );
        }
        // The preconditioner's simulated chip time is exact and
        // host-independent as well, so it is gated on every host too: at
        // n = 64 at most 1.15x (the fleet benchmark's bound) the 0.991 ms
        // it took once each application was aimed at √tol rather than at
        // the supervisor's direct-answer tolerance.
        if n == 64 {
            let bound = 1.15 * 0.991;
            assert!(
                precond_ms <= bound,
                "krylov_precond regression: {precond_ms:.3} ms simulated preconditioner \
                 time > {bound:.3} ms at n={n}"
            );
        }
    }

    // 2d. Extended-precision refinement floor on an ill-conditioned SPD
    // system: the compensated residual path keeps contracting after the
    // f64 path stalls at its n·ε·cond(A) recompute noise floor.
    let rn = 12;
    let ra = ill_conditioned(rn);
    let rb: Vec<f64> = (0..rn).map(|i| 0.25 + 0.5 * ((i % 5) as f64)).collect();
    let run_refined = |comp: bool| {
        // ‖A⁻¹‖∞ ≈ 10² here, so seed the solution-scale walk with an
        // honest magnitude estimate instead of burning rescale retries.
        let cfg = SolverConfig {
            solution_bound: 150.0,
            ..SolverConfig::ideal()
        };
        let mut solver = AnalogSystemSolver::new(&ra, &cfg).expect("maps");
        let start = Instant::now();
        let refined = solve_refined(
            &mut solver,
            &rb,
            &RefineConfig {
                tolerance: 1e-17,
                max_rounds: 80,
                min_progress: 0.97,
                compensated: comp,
            },
        )
        .expect("refines");
        (refined, start.elapsed().as_secs_f64())
    };
    let (plain_ref, plain_ref_s) = run_refined(false);
    let (comp_ref, comp_ref_s) = run_refined(true);
    // One common two-float oracle measures both final iterates so the
    // floor comparison is not limited by f64 measurement precision.
    let rb_norm = compensated::norm2_comp(&rb);
    let plain_u = compensated::promote(&plain_ref.solution);
    let plain_res =
        compensated::norm2_comp(&compensated::residual_comp(&ra, &plain_u, &rb)) / rb_norm;
    let lo = comp_ref.solution_lo.as_ref().expect("compensated lo");
    let comp_u: Vec<TwoFloat> = comp_ref
        .solution
        .iter()
        .zip(lo)
        .map(|(hi, lo)| TwoFloat { hi: *hi, lo: *lo })
        .collect();
    let comp_res =
        compensated::norm2_comp(&compensated::residual_comp(&ra, &comp_u, &rb)) / rb_norm;
    let ulp_gain = plain_res / comp_res;
    println!(
        "\nextended-precision refinement (ill-conditioned n={rn}): f64 floor {plain_res:.3e} \
         ({} rounds), compensated floor {comp_res:.3e} ({} rounds) — {ulp_gain:.1}x tighter",
        plain_ref.rounds, comp_ref.rounds
    );
    records.push(BenchRecord {
        bench: "refine_compensated".to_string(),
        config: format!(
            "ill-conditioned n={rn}, f64 residual path, {} rounds",
            plain_ref.rounds
        ),
        wall_ms: plain_ref_s * 1e3,
        steps_per_sec: None,
        requests_per_sec: None,
        speedup_vs_serial: None,
        cores: None,
        undersubscribed: None,
        soak_requests_completed: None,
        checkpoint_restore_ms: None,
        batched_speedup: None,
        ir_speedup: None,
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: None,
    });
    records.push(BenchRecord {
        bench: "refine_compensated".to_string(),
        config: format!(
            "ill-conditioned n={rn}, compensated residual path, {} rounds",
            comp_ref.rounds
        ),
        wall_ms: comp_ref_s * 1e3,
        steps_per_sec: None,
        requests_per_sec: None,
        speedup_vs_serial: None,
        cores: None,
        undersubscribed: None,
        soak_requests_completed: None,
        checkpoint_restore_ms: None,
        batched_speedup: None,
        ir_speedup: None,
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: Some(ulp_gain),
    });

    // 3. Decomposed-solver scaling across threads. Best-of-N wall time per
    // thread count so a single scheduling hiccup can't fake a regression
    // (or hide one); `cores` rides along as a structured field because the
    // speedups only measure parallelism when the machine can actually run
    // the threads side by side.
    let dec_l = if quick { 6 } else { 8 };
    let dec_reps = if quick { 3 } else { 5 };
    let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(dec_l).expect("grid"));
    let b = vec![1.0; dec_l * dec_l];
    println!(
        "\ndecomposed block-Jacobi scaling (n = {}, {cores} core(s) available, best of {dec_reps})",
        dec_l * dec_l
    );
    let mut serial_s = 0.0;
    let mut two_thread_speedup = None;
    for threads in [1usize, 2, 4] {
        let cfg = DecomposeConfig {
            block_size: dec_l,
            outer: OuterMethod::BlockJacobi,
            tolerance: 1e-6,
            max_sweeps: 600,
            parallel: ParallelConfig::threads(threads),
            ..DecomposeConfig::default()
        };
        let mut wall = f64::INFINITY;
        let mut sweeps = 0;
        for _ in 0..dec_reps {
            let start = Instant::now();
            let report = solve_decomposed(&a, &b, &cfg).expect("decomposed solve");
            wall = wall.min(start.elapsed().as_secs_f64());
            sweeps = report.sweeps;
        }
        if threads == 1 {
            serial_s = wall;
        }
        let speedup = serial_s / wall;
        if threads == 2 {
            two_thread_speedup = Some(speedup);
        }
        let undersubscribed = threads > cores;
        println!(
            "  threads = {threads}: {wall:9.4} s  (speedup {speedup:5.2}x, {sweeps} sweeps{})",
            if undersubscribed {
                ", undersubscribed"
            } else {
                ""
            }
        );
        records.push(BenchRecord {
            bench: "decomposed_scaling".to_string(),
            config: format!(
                "poisson 2d n={}, blocks={dec_l}, threads={threads}",
                dec_l * dec_l
            ),
            wall_ms: wall * 1e3,
            steps_per_sec: None,
            requests_per_sec: None,
            speedup_vs_serial: Some(speedup),
            cores: Some(cores as u64),
            undersubscribed: Some(undersubscribed),
            soak_requests_completed: None,
            checkpoint_restore_ms: None,
            batched_speedup: None,
            ir_speedup: None,
            fleet_chips: None,
            krylov_speedup: None,
            refine_ulp_gain: None,
        });
    }

    // The PR-4 regression gate: with the persistent worker pool, two-thread
    // block-Jacobi must never again be slower than serial. On a single-core
    // runner the threads time-slice, so the check degrades to a loud
    // warning instead of a hard failure.
    let speedup2 = two_thread_speedup.expect("threads=2 row measured");
    if cores >= 2 {
        assert!(
            speedup2 >= 1.0,
            "decomposed_scaling regression: 2-thread speedup {speedup2:.3}x < 1.0x \
             on a {cores}-core machine"
        );
    } else if speedup2 < 1.0 {
        println!(
            "WARNING: 2-thread speedup {speedup2:.2}x < 1.0x, but only {cores} core is \
             available (undersubscribed — not gating)"
        );
    }

    // 4. Fleet serving throughput: the same request stream through a
    // one-chip fleet on one worker and a four-chip fleet on four workers,
    // on a problem big enough for per-request work to dominate dispatch
    // overhead (2D Poisson, n = 16). Requests share a single matrix
    // structure, so every chip's compiled evaluation plan is lowered once
    // and then replayed from cache, and the RHS coalescer can chunk each
    // chip's round into multi-lane batched sweeps (`batch` lanes wide).
    // The fleet runs one dispatcher shard per chip: structure-affinity
    // routing then keeps the single-structure stream on its home shard
    // instead of round-robining it across all chips — the round-robin
    // duplicated each chip's one-time per-structure calibration and was
    // the root cause of the 0.60x scaling inversion this group once
    // recorded.
    let fleet_l = 4usize;
    let fleet_n = fleet_l * fleet_l;
    let fleet_requests = if quick { 8 } else { 24 };
    let fleet_reps = if quick { 2 } else { 3 };
    let fleet_batch = 4usize;
    let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(fleet_l).expect("grid"));
    println!(
        "\nfleet serving throughput (poisson 2d n = {fleet_n}, {fleet_requests} requests, \
         best of {fleet_reps})"
    );
    let serve = |chips: usize, workers: usize, batch: usize, requests: usize| -> (f64, f64) {
        let mut wall = f64::INFINITY;
        for _ in 0..fleet_reps {
            let config = FleetConfig::new(chips)
                .with_seed(0xBE7C)
                .with_shards(chips)
                .with_workers(workers)
                .with_queue_capacity(requests)
                .with_max_batch_rhs(batch);
            let mut fleet = FleetService::new(config, vec![a.clone()]).expect("fleet builds");
            let start = Instant::now();
            for i in 0..requests {
                let rhs: Vec<f64> = (0..fleet_n)
                    .map(|j| 0.5 + 0.01 * ((i + j) % 5) as f64)
                    .collect();
                fleet.submit(SolveRequest::new(0, rhs)).expect("admitted");
            }
            let served = fleet.run_until_idle();
            assert_eq!(served, requests, "every request must be answered");
            wall = wall.min(start.elapsed().as_secs_f64());
        }
        (wall, requests as f64 / wall)
    };
    let mut fleet_serial_rps = 0.0;
    let mut fleet_speedup = 0.0;
    for (chips, workers) in [(1usize, 1usize), (4, 4)] {
        let (wall, rps) = serve(chips, workers, fleet_batch, fleet_requests);
        if chips == 1 {
            fleet_serial_rps = rps;
        }
        let speedup = rps / fleet_serial_rps;
        fleet_speedup = speedup;
        let undersubscribed = workers > cores;
        println!(
            "  chips = {chips}, workers = {workers}: {wall:9.4} s  ({rps:8.1} req/s, speedup {speedup:5.2}x{})",
            if undersubscribed {
                ", undersubscribed"
            } else {
                ""
            }
        );
        records.push(BenchRecord {
            bench: "fleet_throughput".to_string(),
            config: format!(
                "poisson 2d n={fleet_n}, chips={chips}, shards={chips}, workers={workers}, \
                 batch={fleet_batch}"
            ),
            wall_ms: wall * 1e3,
            steps_per_sec: None,
            requests_per_sec: Some(rps),
            speedup_vs_serial: Some(speedup),
            cores: Some(cores as u64),
            undersubscribed: Some(undersubscribed),
            soak_requests_completed: None,
            checkpoint_restore_ms: None,
            batched_speedup: None,
            ir_speedup: None,
            fleet_chips: Some(chips as u64),
            krylov_speedup: None,
            refine_ulp_gain: None,
        });
    }
    // Same policy as the scaling gate: more chips on more workers must not
    // serve slower, but only a genuinely parallel machine can enforce it.
    // The ratio is recorded in the report either way — a 0.60x inversion
    // once shipped green because a quiet single-line skip on a 1-core
    // runner was the only trace of it — so the single-core path now prints
    // an unmissable banner instead of staying silent when the ratio is
    // healthy.
    if cores >= 2 {
        assert!(
            fleet_speedup >= 1.0,
            "fleet_throughput regression: 4-chip speedup {fleet_speedup:.3}x < 1.0x \
             on a {cores}-core machine"
        );
    } else {
        let verdict = if fleet_speedup >= 1.0 {
            "would pass"
        } else {
            "WOULD FAIL"
        };
        println!("  ==================== NOT GATED ====================");
        println!(
            "  fleet_throughput gate (4-chip speedup >= 1.0x) {verdict}: measured \
             {fleet_speedup:.3}x"
        );
        println!(
            "  only {cores} core available — workers time-slice, so the ratio is \
             recorded in BENCH_engine.json but NOT enforced here"
        );
        println!("  ===================================================");
    }

    // 4b. RHS coalescing on vs. off: the same four chips driven by ONE
    // worker, so the comparison isolates the batched sweep from thread
    // scheduling (with as many workers as chips, wall clock on a busy or
    // small machine is dominated by oversubscription noise, not by the
    // dispatch policy under test). A longer stream than the scaling rows
    // amortizes each chip's one-off γ-calibration solve the way a
    // long-lived service would.
    let co_requests = if quick { 32 } else { 48 };
    let (on_wall, on_rps) = serve(4, 1, fleet_batch, co_requests);
    let (off_wall, off_rps) = serve(4, 1, 1, co_requests);
    let coalesce_speedup = on_rps / off_rps;
    println!(
        "  coalescing on  (batch={fleet_batch}, 1 worker, {co_requests} requests): \
         {on_wall:9.4} s  ({on_rps:8.1} req/s)"
    );
    println!(
        "  coalescing off (batch=1, 1 worker, {co_requests} requests): \
         {off_wall:9.4} s  ({off_rps:8.1} req/s) — on/off {coalesce_speedup:.2}x"
    );
    for (batch, rps, wall, speedup) in [
        (1usize, off_rps, off_wall, None),
        (fleet_batch, on_rps, on_wall, Some(coalesce_speedup)),
    ] {
        records.push(BenchRecord {
            bench: "batched_rhs".to_string(),
            config: format!(
                "poisson 2d n={fleet_n}, chips=4, workers=1, requests={co_requests}, \
                 batch={batch}"
            ),
            wall_ms: wall * 1e3,
            steps_per_sec: None,
            requests_per_sec: Some(rps),
            speedup_vs_serial: None,
            cores: Some(cores as u64),
            undersubscribed: Some(false),
            soak_requests_completed: None,
            checkpoint_restore_ms: None,
            batched_speedup: speedup,
            ir_speedup: None,
            fleet_chips: None,
            krylov_speedup: None,
            refine_ulp_gain: None,
        });
    }
    // Coalescing must pay for itself: a chip's round served as multi-lane
    // sweeps may never be slower than serving the same round one sweep per
    // request. One worker makes this measurable even on one core, but a
    // loaded machine still jitters — gate only where timing is trustworthy.
    if cores >= 2 {
        assert!(
            coalesce_speedup >= 1.0,
            "batched_rhs regression: fleet coalescing on/off {coalesce_speedup:.3}x < 1.0x"
        );
    } else if coalesce_speedup < 1.0 {
        println!(
            "WARNING: coalescing on/off {coalesce_speedup:.2}x < 1.0x, but only {cores} core \
             is available (noisy runner — not gating)"
        );
    }

    // 4c. Fleet scaling curve: 1 / 4 / 16 chips, one dispatcher shard and
    // one worker per chip, serving a 16-structure stream round-robined
    // across the requests. The structures are small well-conditioned
    // tridiagonal systems (dims 4..=7 crossed with four diagonal weights)
    // so every request is served on the analog path — larger systems tip
    // into the supervised-recovery ladder and the curve would measure
    // failure handling, not dispatch. Every structure homes to exactly
    // one shard at every fleet size, so the fleet-wide one-time
    // calibration cost is constant along the curve and the points compare
    // dispatch + solve scaling, not setup duplication. The curve is also
    // written to FLEET_SCALING.json for the CI artifact upload; the
    // 4-chip point is gated ≥1.0x on multi-core runners.
    let scale_requests = if quick { 16 } else { 48 };
    let scale_structures: Vec<CsrMatrix> = (0..16usize)
        .map(|s| {
            let dim = 4 + s % 4;
            let diag = 2.0 + 0.25 * (s / 4) as f64;
            CsrMatrix::tridiagonal(dim, -1.0, diag, -1.0).expect("structure")
        })
        .collect();
    println!(
        "\nfleet scaling curve ({} structures, {scale_requests} requests, best of {fleet_reps})",
        scale_structures.len()
    );
    let mut scale_serial_rps = 0.0;
    let mut scale_speedup_4 = 0.0;
    let mut scale_rows: Vec<String> = Vec::new();
    for chips in [1usize, 4, 16] {
        let mut wall = f64::INFINITY;
        for _ in 0..fleet_reps {
            let config = FleetConfig::new(chips)
                .with_seed(0x5CA1E)
                .with_shards(chips)
                .with_workers(chips)
                .with_queue_capacity(scale_requests)
                .with_max_batch_rhs(fleet_batch);
            let mut fleet =
                FleetService::new(config, scale_structures.clone()).expect("fleet builds");
            let start = Instant::now();
            for i in 0..scale_requests {
                let s = i % scale_structures.len();
                let rhs: Vec<f64> = (0..4 + s % 4)
                    .map(|j| 0.5 + 0.01 * ((i + j) % 5) as f64)
                    .collect();
                fleet.submit(SolveRequest::new(s, rhs)).expect("admitted");
            }
            let served = fleet.run_until_idle();
            assert_eq!(served, scale_requests, "every request must be answered");
            wall = wall.min(start.elapsed().as_secs_f64());
        }
        let rps = scale_requests as f64 / wall;
        if chips == 1 {
            scale_serial_rps = rps;
        }
        let speedup = rps / scale_serial_rps;
        if chips == 4 {
            scale_speedup_4 = speedup;
        }
        let undersubscribed = chips > cores;
        println!(
            "  chips = {chips:2} (shards = workers = chips): {wall:9.4} s  \
             ({rps:8.1} req/s, speedup {speedup:5.2}x{})",
            if undersubscribed {
                ", undersubscribed"
            } else {
                ""
            }
        );
        scale_rows.push(format!(
            "  {{\"chips\": {chips}, \"requests_per_sec\": {rps:.3}, \
             \"speedup_vs_serial\": {speedup:.4}}}"
        ));
        records.push(BenchRecord {
            bench: "fleet_scaling".to_string(),
            config: format!(
                "16 tridiagonal structures dims 4..=7, chips={chips}, shards={chips}, \
                 workers={chips}, batch={fleet_batch}, requests={scale_requests}"
            ),
            wall_ms: wall * 1e3,
            steps_per_sec: None,
            requests_per_sec: Some(rps),
            speedup_vs_serial: Some(speedup),
            cores: Some(cores as u64),
            undersubscribed: Some(undersubscribed),
            soak_requests_completed: None,
            checkpoint_restore_ms: None,
            batched_speedup: None,
            ir_speedup: None,
            fleet_chips: Some(chips as u64),
            krylov_speedup: None,
            refine_ulp_gain: None,
        });
    }
    std::fs::write(
        "FLEET_SCALING.json",
        format!("[\n{}\n]\n", scale_rows.join(",\n")),
    )
    .expect("write FLEET_SCALING.json");
    println!("  wrote FLEET_SCALING.json (3 curve points)");
    // The scaling-inversion gate: four chips on four shards and four
    // workers must serve the mixed-structure stream at least as fast as
    // one chip. Same policy as the throughput gate above — recorded
    // always, enforced only where the machine can actually run the shards
    // side by side.
    if cores >= 2 {
        assert!(
            scale_speedup_4 >= 1.0,
            "fleet_scaling regression: 4-chip speedup {scale_speedup_4:.3}x < 1.0x \
             on a {cores}-core machine"
        );
    } else {
        let verdict = if scale_speedup_4 >= 1.0 {
            "would pass"
        } else {
            "WOULD FAIL"
        };
        println!("  ==================== NOT GATED ====================");
        println!(
            "  fleet_scaling gate (4-chip speedup >= 1.0x) {verdict}: measured \
             {scale_speedup_4:.3}x"
        );
        println!(
            "  only {cores} core available — the curve is recorded in \
             BENCH_engine.json / FLEET_SCALING.json but NOT enforced here"
        );
        println!("  ===================================================");
    }

    // 5a. Checkpoint + restore latency: load a fleet mid-serve, freeze it,
    // rebuild it from the snapshot + WAL, best of N. This is the recovery
    // path's fixed cost, tracked so checkpoint bloat shows up as a number.
    let ckpt_reps = if quick { 2 } else { 5 };
    let ckpt_requests = if quick { 4 } else { 12 };
    let mut ckpt_ms = f64::INFINITY;
    for _ in 0..ckpt_reps {
        let config = FleetConfig::new(3)
            .with_seed(0xC4A5)
            .with_queue_capacity(ckpt_requests.max(4));
        let mut fleet = FleetService::new(config.clone(), vec![a.clone()]).expect("fleet builds");
        for i in 0..ckpt_requests {
            let rhs: Vec<f64> = (0..fleet_n)
                .map(|j| 0.5 + 0.01 * ((i + j) % 5) as f64)
                .collect();
            fleet.submit(SolveRequest::new(0, rhs)).expect("admitted");
        }
        fleet.run_round();
        let start = Instant::now();
        let checkpoint = fleet.checkpoint();
        let wal = fleet.wal().clone();
        drop(fleet);
        let restored = FleetService::restore(config, vec![a.clone()], &checkpoint, &wal)
            .expect("restore succeeds");
        ckpt_ms = ckpt_ms.min(start.elapsed().as_secs_f64() * 1e3);
        drop(restored);
    }
    println!("\ncheckpoint + restore (3 chips, mid-serve, best of {ckpt_reps}): {ckpt_ms:9.3} ms");
    records.push(BenchRecord {
        bench: "checkpoint_restore".to_string(),
        config: format!("poisson 2d n={fleet_n}, chips=3, {ckpt_requests} queued"),
        wall_ms: ckpt_ms,
        steps_per_sec: None,
        requests_per_sec: None,
        speedup_vs_serial: None,
        cores: None,
        undersubscribed: None,
        soak_requests_completed: None,
        checkpoint_restore_ms: Some(ckpt_ms),
        batched_speedup: None,
        ir_speedup: None,
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: None,
    });

    // 5b. Chaos soak: the full deterministic failure gauntlet (chip deaths,
    // hangs, stalls, bursts, deadline storms, crash/restore). The report is
    // only written if every invariant held.
    let soak_requests = if quick { 40 } else { 120 };
    let soak_config = ChaosConfig {
        requests: soak_requests,
        ..ChaosConfig::standard(0x5EED)
    };
    let start = Instant::now();
    let soak = run_soak(&soak_config).expect("soak harness runs");
    let soak_s = start.elapsed().as_secs_f64();
    assert!(
        soak.passed(),
        "chaos soak violated invariants: {:?}",
        soak.violations
    );
    println!(
        "chaos soak ({} accepted, {} completed, {} crashes): {soak_s:9.3} s",
        soak.accepted, soak.completed, soak.crashes
    );
    records.push(BenchRecord {
        bench: "chaos_soak".to_string(),
        config: format!(
            "chips={}, requests={soak_requests}, crashes={}, seed={:#x}",
            soak_config.chips, soak.crashes, soak_config.seed
        ),
        wall_ms: soak_s * 1e3,
        steps_per_sec: None,
        requests_per_sec: Some(soak.completed as f64 / soak_s),
        speedup_vs_serial: None,
        cores: None,
        undersubscribed: None,
        soak_requests_completed: Some(soak.completed as u64),
        checkpoint_restore_ms: None,
        batched_speedup: None,
        ir_speedup: None,
        fleet_chips: None,
        krylov_speedup: None,
        refine_ulp_gain: None,
    });

    records
}
