//! Performance report for the simulator's critical paths, written to
//! `BENCH_engine.json` so successive changes can track the trajectory.
//!
//! Every row is `{bench, config, wall_ms, clock, metrics}` ([`BenchRow`]):
//! `wall_ms` is the host wall time of the run, and every metric of a row is
//! read on its clock — `host` (throughputs, wall-time ratios, core counts)
//! or `simulated` (simulated chip time, the paper's `CpuModel` time,
//! counts). A run measured on both clocks writes one row per clock.
//!
//! Every bound goes through one [`Gate`]: a simulated gate fires on every
//! host, a host gate only on ≥ 2 cores (on one core it prints a NOT-GATED
//! line with its would-pass / WOULD FAIL verdict), and the report ends with
//! a table of every gate. Each group in `GROUPS` is one function: engine
//! microbench, plan-cache reuse, batched multi-RHS, plan-IR passes, the
//! fig7/fig8 paths, a fresh solver's first run from the guess against one
//! from rest, analog-preconditioned Krylov, compensated refinement,
//! decomposed scaling, fleet throughput / coalescing / scaling, and
//! resilience (checkpoint + restore, chaos soak).
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
use aa_analog::{AnalogChip, ChipConfig, EngineOptions, EvalStrategy, LaneBindings, PassConfig};
use aa_bench::{
    banner, gate_table, measure_cg_2d, rows_to_json, validate_bench_json, BenchRow, Bound, Clock,
    Gate, GateResult,
};
use aa_hwmodel::CpuModel;
use aa_linalg::compensated::{self, TwoFloat};
use aa_linalg::iterative::{cg, IterativeConfig, StoppingCriterion};
use aa_linalg::stencil::PoissonStencil;
use aa_linalg::{CsrMatrix, LinearOperator, ParallelConfig, Triplet};
use aa_sched::chaos::{run_soak, ChaosConfig};
use aa_sched::{FleetConfig, FleetService, SolveRequest};
use aa_solver::estimate::scaled_lambda_min;
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

/// Best-of-`reps` wall seconds of `run`, and the last run's result.
fn best_of<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = run();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("at least one repetition"))
}

/// A 2D Poisson matrix on an `l × l` grid.
fn poisson(l: usize) -> CsrMatrix {
    CsrMatrix::from_row_access(&PoissonStencil::new_2d(l).expect("grid"))
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
    let report = match &recorder {
        Some(rec) => aa_obs::with_recorder(rec.clone(), || run_benchmarks(quick)),
        None => run_benchmarks(quick),
    };
    println!("\ngates:\n{}", gate_table(&report.gates));

    let json = rows_to_json(&report.rows);
    validate_bench_json(&json).expect("BENCH_engine.json failed schema validation");
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json ({} rows)", report.rows.len());

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

/// The rows and gate results of one run, and what sizes it.
struct Report {
    quick: bool,
    cores: usize,
    rows: Vec<BenchRow>,
    gates: Vec<GateResult>,
}

impl Report {
    /// The quick-mode or the full-mode value.
    fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Records a host-clock row of a run that took `wall_s` seconds.
    fn host(&mut self, bench: &str, config: String, wall_s: f64, m: &[(&str, f64)]) {
        let row = BenchRow::new(bench, config, wall_s * 1e3, Clock::Host, m);
        self.rows.push(row);
    }

    /// Records a simulated-clock row of a run that took `wall_s` seconds.
    fn sim(&mut self, bench: &str, config: String, wall_s: f64, m: &[(&str, f64)]) {
        let row = BenchRow::new(bench, config, wall_s * 1e3, Clock::Simulated, m);
        self.rows.push(row);
    }

    /// Records a host row of a thread- or chip-scaling run, with `cores`
    /// and whether it ran more workers than cores: only workers that run
    /// side by side measure parallel speedup.
    fn scaling(
        &mut self,
        bench: &str,
        config: String,
        wall_s: f64,
        workers: usize,
        m: &[(&str, f64)],
    ) {
        let under = f64::from(u8::from(workers > self.cores));
        let host = [("cores", self.cores as f64), ("undersubscribed", under)];
        let metrics: Vec<(&str, f64)> = host.iter().chain(m).copied().collect();
        self.host(bench, config, wall_s, &metrics);
    }

    /// Checks one bound through [`Gate::check`] and keeps the result for
    /// the closing table.
    fn gate(&mut self, clock: Clock, metric: impl Into<String>, bound: Bound, value: f64) {
        let gate = Gate {
            metric: metric.into(),
            bound,
            clock,
        };
        self.gates.push(gate.check(value, self.cores));
    }
}

/// `", undersubscribed"` when a run has more workers than cores.
fn undersubscribed(workers: usize, cores: usize) -> &'static str {
    if workers > cores {
        ", undersubscribed"
    } else {
        ""
    }
}

const GROUPS: [fn(&mut Report); 13] = [
    engine_microbench,
    plan_cache_reuse,
    batched_rhs,
    engine_ir,
    figure_paths,
    first_solve,
    krylov_precond,
    refine_compensated,
    decomposed_scaling,
    fleet_throughput,
    fleet_coalescing,
    fleet_scaling,
    resilience,
];

fn run_benchmarks(quick: bool) -> Report {
    let caption = if quick { " (quick smoke)" } else { "" };
    banner(
        "perf_report",
        &format!("engine + solver performance{caption}"),
    );
    let mut report = Report {
        quick,
        cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
        rows: Vec::new(),
        gates: Vec::new(),
    };
    for group in GROUPS {
        group(&mut report);
    }
    report
}

/// RK4 steps/sec of the compiled plan vs. the reference evaluator.
fn engine_microbench(r: &mut Report) {
    let blocks = r.pick(16, 32);
    let reps = r.pick(3, 5);
    let mut chip = microbench_chip(blocks);
    let options = |eval_strategy| EngineOptions {
        steady_tol: None,
        max_tau: r.pick(30.0, 150.0),
        eval_strategy,
        ..EngineOptions::default()
    };
    let reference = options(EvalStrategy::Reference);
    let compiled = options(EvalStrategy::Compiled);
    let (ref_s, ref_steps) = best_of(reps, || chip.exec(&reference).expect("run").steps);
    let (com_s, com_steps) = best_of(reps, || chip.exec(&compiled).expect("run").steps);
    assert_eq!(ref_steps, com_steps, "strategies must take identical steps");
    let ref_sps = ref_steps as f64 / ref_s;
    let com_sps = com_steps as f64 / com_s;
    let ratio = com_sps / ref_sps;
    println!("\nengine microbench ({blocks} macroblocks, {ref_steps} RK4 steps)");
    println!("  reference evaluator: {ref_s:9.4} s  ({ref_sps:11.0} steps/s)");
    println!("  compiled plan:       {com_s:9.4} s  ({com_sps:11.0} steps/s)  — {ratio:.2}x");
    let config = |path| format!("{blocks} macroblocks, {path}");
    let m = [("steps_per_sec", ref_sps)];
    let bench = "engine_microbench";
    r.host(bench, config("reference evaluator"), ref_s, &m);
    let m = [("steps_per_sec", com_sps), ("speedup_vs_reference", ratio)];
    r.host(bench, config("compiled plan"), com_s, &m);
}

/// A long sequence of solves against one matrix reprograms DACs and
/// initial conditions (and recommits) every run, yet the netlist structure
/// never changes — so the evaluation plan must be lowered exactly once, as
/// the decomposed solver's sweep loop relies on.
fn plan_cache_reuse(r: &mut Report) {
    let l = r.pick(3, 4);
    let n = l * l;
    let runs = 120;
    let mut solver = AnalogSystemSolver::new(&poisson(l), &SolverConfig::ideal()).expect("maps");
    let start = Instant::now();
    for run in 0..runs {
        let rhs: Vec<f64> = (0..n)
            .map(|i| 0.4 + 0.001 * ((run + i) % 7) as f64)
            .collect();
        solver.solve(&rhs).expect("solves");
    }
    let cache_s = start.elapsed().as_secs_f64();
    let stats = solver.plan_stats();
    let (lowered, hits) = (stats.plans_lowered as f64, stats.cache_hits as f64);
    println!(
        "plan cache ({runs} solves, n = {n}): {cache_s:9.4} s — {lowered} lowered, {hits} hits"
    );
    let name = "plan_cache_reuse plans_lowered";
    r.gate(Clock::Simulated, name, Bound::Exactly(1.0), lowered);
    assert_eq!(stats.structures_built, 1, "structure rebuilt: {stats:?}");
    assert!(
        stats.cache_hits + 1 >= runs as u64,
        "expected ≥{runs} - 1 cache hits: {stats:?}"
    );
    let m = [("plans_lowered", lowered), ("cache_hits", hits)];
    let config = format!("poisson 2d n={n}, {runs} solves");
    r.sim("plan_cache_reuse", config, cache_s, &m);
}

/// One K-lane RK4 sweep against K sequential runs of the same committed
/// circuit. The lanes differ only in the per-run state `LaneBindings`
/// snapshots (DAC constants, integrator initial conditions), so the batched
/// path amortizes plan dispatch and cache traffic across the lanes while
/// the sequential path pays a recommit + sweep per lane. The measurement is
/// single-threaded, but a 1-core runner is noisy enough (time-sliced
/// against its own host) that the K = 16 gate is a host gate.
fn batched_rhs(r: &mut Report) {
    let blocks = r.pick(8, 16);
    let reps = r.pick(3, 5);
    let options = EngineOptions {
        steady_tol: None,
        max_tau: r.pick(20.0, 60.0),
        eval_strategy: EvalStrategy::Compiled,
        ..EngineOptions::default()
    };
    println!("\nbatched multi-RHS execution ({blocks} macroblocks, best of {reps})");
    for k in [1usize, 4, 16] {
        let mut chip = microbench_chip(blocks);
        let ic = |i: usize, lane: usize| 0.02 * ((i + lane) % 7) as f64;
        let dac = |lane: usize| 0.2 + 0.01 * lane as f64;
        let lanes: Vec<LaneBindings> = (0..k)
            .map(|lane| LaneBindings {
                dac_values: Some(BTreeMap::from([(0, chip.quantize_dac(dac(lane)))])),
                int_initial: Some((0..blocks).map(|i| (i, ic(i, lane))).collect()),
            })
            .collect();
        // Warm the plan cache so neither path's best-of window pays the
        // one-time structure build + plan lowering.
        chip.exec_batch(&lanes, &options).expect("warmup");
        let (batched_s, batch) = best_of(reps, || chip.exec_batch(&lanes, &options).expect("run"));
        let batched_steps: usize = batch.reports.iter().map(|r| r.steps).sum();
        let (seq_s, seq_steps) = best_of(reps, || {
            let mut total = 0usize;
            for lane in 0..k {
                for i in 0..blocks {
                    chip.set_int_initial(i, ic(i, lane)).expect("ic");
                }
                chip.set_dac_constant(0, dac(lane)).expect("dac");
                chip.cfg_commit().expect("recommit");
                total += chip.exec(&options).expect("sequential run").steps;
            }
            total
        });
        assert_eq!(batched_steps, seq_steps, "paths must take identical steps");
        let sps = batched_steps as f64 / batched_s;
        let ratio = sps / (seq_steps as f64 / seq_s);
        println!(
            "  K = {k:2}: batched {batched_s:9.4} s  ({sps:11.0} steps/s)  \
             sequential {seq_s:9.4} s  — {ratio:.2}x"
        );
        let m = [("steps_per_sec", sps), ("batched_speedup", ratio)];
        let config = format!("{blocks} macroblocks, K={k}");
        r.host("batched_rhs", config, batched_s, &m);
        if k == 16 {
            let name = "batched_rhs K=16 batched_speedup";
            r.gate(Clock::Host, name, Bound::AtLeast(2.0), ratio);
        }
    }
}

/// Sequential RK4 throughput of the op tape lowered with every pass against
/// the same tape lowered without passes, on the solver-mapped 2D Poisson
/// circuit (n = 16), over the same fixed τ span (steady detection off), so
/// the ratio isolates per-step evaluation cost. A simulated row carries
/// each pass's op counts.
fn engine_ir(r: &mut Report) {
    let reps = r.pick(3, 5);
    let mut solver = AnalogSystemSolver::new(&poisson(4), &SolverConfig::ideal()).expect("maps");
    // One real solve programs the RHS DACs and commits the configuration;
    // after that the chip can be stepped directly.
    solver.solve(&[1.0; 16]).expect("prime solve");
    let chip = solver.chip_mut();
    let options = |passes| EngineOptions {
        steady_tol: None,
        max_tau: r.pick(30.0, 120.0),
        eval_strategy: EvalStrategy::Compiled,
        passes,
        ..EngineOptions::default()
    };
    let (plain, full) = (options(PassConfig::none()), options(PassConfig::full()));
    // The chip caches one tape, so switching configs re-lowers: the warm-up
    // runs pay the first lowerings, and each best-of window below pays one
    // more in its first repetition, which the minimum discards.
    chip.exec(&plain).expect("warmup");
    chip.exec(&full).expect("warmup");
    let (plain_s, plain_steps) = best_of(reps, || chip.exec(&plain).expect("run").steps);
    let (opt_s, opt_steps) = best_of(reps, || chip.exec(&full).expect("run").steps);
    assert_eq!(plain_steps, opt_steps, "paths must take identical steps");
    let plain_sps = plain_steps as f64 / plain_s;
    let opt_sps = opt_steps as f64 / opt_s;
    let speedup = opt_sps / plain_sps;
    println!("\nplan-IR passes (poisson 2d n = 16, {plain_steps} RK4 steps)");
    println!("  unoptimized tape: {plain_s:9.4} s  ({plain_sps:11.0} steps/s)");
    println!("  optimized tape:   {opt_s:9.4} s  ({opt_sps:11.0} steps/s)  — {speedup:.2}x");
    let mut ops = Vec::new();
    for stat in chip.pass_stats() {
        let (pass, before, after) = (stat.pass, stat.ops_before, stat.ops_after);
        println!("    pass {pass}: {before} -> {after} ops");
        ops.push((format!("{pass}.ops_before"), before as f64));
        ops.push((format!("{pass}.ops_after"), after as f64));
    }
    let config = |tape| format!("poisson 2d n=16, {tape}");
    let bench = "engine_ir";
    let m = [("steps_per_sec", plain_sps)];
    r.host(bench, config("unoptimized tape"), plain_s, &m);
    let m = [("steps_per_sec", opt_sps), ("ir_speedup", speedup)];
    r.host(bench, config("passes=full"), opt_s, &m);
    let m: Vec<(&str, f64)> = ops.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    r.sim(bench, config("passes=full, op counts"), opt_s, &m);
    let name = "engine_ir ir_speedup";
    r.gate(Clock::Host, name, Bound::AtLeast(1.15), speedup);
}

/// Wall time of a fig7-style analog system solve and of the fig8
/// digital-CG baseline measurement.
fn figure_paths(r: &mut Report) {
    let l = r.pick(4, 6);
    let a = poisson(l);
    let start = Instant::now();
    let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).expect("maps");
    solver.solve(&vec![0.5; l * l]).expect("solves");
    let fig7_s = start.elapsed().as_secs_f64();
    println!("\nfig7-style analog solve (n = {}): {fig7_s:9.4} s", l * l);
    let config = format!("poisson 2d, n={}", l * l);
    r.host("fig7_analog_solve", config, fig7_s, &[]);

    let cg_l = r.pick(15, 31);
    let (report, cg_s) = measure_cg_2d(cg_l, 8);
    let iters = report.iterations;
    println!("fig8 digital CG (l = {cg_l}, 8-bit stop, {iters} iters): {cg_s:9.4} s");
    let config = format!("l={cg_l}, 8-bit equal-accuracy stop");
    r.host("fig8_digital_cg", config, cg_s, &[]);
}

/// A fresh solver's first solve starts from the Galerkin guess on
/// span{v₁…v_m, b}, not from rest. The solve, its `γ` walk included, is one
/// measurement; its accepted run is then issued again on the chip as the
/// solve left it (the same lane of DACs at its `γ`, and readout stop), once
/// from the guess the lane binds and once with every integrator at zero. Simulated chip
/// time and RK4 steps are exact, so the gate fires on every host.
fn first_solve(r: &mut Report) {
    println!(
        "
fresh solver, first solve: run from the guess vs from rest"
    );
    let tridiagonal = CsrMatrix::tridiagonal(16, -1.0, 2.0, -1.0).expect("tridiagonal");
    for (label, a) in [
        ("poisson 2d n=64", poisson(8)),
        ("tridiagonal n=16", tridiagonal),
    ] {
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| 0.5 + ((i % 7) as f64) * 0.25).collect();
        let start = Instant::now();
        let mut solver = AnalogSystemSolver::new(&a, &SolverConfig::ideal()).expect("maps");
        let first = solver.solve(&b).expect("solves");
        // The solver's stop: within half an ADC code of the settled state.
        let chip = solver.chip().config();
        let lambda = scaled_lambda_min(&a).expect("SPD");
        let bound = lambda * chip.max_gain * chip.adc_lsb() / (2.0 * (n as f64).sqrt());
        let mut options = solver.config().engine.clone();
        options.steady_tol = options.steady_tol.map(|tol| tol.max(bound));
        let lane = solver.mapped().last_lane().expect("the solve ran").clone();
        let at_rest = LaneBindings {
            int_initial: Some((0..n).map(|i| (i, 0.0)).collect()),
            ..lane.clone()
        };
        let chip = solver.chip_mut();
        let guess = chip.exec_lane(&lane, &options).expect("run from the guess");
        let rest = chip.exec_lane(&at_rest, &options).expect("run from rest");
        let wall_s = start.elapsed().as_secs_f64();
        assert!(guess.reached_steady_state && rest.reached_steady_state);
        if first.runs == 1 {
            assert_eq!(
                guess.duration_s, first.analog_time_s,
                "the accepted run again"
            );
        }
        let ratio = guess.duration_s / rest.duration_s;
        let us = |s: f64| s * 1e6;
        println!(
            "  {label}: first solve {:.2} µs in {} run(s); its run from the guess {:.2} µs \
             ({} steps), from rest {:.2} µs ({} steps) — {ratio:.3}x",
            us(first.analog_time_s),
            first.runs,
            us(guess.duration_s),
            guess.steps,
            us(rest.duration_s),
            rest.steps
        );
        let m = [
            ("first_solve_us", us(first.analog_time_s)),
            ("first_solve_runs", first.runs as f64),
            ("guess_run_us", us(guess.duration_s)),
            ("guess_run_steps", guess.steps as f64),
            ("rest_run_us", us(rest.duration_s)),
            ("rest_run_steps", rest.steps as f64),
            ("guess_over_rest", ratio),
        ];
        r.sim("first_solve", label.to_string(), wall_s, &m);
        // The guess at least halves a first run (measured: 0.21x at
        // n = 64, 0.09x on the tridiagonal).
        let name = format!("first_solve {label} guess_over_rest");
        r.gate(Clock::Simulated, name, Bound::AtMost(0.5), ratio);
    }
}

/// Analog-preconditioned flexible CG vs plain digital CG on 2D Poisson. The
/// analog solve becomes a preconditioner application z ≈ M⁻¹·r inside
/// digital Krylov iteration, so the iteration count carries the win.
/// Iteration counts, the final path, simulated chip time and the paper's
/// `CpuModel` time are exact and host-independent: every row is simulated
/// and every gate fires on every host.
fn krylov_precond(r: &mut Report) {
    let sides: &[usize] = r.pick(&[8, 11, 16], &[8, 10, 11, 16]);
    let cpu = CpuModel::xeon_x5550();
    let ktol = KrylovConfig::default().tolerance;
    println!("\nanalog-preconditioned FCG vs plain CG (relative tolerance {ktol:.0e})");
    for &side in sides {
        let n = side * side;
        let a = poisson(side);
        let b: Vec<f64> = (0..n).map(|i| 0.5 + ((i % 7) as f64) * 0.25).collect();
        let stop = IterativeConfig::with_stopping(StoppingCriterion::RelativeResidual(ktol));
        let (cg_s, plain) = best_of(1, || cg(&a, &b, &stop).expect("plain CG"));
        assert!(plain.converged, "plain CG must converge at n={n}");
        let (fcg_s, fcg) = best_of(1, || {
            let recovery = RecoveryConfig::default();
            let mut sup =
                SupervisedSolver::new(&a, &SolverConfig::ideal(), &recovery).expect("maps");
            let mut precond = AnalogPreconditioner::new(&mut sup);
            fcg_solve(&mut precond, &b, &KrylovConfig::default()).expect("fcg solve")
        });
        assert!(fcg.converged, "FCG must converge at n={n}");
        let (cg_iters, fcg_iters) = (plain.iterations, fcg.iterations);
        let iter_ratio = cg_iters as f64 / fcg_iters as f64;
        // Simulated chip time of every preconditioner application: the
        // time to tolerance the iteration count alone does not show.
        let precond_ms = fcg.precond.analog_time_s * 1e3;
        let cg_cpu_us = cpu.solve_time_s(cg_iters, n) * 1e6;
        let fcg_cpu_us = cpu.solve_time_s(fcg_iters, n) * 1e6;
        // The warm guesses' flops at the model's per-row CG cost: a CG
        // iteration is one product, two dots and three axpys.
        let cg_iteration_flops = (2 * a.nnz() + 10 * n) as f64;
        let guess_cpu_us =
            fcg.precond.guess_flops as f64 / cg_iteration_flops * cpu.solve_time_s(1, n) * 1e6;
        let path = fcg.precond.final_path();
        println!(
            "  n = {n:>4}: cg {cg_iters:>3} iters ({cg_s:9.4} s, {cg_cpu_us:.2} µs modelled cpu)   \
             fcg {fcg_iters:>3} iters ({fcg_s:9.4} s, {precond_ms:.3} ms simulated analog + \
             {fcg_cpu_us:.2} + {guess_cpu_us:.2} µs modelled cpu, the second for warm guesses)   \
             {iter_ratio:5.2}x fewer iterations, precond path {}",
            path.label()
        );
        let config = |method| format!("poisson 2d n={n}, {method}");
        let m = [("iterations", cg_iters as f64), ("cpu_model_us", cg_cpu_us)];
        r.sim("krylov_precond", config("plain cg"), cg_s, &m);
        // Modelled CG time over simulated chip + modelled FCG time.
        let time_ratio = cg_cpu_us / (precond_ms * 1e3 + fcg_cpu_us);
        let m = [
            ("iterations", fcg_iters as f64),
            ("precond_analog_ms", precond_ms),
            ("cpu_model_us", fcg_cpu_us),
            ("guess_cpu_model_us", guess_cpu_us),
            ("krylov_iter_ratio", iter_ratio),
            ("krylov_model_time_ratio", time_ratio),
        ];
        r.sim("krylov_precond", config("fcg analog precond"), fcg_s, &m);
        let sim = Clock::Simulated;
        let name = |what| format!("krylov_precond n={n} {what}");
        // Every application of the ideal chip validates on its first run.
        let analog = f64::from(u8::from(path == FinalPath::Analog));
        let yes = Bound::Exactly(1.0);
        r.gate(sim, name("precond path is Analog"), yes, analog);
        if n >= 64 {
            let share = fcg_iters as f64 / cg_iters as f64;
            r.gate(sim, name("fcg/cg iterations"), Bound::AtMost(0.7), share);
        }
        // At most 1.15x (the fleet benchmark's bound) the 0.162 ms n = 64
        // took once every application's run stopped at the residual read
        // through its slowest remaining mode's shape factor ρ, not √n, and
        // continued only a readout that missed its aim.
        if n == 64 {
            let bound = Bound::AtMost(1.15 * 0.162);
            r.gate(sim, name("precond_analog_ms"), bound, precond_ms);
        }
    }
}

/// Extended-precision refinement floor on an ill-conditioned SPD system:
/// the compensated residual path keeps contracting after the f64 path
/// stalls at its n·ε·cond(A) recompute noise floor.
fn refine_compensated(r: &mut Report) {
    let n = 12;
    let a = ill_conditioned(n);
    let b: Vec<f64> = (0..n).map(|i| 0.25 + 0.5 * ((i % 5) as f64)).collect();
    let run_refined = |compensated: bool| {
        // ‖A⁻¹‖∞ ≈ 10² here, so seed the solution-scale walk with an
        // honest magnitude estimate instead of burning rescale retries.
        let cfg = SolverConfig {
            solution_bound: 150.0,
            ..SolverConfig::ideal()
        };
        let mut solver = AnalogSystemSolver::new(&a, &cfg).expect("maps");
        let refine = RefineConfig {
            tolerance: 1e-17,
            max_rounds: 80,
            min_progress: 0.97,
            compensated,
        };
        best_of(1, || {
            solve_refined(&mut solver, &b, &refine).expect("refines")
        })
    };
    let (plain_s, plain) = run_refined(false);
    let (comp_s, comp) = run_refined(true);
    // One common two-float oracle measures both final iterates so the
    // floor comparison is not limited by f64 measurement precision.
    let b_norm = compensated::norm2_comp(&b);
    let floor =
        |u: &[TwoFloat]| compensated::norm2_comp(&compensated::residual_comp(&a, u, &b)) / b_norm;
    let plain_res = floor(&compensated::promote(&plain.solution));
    let lo = comp.solution_lo.as_ref().expect("compensated lo");
    let comp_u: Vec<TwoFloat> = comp
        .solution
        .iter()
        .zip(lo)
        .map(|(hi, lo)| TwoFloat { hi: *hi, lo: *lo })
        .collect();
    let comp_res = floor(&comp_u);
    let gain = plain_res / comp_res;
    println!(
        "\nextended-precision refinement (ill-conditioned n={n}): f64 floor {plain_res:.3e} \
         ({} rounds), compensated floor {comp_res:.3e} ({} rounds) — {gain:.1}x tighter",
        plain.rounds, comp.rounds
    );
    let config = |path| format!("ill-conditioned n={n}, {path} residual path");
    let m = [("rounds", plain.rounds as f64)];
    r.sim("refine_compensated", config("f64"), plain_s, &m);
    let m = [("rounds", comp.rounds as f64), ("refine_ulp_gain", gain)];
    r.sim("refine_compensated", config("compensated"), comp_s, &m);
}

/// Block-Jacobi decomposition of a 2D Poisson problem across threads,
/// best-of-N per thread count so a single scheduling hiccup can't fake a
/// regression (or hide one). With the persistent worker pool, two threads
/// must never again be slower than serial.
fn decomposed_scaling(r: &mut Report) {
    let l = r.pick(6, 8);
    let reps = r.pick(3, 5);
    let (n, cores) = (l * l, r.cores);
    let (a, b) = (poisson(l), vec![1.0; n]);
    println!(
        "\ndecomposed block-Jacobi scaling (n = {n}, {cores} core(s) available, best of {reps})"
    );
    let mut serial_s = 0.0;
    for threads in [1usize, 2, 4] {
        let cfg = DecomposeConfig {
            block_size: l,
            outer: OuterMethod::BlockJacobi,
            tolerance: 1e-6,
            max_sweeps: 600,
            parallel: ParallelConfig::threads(threads),
            ..DecomposeConfig::default()
        };
        let (wall, report) = best_of(reps, || solve_decomposed(&a, &b, &cfg).expect("solves"));
        if threads == 1 {
            serial_s = wall;
        }
        let speedup = serial_s / wall;
        let (sweeps, note) = (report.sweeps, undersubscribed(threads, cores));
        println!(
            "  threads = {threads}: {wall:9.4} s  (speedup {speedup:5.2}x, {sweeps} sweeps{note})"
        );
        let config = format!("poisson 2d n={n}, blocks={l}, threads={threads}");
        let m = [("speedup_vs_serial", speedup)];
        r.scaling("decomposed_scaling", config, wall, threads, &m);
        if threads == 2 {
            let name = "decomposed_scaling threads=2 speedup_vs_serial";
            r.gate(Clock::Host, name, Bound::AtLeast(1.0), speedup);
        }
    }
}

/// RHS coalescing width of the fleet groups.
const FLEET_BATCH: usize = 4;

/// Best-of-`reps` wall seconds and requests per second of serving
/// `requests` right-hand sides, round-robined over `mats`, through a
/// fresh fleet from `config` (one dispatcher shard per chip).
fn serve(mats: &[CsrMatrix], config: FleetConfig, requests: usize, reps: usize) -> (f64, f64) {
    let shards = config.chips;
    let config = config.with_shards(shards).with_queue_capacity(requests);
    let mut wall = f64::INFINITY;
    for _ in 0..reps {
        let mut fleet = FleetService::new(config.clone(), mats.to_vec()).expect("fleet builds");
        let start = Instant::now();
        for i in 0..requests {
            let s = i % mats.len();
            let rhs: Vec<f64> = (0..mats[s].dim())
                .map(|j| 0.5 + 0.01 * ((i + j) % 5) as f64)
                .collect();
            fleet.submit(SolveRequest::new(s, rhs)).expect("admitted");
        }
        let served = fleet.run_until_idle();
        assert_eq!(served, requests, "every request must be answered");
        wall = wall.min(start.elapsed().as_secs_f64());
    }
    (wall, requests as f64 / wall)
}

/// Serves `requests` over `structures` through fleets of each size in
/// `sizes` (shards = workers = chips), one row per size with its speedup
/// over one chip, and gates the 4-chip point at ≥ 1.0×: more chips on more
/// workers must not serve slower.
fn fleet_curve(
    r: &mut Report,
    bench: &str,
    what: &str,
    structures: &[CsrMatrix],
    seed: u64,
    sizes: &[usize],
    requests: usize,
) {
    let reps = r.pick(2, 3);
    println!("\n{bench} ({what}, {requests} requests, best of {reps})");
    let mut serial_rps = 0.0;
    for &chips in sizes {
        let config = FleetConfig::new(chips)
            .with_seed(seed)
            .with_workers(chips)
            .with_max_batch_rhs(FLEET_BATCH);
        let (wall, rps) = serve(structures, config, requests, reps);
        if chips == 1 {
            serial_rps = rps;
        }
        let speedup = rps / serial_rps;
        let note = undersubscribed(chips, r.cores);
        println!(
            "  chips = {chips:2}: {wall:9.4} s  ({rps:8.1} req/s, speedup {speedup:5.2}x{note})"
        );
        let config = format!(
            "{what}, chips={chips}, shards={chips}, workers={chips}, batch={FLEET_BATCH}, \
             requests={requests}"
        );
        let m = [
            ("chips", chips as f64),
            ("requests_per_sec", rps),
            ("speedup_vs_serial", speedup),
        ];
        r.scaling(bench, config, wall, chips, &m);
        if chips == 4 {
            let name = format!("{bench} chips=4 speedup_vs_serial");
            r.gate(Clock::Host, name, Bound::AtLeast(1.0), speedup);
        }
    }
}

/// One chip vs. four on a single-structure stream (2D Poisson, n = 16,
/// big enough for per-request work to dominate dispatch). Every chip
/// lowers its plan once and coalesces its round into multi-lane sweeps.
/// Structure-affinity routing keeps the stream on its home shard; the
/// round-robin it replaced duplicated each chip's one-time calibration and
/// once made this ratio 0.60x.
fn fleet_throughput(r: &mut Report) {
    let requests = r.pick(8, 24);
    let what = "poisson 2d n=16";
    fleet_curve(
        r,
        "fleet_throughput",
        what,
        &[poisson(4)],
        0xBE7C,
        &[1, 4],
        requests,
    );
}

/// RHS coalescing on vs. off: four chips driven by ONE worker, so the
/// comparison isolates the batched sweep from thread scheduling, over a
/// stream long enough to amortize each chip's one-off γ-calibration. A
/// round served as multi-lane sweeps may never be slower than one sweep
/// per request.
fn fleet_coalescing(r: &mut Report) {
    let requests = r.pick(32, 48);
    let reps = r.pick(2, 3);
    let serve_batch = |batch| {
        let config = FleetConfig::new(4).with_seed(0xBE7C).with_workers(1);
        let config = config.with_max_batch_rhs(batch);
        serve(&[poisson(4)], config, requests, reps)
    };
    let (on_wall, on_rps) = serve_batch(FLEET_BATCH);
    let (off_wall, off_rps) = serve_batch(1);
    let speedup = on_rps / off_rps;
    println!("\nfleet_coalescing (poisson 2d n=16, 4 chips, 1 worker, {requests} requests)");
    println!("  coalescing on  (batch={FLEET_BATCH}): {on_wall:9.4} s  ({on_rps:8.1} req/s)");
    println!("  coalescing off (batch=1): {off_wall:9.4} s  ({off_rps:8.1} req/s) — {speedup:.2}x");
    let config = |b| format!("poisson 2d n=16, chips=4, workers=1, requests={requests}, batch={b}");
    let m = [("requests_per_sec", off_rps)];
    r.scaling("fleet_coalescing", config(1), off_wall, 1, &m);
    let m = [
        ("requests_per_sec", on_rps),
        ("coalescing_speedup", speedup),
    ];
    r.scaling("fleet_coalescing", config(FLEET_BATCH), on_wall, 1, &m);
    let name = "fleet_coalescing coalescing_speedup";
    r.gate(Clock::Host, name, Bound::AtLeast(1.0), speedup);
}

/// A 1 / 4 / 16-chip curve over 16 small well-conditioned tridiagonal
/// structures (dims 4..=7 × four diagonal weights), so every request stays
/// on the analog path — larger systems tip into the recovery ladder and the
/// curve would measure failure handling, not dispatch. Each structure homes
/// to one shard at every fleet size, so the one-time calibration cost is
/// constant along the curve.
fn fleet_scaling(r: &mut Report) {
    let structures: Vec<CsrMatrix> = (0..16usize)
        .map(|s| {
            let diag = 2.0 + 0.25 * (s / 4) as f64;
            CsrMatrix::tridiagonal(4 + s % 4, -1.0, diag, -1.0).expect("structure")
        })
        .collect();
    let requests = r.pick(16, 48);
    let what = "16 tridiagonal structures dims 4..=7";
    fleet_curve(
        r,
        "fleet_scaling",
        what,
        &structures,
        0x5CA1E,
        &[1, 4, 16],
        requests,
    );
}

/// The recovery path's fixed cost — freeze a fleet mid-serve and rebuild it
/// from snapshot + WAL, best of N — and the deterministic failure gauntlet
/// (chip deaths, hangs, stalls, bursts, deadline storms, crash/restore),
/// whose invariants are gated.
fn resilience(r: &mut Report) {
    let a = vec![poisson(4)];
    let reps = r.pick(2, 5);
    let requests = r.pick(4, 12);
    let mut ckpt_s = f64::INFINITY;
    for _ in 0..reps {
        let config = FleetConfig::new(3)
            .with_seed(0xC4A5)
            .with_queue_capacity(requests.max(4));
        let mut fleet = FleetService::new(config.clone(), a.clone()).expect("fleet builds");
        for i in 0..requests {
            let rhs: Vec<f64> = (0..16).map(|j| 0.5 + 0.01 * ((i + j) % 5) as f64).collect();
            fleet.submit(SolveRequest::new(0, rhs)).expect("admitted");
        }
        fleet.run_round();
        let start = Instant::now();
        let checkpoint = fleet.checkpoint();
        let wal = fleet.wal().clone();
        drop(fleet);
        let restored =
            FleetService::restore(config, a.clone(), &checkpoint, &wal).expect("restores");
        ckpt_s = ckpt_s.min(start.elapsed().as_secs_f64());
        drop(restored);
    }
    let ckpt_ms = ckpt_s * 1e3;
    println!("\ncheckpoint + restore (3 chips, mid-serve, best of {reps}): {ckpt_ms:9.3} ms");
    let config = format!("poisson 2d n=16, chips=3, {requests} queued");
    r.host("checkpoint_restore", config, ckpt_s, &[]);

    let chaos = ChaosConfig {
        requests: r.pick(40, 120),
        ..ChaosConfig::standard(0x5EED)
    };
    let (soak_s, soak) = best_of(1, || run_soak(&chaos).expect("soak harness runs"));
    let (completed, crashes) = (soak.completed as f64, soak.crashes as f64);
    println!(
        "chaos soak ({} accepted, {completed} completed, {crashes} crashes): {soak_s:9.3} s",
        soak.accepted
    );
    for violation in &soak.violations {
        println!("  chaos soak violation: {violation}");
    }
    let violations = soak.violations.len() as f64;
    let name = "chaos_soak invariant violations";
    r.gate(Clock::Simulated, name, Bound::Exactly(0.0), violations);
    let (chips, requests, seed) = (chaos.chips, chaos.requests, chaos.seed);
    let config = format!("chips={chips}, requests={requests}, seed={seed:#x}");
    let m = [("requests_per_sec", completed / soak_s)];
    r.host("chaos_soak", config.clone(), soak_s, &m);
    let m = [("requests_completed", completed), ("crashes", crashes)];
    r.sim("chaos_soak", config, soak_s, &m);
}
