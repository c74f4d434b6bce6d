//! Closed-loop serving benchmark of `aa_sched::FleetService`.
//!
//! ```text
//! fleetbench --workload <serve_batched|serve_mixed|serve_krylov> --seed <n> \
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload, single-threaded. A run is a sequence of
//! *passes*; each pass builds a fresh fleet, serves the workload's warm-up
//! requests (the set-up), then serves the seed's fixed request streams
//! from closed-loop clients (the timed phase): every client keeps one
//! request outstanding and submits its next as soon as a `run_round`
//! returns its answer. Because every pass serves the same requests on a
//! fresh fleet, its simulated metrics must repeat bit for bit; the run
//! checks that and fails itself otherwise.
//!
//! `--trace 0` installs no recorder and reports the end-to-end metrics: it
//! makes three passes, then spends the rest of `--seconds` timing fresh
//! set-ups against a fixed reference kernel for `setup_s`. `--trace 1`
//! alternates untraced passes with passes under the benchmark's own
//! [`tally::Tally`] recorder until about `--seconds` have gone, and
//! reports the per-layer metrics, including the fleet's host-time
//! throughput and latency from the untraced passes (see `METRICS.md`).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod oracle;
mod tally;
mod workload;

use std::sync::Arc;
use std::time::{Duration, Instant};

use aa_linalg::CsrMatrix;
use aa_sched::{CompletionPath, FleetService, SolveRequest, SolveTicket};

use tally::{Summary, Tally};
use workload::Workload;

/// A run never starts another pass once this much time has gone.
const HARD_STOP: Duration = Duration::from_secs(120);

/// Passes of each kind a run makes at least: enough to check that the
/// exact metrics repeat, and enough latency samples for each workload's
/// tail percentile.
const MIN_PASSES: usize = 3;

/// Set-ups an untraced run times at least, for the median of `setup_s`.
const MIN_SET_UPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad(&"must be in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("fleetbench: {e}");
        eprintln!(
            "usage: fleetbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            workload::NAMES.join("|")
        );
        std::process::exit(2);
    });
    let Some(w) = Workload::build(&args.workload, args.seed) else {
        eprintln!(
            "fleetbench: unknown workload {:?} (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let passes = run(&w, start, budget, args.trace);
    let mut report = if args.trace {
        per_layer(&w, &passes)
    } else {
        end_to_end(&w, &passes, start, budget)
    };
    report.notes.insert(
        0,
        format!(
            "{} seed={} passes={} requests/pass={} latency samples={} tail=p{}",
            w.name,
            args.seed,
            passes.len(),
            w.requests_per_pass(),
            passes.iter().map(|p| p.latency_ns.len()).sum::<usize>(),
            w.tail_percentile
        ),
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for problem in &report.problems {
        println!("# SELF-CHECK FAILED: {problem}");
    }
    println!("{}", report.json());
}

/// Runs passes. An untraced run makes the minimum count and leaves the
/// rest of the budget to [`set_up_samples`]. A traced run alternates
/// untraced and traced passes, starting untraced, makes the minimum of
/// each, and stops when another pass would end more than half a pass
/// past `budget`.
fn run(w: &Workload, start: Instant, budget: Duration, trace: bool) -> Vec<Pass> {
    let min_passes = if trace { 2 * MIN_PASSES } else { MIN_PASSES };
    let mut passes = Vec::new();
    loop {
        let traced = trace && passes.len() % 2 == 1;
        let pass_start = Instant::now();
        passes.push(run_pass(w, traced));
        let next_end = start.elapsed() + pass_start.elapsed() / 2;
        let done = passes.len() >= min_passes && (!trace || next_end >= budget);
        if done || start.elapsed() >= HARD_STOP {
            return passes;
        }
    }
}

/// Fresh set-ups, each timed between two runs of the reference kernel,
/// until at least [`MIN_SET_UPS`] were taken and another would end past
/// `budget`. Returns each set-up's host seconds and its host seconds over
/// the mean of the two reference runs around it.
fn set_up_samples(w: &Workload, start: Instant, budget: Duration) -> (Vec<f64>, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut ratios = Vec::new();
    let mut before = host::reference_s();
    loop {
        let t0 = Instant::now();
        drop(std::hint::black_box(set_up(w)));
        let setup_s = t0.elapsed().as_secs_f64();
        let after = host::reference_s();
        seconds.push(setup_s);
        ratios.push(setup_s / (0.5 * (before + after)));
        before = after;
        let next_end = start.elapsed() + t0.elapsed();
        let done = ratios.len() >= MIN_SET_UPS && next_end >= budget;
        if done || start.elapsed() >= HARD_STOP {
            return (seconds, ratios);
        }
    }
}

/// What one pass measured.
struct Pass {
    traced: bool,
    timed_s: f64,
    /// Per completed request: submit → return of the answering round.
    latency_ns: Vec<u64>,
    submit_ns: Vec<u64>,
    round_ns: Vec<u64>,
    attempted: usize,
    correct: usize,
    exact: Exact,
    /// The recorder's view of the set-up and of the timed phase.
    trace: Option<(Summary, Summary)>,
}

/// What a pass must repeat bit for bit, traced or not.
struct Exact {
    answered: usize,
    correct: usize,
    /// `DigitalFallback` answers above the fleet's digital-lane tolerance,
    /// which the supervisor's own CG fallback does not promise.
    fallback_above_fleet_tolerance: usize,
    analog_share: f64,
    sim_us_per_solve: f64,
    energy_uj_per_solve: f64,
    reqs_per_round: f64,
    wait_rounds_p50: f64,
    estimate_ratio_p50: f64,
}

impl Exact {
    fn named(&self) -> [(&'static str, f64); 9] {
        [
            ("answered", self.answered as f64),
            ("correct", self.correct as f64),
            (
                "fallback_above_fleet_tolerance",
                self.fallback_above_fleet_tolerance as f64,
            ),
            ("analog_share", self.analog_share),
            ("sim_us_per_solve", self.sim_us_per_solve),
            ("energy_uj_per_solve", self.energy_uj_per_solve),
            ("sched.reqs_per_round", self.reqs_per_round),
            ("sched.wait_rounds_p50", self.wait_rounds_p50),
            ("sched.estimate_ratio_p50", self.estimate_ratio_p50),
        ]
    }
}

/// Runs `f` under `tally` when there is one.
fn traced<T>(tally: &Option<Arc<Tally>>, f: impl FnOnce() -> T) -> T {
    match tally {
        Some(t) => aa_obs::with_recorder(t.clone(), f),
        None => f(),
    }
}

/// A client's outstanding request.
struct Outstanding {
    ticket: SolveTicket,
    index: usize,
    submitted: Instant,
    round: u64,
}

/// The set-up: a fresh fleet that has served the warm-up requests.
fn set_up(w: &Workload) -> FleetService {
    let structures: Vec<CsrMatrix> = w.structures.iter().map(|s| s.matrix.clone()).collect();
    let mut fleet = FleetService::new(w.config.clone(), structures).expect("workload fleet builds");
    for group in &w.warmup {
        for request in group {
            fleet
                .submit(request.clone())
                .expect("warm-up request admitted");
        }
        fleet.run_until_idle();
    }
    fleet
}

fn run_pass(w: &Workload, traced_pass: bool) -> Pass {
    let mut streams: Vec<std::vec::IntoIter<SolveRequest>> =
        w.streams.iter().map(|s| s.clone().into_iter()).collect();
    let setup_tally = traced_pass.then(Tally::shared);
    let timed_tally = traced_pass.then(Tally::shared);

    let mut fleet = traced(&setup_tally, || set_up(w));

    let clients = streams.len();
    let mut outstanding: Vec<Option<Outstanding>> = (0..clients).map(|_| None).collect();
    let mut next_index = vec![0usize; clients];
    // (client, request index, ticket, wait rounds) of every answer.
    let mut served: Vec<(usize, usize, SolveTicket, u64)> = Vec::new();
    let mut latency_ns = Vec::new();
    let mut submit_ns = Vec::new();
    let mut round_ns = Vec::new();
    let mut attempted = 0usize;
    let mut rounds = 0u64;

    let t1 = Instant::now();
    traced(&timed_tally, || {
        // Submits client `c`'s next request; a refused request counts as
        // attempted and failed, and the client moves on to its next one.
        let mut submit_next =
            |fleet: &mut FleetService, c: usize, rounds: u64| -> Option<Outstanding> {
                for request in streams[c].by_ref() {
                    let index = next_index[c];
                    next_index[c] += 1;
                    attempted += 1;
                    let submitted = Instant::now();
                    let verdict = fleet.submit(request);
                    submit_ns.push(submitted.elapsed().as_nanos() as u64);
                    if let Ok(ticket) = verdict {
                        return Some(Outstanding {
                            ticket,
                            index,
                            submitted,
                            round: rounds,
                        });
                    }
                }
                None
            };
        for (c, slot) in outstanding.iter_mut().enumerate() {
            *slot = submit_next(&mut fleet, c, rounds);
        }
        while outstanding.iter().any(Option::is_some) {
            let round_start = Instant::now();
            fleet.run_round();
            let returned = Instant::now();
            round_ns.push((returned - round_start).as_nanos() as u64);
            rounds += 1;
            let mut progressed = false;
            for (c, slot) in outstanding.iter_mut().enumerate() {
                let Some(o) = slot.as_ref() else { continue };
                if fleet.completion(o.ticket).is_none() {
                    continue;
                }
                progressed = true;
                latency_ns.push((returned - o.submitted).as_nanos() as u64);
                served.push((c, o.index, o.ticket, rounds - o.round));
                *slot = submit_next(&mut fleet, c, rounds);
            }
            assert!(
                progressed || fleet.queue_depth() > 0,
                "admitted requests neither queued nor answered"
            );
        }
    });
    let timed_s = t1.elapsed().as_secs_f64();

    // Everything below is outside the timed phase.
    served.sort_by_key(|&(_, _, ticket, _)| ticket.0);
    let mut correct = 0usize;
    let mut fallback_above_fleet_tolerance = 0usize;
    let mut analog = 0usize;
    let mut sim_s = 0.0;
    let mut energy_j = 0.0;
    let mut waits = Vec::with_capacity(served.len());
    let mut estimate_ratios = Vec::new();
    for &(c, index, ticket, wait) in &served {
        let request = &w.streams[c][index];
        let done = fleet.completion(ticket).expect("served");
        let oracle = &w.structures[request.structure].oracle;
        let residual = oracle.relative_residual(&done.solution, &request.rhs);
        if residual <= w.promised_tolerance(request.mode, done.path) {
            correct += 1;
        }
        if done.path == CompletionPath::DigitalFallback && residual > w.config.fallback_tolerance {
            fallback_above_fleet_tolerance += 1;
        }
        if done.path.is_analog() {
            analog += 1;
        }
        sim_s += done.analog_time_s;
        energy_j += done.energy_j;
        waits.push(wait as f64);
        if let (Some(estimate), true) = (fleet.estimate_s(done.structure), done.analog_time_s > 0.0)
        {
            estimate_ratios.push(estimate / done.analog_time_s);
        }
    }
    let n = served.len().max(1) as f64;
    let exact = Exact {
        answered: served.len(),
        correct,
        fallback_above_fleet_tolerance,
        analog_share: analog as f64 / n,
        sim_us_per_solve: sim_s / n * 1e6,
        energy_uj_per_solve: energy_j / n * 1e6,
        reqs_per_round: served.len() as f64 / rounds.max(1) as f64,
        wait_rounds_p50: median(&mut waits),
        estimate_ratio_p50: median(&mut estimate_ratios),
    };
    Pass {
        traced: traced_pass,
        timed_s,
        latency_ns,
        submit_ns,
        round_ns,
        attempted,
        correct,
        exact,
        trace: setup_tally
            .zip(timed_tally)
            .map(|(s, t)| (s.summary(), t.summary())),
    }
}

/// The run's result line, the comment lines before it, and any failed
/// self-checks.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    problems: Vec<String>,
}

impl Report {
    fn new(passes: &[Pass]) -> Report {
        let attempted: usize = passes.iter().map(|p| p.attempted).sum();
        let correct: usize = passes.iter().map(|p| p.correct).sum();
        let mut report = Report {
            attempted,
            failed: attempted - correct,
            metrics: Vec::new(),
            notes: Vec::new(),
            problems: Vec::new(),
        };
        if correct < attempted {
            report.problems.push(format!(
                "{} of {attempted} requests refused or answered above the promised residual",
                attempted - correct
            ));
        }
        // Every pass serves the same requests on a fresh fleet: its exact
        // metrics must match the first pass's bit for bit.
        for (i, pass) in passes.iter().enumerate().skip(1) {
            let traced = if pass.traced { ", traced" } else { "" };
            report.check_same(
                ("pass 0", passes[0].exact.named()),
                (&format!("pass {i}{traced}"), pass.exact.named()),
            );
        }
        report
    }

    /// Records a failed self-check for each named value whose bits differ
    /// between two passes.
    fn check_same<'a>(
        &mut self,
        (first_pass, first): (&str, impl IntoIterator<Item = (&'a str, f64)>),
        (other_pass, other): (&str, impl IntoIterator<Item = (&'a str, f64)>),
    ) {
        for ((name, a), (_, b)) in first.into_iter().zip(other) {
            if a.to_bits() != b.to_bits() {
                self.problems.push(format!(
                    "{name} differs between {first_pass} ({a}) and {other_pass} ({b})"
                ));
            }
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems
                .push(format!("{name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics: set-up time, and what a pass must repeat bit
/// for bit. On a shared machine, host-time throughput and latency drift
/// between runs by more than an end-to-end bound may allow, so they are
/// reported with the per-layer metrics instead ([`fleet_host_metrics`]).
///
/// The host's speed drifts too, and set-up time with it, so `setup_s` is
/// the median set-up measured against the reference kernel timed around
/// it, in seconds of a host that runs the kernel in
/// [`host::REFERENCE_S`]. The raw median is printed as a note.
fn end_to_end(w: &Workload, passes: &[Pass], start: Instant, budget: Duration) -> Report {
    let mut report = Report::new(passes);
    let first = &passes[0].exact;
    let (mut seconds, mut ratios) = set_up_samples(w, start, budget);
    report.notes.push(format!(
        "set-ups={} median host seconds={:.6} median over reference kernel={:.4}",
        ratios.len(),
        median(&mut seconds),
        median(&mut ratios)
    ));
    report.notes.push(format!(
        "digital_fallback answers above FleetConfig::fallback_tolerance per pass={}",
        first.fallback_above_fleet_tolerance
    ));
    report.push("setup_s", median(&mut ratios) * host::REFERENCE_S, "s");
    report.push(
        "correct_share",
        (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.push("analog_share", first.analog_share, "ratio");
    report.push("sim_us_per_solve", first.sim_us_per_solve, "us");
    report.push("energy_uj_per_solve", first.energy_uj_per_solve, "uJ");
    report.push("peak_rss_mb", host::peak_rss_mb(), "MB");
    report
}

/// The count-type per-layer metrics of one traced pass, with their units:
/// they must repeat bit for bit between traced passes.
fn trace_counts(pass: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let (_, t) = pass.trace.as_ref().expect("traced pass");
    let reqs = pass.latency_ns.len().max(1) as f64;
    let count = |name: &str| t.counter(name) as f64;
    // Every supervised solve and every batched lane is an analog attempt,
    // and so is every attempt the recovery ladder rejected. A lane is
    // useful when its sweep solved it and the supervisor certified it; a
    // lane that fails either re-enters the ladder as a supervised solve.
    let lanes = count("solver.batch_lanes");
    let ladder_rejects = count("solver.recovery.rejected_attempts");
    let attempts = count("solver.supervised_solves") + ladder_rejects + lanes;
    let rejected = ladder_rejects
        + (lanes - count(tally::BATCH_SOLVED))
        + count("solver.recovery.batch_fallbacks");
    let compiles = t.span("engine.compile").calls as f64;
    vec![
        ("sched.quarantines", count("sched.quarantines"), "count"),
        ("sched.requeues", count("sched.requeues"), "count"),
        ("solver.attempts_per_req", attempts / reqs, "count"),
        (
            "solver.first_try_share",
            ratio(attempts - rejected, attempts),
            "ratio",
        ),
        ("solver.remaps", count("solver.recovery.remaps"), "count"),
        (
            "solver.recalibrations",
            count("solver.recovery.recalibrations"),
            "count",
        ),
        (
            "solver.krylov.iters_per_req",
            count("solver.krylov.iterations") / reqs,
            "count",
        ),
        (
            "solver.krylov.demotions",
            count("solver.krylov.precond_demotions"),
            "count",
        ),
        (
            "engine.steps_per_req",
            count("engine.steps") / reqs,
            "count",
        ),
        (
            "engine.lanes_per_run",
            ratio(count("engine.batch_lanes"), count("engine.batch_runs")),
            "count",
        ),
        (
            "engine.plan_hit_share",
            ratio(count("engine.plan_cache_hits"), compiles),
            "ratio",
        ),
    ]
}

/// Host-time serving metrics of the fleet boundary, from untraced passes:
/// the median pass throughput and percentiles of every request's latency.
fn fleet_host_metrics(w: &Workload, untraced: &[&Pass], report: &mut Report) {
    let mut throughput: Vec<f64> = untraced
        .iter()
        .map(|p| p.latency_ns.len() as f64 / p.timed_s)
        .collect();
    let mut latency: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.latency_ns.iter().map(|&ns| ns as f64 * 1e-6))
        .collect();
    let tail = percentile(&mut latency, w.tail_percentile);
    report.push("fleet.throughput_per_s", median(&mut throughput), "1/s");
    report.push("fleet.latency_p50_ms", percentile(&mut latency, 50.0), "ms");
    report.push("fleet.latency_tail_ms", tail, "ms");
}

fn per_layer(w: &Workload, passes: &[Pass]) -> Report {
    let mut report = Report::new(passes);
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    fleet_host_metrics(w, &untraced, &mut report);
    let counts = trace_counts(traced[0]);
    for (i, pass) in traced.iter().enumerate().skip(1) {
        report.check_same(
            (
                "traced pass 0",
                counts.iter().map(|&(name, value, _)| (name, value)),
            ),
            (
                &format!("traced pass {i}"),
                trace_counts(pass)
                    .into_iter()
                    .map(|(name, value, _)| (name, value)),
            ),
        );
    }

    // Host-time metrics: totals over every traced pass.
    let reqs: f64 = traced.iter().map(|p| p.latency_ns.len() as f64).sum();
    let summaries: Vec<&(Summary, Summary)> = traced
        .iter()
        .map(|p| p.trace.as_ref().expect("traced pass"))
        .collect();
    let ns = |f: &dyn Fn(&Summary) -> u64| summaries.iter().map(|(_, t)| f(t) as f64).sum::<f64>();
    let mut submit: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.submit_ns.iter().map(|&n| n as f64))
        .collect();
    let mut round: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.round_ns.iter().map(|&n| n as f64))
        .collect();
    let mut compile_ms: Vec<f64> = summaries
        .iter()
        .map(|(setup, _)| setup.span("engine.compile").total_ns as f64 * 1e-6)
        .collect();
    let per_request_s = |ps: &[&Pass]| {
        let mut v: Vec<f64> = ps
            .iter()
            .map(|p| p.timed_s / p.latency_ns.len() as f64)
            .collect();
        median(&mut v)
    };
    let steps = ns(&|t| t.counter("engine.steps"));
    let execute_ns = ns(&|t| t.span("engine.execute").total_ns);

    report.push("sched.submit_us", median(&mut submit) * 1e-3, "us");
    report.push("sched.round_ms", median(&mut round) * 1e-6, "ms");
    report.push(
        "sched.self_ms_per_req",
        ns(&|t| t.span("sched.round").self_ns) * 1e-6 / reqs,
        "ms",
    );
    let first = &traced[0].exact;
    report.push("sched.reqs_per_round", first.reqs_per_round, "count");
    report.push("sched.wait_rounds_p50", first.wait_rounds_p50, "count");
    report.push(
        "sched.estimate_ratio_p50",
        first.estimate_ratio_p50,
        "ratio",
    );
    report.push(
        "solver.self_ms_per_req",
        ns(&|t| t.spans_with_prefix("solver.").self_ns) * 1e-6 / reqs,
        "ms",
    );
    report.push(
        "solver.krylov.self_ms_per_req",
        ns(&|t| t.span("solver.krylov.fcg").self_ns) * 1e-6 / reqs,
        "ms",
    );
    report.push("engine.execute_ms_per_req", execute_ns * 1e-6 / reqs, "ms");
    report.push("engine.ns_per_step", ratio(execute_ns, steps), "ns");
    report.push("engine.compile_ms", median(&mut compile_ms), "ms");
    for (name, value, unit) in counts {
        report.push(name, value, unit);
    }
    report.push(
        "obs.trace_overhead",
        per_request_s(&traced) / per_request_s(&untraced),
        "ratio",
    );
    report
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile; `0` for no values.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}
