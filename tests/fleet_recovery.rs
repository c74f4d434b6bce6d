//! Crash-recovery tests for the fleet service: a service that crashes and
//! is rebuilt from its last [`FleetCheckpoint`] plus the [`AdmissionWal`]
//! recorded afterwards must drain to a bit-identical [`ScheduleLog`],
//! identical solution vectors, and identical masked obs traces versus a
//! fleet that never crashed — at any worker count, and with no accepted
//! request lost or double-answered (exactly-once).
//!
//! Test frame: both the uninterrupted and the crashed run swap in a fresh
//! recorder at the crash point, so the comparison covers the post-crash
//! segment symmetrically (counters are cumulative per recorder). The
//! restore itself runs outside any recorder — rebuilding the deterministic
//! chip stack is not part of the serving trace.

use analog_accel::obs;
use analog_accel::prelude::*;
use analog_accel::sched::{
    AdmissionWal, ChipFailure, ChipState, Completion, FleetCheckpoint, FleetConfig, FleetService,
    Priority, ScheduleLog, SolveRequest,
};

/// One external input to the service, as a replayable program step.
#[derive(Clone)]
enum Op {
    Submit(SolveRequest),
    Round,
    Inject(usize, Option<ChipFailure>),
}

fn apply(service: &mut FleetService, op: &Op) {
    match op {
        Op::Submit(request) => {
            let _ = service.submit(request.clone());
        }
        Op::Round => {
            service.run_round();
        }
        Op::Inject(chip, failure) => service.inject_chaos(*chip, *failure).unwrap(),
    }
}

fn structures() -> Vec<CsrMatrix> {
    vec![
        CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap(),
        CsrMatrix::tridiagonal(5, -1.0, 2.0, -1.0).unwrap(),
    ]
}

fn fleet_config(workers: usize) -> FleetConfig {
    FleetConfig::new(3)
        .with_seed(0xC4A5_4001)
        .with_workers(workers)
}

/// A deterministic mixed workload program: submits across both structures
/// and all priority classes, interleaved with dispatch rounds.
fn mixed_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..12usize {
        let s = i % 2;
        let priority = match i % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        let rhs = vec![0.5 + 0.25 * i as f64; 4 + s];
        ops.push(Op::Submit(
            SolveRequest::new(s, rhs).with_priority(priority),
        ));
        if i % 3 == 2 {
            ops.push(Op::Round);
        }
    }
    for _ in 0..4 {
        ops.push(Op::Round);
    }
    ops
}

/// What a run leaves behind: the full schedule log, every settled
/// completion in ticket order, and the post-crash-segment trace snapshot.
struct RunResult {
    log: ScheduleLog,
    completions: Vec<Completion>,
    health: Vec<ChipState>,
    tail: obs::TraceSnapshot,
}

/// Drives `ops` through a fresh fleet, taking a checkpoint before the op
/// at `checkpoint_at` and (when `do_crash`) crashing + restoring before
/// the op at `crash_at`. Both variants swap in a fresh recorder at the
/// crash point so their tail traces are comparable.
fn drive(
    config: &FleetConfig,
    ops: &[Op],
    checkpoint_at: usize,
    crash_at: usize,
    do_crash: bool,
) -> RunResult {
    assert!(checkpoint_at <= crash_at && crash_at <= ops.len());
    let head = MemoryRecorder::shared();
    let mut service = FleetService::new(config.clone(), structures()).expect("fleet builds");
    let mut checkpoint: Option<FleetCheckpoint> = None;
    obs::with_recorder(head.clone(), || {
        for (i, op) in ops[..crash_at].iter().enumerate() {
            if i == checkpoint_at {
                checkpoint = Some(service.checkpoint());
            }
            apply(&mut service, op);
        }
        if checkpoint_at == crash_at {
            checkpoint = Some(service.checkpoint());
        }
    });
    if do_crash {
        let checkpoint = checkpoint.expect("checkpoint was taken");
        let wal: AdmissionWal = service.wal().clone();
        drop(service); // the crash
        service = FleetService::restore(config.clone(), structures(), &checkpoint, &wal)
            .expect("restore succeeds");
    }
    let tail = MemoryRecorder::shared();
    obs::with_recorder(tail.clone(), || {
        for op in &ops[crash_at..] {
            apply(&mut service, op);
        }
        service.run_until_idle();
    });
    RunResult {
        completions: service.completions().cloned().collect(),
        health: service.health().iter().map(|h| h.state).collect(),
        log: service.into_log(),
        tail: tail.snapshot(),
    }
}

fn assert_identical(baseline: &RunResult, recovered: &RunResult, label: &str) {
    assert_eq!(baseline.log, recovered.log, "{label}: schedule log");
    assert_eq!(
        baseline.completions, recovered.completions,
        "{label}: completions"
    );
    assert_eq!(baseline.health, recovered.health, "{label}: health states");
    if obs::ENABLED {
        assert_eq!(
            baseline.tail.deterministic_lines(),
            recovered.tail.deterministic_lines(),
            "{label}: tail journal"
        );
        assert_eq!(
            baseline.tail.counters, recovered.tail.counters,
            "{label}: tail counters"
        );
        assert_eq!(
            baseline.tail.to_json_masked(),
            recovered.tail.to_json_masked(),
            "{label}: tail masked trace"
        );
    }
}

/// The headline guarantee: crash at a seeded point, restore from
/// checkpoint + WAL, drain — bit-identical log, solutions, and masked
/// traces versus the uninterrupted run, at 1, 2, and 4 workers.
#[test]
fn crash_restore_is_bit_identical_across_worker_counts() {
    let ops = mixed_ops();
    let (checkpoint_at, crash_at) = (5, 11);
    let baseline = drive(&fleet_config(1), &ops, checkpoint_at, crash_at, false);
    assert!(
        baseline.completions.len() >= 12,
        "every submitted request settled"
    );
    for workers in [1usize, 2, 4] {
        let recovered = drive(&fleet_config(workers), &ops, checkpoint_at, crash_at, true);
        assert_identical(&baseline, &recovered, &format!("workers={workers}"));
        // And the uninterrupted run at this worker count matches too.
        let uninterrupted = drive(&fleet_config(workers), &ops, checkpoint_at, crash_at, false);
        assert_identical(
            &baseline,
            &uninterrupted,
            &format!("workers={workers} uninterrupted"),
        );
    }
}

/// Crashing between admission and dispatch (requests accepted, no round
/// run yet) loses nothing: the WAL re-admits them with the same tickets
/// and they are served exactly once.
#[test]
fn crash_between_admission_and_dispatch_loses_nothing() {
    let mut ops: Vec<Op> = (0..5usize)
        .map(|i| Op::Submit(SolveRequest::new(0, vec![1.0 + i as f64 * 0.5; 4])))
        .collect();
    let submits = ops.len();
    ops.push(Op::Round);
    // Checkpoint after two admissions; crash after all five, pre-dispatch.
    let baseline = drive(&fleet_config(1), &ops, 2, submits, false);
    let recovered = drive(&fleet_config(1), &ops, 2, submits, true);
    assert_eq!(recovered.completions.len(), 5, "no accepted request lost");
    let tickets: Vec<u64> = recovered.completions.iter().map(|c| c.ticket.0).collect();
    let mut deduped = tickets.clone();
    deduped.dedup();
    assert_eq!(tickets, deduped, "no request answered twice");
    assert_identical(&baseline, &recovered, "admission-dispatch gap");
}

/// Restoring while a chip is quarantined — and at later points while it is
/// on probation — reproduces the uninterrupted health trajectory exactly.
#[test]
fn restore_mid_quarantine_and_mid_probation_converges() {
    let mut ops = vec![Op::Inject(0, Some(ChipFailure::Dead))];
    for i in 0..10usize {
        ops.push(Op::Submit(SolveRequest::new(0, vec![1.0 + i as f64; 4])));
        ops.push(Op::Round);
    }
    let baseline = drive(&fleet_config(1), &ops, 0, ops.len(), false);
    assert!(
        baseline.log.events.iter().any(|e| matches!(
            e,
            analog_accel::sched::ScheduleEvent::Quarantined { chip: 0, .. }
        )),
        "the dead chip quarantines in the baseline"
    );
    // Crash at several points: while scores accumulate, right after the
    // quarantine, and mid-probation. Every restore must land on the same
    // final state as an uninterrupted run framed at the same point.
    for crash_at in [4usize, 8, 12, 16] {
        let uninterrupted = drive(&fleet_config(1), &ops, 2, crash_at, false);
        assert_eq!(
            baseline.log, uninterrupted.log,
            "crash_at={crash_at}: framing must not change the run"
        );
        let recovered = drive(&fleet_config(1), &ops, 2, crash_at, true);
        assert_identical(&uninterrupted, &recovered, &format!("crash_at={crash_at}"));
    }
}

/// Crash-restore with multi-RHS coalescing enabled: the checkpoint lands
/// before a round in which a wedged chip bounces a whole batched chunk, so
/// the WAL replay must reproduce the chunk-aligned requeue (and the rest
/// of the batched schedule) bit for bit — at 1, 2, and 4 workers.
#[test]
fn crash_restore_mid_batched_round_is_bit_identical() {
    let batched = |workers: usize| {
        let mut cfg = fleet_config(workers).with_max_batch_rhs(3);
        cfg.batch_size = 6;
        cfg
    };
    // Same-structure-heavy workload so multi-column chunks actually form;
    // the hang lands mid-chunk and bounces every column of the sweep.
    let mut ops: Vec<Op> = (0..6usize)
        .map(|i| Op::Submit(SolveRequest::new(0, vec![0.5 + 0.25 * i as f64; 4])))
        .collect();
    ops.push(Op::Inject(0, Some(ChipFailure::HangAfter { served: 1 })));
    ops.push(Op::Round);
    for i in 0..4usize {
        ops.push(Op::Submit(SolveRequest::new(1, vec![1.0 + i as f64; 5])));
    }
    ops.push(Op::Round);
    ops.push(Op::Round);
    // Checkpoint before the injection; crash right after the wedged round,
    // while the bounced columns sit requeued — recovery rebuilds that
    // state purely from WAL replay.
    let (checkpoint_at, crash_at) = (6, 8);
    let baseline = drive(&batched(1), &ops, checkpoint_at, crash_at, false);
    assert!(
        baseline.log.events.iter().any(|e| matches!(
            e,
            analog_accel::sched::ScheduleEvent::Requeued { columns, .. } if *columns > 1
        )),
        "a batched chunk bounced in the baseline"
    );
    assert!(
        baseline.completions.len() >= 10,
        "every submitted request settled"
    );
    for workers in [1usize, 2, 4] {
        let recovered = drive(&batched(workers), &ops, checkpoint_at, crash_at, true);
        assert_identical(&baseline, &recovered, &format!("batched workers={workers}"));
        let uninterrupted = drive(&batched(workers), &ops, checkpoint_at, crash_at, false);
        assert_identical(
            &baseline,
            &uninterrupted,
            &format!("batched workers={workers} uninterrupted"),
        );
    }
}

/// Crash-restore on a fleet whose solvers run the full optimization pass
/// pipeline: the per-solver checkpoints carry the pass config, the restore
/// re-lowers the optimized plans, and the drained run stays bit-identical
/// to the uninterrupted one.
#[test]
fn crash_restore_on_an_optimized_plan_fleet_is_bit_identical() {
    let optimized = |workers: usize| {
        let mut cfg = fleet_config(workers);
        cfg.solver.engine.passes = analog_accel::analog::PassConfig::full();
        cfg
    };
    let ops = mixed_ops();
    let (checkpoint_at, crash_at) = (5, 11);
    let baseline = drive(&optimized(1), &ops, checkpoint_at, crash_at, false);
    assert!(
        baseline.completions.len() >= 12,
        "every submitted request settled"
    );
    for workers in [1usize, 2] {
        let recovered = drive(&optimized(workers), &ops, checkpoint_at, crash_at, true);
        assert_identical(
            &baseline,
            &recovered,
            &format!("optimized workers={workers}"),
        );
    }
}

/// A checkpoint of an idle fleet (empty queue, empty WAL) restores cleanly
/// and the restored service serves new work identically.
#[test]
fn empty_queue_checkpoint_restores_and_serves_new_work() {
    let mut ops = vec![
        Op::Submit(SolveRequest::new(1, vec![0.5; 5])),
        Op::Round,
        Op::Round,
    ];
    let drained = ops.len();
    ops.push(Op::Submit(
        SolveRequest::new(0, vec![2.0; 4]).with_priority(Priority::High),
    ));
    ops.push(Op::Round);
    // Checkpoint and crash at the same idle point: the WAL between them is
    // empty, so recovery is the snapshot alone.
    let baseline = drive(&fleet_config(1), &ops, drained, drained, false);
    let recovered = drive(&fleet_config(1), &ops, drained, drained, true);
    assert_eq!(recovered.completions.len(), 2);
    assert_identical(&baseline, &recovered, "idle checkpoint");
}

/// Krylov-mode requests leave learned state behind: each supervisor caches
/// the preconditioner's per-application solution-scale corrections, and
/// the next request on that structure starts its analog solves from them.
/// A checkpoint taken mid-stream must carry that table, or the restored
/// fleet would start those solves at other scales and drift in solutions,
/// `analog_time_s`, and the schedule log.
#[test]
fn crash_restore_mid_krylov_stream_is_bit_identical() {
    let mut ops = Vec::new();
    for i in 0..12usize {
        let s = i % 2;
        let rhs = (0..4 + s)
            .map(|j| 0.3 + 0.1 * ((3 * i + 5 * j) % 7) as f64)
            .collect();
        ops.push(Op::Submit(SolveRequest::new(s, rhs).with_krylov()));
        if i % 2 == 1 {
            ops.push(Op::Round);
        }
    }
    // Checkpoint after three rounds of Krylov traffic have filled the
    // tables; crash two rounds later, so the WAL replay re-serves requests
    // whose analog solves start from the checkpointed tables.
    let (checkpoint_at, crash_at) = (9, 15);
    let baseline = drive(&fleet_config(1), &ops, checkpoint_at, crash_at, false);
    assert_eq!(baseline.completions.len(), 12, "every request settled");
    assert!(
        baseline.completions.iter().all(|c| c.path.is_analog()),
        "every Krylov request kept its analog preconditioner"
    );
    for workers in [1usize, 2] {
        let recovered = drive(&fleet_config(workers), &ops, checkpoint_at, crash_at, true);
        for (b, r) in baseline.completions.iter().zip(&recovered.completions) {
            assert_eq!(b.solution, r.solution, "workers={workers}: solution");
            assert_eq!(
                b.analog_time_s.to_bits(),
                r.analog_time_s.to_bits(),
                "workers={workers}: analog_time_s"
            );
        }
        assert_identical(&baseline, &recovered, &format!("krylov workers={workers}"));
    }
}

/// A healthy chip whose answers only just miss the settle cap is refined,
/// not failed: the slowest mode of a 13-unknown tridiagonal needs more
/// than a 300 τ cap, so each first run times out a little short of steady
/// state. A one-shard fleet of two healthy chips serving it answers every
/// request from the analog array and quarantines neither chip.
#[test]
fn near_miss_answers_keep_healthy_chips_in_rotation() {
    let structures = vec![CsrMatrix::tridiagonal(13, -1.0, 2.0, -1.0).unwrap()];
    let mut config = fleet_config(1);
    config.chips = 2;
    config.solver.engine = EngineOptions {
        stop_on_exception: true,
        max_tau: 300.0,
        ..EngineOptions::default()
    };
    config.recovery.max_attempts = 3;
    let mut service = FleetService::new(config, structures).expect("fleet builds");
    for i in 0..24usize {
        let rhs = (0..13)
            .map(|j| 0.1 + 0.1 * ((3 * i + 5 * j) % 10) as f64)
            .collect();
        service
            .submit(SolveRequest::new(0, rhs))
            .expect("queue has room");
        if i % 4 == 3 {
            service.run_round();
        }
    }
    service.run_until_idle();
    let completions: Vec<&Completion> = service.completions().collect();
    assert_eq!(completions.len(), 24, "every request settled");
    for c in &completions {
        assert!(c.path.is_analog(), "ticket {}: {:?}", c.ticket.0, c.path);
    }
    for (chip, health) in service.health().iter().enumerate() {
        assert_eq!(health.quarantines, 0, "chip {chip} was quarantined");
    }
}
