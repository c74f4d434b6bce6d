//! The chip fleet: per-chip solver state living inside worker threads,
//! plus the dispatcher-side health bookkeeping that decides placement.
//!
//! Each fleet chip is an independently-seeded accelerator instance: its
//! process variation (and any injected fault plan) is derived from the
//! fleet's base seed and the chip index, so chips age and fail
//! independently yet the whole fleet replays bit-identically from one
//! seed. A chip keeps one [`SupervisedSolver`] per registered structure —
//! persistent across rounds, so batching same-structure requests onto one
//! chip hits its compiled-plan cache (PR 4) instead of re-lowering.

use std::collections::BTreeMap;
use std::sync::Arc;

use aa_analog::fault::FaultPlan;
use aa_hwmodel::design::AcceleratorDesign;
use aa_linalg::iterative::{cg, IterativeConfig, StoppingCriterion};
use aa_linalg::rng::mix64;
use aa_linalg::{vector, CsrMatrix, LinearOperator};
use aa_solver::{
    fcg_solve, AnalogPreconditioner, KrylovConfig, RecoveryConfig, SolverConfig,
    SupervisedCheckpoint, SupervisedSolveReport, SupervisedSolver,
};

use crate::request::{CompletionPath, SolveMode};

/// Health-scoring policy: an exponentially-weighted failure score per chip
/// with a quarantine threshold and a timed re-admission probe.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// EWMA smoothing factor in `(0, 1]`: weight of the newest outcome.
    pub alpha: f64,
    /// Score at or above which a chip is pulled from rotation.
    pub quarantine_threshold: f64,
    /// Rounds a quarantined chip sits out before it gets one probe
    /// request; a clean probe re-admits it, a dirty one re-quarantines.
    pub readmit_after_rounds: u64,
    /// After this many quarantines the chip is retired for good — no
    /// further probes, so a dead chip cannot cycle through probation
    /// forever. `None` keeps probing indefinitely.
    pub retire_after_quarantines: Option<usize>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            alpha: 0.5,
            quarantine_threshold: 0.7,
            readmit_after_rounds: 4,
            retire_after_quarantines: None,
        }
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of accelerator chips.
    pub chips: usize,
    /// Worker threads driving them; `0` means one worker per chip. The
    /// schedule is worker-count-invariant — this only changes wall-clock.
    pub workers: usize,
    /// Base seed; chip `i`'s variation and fault seeds derive from it.
    pub base_seed: u64,
    /// Bounded queue capacity; admission rejects `QueueFull` beyond it.
    pub queue_capacity: usize,
    /// Most requests placed on one chip per round. Same-structure requests
    /// are preferred within a batch to hit the chip's compiled-plan cache.
    pub batch_size: usize,
    /// Most RHS columns coalesced into one batched analog sweep on a chip.
    /// Consecutive same-structure assignments within one round's batch are
    /// chunked to this size and served by a single multi-lane engine run
    /// (`SupervisedSolver::solve_batch`); `1` disables coalescing and
    /// reproduces unbatched serving exactly.
    pub max_batch_rhs: usize,
    /// Solver template applied to every chip (the per-chip noise seed is
    /// overridden from `base_seed`).
    pub solver: SolverConfig,
    /// Recovery policy each chip's supervisor runs per solve.
    pub recovery: RecoveryConfig,
    /// Hardware design point used for deadline estimates and the
    /// schedule log's energy accounting.
    pub design: AcceleratorDesign,
    /// Health-scoring policy.
    pub health: HealthConfig,
    /// Relative-residual tolerance of the digital (CG) lanes.
    pub fallback_tolerance: f64,
    /// Overload-brownout watermark: once the queue is at or above this
    /// depth, `Low`-priority admissions are shed with a typed
    /// [`Rejected::Brownout`](crate::Rejected::Brownout) verdict so
    /// higher classes keep headroom. `None` disables brownout shedding.
    pub brownout_low_watermark: Option<usize>,
    /// Fault plans installed at construction: `(chip, plan)`. Each plan is
    /// [`reseeded`](FaultPlan::reseeded) with the chip's fleet seed so
    /// copies of one plan draw independent noise on different chips.
    pub fault_plans: Vec<(usize, FaultPlan)>,
    /// Independent dispatcher groups. Chips are split into `shards`
    /// contiguous disjoint ranges (the [`aa_linalg::chunk_lengths`]
    /// split); each shard owns its own bounded priority queue, round
    /// counter, schedule log, and worker pool, so dispatch no longer
    /// serializes across the whole fleet. Submissions route to the
    /// structure's home shard (`structure % shards`) while it has queue
    /// headroom — same-structure requests keep landing where the plan
    /// caches are warm — and spill deterministically otherwise. `1`
    /// (the default) reproduces the unsharded service exactly.
    pub shards: usize,
    /// Queue depth at which a shard counts as saturated for routing: a
    /// submission whose home shard is at or above it is placed on the
    /// first shard below it, scanning cyclically from the home. `None`
    /// (the default) saturates only at `queue_capacity`, i.e. requests
    /// spill only when their home shard's queue is full.
    pub spill_watermark: Option<usize>,
    /// Weighted fair-share admission quotas: `(tenant, weight)`. When
    /// non-empty, tenant `t` may occupy at most
    /// `max(1, total_capacity · w_t / (Σ configured weights + 1))` queue
    /// slots across all shards (`total_capacity` = `queue_capacity ×
    /// shards`); tenants with no configured weight collectively share one
    /// default bucket of weight 1. Admissions beyond the share are
    /// refused with a typed
    /// [`Rejected::QuotaExceeded`](crate::Rejected::QuotaExceeded)
    /// verdict. Empty (the default) disables fair-share admission.
    pub tenant_weights: Vec<(u32, u32)>,
}

impl FleetConfig {
    /// A fleet of `chips` ideal accelerators with default policies.
    pub fn new(chips: usize) -> Self {
        FleetConfig {
            chips,
            workers: 0,
            base_seed: 0x5EED_F1EE7,
            queue_capacity: 64,
            batch_size: 4,
            max_batch_rhs: 1,
            solver: SolverConfig::ideal(),
            recovery: RecoveryConfig::default(),
            design: AcceleratorDesign::prototype_20khz(),
            health: HealthConfig::default(),
            fallback_tolerance: 1e-8,
            brownout_low_watermark: None,
            fault_plans: Vec::new(),
            shards: 1,
            spill_watermark: None,
            tenant_weights: Vec::new(),
        }
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Sets the worker-thread count (`0` = one per chip).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Bounds the request queue.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Enables multi-RHS coalescing: up to `columns` consecutive
    /// same-structure assignments per chip per round are served by one
    /// batched analog sweep.
    pub fn with_max_batch_rhs(mut self, columns: usize) -> Self {
        self.max_batch_rhs = columns;
        self
    }

    /// Installs a fault plan on one chip (fleet-reseeded at construction).
    pub fn with_fault_plan(mut self, chip: usize, plan: FaultPlan) -> Self {
        self.fault_plans.push((chip, plan));
        self
    }

    /// Enables overload brownout: `Low`-priority admissions are shed once
    /// the queue reaches `watermark` entries.
    pub fn with_brownout(mut self, watermark: usize) -> Self {
        self.brownout_low_watermark = Some(watermark);
        self
    }

    /// Splits the fleet into `shards` independent dispatcher groups (must
    /// be between 1 and the chip count).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-shard saturation depth at which routing spills past
    /// the structure's home shard.
    pub fn with_spill_watermark(mut self, watermark: usize) -> Self {
        self.spill_watermark = Some(watermark);
        self
    }

    /// Grants one tenant a fair-share weight (enables weighted quota
    /// admission for every tenant; see
    /// [`tenant_weights`](Self::tenant_weights)).
    pub fn with_tenant_weight(mut self, tenant: u32, weight: u32) -> Self {
        self.tenant_weights.push((tenant, weight));
        self
    }

    /// The deterministic per-chip seed: `base_seed` mixed with the index.
    fn chip_seed(&self, chip: usize) -> u64 {
        mix64(self.base_seed ^ mix64(chip as u64 + 1))
    }

    /// The effective worker count.
    fn effective_workers(&self) -> usize {
        let w = if self.workers == 0 {
            self.chips
        } else {
            self.workers
        };
        w.max(1)
    }

    /// The contiguous `(chip_offset, chip_count)` range each shard owns:
    /// the [`aa_linalg::chunk_lengths`] split of the chips over the
    /// shards, in shard order.
    pub fn shard_chip_ranges(&self) -> Vec<(usize, usize)> {
        let lens = aa_linalg::chunk_lengths(self.chips, self.shards.max(1));
        let mut offset = 0;
        lens.into_iter()
            .map(|len| {
                let range = (offset, len);
                offset += len;
                range
            })
            .collect()
    }

    /// Worker states per shard: the effective workers split over the
    /// shards by the same contiguous rule as the chips, floored at one —
    /// every shard always has at least one worker state (a one-state pool
    /// runs on the dispatcher thread). The schedule never depends on
    /// these counts, only wall-clock does.
    pub fn shard_worker_counts(&self) -> Vec<usize> {
        aa_linalg::chunk_lengths(self.effective_workers(), self.shards.max(1))
            .into_iter()
            .map(|w| w.max(1))
            .collect()
    }

    /// The shard a structure's traffic homes to while it has headroom:
    /// `structure % shards`. Stable across rounds, so one structure's
    /// plan and γ-calibration caches warm exactly one shard's chips.
    pub fn home_shard(&self, structure: usize) -> usize {
        structure % self.shards.max(1)
    }
}

/// Dispatcher-visible chip lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipState {
    /// In rotation.
    Healthy,
    /// Out of rotation since the recorded round.
    Quarantined {
        /// Round the quarantine decision was made.
        since_round: u64,
    },
    /// Receiving one probe request this round; the outcome decides
    /// re-admission.
    Probation,
    /// Permanently out of rotation: the chip burned through its
    /// quarantine budget
    /// ([`HealthConfig::retire_after_quarantines`]) and is never probed
    /// again.
    Retired,
}

/// Dispatcher-side health record of one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipHealth {
    /// EWMA failure score in `[0, 1]`; `0` is perfectly healthy.
    pub score: f64,
    /// Lifecycle state.
    pub state: ChipState,
    /// Requests this chip has served.
    pub solves: usize,
    /// Times this chip has been quarantined.
    pub quarantines: usize,
}

impl ChipHealth {
    pub(crate) fn new() -> Self {
        ChipHealth {
            score: 0.0,
            state: ChipState::Healthy,
            solves: 0,
            quarantines: 0,
        }
    }

    /// Whether the dispatcher may place regular traffic on this chip.
    pub fn in_rotation(&self) -> bool {
        matches!(self.state, ChipState::Healthy | ChipState::Probation)
    }
}

/// The failure weight of one completion path, fed into the EWMA score.
pub(crate) fn outcome_weight(path: CompletionPath) -> f64 {
    match path {
        CompletionPath::Analog => 0.0,
        CompletionPath::AnalogAfterRecovery => 0.4,
        CompletionPath::DeadlineFallback => 0.5,
        CompletionPath::DigitalFallback => 1.0,
        // Never produced by a chip; listed for exhaustiveness.
        CompletionPath::DigitalOnly => 0.0,
    }
}

/// One request as placed on a chip:
/// `(ticket, structure, rhs, deadline, mode)`.
pub(crate) type Assignment = (u64, usize, Vec<f64>, Option<f64>, SolveMode);

/// A chaos-injected failure mode for one chip (driven by
/// [`FleetService::inject_chaos`](crate::FleetService::inject_chaos) and
/// the [`chaos`](crate::chaos) harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipFailure {
    /// The chip is dead: it acknowledges nothing, forever. Every batch
    /// placed on it bounces back unserved until health scoring quarantines
    /// and eventually retires it.
    Dead,
    /// The chip wedges partway through its next non-empty batch: it serves
    /// `served` assignments, drops the rest, and then recovers (the
    /// watchdog resets a hung chip after the round).
    HangAfter {
        /// Assignments answered before the wedge.
        served: usize,
    },
}

impl ChipFailure {
    /// Short stable label used in telemetry and soak reports.
    pub fn label(self) -> &'static str {
        match self {
            ChipFailure::Dead => "dead",
            ChipFailure::HangAfter { .. } => "hang",
        }
    }
}

/// Everything mutable about one chip slot, as frozen into a
/// [`FleetCheckpoint`](crate::FleetCheckpoint): the per-structure solver
/// states (noise-RNG clocks, consumed lifetime, trim codes, shifted fault
/// plans, plan-cache validity, headroom factors) plus any injected chaos
/// failure. The immutable parts — netlists, seeds, configs — are rebuilt
/// deterministically from the [`FleetConfig`] at restore.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotCheckpoint {
    /// The chip's fleet index.
    pub chip: usize,
    /// Per-structure supervised-solver checkpoints, in structure order.
    pub solvers: Vec<(usize, SupervisedCheckpoint)>,
    /// The chaos failure installed on this chip, if any.
    pub failure: Option<ChipFailure>,
}

/// The per-round command routed to one chip — exactly one per chip per
/// round (possibly an empty `Run`), so the worker-pool routing stays
/// worker-count-invariant.
#[derive(Debug)]
pub(crate) enum ChipCommand {
    /// Serve a batch of assignments (empty for idle chips).
    Run(Vec<Assignment>),
    /// Export the slot's checkpoint state.
    Export,
    /// Replace the slot's mutable state from a checkpoint.
    Import(Box<SlotCheckpoint>),
    /// Install (or clear, with `None`) a chaos failure mode.
    Inject(Option<ChipFailure>),
}

impl Default for ChipCommand {
    fn default() -> Self {
        ChipCommand::Run(Vec::new())
    }
}

/// A chip's answer to one [`ChipCommand`].
#[derive(Debug)]
pub(crate) enum ChipReply {
    /// The batch ran: outcomes for served assignments, plus any the chip
    /// failed to serve (the dispatcher requeues those — accepted requests
    /// are never lost to a dead or hung chip).
    Ran {
        outcomes: Vec<ChipOutcome>,
        unserved: Vec<Assignment>,
        failed: bool,
    },
    /// The exported slot state.
    Exported(Box<SlotCheckpoint>),
    /// Import verdict; errors are rendered to strings so they can cross
    /// the worker-pool boundary.
    Imported(Result<(), String>),
    /// Injection acknowledged.
    Injected,
}

/// What a chip reports back for one assignment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChipOutcome {
    pub ticket: u64,
    pub solution: Vec<f64>,
    pub path: CompletionPath,
    pub residual: f64,
    pub analog_time_s: f64,
}

impl ChipOutcome {
    /// The outcome of a supervised solve for `ticket`.
    fn supervised(ticket: u64, report: SupervisedSolveReport) -> Self {
        ChipOutcome {
            ticket,
            path: report.recovery.final_path.into(),
            residual: report.recovery.final_residual,
            analog_time_s: report.recovery.analog_time_s(),
            solution: report.solution,
        }
    }
}

/// One physical accelerator: the solver instances bound to it, its fault
/// plan, and its identity. Lives inside a worker thread's state.
pub(crate) struct ChipSlot {
    pub index: usize,
    config: SolverConfig,
    recovery: RecoveryConfig,
    fault_plan: Option<FaultPlan>,
    structures: Arc<Vec<CsrMatrix>>,
    /// One persistent supervised solver per structure this chip has seen —
    /// the unit of compiled-plan reuse.
    solvers: BTreeMap<usize, SupervisedSolver>,
    fallback_tolerance: f64,
    /// Most RHS columns served by one batched analog sweep.
    max_batch_rhs: usize,
    /// FCG loop settings for Krylov-mode assignments (tolerance mirrors
    /// the digital lanes', so both modes certify the same residual).
    krylov: KrylovConfig,
    /// The chaos failure currently installed, if any.
    failure: Option<ChipFailure>,
}

impl ChipSlot {
    pub fn new(config: &FleetConfig, index: usize, structures: Arc<Vec<CsrMatrix>>) -> Self {
        let mut solver_cfg = config.solver.clone();
        solver_cfg.nonideal = solver_cfg.nonideal.with_seed(config.chip_seed(index));
        let fault_plan = config
            .fault_plans
            .iter()
            .filter(|(chip, _)| *chip == index)
            .map(|(_, plan)| plan.reseeded(config.chip_seed(index) ^ plan.seed()))
            .next_back();
        ChipSlot {
            index,
            config: solver_cfg,
            recovery: config.recovery.clone(),
            fault_plan,
            structures,
            solvers: BTreeMap::new(),
            fallback_tolerance: config.fallback_tolerance,
            max_batch_rhs: config.max_batch_rhs.max(1),
            krylov: KrylovConfig {
                tolerance: config.fallback_tolerance,
                ..KrylovConfig::default()
            },
            failure: None,
        }
    }

    /// Executes one dispatcher command on this chip.
    pub fn execute(&mut self, command: ChipCommand) -> ChipReply {
        match command {
            ChipCommand::Run(assignments) => self.run(assignments),
            ChipCommand::Export => ChipReply::Exported(Box::new(self.export_state())),
            ChipCommand::Import(state) => ChipReply::Imported(self.import_state(&state)),
            ChipCommand::Inject(failure) => {
                self.failure = failure;
                ChipReply::Injected
            }
        }
    }

    /// Serves one round's batch, in assignment order. Consecutive
    /// same-structure assignments are coalesced into multi-RHS chunks of at
    /// most [`FleetConfig::max_batch_rhs`] columns, each executed as one
    /// batched analog sweep. An injected failure makes the chip drop part
    /// or all of the batch: dropped assignments come back `unserved` so the
    /// dispatcher can requeue them. A wedge that lands mid-chunk drops the
    /// *whole* chunk — a batched sweep has no partial results — so every
    /// column of a partially-covered chunk is requeued, none lost.
    pub fn run(&mut self, assignments: Vec<Assignment>) -> ChipReply {
        let dispatched = assignments.len();
        let ends = self.chunk_ends(&assignments);
        let (served, failed) = match self.failure {
            Some(ChipFailure::Dead) => (0, dispatched > 0),
            Some(ChipFailure::HangAfter { served }) if dispatched > 0 => {
                // The watchdog resets a wedged chip after the round. The
                // served count rounds *down* to a chunk boundary: a sweep
                // the wedge interrupted produced nothing for any lane.
                self.failure = None;
                let raw = served.min(dispatched);
                let aligned = ends
                    .iter()
                    .copied()
                    .take_while(|&end| end <= raw)
                    .last()
                    .unwrap_or(0);
                (aligned, true)
            }
            _ => (dispatched, false),
        };
        let mut assignments = assignments;
        let unserved = assignments.split_off(served);
        let mut outcomes = Vec::with_capacity(served);
        for &end in ends.iter().take_while(|&&end| end <= served) {
            let start = outcomes.len();
            outcomes.extend(self.serve_chunk(&assignments[start..end]));
            for outcome in &outcomes[start..] {
                aa_obs::event(
                    aa_obs::Event::new("sched.solve")
                        .with("ticket", outcome.ticket)
                        .with("chip", self.index)
                        .with("path", outcome.path.label()),
                );
                aa_obs::counter("sched.chip_solves", 1);
            }
        }
        ChipReply::Ran {
            outcomes,
            unserved,
            failed,
        }
    }

    /// Boundaries (exclusive end indices) of the multi-RHS chunks within
    /// one round's assignment list: maximal runs of consecutive
    /// same-structure **direct** assignments, split at `max_batch_rhs`
    /// columns. A Krylov-mode assignment is always its own singleton
    /// chunk — each FCG preconditioner application's right-hand side
    /// depends on the previous iterate, so it can never share a sweep.
    /// With `max_batch_rhs == 1` every index is a boundary, which
    /// reproduces unbatched serving exactly.
    fn chunk_ends(&self, assignments: &[Assignment]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut start = 0;
        while start < assignments.len() {
            let structure = assignments[start].1;
            let mut end = start + 1;
            if assignments[start].4 == SolveMode::Direct {
                while end < assignments.len()
                    && assignments[end].1 == structure
                    && assignments[end].4 == SolveMode::Direct
                    && end - start < self.max_batch_rhs
                {
                    end += 1;
                }
            }
            ends.push(end);
            start = end;
        }
        ends
    }

    /// Serves one chunk of same-structure assignments: a single assignment
    /// goes through the scalar path, several share one batched analog
    /// sweep with per-column validation (a column the batch could not
    /// certify is re-solved through the full recovery ladder inside
    /// [`SupervisedSolver::solve_batch`]). Every assignment the chip could
    /// not answer in analog, or answered past its deadline, is answered by
    /// the chip's digital lane.
    fn serve_chunk(&mut self, chunk: &[Assignment]) -> Vec<ChipOutcome> {
        let structure = chunk[0].1;
        debug_assert!(chunk.iter().all(|a| a.1 == structure));
        let served: Vec<Result<ChipOutcome, f64>> = if !self.ensure_solver(structure) {
            // The structure cannot be mapped onto this chip at all; the
            // digital lane still owes each client an answer.
            vec![Err(0.0); chunk.len()]
        } else if let [(ticket, _, rhs, _, mode)] = chunk {
            vec![match mode {
                SolveMode::Direct => self.serve(*ticket, structure, rhs),
                SolveMode::KrylovPrecond => self.serve_krylov(*ticket, structure, rhs),
            }]
        } else {
            debug_assert!(chunk.iter().all(|a| a.4 == SolveMode::Direct));
            let bs: Vec<Vec<f64>> = chunk.iter().map(|(_, _, rhs, _, _)| rhs.clone()).collect();
            let solver = self.solvers.get_mut(&structure).expect("ensured above");
            let results = solver.solve_batch(&bs);
            aa_obs::counter("sched.chip_batches", 1);
            chunk
                .iter()
                .zip(results)
                .map(|((ticket, ..), result)| {
                    result
                        .map(|report| ChipOutcome::supervised(*ticket, report))
                        .map_err(|_| 0.0)
                })
                .collect()
        };
        chunk
            .iter()
            .zip(served)
            .map(
                |((ticket, structure, rhs, deadline_s, _), served)| match served {
                    Ok(outcome) => self.within_deadline(outcome, *structure, rhs, *deadline_s),
                    Err(analog_time_s) => self.digital(
                        *ticket,
                        *structure,
                        rhs,
                        CompletionPath::DigitalFallback,
                        analog_time_s,
                    ),
                },
            )
            .collect()
    }

    /// Freezes this slot's mutable state for a fleet checkpoint.
    pub fn export_state(&self) -> SlotCheckpoint {
        SlotCheckpoint {
            chip: self.index,
            solvers: self
                .solvers
                .iter()
                .map(|(structure, solver)| (*structure, solver.export_state()))
                .collect(),
            failure: self.failure,
        }
    }

    /// Rebuilds every checkpointed per-structure solver deterministically
    /// (same seeds and configs as construction) and overlays the frozen
    /// mutable state. Errors are rendered to strings so the verdict can
    /// cross the worker-pool boundary.
    pub fn import_state(&mut self, state: &SlotCheckpoint) -> Result<(), String> {
        if state.chip != self.index {
            return Err(format!(
                "slot checkpoint for chip {} imported into chip {}",
                state.chip, self.index
            ));
        }
        let mut solvers = BTreeMap::new();
        for (structure, ckpt) in &state.solvers {
            let Some(matrix) = self.structures.get(*structure) else {
                return Err(format!(
                    "slot checkpoint references unregistered structure {structure}"
                ));
            };
            let mut solver = SupervisedSolver::new(matrix, &self.config, &self.recovery)
                .map_err(|e| format!("rebuilding solver for structure {structure}: {e}"))?;
            solver
                .import_state(ckpt)
                .map_err(|e| format!("restoring solver for structure {structure}: {e}"))?;
            solvers.insert(*structure, solver);
        }
        self.solvers = solvers;
        self.failure = state.failure;
        Ok(())
    }

    /// Lazily builds (and fault-injects) the persistent solver for one
    /// structure; `false` when the structure cannot be mapped onto this
    /// chip at all.
    fn ensure_solver(&mut self, structure: usize) -> bool {
        if self.solvers.contains_key(&structure) {
            return true;
        }
        match SupervisedSolver::new(&self.structures[structure], &self.config, &self.recovery) {
            Ok(mut solver) => {
                if let Some(plan) = &self.fault_plan {
                    solver.inject_faults(plan.clone());
                }
                self.solvers.insert(structure, solver);
                true
            }
            Err(_) => false,
        }
    }

    /// Serves one direct assignment on the structure's supervised solver
    /// (built by the caller): its outcome, or `Err` with the analog
    /// seconds spent when the digital lane must answer instead.
    fn serve(&mut self, ticket: u64, structure: usize, rhs: &[f64]) -> Result<ChipOutcome, f64> {
        let solver = self
            .solvers
            .get_mut(&structure)
            .expect("built by the caller");
        match solver.solve(rhs) {
            Ok(report) => Ok(ChipOutcome::supervised(ticket, report)),
            Err(_) => Err(0.0),
        }
    }

    /// Serves one Krylov-mode assignment as [`serve`](Self::serve) does a
    /// direct one: flexible CG around the chip's persistent supervised
    /// solver as analog preconditioner. The completion path comes from the
    /// preconditioner's own accounting
    /// ([`aa_solver::PrecondStats::final_path`]) — a demoted
    /// preconditioner reports `DigitalFallback` even though the FCG
    /// iterate itself is still served. A loop that fails outright (or
    /// never reaches tolerance) leaves the answer to the digital lane,
    /// exactly like a failed direct solve.
    fn serve_krylov(
        &mut self,
        ticket: u64,
        structure: usize,
        rhs: &[f64],
    ) -> Result<ChipOutcome, f64> {
        let solver = self
            .solvers
            .get_mut(&structure)
            .expect("built by the caller");
        let mut precond = AnalogPreconditioner::new(solver);
        match fcg_solve(&mut precond, rhs, &self.krylov) {
            Ok(report) if report.converged => Ok(ChipOutcome {
                ticket,
                path: report.precond.final_path().into(),
                residual: report.residual_history.last().copied().unwrap_or(0.0),
                analog_time_s: report.precond.analog_time_s,
                solution: report.solution,
            }),
            Ok(report) => Err(report.precond.analog_time_s),
            Err(_) => Err(0.0),
        }
    }

    /// `outcome`, unless it is an analog answer that arrived past its
    /// deadline budget: then the digital lane's answer, served as a
    /// [`CompletionPath::DeadlineFallback`].
    fn within_deadline(
        &self,
        outcome: ChipOutcome,
        structure: usize,
        rhs: &[f64],
        deadline_s: Option<f64>,
    ) -> ChipOutcome {
        let late = deadline_s.is_some_and(|deadline| outcome.analog_time_s > deadline);
        if outcome.path.is_analog() && late {
            return self.digital(
                outcome.ticket,
                structure,
                rhs,
                CompletionPath::DeadlineFallback,
                outcome.analog_time_s,
            );
        }
        outcome
    }

    /// The chip-local digital lane: CG to the fallback tolerance.
    fn digital(
        &self,
        ticket: u64,
        structure: usize,
        rhs: &[f64],
        path: CompletionPath,
        analog_time_s: f64,
    ) -> ChipOutcome {
        let (solution, residual) =
            digital_lane(&self.structures[structure], rhs, self.fallback_tolerance);
        ChipOutcome {
            ticket,
            solution,
            path,
            residual,
            analog_time_s,
        }
    }
}

/// Solves `A·u = b` digitally (CG) and returns `(solution, rel_residual)`.
/// Shared by the chip-local fallback and the dispatcher's all-quarantined
/// lane.
pub(crate) fn digital_lane(a: &CsrMatrix, b: &[f64], tolerance: f64) -> (Vec<f64>, f64) {
    let cfg = IterativeConfig {
        stopping: StoppingCriterion::RelativeResidual(tolerance),
        ..IterativeConfig::default()
    };
    match cg(a, b, &cfg) {
        Ok(report) => {
            let bnorm = vector::norm2(b);
            let rel = if bnorm > 0.0 {
                vector::norm2(&a.residual(&report.solution, b)) / bnorm
            } else {
                0.0
            };
            (report.solution, rel)
        }
        // CG only errors on structural mismatch, which admission already
        // rejected; keep the lane total anyway.
        Err(_) => (vec![0.0; b.len()], f64::INFINITY),
    }
}

/// One worker thread's state: the contiguous run of chip slots it owns.
/// The dispatcher ships exactly one [`ChipJob`] per chip per round, so the
/// worker pool's `chunk_lengths` routing sends chip `i`'s job to the
/// worker whose slot range contains `i` — forever, at any worker count.
pub(crate) struct WorkerState {
    pub offset: usize,
    pub slots: Vec<ChipSlot>,
}

impl WorkerState {
    /// Partitions one shard's chip range — global chips `chip_offset ..
    /// chip_offset + chips` — over `workers` states, mirroring
    /// [`aa_linalg::chunk_lengths`]. The state offsets are **shard-local**
    /// (a shard's pool is submitted one command per shard chip), while
    /// the slots keep their global chip indices for seeding.
    pub fn partition_range(
        config: &FleetConfig,
        structures: &Arc<Vec<CsrMatrix>>,
        chip_offset: usize,
        chips: usize,
        workers: usize,
    ) -> Vec<WorkerState> {
        let lens = aa_linalg::chunk_lengths(chips, workers.max(1));
        let mut local = 0;
        lens.iter()
            .map(|&len| {
                let state = WorkerState {
                    offset: local,
                    slots: (local..local + len)
                        .map(|i| ChipSlot::new(config, chip_offset + i, Arc::clone(structures)))
                        .collect(),
                };
                local += len;
                state
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_seeds_are_distinct_and_deterministic() {
        let cfg = FleetConfig::new(4).with_seed(7);
        let seeds: Vec<u64> = (0..4).map(|i| cfg.chip_seed(i)).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(seeds[i], seeds[j], "chips {i} and {j} share a seed");
            }
        }
        assert_eq!(seeds, (0..4).map(|i| cfg.chip_seed(i)).collect::<Vec<_>>());
        assert_ne!(seeds[0], FleetConfig::new(4).with_seed(8).chip_seed(0));
    }

    #[test]
    fn effective_workers_defaults_to_chip_count() {
        assert_eq!(FleetConfig::new(3).effective_workers(), 3);
        assert_eq!(FleetConfig::new(3).with_workers(2).effective_workers(), 2);
        assert_eq!(FleetConfig::new(0).effective_workers(), 1);
    }

    #[test]
    fn outcome_weights_order_paths_by_severity() {
        assert!(outcome_weight(CompletionPath::Analog) == 0.0);
        assert!(
            outcome_weight(CompletionPath::AnalogAfterRecovery)
                < outcome_weight(CompletionPath::DeadlineFallback)
        );
        assert!(
            outcome_weight(CompletionPath::DeadlineFallback)
                < outcome_weight(CompletionPath::DigitalFallback)
        );
    }

    #[test]
    fn worker_partition_covers_all_chips_contiguously() {
        let structures = Arc::new(vec![CsrMatrix::tridiagonal(3, -1.0, 2.0, -1.0).unwrap()]);
        for workers in [1usize, 2, 3, 4, 8] {
            let cfg = FleetConfig::new(5).with_workers(workers);
            let states = WorkerState::partition_range(&cfg, &structures, 0, cfg.chips, workers);
            assert_eq!(states.len(), workers);
            let mut next = 0;
            for state in &states {
                assert_eq!(state.offset, next);
                for (k, slot) in state.slots.iter().enumerate() {
                    assert_eq!(slot.index, state.offset + k);
                }
                next += state.slots.len();
            }
            assert_eq!(next, 5, "workers={workers}");
        }
        // A sharded split: global chip indices offset by the range start,
        // worker offsets stay shard-local.
        let states = WorkerState::partition_range(&FleetConfig::new(6), &structures, 2, 3, 2);
        assert_eq!(states.len(), 2);
        assert_eq!(states[0].offset, 0);
        assert_eq!(states[1].offset, 2);
        let indices: Vec<usize> = states
            .iter()
            .flat_map(|s| s.slots.iter().map(|slot| slot.index))
            .collect();
        assert_eq!(indices, vec![2, 3, 4]);
    }

    #[test]
    fn chunk_ends_split_by_structure_run_and_cap() {
        let structures = Arc::new(vec![
            CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap(),
            CsrMatrix::tridiagonal(5, -1.0, 2.0, -1.0).unwrap(),
        ]);
        let a = |t: u64, s: usize| (t, s, vec![1.0; 4 + s], None, SolveMode::Direct);
        let k = |t: u64, s: usize| (t, s, vec![1.0; 4 + s], None, SolveMode::KrylovPrecond);
        let slot = ChipSlot::new(
            &FleetConfig::new(1).with_max_batch_rhs(3),
            0,
            Arc::clone(&structures),
        );
        assert_eq!(slot.chunk_ends(&[]), Vec::<usize>::new());
        // A structure switch and the cap both end a chunk.
        assert_eq!(
            slot.chunk_ends(&[a(0, 0), a(1, 0), a(2, 0), a(3, 0), a(4, 1), a(5, 0)]),
            vec![3, 4, 5, 6]
        );
        // A Krylov assignment is a singleton chunk even mid-run of its own
        // structure: its RHS sequence cannot share a sweep.
        assert_eq!(
            slot.chunk_ends(&[a(0, 0), k(1, 0), a(2, 0), a(3, 0)]),
            vec![1, 2, 4]
        );
        // max_batch_rhs = 1 (the default): every index is a boundary.
        let scalar = ChipSlot::new(&FleetConfig::new(1), 0, structures);
        assert_eq!(
            scalar.chunk_ends(&[a(0, 0), a(1, 0), a(2, 0)]),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn hang_mid_chunk_returns_the_whole_chunk_unserved() {
        let structures = Arc::new(vec![CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap()]);
        let mut slot = ChipSlot::new(
            &FleetConfig::new(1).with_max_batch_rhs(4),
            0,
            Arc::clone(&structures),
        );
        slot.failure = Some(ChipFailure::HangAfter { served: 2 });
        let assignments: Vec<Assignment> = (0..4)
            .map(|t| (t, 0, vec![1.0; 4], None, SolveMode::Direct))
            .collect();
        let ChipReply::Ran {
            outcomes,
            unserved,
            failed,
        } = slot.run(assignments)
        else {
            panic!("Run command must produce a Ran reply");
        };
        // served=2 lands mid-chunk; the single 4-column chunk has no
        // partial results, so every column bounces back.
        assert!(failed);
        assert!(outcomes.is_empty());
        assert_eq!(unserved.len(), 4);
        let tickets: Vec<u64> = unserved.iter().map(|a| a.0).collect();
        assert_eq!(tickets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn digital_lane_meets_tolerance() {
        let a = CsrMatrix::tridiagonal(6, -1.0, 2.0, -1.0).unwrap();
        let b = vec![1.0; 6];
        let (x, rel) = digital_lane(&a, &b, 1e-9);
        assert_eq!(x.len(), 6);
        assert!(rel <= 1e-9, "rel={rel}");
    }
}
