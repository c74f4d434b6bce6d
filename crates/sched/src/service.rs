//! The fleet service: admission control, sharded dispatcher groups, the
//! round-based dispatch loop over per-shard worker pools, and
//! health-driven placement. All scheduling decisions happen on the
//! dispatcher thread, in deterministic shard order — worker threads only
//! execute already-placed batches — so the [`ScheduleLog`] replays
//! identically at any worker count.
//!
//! # Sharded dispatch
//!
//! The fleet is split into `config.shards` independent dispatcher groups.
//! Each shard owns a disjoint contiguous chip range, its own bounded
//! queue slice, its own worker pool, its own round counter, and its own
//! [`ScheduleLog`]; a fleet-wide aggregate log interleaves every shard's
//! events in decision order. Submissions route by **structure affinity**:
//! a structure homes to `structure % shards`, so its compiled plans and
//! γ-calibrations warm exactly one shard's chips instead of being
//! re-derived on every chip in the fleet. When the home shard saturates
//! (its queue reaches the spill watermark), the router walks cyclically
//! to the first shard with headroom and records a
//! [`ScheduleEvent::Spilled`]. On top of the priority classes and
//! brownout, admission enforces **per-tenant fair-share quotas**
//! ([`FleetConfig::tenant_weights`]): a tenant over its weighted share of
//! the fleet-wide queue capacity is refused with
//! [`Rejected::QuotaExceeded`] before any queue-occupancy check.
//!
//! With `shards == 1` (the default) the service behaves exactly like the
//! unsharded dispatcher: one group, one queue, identical logs.

use std::collections::BTreeMap;
use std::sync::Arc;

use aa_linalg::{CsrMatrix, LinearOperator, WorkerPool};
use aa_solver::estimate::{amortized_solve_time_s, krylov_solve_time_s, predicted_solve_time_s};

use crate::checkpoint::{AdmissionWal, FleetCheckpoint, QueuedRequest, ShardCheckpoint, WalOp};
use crate::fleet::{
    digital_lane, outcome_weight, Assignment, ChipCommand, ChipFailure, ChipHealth, ChipReply,
    ChipState, FleetConfig, SlotCheckpoint, WorkerState,
};
use crate::log::{ScheduleEvent, ScheduleLog};
use crate::request::{
    Completion, CompletionPath, Priority, Rejected, SolveMode, SolveRequest, SolveTicket,
};

/// Preconditioner applications admission prices a Krylov-mode request
/// ([`SolveMode::KrylovPrecond`]) for: one supervised analog solve per FCG
/// preconditioner application, never coalesced into a shared sweep, so its
/// deadline is judged against this many sequential estimates
/// ([`krylov_solve_time_s`]). Served requests average about six
/// applications; the planner's own price is meant to replace this figure.
const KRYLOV_APPLICATIONS: usize = 8;

/// A fleet construction or recovery error.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// The configuration cannot describe a runnable fleet.
    InvalidConfig {
        /// What was wrong.
        message: String,
    },
    /// A checkpoint cannot be restored into this fleet — wrong format
    /// version, wrong shape, or state referencing things the fleet does
    /// not have.
    CheckpointMismatch {
        /// What did not line up.
        message: String,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::InvalidConfig { message } => write!(f, "invalid fleet config: {message}"),
            SchedError::CheckpointMismatch { message } => {
                write!(f, "checkpoint mismatch: {message}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// An admitted request waiting for dispatch.
#[derive(Debug, Clone)]
struct Queued {
    ticket: u64,
    structure: usize,
    rhs: Vec<f64>,
    priority: Priority,
    deadline_s: Option<f64>,
    tenant: u32,
    mode: SolveMode,
}

/// One dispatcher group: a disjoint chip range with its own pool, queue,
/// health records, round counter, and schedule log. Shards never share
/// mutable state; the only cross-shard structures are the global ticket
/// counter, the inflight index, the completion set, the WAL, and the
/// aggregate log.
struct Shard {
    /// Global index of this shard's first chip.
    chip_offset: usize,
    pool: WorkerPool<WorkerState, ChipCommand, ChipReply>,
    /// Health records for this shard's chips, in local chip order.
    health: Vec<ChipHealth>,
    queue: Vec<Queued>,
    /// This shard's own slice of the schedule — the per-shard replay
    /// identity artifact.
    log: ScheduleLog,
    /// Dispatch rounds this shard has run (it skips rounds where its
    /// queue is empty).
    round: u64,
}

impl Shard {
    fn chips(&self) -> usize {
        self.health.len()
    }
}

/// The multi-chip batched solve service.
///
/// ```
/// use aa_linalg::CsrMatrix;
/// use aa_sched::{FleetConfig, FleetService, SolveRequest};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = CsrMatrix::tridiagonal(8, -1.0, 2.0, -1.0)?;
/// let mut fleet = FleetService::new(FleetConfig::new(2), vec![a])?;
/// let ticket = fleet.submit(SolveRequest::new(0, vec![1.0; 8]))?;
/// fleet.run_until_idle();
/// let done = fleet.completion(ticket).expect("served");
/// assert!(done.residual < 1e-2, "12-bit analog readout precision");
/// # Ok(())
/// # }
/// ```
pub struct FleetService {
    config: FleetConfig,
    structures: Arc<Vec<CsrMatrix>>,
    /// Predicted analog solve seconds per structure (`None` when the
    /// estimator cannot price it — such requests are always admitted).
    estimates: Vec<Option<f64>>,
    shards: Vec<Shard>,
    /// `(structure, priority, tenant)` of every admitted-but-unsettled
    /// ticket — the dispatcher's own index, so outcome collection never
    /// scans (or panics on) the log, and a requeued request keeps its
    /// fair-share attribution.
    inflight: BTreeMap<u64, (usize, Priority, u32)>,
    completions: BTreeMap<u64, Completion>,
    /// The fleet-wide aggregate log: every shard's events interleaved in
    /// decision order, plus all rejections.
    log: ScheduleLog,
    /// External inputs since the last checkpoint (see [`AdmissionWal`]).
    wal: AdmissionWal,
    next_ticket: u64,
    round: u64,
}

impl FleetService {
    /// Builds the fleet and registers the solvable structures. Requests
    /// reference a structure by its index in `structures`.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] for an empty fleet, no structures, a
    /// zero batch size or RHS-coalescing width, a shard count of zero or
    /// above the chip count, or a fault plan naming a chip that does not
    /// exist.
    pub fn new(config: FleetConfig, structures: Vec<CsrMatrix>) -> Result<Self, SchedError> {
        if config.chips == 0 {
            return Err(SchedError::InvalidConfig {
                message: "fleet needs at least one chip".into(),
            });
        }
        if structures.is_empty() {
            return Err(SchedError::InvalidConfig {
                message: "fleet needs at least one registered structure".into(),
            });
        }
        if config.batch_size == 0 {
            return Err(SchedError::InvalidConfig {
                message: "batch_size must be at least 1".into(),
            });
        }
        if config.max_batch_rhs == 0 {
            return Err(SchedError::InvalidConfig {
                message: "max_batch_rhs must be at least 1".into(),
            });
        }
        if config.shards == 0 {
            return Err(SchedError::InvalidConfig {
                message: "fleet needs at least one shard".into(),
            });
        }
        if config.shards > config.chips {
            return Err(SchedError::InvalidConfig {
                message: format!(
                    "{} shards over {} chips would leave chipless dispatcher groups",
                    config.shards, config.chips
                ),
            });
        }
        if let Some((chip, _)) = config
            .fault_plans
            .iter()
            .find(|(chip, _)| *chip >= config.chips)
        {
            return Err(SchedError::InvalidConfig {
                message: format!("fault plan targets chip {chip}, fleet has {}", config.chips),
            });
        }
        let estimates = structures
            .iter()
            .map(|a| predicted_solve_time_s(a, &config.design).ok())
            .collect();
        let structures = Arc::new(structures);
        let shards = config
            .shard_chip_ranges()
            .into_iter()
            .zip(config.shard_worker_counts())
            .map(|((chip_offset, chips), workers)| {
                let states =
                    WorkerState::partition_range(&config, &structures, chip_offset, chips, workers);
                let pool = WorkerPool::new(
                    states,
                    |state: &mut WorkerState, i, command: ChipCommand| {
                        state.slots[i - state.offset].execute(command)
                    },
                );
                Shard {
                    chip_offset,
                    pool,
                    health: (0..chips).map(|_| ChipHealth::new()).collect(),
                    queue: Vec::new(),
                    log: ScheduleLog::default(),
                    round: 0,
                }
            })
            .collect();
        Ok(FleetService {
            config,
            structures,
            estimates,
            shards,
            inflight: BTreeMap::new(),
            completions: BTreeMap::new(),
            log: ScheduleLog::default(),
            wal: AdmissionWal::new(),
            next_ticket: 0,
            round: 0,
        })
    }

    /// The registered structures.
    pub fn structures(&self) -> &[CsrMatrix] {
        &self.structures
    }

    /// The fleet configuration in effect.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The predicted analog solve seconds for one structure, if priceable.
    pub fn estimate_s(&self, structure: usize) -> Option<f64> {
        self.estimates.get(structure).copied().flatten()
    }

    /// Per-chip health records, indexed by global chip (the shards'
    /// records concatenated in chip order).
    pub fn health(&self) -> Vec<ChipHealth> {
        self.shards
            .iter()
            .flat_map(|s| s.health.iter().cloned())
            .collect()
    }

    /// Requests admitted but not yet dispatched, across all shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Fleet-level dispatch rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// The number of dispatcher groups.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's own schedule log (its slice of the fleet-wide log).
    ///
    /// # Panics
    ///
    /// If `shard` is out of range.
    pub fn shard_log(&self, shard: usize) -> &ScheduleLog {
        &self.shards[shard].log
    }

    /// Dispatch rounds one shard has run (idle-queue rounds are skipped
    /// per shard).
    ///
    /// # Panics
    ///
    /// If `shard` is out of range.
    pub fn shard_rounds(&self, shard: usize) -> u64 {
        self.shards[shard].round
    }

    /// One shard's pending queue depth.
    ///
    /// # Panics
    ///
    /// If `shard` is out of range.
    pub fn shard_queue_depth(&self, shard: usize) -> usize {
        self.shards[shard].queue.len()
    }

    /// The fleet-wide schedule log accumulated so far.
    pub fn log(&self) -> &ScheduleLog {
        &self.log
    }

    /// Consumes the service, returning the final fleet-wide log.
    pub fn into_log(self) -> ScheduleLog {
        self.log
    }

    /// The resolved outcome of an admitted request, once a dispatch round
    /// has served it.
    pub fn completion(&self, ticket: SolveTicket) -> Option<&Completion> {
        self.completions.get(&ticket.0)
    }

    /// Records one shard-attributed event in both the shard's own log and
    /// the fleet-wide aggregate. Rejections are fleet-wide only (they
    /// never reached a shard) and are recorded directly in `submit`.
    fn record(&mut self, shard: usize, event: ScheduleEvent) {
        self.shards[shard].log.events.push(event.clone());
        self.log.events.push(event);
    }

    /// Admission control: validates the request, applies fair-share
    /// quotas and backpressure, routes it to a shard by structure
    /// affinity, and enqueues it. The attempt is WAL-recorded (admitted
    /// or not) so crash recovery replays the exact admission sequence.
    ///
    /// # Errors
    ///
    /// A typed [`Rejected`] verdict — never a panic — naming the reason:
    /// unknown structure, wrong rhs length, a NaN or infinite rhs entry,
    /// tenant over its fair-share
    /// quota, every shard's queue full, brownout shedding, or a deadline
    /// below the structure's predicted (coalescing-amortized) solve time.
    /// Transient verdicts carry a [`retry_after_s`](Rejected::retry_after_s)
    /// hint.
    pub fn submit(&mut self, request: SolveRequest) -> Result<SolveTicket, Rejected> {
        self.wal.record_submit(request.clone());
        let verdict = self.admit(&request);
        let shard = match verdict {
            Err(rejection) => {
                self.log.rejected += 1;
                self.log.events.push(ScheduleEvent::Rejected {
                    structure: request.structure,
                    priority: request.priority,
                    reason: rejection.label(),
                });
                aa_obs::counter("sched.requests_rejected", 1);
                aa_obs::event(
                    aa_obs::Event::new("sched.reject")
                        .with("structure", request.structure)
                        .with("reason", rejection.label()),
                );
                return Err(rejection);
            }
            Ok(shard) => shard,
        };
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.record(
            shard,
            ScheduleEvent::Admitted {
                ticket,
                structure: request.structure,
                priority: request.priority,
                deadline_s: request.deadline_s,
            },
        );
        aa_obs::counter("sched.requests_admitted", 1);
        let home = self.config.home_shard(request.structure);
        if shard != home {
            self.record(
                shard,
                ScheduleEvent::Spilled {
                    ticket,
                    from_shard: home,
                    to_shard: shard,
                },
            );
            aa_obs::counter("sched.spills", 1);
        }
        self.inflight.insert(
            ticket,
            (request.structure, request.priority, request.tenant),
        );
        self.shards[shard].queue.push(Queued {
            ticket,
            structure: request.structure,
            rhs: request.rhs,
            priority: request.priority,
            deadline_s: request.deadline_s,
            tenant: request.tenant,
            mode: request.mode,
        });
        Ok(SolveTicket(ticket))
    }

    /// The admission pipeline; returns the shard the request routes to.
    fn admit(&self, request: &SolveRequest) -> Result<usize, Rejected> {
        let Some(matrix) = self.structures.get(request.structure) else {
            return Err(Rejected::UnknownStructure {
                structure: request.structure,
            });
        };
        if request.rhs.len() != matrix.dim() {
            return Err(Rejected::RhsLengthMismatch {
                expected: matrix.dim(),
                got: request.rhs.len(),
            });
        }
        if let Some(index) = request.rhs.iter().position(|v| !v.is_finite()) {
            return Err(Rejected::NonFiniteRhs { index });
        }
        if let Some(rejection) = self.check_quota(request.tenant) {
            return Err(rejection);
        }
        let Some(shard) = self.route(request.structure) else {
            return Err(Rejected::QueueFull {
                capacity: self.config.queue_capacity,
                retry_after_s: self.min_drain_s(),
            });
        };
        if let Some(watermark) = self.config.brownout_low_watermark {
            if request.priority == Priority::Low && self.shards[shard].queue.len() >= watermark {
                return Err(Rejected::Brownout {
                    queue_depth: self.shards[shard].queue.len(),
                    retry_after_s: self.shard_drain_s(shard),
                });
            }
        }
        if let (Some(deadline), Some(estimate)) =
            (request.deadline_s, self.estimates[request.structure])
        {
            let priced = self.priced_estimate_s(estimate, request.mode);
            if deadline < priced {
                return Err(Rejected::DeadlineInfeasible {
                    deadline_s: deadline,
                    estimate_s: priced,
                });
            }
        }
        Ok(shard)
    }

    /// The single per-request deadline price, per mode, from one
    /// sequential estimate — both profiles route through
    /// [`aa_solver::estimate`] so the fleet's arithmetic can never drift
    /// from the estimator's:
    ///
    /// * `Direct` — coalesced columns settle together in one sweep, so
    ///   the deadline is judged against the amortized per-request time
    ///   ([`amortized_solve_time_s`] over the coalescing width), not the
    ///   sequential estimate (which over-prices a coalescing fleet by up
    ///   to the batch width).
    /// * `KrylovPrecond` — one supervised analog solve per FCG
    ///   preconditioner application, never coalesced, so the sequential
    ///   estimate is *scaled* by [`KRYLOV_APPLICATIONS`]
    ///   ([`krylov_solve_time_s`]).
    fn priced_estimate_s(&self, estimate_s: f64, mode: SolveMode) -> f64 {
        match mode {
            SolveMode::Direct => amortized_solve_time_s(estimate_s, self.coalesce_width()),
            SolveMode::KrylovPrecond => krylov_solve_time_s(estimate_s, KRYLOV_APPLICATIONS),
        }
    }

    /// How many same-structure RHS columns one dispatch actually serves
    /// per analog sweep: the coalescing width, capped by the batch size.
    fn coalesce_width(&self) -> usize {
        self.config.max_batch_rhs.min(self.config.batch_size).max(1)
    }

    /// Structure-affinity routing: the home shard while it has headroom,
    /// else the first shard below the spill watermark scanning cyclically
    /// from the home, else (second pass) the first shard below hard
    /// capacity. `None` when every shard is at capacity.
    fn route(&self, structure: usize) -> Option<usize> {
        let home = self.config.home_shard(structure);
        let n = self.shards.len();
        let cap = self.config.queue_capacity;
        let watermark = self.config.spill_watermark.unwrap_or(cap).min(cap).max(1);
        for pass in [watermark, cap] {
            for k in 0..n {
                let shard = (home + k) % n;
                if self.shards[shard].queue.len() < pass {
                    return Some(shard);
                }
            }
        }
        None
    }

    /// Fair-share admission: refuses a tenant already holding its
    /// weighted share of the fleet-wide queue capacity. Tenants without a
    /// configured weight share one default bucket of weight 1.
    fn check_quota(&self, tenant: u32) -> Option<Rejected> {
        if self.config.tenant_weights.is_empty() {
            return None;
        }
        // Last-configured weight wins for a repeated tenant id.
        let weights: BTreeMap<u32, u32> = self.config.tenant_weights.iter().copied().collect();
        let denominator: u64 = weights.values().map(|&w| u64::from(w)).sum::<u64>() + 1;
        let total = (self.config.queue_capacity * self.shards.len()) as u64;
        let weight = weights.get(&tenant).copied().unwrap_or(1);
        let quota = ((total * u64::from(weight)) / denominator).max(1) as usize;
        // The bucket: the tenant itself when configured, the pooled
        // default bucket otherwise.
        let in_bucket = |q: &Queued| {
            if weights.contains_key(&tenant) {
                q.tenant == tenant
            } else {
                !weights.contains_key(&q.tenant)
            }
        };
        let in_queue: usize = self
            .shards
            .iter()
            .map(|s| s.queue.iter().filter(|q| in_bucket(q)).count())
            .sum();
        if in_queue < quota {
            return None;
        }
        // Retry once the fastest shard holding bucket work has drained.
        let retry_after_s = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.queue.iter().any(&in_bucket))
            .map(|(i, _)| self.shard_drain_s(i))
            .fold(f64::INFINITY, f64::min);
        Some(Rejected::QuotaExceeded {
            tenant,
            in_queue,
            quota,
            retry_after_s: if retry_after_s.is_finite() {
                retry_after_s
            } else {
                0.0
            },
        })
    }

    /// The typed retry hint for one shard: the queued work's predicted
    /// analog seconds — each queued request priced by the same per-mode
    /// rule as deadline admission ([`Self::priced_estimate_s`], which
    /// smooths partial sweeps) — spread over the shard's *effective*
    /// serving lanes. Probation chips count as a fractional lane (one
    /// probe per round versus a full batch); quarantined and retired
    /// chips count as zero — a degraded shard quotes an honestly longer
    /// drain instead of pricing dead silicon as capacity. A shard with no
    /// chip in rotation quotes `0.0`: the dispatcher's digital lane
    /// clears its whole queue next round.
    fn shard_drain_s(&self, shard: usize) -> f64 {
        let s = &self.shards[shard];
        let work_s: f64 = s
            .queue
            .iter()
            .map(|q| {
                let estimate = self.estimates[q.structure].unwrap_or(0.0);
                self.priced_estimate_s(estimate, q.mode)
            })
            .sum();
        let lanes: f64 = s
            .health
            .iter()
            .map(|h| match h.state {
                ChipState::Probation => 1.0 / self.config.batch_size as f64,
                _ if h.in_rotation() => 1.0,
                _ => 0.0,
            })
            .sum();
        if lanes <= 0.0 {
            0.0
        } else {
            work_s / lanes
        }
    }

    /// The smallest drain hint over all shards — the soonest any shard
    /// could accept new work.
    fn min_drain_s(&self) -> f64 {
        (0..self.shards.len())
            .map(|s| self.shard_drain_s(s))
            .fold(f64::INFINITY, f64::min)
    }

    /// Runs one dispatch round over every shard with pending work;
    /// returns the number of requests completed (`0` when all queues were
    /// empty and nothing advanced).
    ///
    /// Placement is two-phase and deterministic: phase one places batches
    /// and ships jobs shard by shard in shard order (so every shard's
    /// workers start while the dispatcher moves on), phase two drains and
    /// collects replies in the same shard order. With one shard this is
    /// exactly the unsharded place → ship → drain → collect sequence.
    pub fn run_round(&mut self) -> usize {
        self.wal.record_round();
        if self.shards.iter().all(|s| s.queue.is_empty()) {
            return 0;
        }
        self.round += 1;
        let _span = aa_obs::span("sched.round");
        aa_obs::histogram("sched.queue_depth", self.queue_depth() as f64);
        let mut completed = 0;
        let mut shipped = vec![false; self.shards.len()];
        for (s, ship) in shipped.iter_mut().enumerate() {
            if self.shards[s].queue.is_empty() {
                continue;
            }
            self.shards[s].round += 1;
            self.update_probation(s);
            // Dispatch order: priority class, then admission order.
            self.shards[s]
                .queue
                .sort_by_key(|q| (q.priority.rank(), q.ticket));
            let jobs = self.place_batches(s);
            if self.shards[s].health.iter().any(ChipHealth::in_rotation) {
                self.shards[s]
                    .pool
                    .try_submit(jobs)
                    .unwrap_or_else(|_| unreachable!("round is drained before the next submit"));
                *ship = true;
            } else {
                // Whole shard quarantined: the dispatcher's own digital
                // lane keeps the shard live (and the loop terminating).
                completed += self.serve_digital_only(s);
            }
        }
        for (s, &ship) in shipped.iter().enumerate() {
            if ship {
                let replies = self.shards[s].pool.drain();
                completed += self.collect_round(s, replies);
            }
        }
        completed
    }

    /// Runs dispatch rounds until every shard's queue is empty.
    pub fn run_until_idle(&mut self) -> usize {
        let mut completed = 0;
        while self.shards.iter().any(|s| !s.queue.is_empty()) {
            completed += self.run_round();
        }
        completed
    }

    /// Moves one shard's quarantined chips whose sit-out elapsed into
    /// probation.
    fn update_probation(&mut self, shard: usize) {
        let round = self.shards[shard].round;
        let offset = self.shards[shard].chip_offset;
        for local in 0..self.shards[shard].health.len() {
            if let ChipState::Quarantined { since_round } = self.shards[shard].health[local].state {
                if round >= since_round + self.config.health.readmit_after_rounds {
                    self.shards[shard].health[local].state = ChipState::Probation;
                    let chip = offset + local;
                    self.record(shard, ScheduleEvent::Probation { chip, round });
                    aa_obs::event(aa_obs::Event::new("sched.probation").with("chip", chip));
                }
            }
        }
    }

    /// Greedy deterministic placement over one shard: its chips in index
    /// order, each taking the highest-priority waiting request plus up to
    /// `batch_size − 1` same-structure followers (compiled-plan reuse).
    /// Probation chips get exactly one probe. Returns one job per shard
    /// chip — empty for idle or quarantined chips — so worker routing is
    /// round-invariant.
    fn place_batches(&mut self, shard: usize) -> Vec<ChipCommand> {
        let chips = self.shards[shard].chips();
        let offset = self.shards[shard].chip_offset;
        let round = self.shards[shard].round;
        let mut jobs: Vec<ChipCommand> = (0..chips).map(|_| ChipCommand::default()).collect();
        for (local, job) in jobs.iter_mut().enumerate() {
            if self.shards[shard].queue.is_empty()
                || !self.shards[shard].health[local].in_rotation()
            {
                continue;
            }
            let budget = if self.shards[shard].health[local].state == ChipState::Probation {
                1
            } else {
                self.config.batch_size
            };
            let head = self.shards[shard].queue.remove(0);
            let structure = head.structure;
            let mut batch = vec![head];
            while batch.len() < budget {
                let Some(pos) = self.shards[shard]
                    .queue
                    .iter()
                    .position(|q| q.structure == structure)
                else {
                    break;
                };
                batch.push(self.shards[shard].queue.remove(pos));
            }
            let tickets: Vec<u64> = batch.iter().map(|q| q.ticket).collect();
            self.record(
                shard,
                ScheduleEvent::Dispatched {
                    round,
                    chip: offset + local,
                    tickets,
                },
            );
            *job = ChipCommand::Run(
                batch
                    .into_iter()
                    .map(|q| (q.ticket, q.structure, q.rhs, q.deadline_s, q.mode))
                    .collect(),
            );
        }
        jobs
    }

    /// Serves one shard's queued requests from the dispatcher's digital
    /// lane; returns how many it settled.
    fn serve_digital_only(&mut self, shard: usize) -> usize {
        let queued = std::mem::take(&mut self.shards[shard].queue);
        let served = queued.len();
        let round = self.shards[shard].round;
        for q in queued {
            let (solution, residual) = digital_lane(
                &self.structures[q.structure],
                &q.rhs,
                self.config.fallback_tolerance,
            );
            self.settle(
                shard,
                Completion {
                    ticket: SolveTicket(q.ticket),
                    structure: q.structure,
                    priority: q.priority,
                    solution,
                    path: CompletionPath::DigitalOnly,
                    residual,
                    analog_time_s: 0.0,
                    energy_j: 0.0,
                    chip: None,
                    round,
                },
            );
        }
        served
    }

    /// Folds one shard round's chip replies into completions, requeues,
    /// health scores, and quarantine decisions — in chip order, on the
    /// dispatcher thread.
    fn collect_round(&mut self, shard: usize, replies: Vec<ChipReply>) -> usize {
        let mut completed = 0;
        let offset = self.shards[shard].chip_offset;
        let round = self.shards[shard].round;
        for (local, reply) in replies.into_iter().enumerate() {
            let chip = offset + local;
            let ChipReply::Ran {
                outcomes,
                unserved,
                failed,
            } = reply
            else {
                // Only `Run` commands are shipped in a round; anything else
                // is an internal routing bug. Skip rather than panic — the
                // invariant is checked in debug builds.
                debug_assert!(false, "non-Run reply in a dispatch round");
                continue;
            };
            let dispatched = !outcomes.is_empty() || !unserved.is_empty();
            let served = !outcomes.is_empty();
            let mut worst = if failed { 1.0f64 } else { 0.0f64 };
            for outcome in outcomes {
                worst = worst.max(outcome_weight(outcome.path));
                self.shards[shard].health[local].solves += 1;
                // The inflight index replaces a log scan here; a ticket the
                // dispatcher never admitted is dropped, not unwrapped.
                let Some((structure, priority, _)) = self.inflight.get(&outcome.ticket).copied()
                else {
                    debug_assert!(false, "outcome for unknown ticket {}", outcome.ticket);
                    aa_obs::counter("sched.orphan_outcomes", 1);
                    continue;
                };
                let energy_j = self
                    .config
                    .design
                    .energy_j(self.structures[structure].dim(), outcome.analog_time_s);
                aa_obs::histogram(analog_time_metric(priority), outcome.analog_time_s);
                self.settle(
                    shard,
                    Completion {
                        ticket: SolveTicket(outcome.ticket),
                        structure,
                        priority,
                        solution: outcome.solution,
                        path: outcome.path,
                        residual: outcome.residual,
                        analog_time_s: outcome.analog_time_s,
                        energy_j,
                        chip: Some(chip),
                        round,
                    },
                );
                completed += 1;
            }
            self.requeue(shard, local, unserved);
            if served || (failed && dispatched) {
                self.score(shard, local, worst);
            }
        }
        completed
    }

    /// Returns assignments a failed chip never served to its shard's
    /// queue — the exactly-once half of the failure story: an accepted
    /// request bounces until a healthy chip (or the digital lane) answers
    /// it.
    fn requeue(&mut self, shard: usize, local: usize, unserved: Vec<Assignment>) {
        let columns = unserved.len();
        let chip = self.shards[shard].chip_offset + local;
        let round = self.shards[shard].round;
        for (ticket, structure, rhs, deadline_s, mode) in unserved {
            let (priority, tenant) = self
                .inflight
                .get(&ticket)
                .map(|&(_, p, t)| (p, t))
                .unwrap_or_default();
            self.record(
                shard,
                ScheduleEvent::Requeued {
                    ticket,
                    chip,
                    round,
                    columns,
                },
            );
            aa_obs::counter("sched.requeues", 1);
            aa_obs::event(
                aa_obs::Event::new("sched.requeue")
                    .with("ticket", ticket)
                    .with("chip", chip),
            );
            self.shards[shard].queue.push(Queued {
                ticket,
                structure,
                rhs,
                priority,
                deadline_s,
                tenant,
                mode,
            });
        }
    }

    fn settle(&mut self, shard: usize, completion: Completion) {
        self.inflight.remove(&completion.ticket.0);
        self.record(
            shard,
            ScheduleEvent::Completed {
                ticket: completion.ticket.0,
                chip: completion.chip,
                round: completion.round,
                path: completion.path,
                analog_time_s: completion.analog_time_s,
            },
        );
        self.shards[shard]
            .log
            .tally_completion(completion.priority, completion.energy_j);
        self.log
            .tally_completion(completion.priority, completion.energy_j);
        aa_obs::counter("sched.requests_completed", 1);
        self.completions.insert(completion.ticket.0, completion);
    }

    /// EWMA health update plus the quarantine / probation-verdict state
    /// machine, for one shard-local chip.
    fn score(&mut self, shard: usize, local: usize, weight: f64) {
        let alpha = self.config.health.alpha;
        let round = self.shards[shard].round;
        let chip = self.shards[shard].chip_offset + local;
        let health = &mut self.shards[shard].health[local];
        health.score = (1.0 - alpha) * health.score + alpha * weight;
        match health.state {
            ChipState::Probation => {
                if weight == 0.0 {
                    health.state = ChipState::Healthy;
                    health.score = 0.0;
                    self.record(shard, ScheduleEvent::Readmitted { chip, round });
                    aa_obs::event(aa_obs::Event::new("sched.readmit").with("chip", chip));
                } else {
                    self.quarantine(shard, local);
                }
            }
            ChipState::Healthy => {
                if health.score >= self.config.health.quarantine_threshold {
                    self.quarantine(shard, local);
                }
            }
            ChipState::Quarantined { .. } | ChipState::Retired => {}
        }
    }

    fn quarantine(&mut self, shard: usize, local: usize) {
        let round = self.shards[shard].round;
        let chip = self.shards[shard].chip_offset + local;
        self.shards[shard].health[local].state = ChipState::Quarantined { since_round: round };
        self.shards[shard].health[local].quarantines += 1;
        self.record(shard, ScheduleEvent::Quarantined { chip, round });
        aa_obs::counter("sched.quarantines", 1);
        aa_obs::event(aa_obs::Event::new("sched.quarantine").with("chip", chip));
        if let Some(limit) = self.config.health.retire_after_quarantines {
            if self.shards[shard].health[local].quarantines >= limit {
                self.shards[shard].health[local].state = ChipState::Retired;
                self.record(shard, ScheduleEvent::Retired { chip, round });
                aa_obs::counter("sched.retirements", 1);
                aa_obs::event(aa_obs::Event::new("sched.retire").with("chip", chip));
            }
        }
    }

    /// Takes a consistent snapshot of the whole fleet — per-chip solver
    /// state, health records, every shard's pending queue / log / round,
    /// the completion set, the fleet-wide log, and the counters — and
    /// compacts the WAL (everything recorded so far is baked into the
    /// snapshot).
    ///
    /// Restoring the snapshot with [`restore`](Self::restore), then
    /// replaying the WAL accumulated afterwards, rebuilds the service bit
    /// for bit.
    pub fn checkpoint(&mut self) -> FleetCheckpoint {
        let chips = self.export_slots();
        self.wal.clear();
        FleetCheckpoint {
            version: FleetCheckpoint::FORMAT_VERSION,
            base_seed: self.config.base_seed,
            chips,
            health: self.health(),
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(index, s)| ShardCheckpoint {
                    shard: index,
                    chip_offset: s.chip_offset,
                    chips: s.chips(),
                    queue: s
                        .queue
                        .iter()
                        .map(|q| QueuedRequest {
                            ticket: q.ticket,
                            structure: q.structure,
                            rhs: q.rhs.clone(),
                            priority: q.priority,
                            deadline_s: q.deadline_s,
                            tenant: q.tenant,
                            mode: q.mode,
                        })
                        .collect(),
                    log: s.log.clone(),
                    round: s.round,
                })
                .collect(),
            completions: self.completions.values().cloned().collect(),
            log: self.log.clone(),
            next_ticket: self.next_ticket,
            round: self.round,
        }
    }

    /// The external inputs recorded since the last checkpoint (or since
    /// construction). In a real deployment this is the durable append log;
    /// a crash harness clones it before dropping the service.
    pub fn wal(&self) -> &AdmissionWal {
        &self.wal
    }

    /// Every settled completion so far, in ticket order.
    pub fn completions(&self) -> impl Iterator<Item = &Completion> + '_ {
        self.completions.values()
    }

    /// Rebuilds a crashed service from its last checkpoint plus the WAL
    /// recorded afterwards. `config` and `structures` must be the ones the
    /// crashed fleet was built with — the deterministic parts (netlists,
    /// seeds, process variation, shard topology) are reconstructed from
    /// them, then the checkpointed mutable state is overlaid shard by
    /// shard and the WAL ops are replayed with telemetry silenced
    /// (recovered work is not double-counted).
    ///
    /// The restored service drains to bit-identical [`ScheduleLog`]s —
    /// fleet-wide and per-shard — solutions, and masked traces versus a
    /// fleet that never crashed.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] as for [`new`](Self::new), or
    /// [`SchedError::CheckpointMismatch`] when the snapshot does not fit
    /// the fleet (format version, seed, chip count, shard topology,
    /// structure references).
    pub fn restore(
        config: FleetConfig,
        structures: Vec<CsrMatrix>,
        checkpoint: &FleetCheckpoint,
        wal: &AdmissionWal,
    ) -> Result<Self, SchedError> {
        if checkpoint.version != FleetCheckpoint::FORMAT_VERSION {
            return Err(SchedError::CheckpointMismatch {
                message: format!(
                    "checkpoint format v{} but this build reads v{}",
                    checkpoint.version,
                    FleetCheckpoint::FORMAT_VERSION
                ),
            });
        }
        if checkpoint.base_seed != config.base_seed {
            return Err(SchedError::CheckpointMismatch {
                message: format!(
                    "checkpoint was taken at base seed {:#x}, fleet config has {:#x}",
                    checkpoint.base_seed, config.base_seed
                ),
            });
        }
        let mut service = Self::new(config, structures)?;
        if checkpoint.chips.len() != service.config.chips
            || checkpoint.health.len() != service.config.chips
        {
            return Err(SchedError::CheckpointMismatch {
                message: format!(
                    "checkpoint describes {} chips, fleet has {}",
                    checkpoint.chips.len(),
                    service.config.chips
                ),
            });
        }
        if checkpoint.shards.len() != service.shards.len() {
            return Err(SchedError::CheckpointMismatch {
                message: format!(
                    "checkpoint describes {} shards, fleet has {}",
                    checkpoint.shards.len(),
                    service.shards.len()
                ),
            });
        }
        for (index, section) in checkpoint.shards.iter().enumerate() {
            let shard = &service.shards[index];
            if section.shard != index
                || section.chip_offset != shard.chip_offset
                || section.chips != shard.chips()
            {
                return Err(SchedError::CheckpointMismatch {
                    message: format!(
                        "checkpoint shard {} covers chips {}..{}, fleet shard {index} owns {}..{}",
                        section.shard,
                        section.chip_offset,
                        section.chip_offset + section.chips,
                        shard.chip_offset,
                        shard.chip_offset + shard.chips()
                    ),
                });
            }
            for q in &section.queue {
                let Some(matrix) = service.structures.get(q.structure) else {
                    return Err(SchedError::CheckpointMismatch {
                        message: format!(
                            "queued ticket {} references unregistered structure {}",
                            q.ticket, q.structure
                        ),
                    });
                };
                if q.rhs.len() != matrix.dim() {
                    return Err(SchedError::CheckpointMismatch {
                        message: format!(
                            "queued ticket {} has rhs length {}, structure {} needs {}",
                            q.ticket,
                            q.rhs.len(),
                            q.structure,
                            matrix.dim()
                        ),
                    });
                }
            }
        }
        service.import_slots(&checkpoint.chips)?;
        for (index, section) in checkpoint.shards.iter().enumerate() {
            let offset = service.shards[index].chip_offset;
            let chips = service.shards[index].chips();
            service.shards[index].health = checkpoint.health[offset..offset + chips].to_vec();
            service.shards[index].queue = section
                .queue
                .iter()
                .map(|q| Queued {
                    ticket: q.ticket,
                    structure: q.structure,
                    rhs: q.rhs.clone(),
                    priority: q.priority,
                    deadline_s: q.deadline_s,
                    tenant: q.tenant,
                    mode: q.mode,
                })
                .collect();
            service.shards[index].log = section.log.clone();
            service.shards[index].round = section.round;
        }
        service.inflight = checkpoint
            .shards
            .iter()
            .flat_map(|s| s.queue.iter())
            .map(|q| (q.ticket, (q.structure, q.priority, q.tenant)))
            .collect();
        service.completions = checkpoint
            .completions
            .iter()
            .map(|c| (c.ticket.0, c.clone()))
            .collect();
        service.log = checkpoint.log.clone();
        service.next_ticket = checkpoint.next_ticket;
        service.round = checkpoint.round;
        // Replay everything that happened after the snapshot. The ops
        // re-record into the fresh WAL (they are once again "since the
        // last checkpoint"), so a second crash before the next checkpoint
        // still recovers.
        aa_obs::silenced(|| {
            for op in wal.ops() {
                match op {
                    WalOp::Submit(request) => {
                        let _ = service.submit(request.clone());
                    }
                    WalOp::Round => {
                        service.run_round();
                    }
                    WalOp::Inject { chip, failure } => {
                        let _ = service.inject_chaos(*chip, *failure);
                    }
                }
            }
        });
        Ok(service)
    }

    /// Installs (or clears, with `None`) a chaos failure mode on one chip.
    /// The injection is WAL-recorded so crash recovery replays it.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] when the chip index is out of range.
    pub fn inject_chaos(
        &mut self,
        chip: usize,
        failure: Option<ChipFailure>,
    ) -> Result<(), SchedError> {
        if chip >= self.config.chips {
            return Err(SchedError::InvalidConfig {
                message: format!(
                    "chaos injection targets chip {chip}, fleet has {}",
                    self.config.chips
                ),
            });
        }
        self.wal.record_inject(chip, failure);
        let shard = self
            .shards
            .iter()
            .position(|s| chip >= s.chip_offset && chip < s.chip_offset + s.chips())
            .expect("contiguous shard ranges cover every chip");
        let local = chip - self.shards[shard].chip_offset;
        aa_obs::silenced(|| {
            let commands = (0..self.shards[shard].chips())
                .map(|i| {
                    if i == local {
                        ChipCommand::Inject(failure)
                    } else {
                        ChipCommand::Run(Vec::new())
                    }
                })
                .collect();
            self.shards[shard]
                .pool
                .try_submit(commands)
                .unwrap_or_else(|_| unreachable!("round is drained before the next submit"));
            self.shards[shard].pool.drain();
        });
        Ok(())
    }

    /// Exports every chip slot's state through its shard's pool (same
    /// routing as a dispatch round), with telemetry silenced —
    /// checkpointing leaves no mark on the live trace. Shards export in
    /// order and ranges are contiguous, so the result is in global chip
    /// order.
    fn export_slots(&mut self) -> Vec<SlotCheckpoint> {
        aa_obs::silenced(|| {
            let mut all = Vec::with_capacity(self.config.chips);
            for shard in &mut self.shards {
                let commands = (0..shard.chips()).map(|_| ChipCommand::Export).collect();
                shard
                    .pool
                    .try_submit(commands)
                    .unwrap_or_else(|_| unreachable!("round is drained before the next submit"));
                let offset = shard.chip_offset;
                all.extend(
                    shard
                        .pool
                        .drain()
                        .into_iter()
                        .enumerate()
                        .map(|(local, reply)| match reply {
                            ChipReply::Exported(state) => *state,
                            _ => {
                                debug_assert!(false, "non-Export reply to an export round");
                                SlotCheckpoint {
                                    chip: offset + local,
                                    solvers: Vec::new(),
                                    failure: None,
                                }
                            }
                        }),
                );
            }
            all
        })
    }

    /// Imports checkpointed slot states through each shard's pool.
    fn import_slots(&mut self, slots: &[SlotCheckpoint]) -> Result<(), SchedError> {
        aa_obs::silenced(|| {
            for shard in &mut self.shards {
                let range = &slots[shard.chip_offset..shard.chip_offset + shard.chips()];
                let commands = range
                    .iter()
                    .map(|s| ChipCommand::Import(Box::new(s.clone())))
                    .collect();
                shard
                    .pool
                    .try_submit(commands)
                    .unwrap_or_else(|_| unreachable!("round is drained before the next submit"));
                for reply in shard.pool.drain() {
                    if let ChipReply::Imported(Err(message)) = reply {
                        return Err(SchedError::CheckpointMismatch { message });
                    }
                }
            }
            Ok(())
        })
    }
}

/// The per-class histogram name of simulated analog seconds per served
/// request (static, as `aa-obs` requires).
fn analog_time_metric(priority: Priority) -> &'static str {
    match priority {
        Priority::High => "sched.analog_s.high",
        Priority::Normal => "sched.analog_s.normal",
        Priority::Low => "sched.analog_s.low",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri(n: usize) -> CsrMatrix {
        CsrMatrix::tridiagonal(n, -1.0, 2.0, -1.0).unwrap()
    }

    #[test]
    fn construction_rejects_degenerate_configs() {
        assert!(FleetService::new(FleetConfig::new(0), vec![tri(4)]).is_err());
        assert!(FleetService::new(FleetConfig::new(1), vec![]).is_err());
        let mut zero_batch = FleetConfig::new(1);
        zero_batch.batch_size = 0;
        assert!(FleetService::new(zero_batch, vec![tri(4)]).is_err());
        let zero_rhs = FleetConfig::new(1).with_max_batch_rhs(0);
        assert!(FleetService::new(zero_rhs, vec![tri(4)]).is_err());
        let bad_chip = FleetConfig::new(1).with_fault_plan(3, aa_analog::FaultPlan::new(1));
        assert!(FleetService::new(bad_chip, vec![tri(4)]).is_err());
        // Shard topology must describe non-empty dispatcher groups.
        assert!(FleetService::new(FleetConfig::new(2).with_shards(0), vec![tri(4)]).is_err());
        assert!(FleetService::new(FleetConfig::new(2).with_shards(3), vec![tri(4)]).is_err());
    }

    #[test]
    fn admission_rejects_are_typed_and_never_panic() {
        let mut fleet =
            FleetService::new(FleetConfig::new(1).with_queue_capacity(2), vec![tri(4)]).unwrap();
        assert_eq!(
            fleet.submit(SolveRequest::new(9, vec![1.0; 4])),
            Err(Rejected::UnknownStructure { structure: 9 })
        );
        assert_eq!(
            fleet.submit(SolveRequest::new(0, vec![1.0; 3])),
            Err(Rejected::RhsLengthMismatch {
                expected: 4,
                got: 3
            })
        );
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        match fleet.submit(SolveRequest::new(0, vec![1.0; 4])) {
            Err(Rejected::QueueFull {
                capacity,
                retry_after_s,
            }) => {
                assert_eq!(capacity, 2);
                assert!(
                    retry_after_s > 0.0,
                    "two priceable requests are queued: {retry_after_s}"
                );
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(fleet.log().rejected, 3);
        assert_eq!(fleet.queue_depth(), 2);
    }

    #[test]
    fn adversarial_submissions_never_panic() {
        let mut fleet =
            FleetService::new(FleetConfig::new(1).with_queue_capacity(4), vec![tri(4)]).unwrap();
        // Hostile inputs on the request-controlled path: each yields a
        // typed verdict or a served answer, never a panic.
        assert!(fleet
            .submit(SolveRequest::new(usize::MAX, vec![1.0; 4]))
            .is_err());
        assert!(fleet.submit(SolveRequest::new(0, Vec::new())).is_err());
        assert!(fleet.submit(SolveRequest::new(0, vec![0.0; 4096])).is_err());
        // NaN / infinite deadlines are not "below the estimate", so they
        // admit and run; NaN never trips the deadline check at solve time.
        let nan = fleet
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_deadline_s(f64::NAN))
            .unwrap();
        let inf = fleet
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_deadline_s(f64::INFINITY))
            .unwrap();
        // A NaN or infinite rhs entry is refused up front with its index.
        assert_eq!(
            fleet.submit(SolveRequest::new(0, vec![f64::NAN; 4])),
            Err(Rejected::NonFiniteRhs { index: 0 })
        );
        assert_eq!(
            fleet.submit(SolveRequest::new(0, vec![1.0, 1.0, f64::INFINITY, 1.0])),
            Err(Rejected::NonFiniteRhs { index: 2 })
        );
        fleet.run_until_idle();
        for ticket in [nan, inf] {
            assert!(fleet.completion(ticket).is_some(), "{ticket:?}");
        }
        // Out-of-range chaos targets are typed errors too.
        assert!(fleet.inject_chaos(9, None).is_err());
    }

    #[test]
    fn brownout_sheds_low_priority_admissions_only() {
        let mut fleet = FleetService::new(
            FleetConfig::new(1).with_queue_capacity(8).with_brownout(2),
            vec![tri(4)],
        )
        .unwrap();
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        // At the watermark: Low is shed with a typed hint, High still lands.
        let shed = fleet.submit(SolveRequest::new(0, vec![1.0; 4]).with_priority(Priority::Low));
        match shed {
            Err(Rejected::Brownout {
                queue_depth,
                retry_after_s,
            }) => {
                assert_eq!(queue_depth, 2);
                assert!(retry_after_s > 0.0);
            }
            other => panic!("expected Brownout, got {other:?}"),
        }
        assert!(fleet
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_priority(Priority::High))
            .is_ok());
        assert_eq!(fleet.queue_depth(), 3);
        fleet.run_until_idle();
        // Once drained below the watermark, Low admits again.
        assert!(fleet
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_priority(Priority::Low))
            .is_ok());
    }

    #[test]
    fn dead_chip_requeues_and_retires_and_digital_lane_engages() {
        let mut cfg = FleetConfig::new(1);
        cfg.health.retire_after_quarantines = Some(2);
        let mut fleet = FleetService::new(cfg, vec![tri(4)]).unwrap();
        fleet
            .inject_chaos(0, Some(crate::fleet::ChipFailure::Dead))
            .unwrap();
        // Keep one request per round flowing so the quarantine → probation
        // → failed-probe cycle actually plays out (an idle fleet never
        // probes). The dead chip bounces every batch; the dispatcher's
        // digital lane answers everything.
        let mut tickets = Vec::new();
        for _ in 0..14 {
            if let Ok(t) = fleet.submit(SolveRequest::new(0, vec![1.0; 4])) {
                tickets.push(t);
            }
            fleet.run_round();
        }
        fleet.run_until_idle();
        // Every accepted request was answered despite the dead chip.
        assert!(!tickets.is_empty());
        for t in &tickets {
            let done = fleet.completion(*t).expect("answered");
            assert_eq!(done.path, CompletionPath::DigitalOnly);
        }
        // The chip bounced batches, quarantined twice (the probe failed),
        // and retired for good.
        assert!(fleet
            .log()
            .events
            .iter()
            .any(|e| matches!(e, ScheduleEvent::Requeued { .. })));
        assert_eq!(fleet.health()[0].state, ChipState::Retired);
        assert_eq!(fleet.health()[0].quarantines, 2);
    }

    #[test]
    fn infeasible_deadlines_are_rejected_with_the_estimate() {
        let mut fleet = FleetService::new(FleetConfig::new(1), vec![tri(4)]).unwrap();
        let estimate = fleet.estimate_s(0).expect("SPD structure is priceable");
        assert!(estimate > 0.0);
        let verdict =
            fleet.submit(SolveRequest::new(0, vec![1.0; 4]).with_deadline_s(estimate / 2.0));
        assert_eq!(
            verdict,
            Err(Rejected::DeadlineInfeasible {
                deadline_s: estimate / 2.0,
                estimate_s: estimate
            })
        );
        // A generous deadline is admitted and met on the analog path.
        let ticket = fleet
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_deadline_s(estimate * 100.0))
            .unwrap();
        fleet.run_until_idle();
        let done = fleet.completion(ticket).unwrap();
        assert!(done.path.is_analog(), "path={:?}", done.path);
        assert!(done.analog_time_s <= estimate * 100.0);
    }

    #[test]
    fn deadline_feasibility_amortizes_over_the_coalescing_width() {
        // With 4-wide RHS coalescing a deadline at half the sequential
        // estimate is feasible: the request rides a shared sweep and is
        // billed a quarter of it.
        let mut coalescing =
            FleetService::new(FleetConfig::new(1).with_max_batch_rhs(4), vec![tri(4)]).unwrap();
        let estimate = coalescing.estimate_s(0).unwrap();
        let ticket = coalescing
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_deadline_s(estimate / 2.0))
            .unwrap();
        coalescing.run_until_idle();
        assert!(coalescing.completion(ticket).is_some());
        // The same deadline on a sequential fleet is still refused, with
        // the sequential estimate in the verdict.
        let mut sequential = FleetService::new(FleetConfig::new(1), vec![tri(4)]).unwrap();
        assert_eq!(
            sequential.submit(SolveRequest::new(0, vec![1.0; 4]).with_deadline_s(estimate / 2.0)),
            Err(Rejected::DeadlineInfeasible {
                deadline_s: estimate / 2.0,
                estimate_s: estimate
            })
        );
        // The width is capped by batch_size: max_batch_rhs 4 over a
        // 1-request batch coalesces nothing.
        let mut cfg = FleetConfig::new(1).with_max_batch_rhs(4);
        cfg.batch_size = 1;
        let mut capped = FleetService::new(cfg, vec![tri(4)]).unwrap();
        assert!(capped
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_deadline_s(estimate / 2.0))
            .is_err());
    }

    #[test]
    fn krylov_requests_serve_preconditioned_fcg_on_the_analog_path() {
        let mut fleet = FleetService::new(FleetConfig::new(1), vec![tri(8)]).unwrap();
        let krylov = fleet
            .submit(SolveRequest::new(0, vec![1.0; 8]).with_krylov())
            .unwrap();
        let direct = fleet.submit(SolveRequest::new(0, vec![1.0; 8])).unwrap();
        fleet.run_until_idle();
        let done = fleet.completion(krylov).expect("served").clone();
        assert!(done.path.is_analog(), "path={:?}", done.path);
        assert!(done.analog_time_s > 0.0, "FCG burned analog seconds");
        // The FCG loop certifies the digital-lane tolerance — tighter
        // than a raw 12-bit analog readout.
        assert!(done.residual <= 1e-8, "residual={}", done.residual);
        // Both modes agree on the answer (the direct path to readout
        // precision).
        let plain = fleet.completion(direct).unwrap();
        for (a, b) in done.solution.iter().zip(&plain.solution) {
            assert!((a - b).abs() < 5e-2, "{a} vs {b}");
        }
        assert!(done.energy_j > 0.0);
    }

    #[test]
    fn served_requests_issue_no_run_from_rest() {
        // Every slot's first run starts from the guess on its slow modes
        // and b, so the trace of a served fleet counts no run from rest:
        // grid and tridiagonal requests, direct and Krylov.
        let grid =
            CsrMatrix::from_row_access(&aa_linalg::stencil::PoissonStencil::new_2d(4).unwrap());
        let recorder = aa_obs::MemoryRecorder::shared();
        let completions = aa_obs::with_recorder(recorder.clone(), || {
            let mut fleet = FleetService::new(FleetConfig::new(2), vec![grid, tri(8)]).unwrap();
            let mut tickets = Vec::new();
            for k in 0..3 {
                let rhs = |n: usize| -> Vec<f64> {
                    (0..n)
                        .map(|i| 0.2 + 0.1 * ((i * 5 + k) % 7) as f64)
                        .collect()
                };
                tickets.push(fleet.submit(SolveRequest::new(0, rhs(16))).unwrap());
                tickets.push(fleet.submit(SolveRequest::new(1, rhs(8))).unwrap());
                tickets.push(
                    fleet
                        .submit(SolveRequest::new(0, rhs(16)).with_krylov())
                        .unwrap(),
                );
            }
            fleet.run_until_idle();
            tickets
                .iter()
                .map(|t| fleet.completion(*t).expect("served").clone())
                .collect::<Vec<_>>()
        });
        for done in &completions {
            assert!(done.path.is_analog(), "path={:?}", done.path);
        }
        if aa_obs::ENABLED {
            let trace = recorder.snapshot();
            assert!(trace.counter("solver.warm_starts") > 0);
            assert_eq!(trace.counter("solver.rest_starts"), 0);
        }
    }

    #[test]
    fn krylov_deadlines_price_the_full_application_loop() {
        // 4-wide coalescing: a direct request is billed a quarter of the
        // sequential estimate, a Krylov request the full estimate times
        // KRYLOV_APPLICATIONS — same sequential estimate, two profiles.
        let cfg = FleetConfig::new(1).with_max_batch_rhs(4);
        let mut fleet = FleetService::new(cfg, vec![tri(4)]).unwrap();
        let estimate = fleet.estimate_s(0).unwrap();
        let verdict = fleet.submit(
            SolveRequest::new(0, vec![1.0; 4])
                .with_krylov()
                .with_deadline_s(estimate),
        );
        assert_eq!(
            verdict,
            Err(Rejected::DeadlineInfeasible {
                deadline_s: estimate,
                estimate_s: estimate * KRYLOV_APPLICATIONS as f64
            })
        );
        // The same deadline admits in direct mode (amortized to a quarter).
        assert!(fleet
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_deadline_s(estimate))
            .is_ok());
        // A Krylov deadline above the scaled profile admits; whether the
        // loop's actual analog seconds fit decides the served path.
        let generous = fleet
            .submit(
                SolveRequest::new(0, vec![1.0; 4])
                    .with_krylov()
                    .with_deadline_s(estimate * 1e4),
            )
            .unwrap();
        fleet.run_until_idle();
        assert!(fleet.completion(generous).is_some());
    }

    #[test]
    fn krylov_queue_pressure_prices_drain_hints_by_mode() {
        // Two queued Krylov requests cost 2·k·estimate of drain, not
        // 2·estimate: the hint and admission share one pricing rule.
        let cfg = FleetConfig::new(1).with_queue_capacity(2);
        let mut fleet = FleetService::new(cfg, vec![tri(4)]).unwrap();
        let estimate = fleet.estimate_s(0).unwrap();
        for _ in 0..2 {
            fleet
                .submit(SolveRequest::new(0, vec![1.0; 4]).with_krylov())
                .unwrap();
        }
        match fleet.submit(SolveRequest::new(0, vec![1.0; 4])) {
            Err(Rejected::QueueFull { retry_after_s, .. }) => {
                assert!(
                    (retry_after_s - 2.0 * KRYLOV_APPLICATIONS as f64 * estimate).abs() < 1e-12,
                    "retry_after_s={retry_after_s}, estimate={estimate}"
                );
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn degraded_fleet_quotes_honest_drain_hints() {
        // Healthy chip: the full-queue hint prices the queued work on one
        // analog lane.
        let mut fleet =
            FleetService::new(FleetConfig::new(1).with_queue_capacity(2), vec![tri(4)]).unwrap();
        let estimate = fleet.estimate_s(0).unwrap();
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        match fleet.submit(SolveRequest::new(0, vec![1.0; 4])) {
            Err(Rejected::QueueFull { retry_after_s, .. }) => {
                assert!((retry_after_s - 2.0 * estimate).abs() < 1e-12);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Kill the chip and let the dispatcher quarantine it: with no chip
        // in rotation the digital lane clears the queue next round, so the
        // hint drops to zero rather than pricing dead silicon as capacity.
        fleet
            .inject_chaos(0, Some(crate::fleet::ChipFailure::Dead))
            .unwrap();
        // Two failed rounds push the EWMA over the quarantine threshold.
        fleet.run_round();
        fleet.run_round();
        assert!(matches!(
            fleet.health()[0].state,
            ChipState::Quarantined { .. }
        ));
        while fleet.queue_depth() < 2 {
            fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        }
        match fleet.submit(SolveRequest::new(0, vec![1.0; 4])) {
            Err(Rejected::QueueFull { retry_after_s, .. }) => {
                assert_eq!(retry_after_s, 0.0, "no analog lane left");
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn batches_prefer_same_structure_for_plan_reuse() {
        let mut cfg = FleetConfig::new(1);
        cfg.batch_size = 3;
        let mut fleet = FleetService::new(cfg, vec![tri(4), tri(5)]).unwrap();
        // Interleave structures; the chip should batch 0,0,0 first.
        for s in [0usize, 1, 0, 1, 0] {
            fleet
                .submit(SolveRequest::new(s, vec![1.0; fleet.structures()[s].dim()]))
                .unwrap();
        }
        fleet.run_round();
        let batch = fleet
            .log()
            .events
            .iter()
            .find_map(|e| match e {
                ScheduleEvent::Dispatched { tickets, .. } => Some(tickets.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(batch, vec![0, 2, 4], "the three structure-0 tickets");
        fleet.run_until_idle();
        assert_eq!(fleet.log().completed(), 5);
    }

    #[test]
    fn coalesced_multi_rhs_serving_answers_every_request_on_the_analog_path() {
        let mut cfg = FleetConfig::new(1)
            .with_seed(0x0BA7_C4ED)
            .with_max_batch_rhs(3);
        cfg.batch_size = 6;
        let mut fleet = FleetService::new(cfg, vec![tri(4), tri(5)]).unwrap();
        let mut tickets = Vec::new();
        for (i, s) in [0usize, 0, 1, 0, 1, 0].into_iter().enumerate() {
            let n = fleet.structures()[s].dim();
            let rhs: Vec<f64> = (0..n).map(|j| 0.2 + 0.05 * ((i + j) as f64)).collect();
            tickets.push(fleet.submit(SolveRequest::new(s, rhs)).unwrap());
        }
        fleet.run_until_idle();
        for t in &tickets {
            let done = fleet.completion(*t).expect("served");
            assert!(done.path.is_analog(), "path={:?}", done.path);
            assert!(done.residual < 1e-2, "residual={}", done.residual);
            assert!(done.analog_time_s > 0.0);
        }
        assert_eq!(fleet.log().completed(), tickets.len());
    }

    #[test]
    fn hang_mid_chunk_requeues_every_column_with_the_count() {
        let mut cfg = FleetConfig::new(1).with_max_batch_rhs(4);
        cfg.batch_size = 4;
        let mut fleet = FleetService::new(cfg, vec![tri(4)]).unwrap();
        fleet
            .inject_chaos(0, Some(crate::fleet::ChipFailure::HangAfter { served: 2 }))
            .unwrap();
        let mut tickets = Vec::new();
        for _ in 0..4 {
            tickets.push(fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap());
        }
        // Round 1: the wedge lands mid-chunk, so the whole 4-column chunk
        // bounces; every Requeued event carries the full column count.
        assert_eq!(fleet.run_round(), 0);
        let requeues: Vec<(u64, usize)> = fleet
            .log()
            .events
            .iter()
            .filter_map(|e| match e {
                ScheduleEvent::Requeued {
                    ticket, columns, ..
                } => Some((*ticket, *columns)),
                _ => None,
            })
            .collect();
        assert_eq!(requeues, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
        // The watchdog reset the chip: everything is served next rounds.
        fleet.run_until_idle();
        for t in &tickets {
            assert!(fleet.completion(*t).is_some());
        }
    }

    #[test]
    fn priorities_dispatch_high_before_low() {
        let mut cfg = FleetConfig::new(1);
        cfg.batch_size = 1;
        let mut fleet = FleetService::new(cfg, vec![tri(4)]).unwrap();
        let low = fleet
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_priority(Priority::Low))
            .unwrap();
        let high = fleet
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_priority(Priority::High))
            .unwrap();
        fleet.run_round();
        assert!(fleet.completion(high).is_some(), "high served first");
        assert!(fleet.completion(low).is_none());
        fleet.run_until_idle();
        assert_eq!(fleet.completion(low).unwrap().round, 2);
    }

    #[test]
    fn energy_accounting_uses_the_power_model() {
        // The run needs something to settle: tri(4)'s first run starts from
        // the Galerkin guess on span{v₁, b}, v₁ = sin((i + 1)π/5), which
        // holds the answer for a symmetric b (b = 𝟙 settles at t = 0).
        let b = vec![1.0, 0.0, 0.0, 0.0];
        let a = tri(4);
        let v1: Vec<f64> = (1..=4)
            .map(|i| (i as f64 * std::f64::consts::PI / 5.0).sin())
            .collect();
        let (av, ab) = (a.apply_vec(&v1), a.apply_vec(&b));
        let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(x, y)| x * y).sum::<f64>();
        let (g11, g12, g22) = (dot(&v1, &av), dot(&v1, &ab), dot(&b, &ab));
        let (r1, r2) = (dot(&v1, &b), dot(&b, &b));
        let det = g11 * g22 - g12 * g12;
        let (c1, c2) = ((g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det);
        let guess: Vec<f64> = v1.iter().zip(&b).map(|(v, b)| c1 * v + c2 * b).collect();
        assert!(
            a.residual_norm(&guess, &b) > 0.1,
            "the guess holds the answer"
        );

        let mut fleet = FleetService::new(FleetConfig::new(1), vec![a]).unwrap();
        let ticket = fleet.submit(SolveRequest::new(0, b)).unwrap();
        fleet.run_until_idle();
        let done = fleet.completion(ticket).unwrap().clone();
        assert!(done.analog_time_s > 0.0);
        let expected = fleet.config.design.energy_j(4, done.analog_time_s);
        assert_eq!(done.energy_j, expected);
        assert_eq!(
            fleet.log().energy_per_request_j(Priority::Normal),
            Some(expected)
        );
    }

    #[test]
    fn affinity_routes_same_structure_to_home_shard() {
        let cfg = FleetConfig::new(4).with_shards(2);
        let mut fleet = FleetService::new(cfg, vec![tri(4), tri(5)]).unwrap();
        assert_eq!(fleet.shard_count(), 2);
        // Structure 0 homes to shard 0, structure 1 to shard 1.
        for _ in 0..3 {
            fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
            fleet.submit(SolveRequest::new(1, vec![1.0; 5])).unwrap();
        }
        assert_eq!(fleet.shard_queue_depth(0), 3);
        assert_eq!(fleet.shard_queue_depth(1), 3);
        fleet.run_until_idle();
        // Each shard dispatched only to its own chips, and its own log
        // holds exactly its own traffic.
        for (shard, chips) in [(0usize, 0..2), (1usize, 2..4)] {
            for event in &fleet.shard_log(shard).events {
                if let ScheduleEvent::Dispatched { chip, .. } = event {
                    assert!(chips.contains(chip), "shard {shard} used chip {chip}");
                }
            }
            assert_eq!(fleet.shard_log(shard).completed(), 3);
        }
        assert_eq!(fleet.log().completed(), 6);
        // Fleet-wide aggregates are the sum of the shard logs.
        let shard_events: usize = (0..2).map(|s| fleet.shard_log(s).events.len()).sum();
        assert_eq!(fleet.log().events.len(), shard_events);
    }

    #[test]
    fn spill_walks_to_next_shard_when_home_saturates() {
        let cfg = FleetConfig::new(2)
            .with_shards(2)
            .with_queue_capacity(4)
            .with_spill_watermark(2);
        let mut fleet = FleetService::new(cfg, vec![tri(4)]).unwrap();
        // Structure 0 homes to shard 0; the first two land there.
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        assert_eq!(fleet.shard_queue_depth(0), 2);
        // At the watermark the third spills to shard 1, with the event.
        let spilled = fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        assert_eq!(fleet.shard_queue_depth(1), 1);
        assert!(fleet.shard_log(1).events.iter().any(|e| matches!(
            e,
            ScheduleEvent::Spilled {
                ticket,
                from_shard: 0,
                to_shard: 1,
            } if *ticket == spilled.0
        )));
        // Past the watermark everywhere, the hard-capacity pass still
        // admits (home shard first)…
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        for _ in 0..3 {
            fleet.submit(SolveRequest::new(0, vec![1.0; 4])).unwrap();
        }
        assert_eq!(fleet.queue_depth(), 8);
        // …until both shards are at capacity: then it is QueueFull.
        assert!(matches!(
            fleet.submit(SolveRequest::new(0, vec![1.0; 4])),
            Err(Rejected::QueueFull { .. })
        ));
        fleet.run_until_idle();
        assert_eq!(fleet.log().completed(), 8);
    }

    #[test]
    fn tenant_quotas_enforce_fair_share_admission() {
        // Capacity 8 over one shard, weights: tenant 1 → 3, default
        // bucket → 1, denominator 4. Tenant 1 may hold 6 queued
        // requests, everyone else shares 2.
        let cfg = FleetConfig::new(1)
            .with_queue_capacity(8)
            .with_tenant_weight(1, 3);
        let mut fleet = FleetService::new(cfg, vec![tri(4)]).unwrap();
        for _ in 0..2 {
            fleet
                .submit(SolveRequest::new(0, vec![1.0; 4]).with_tenant(0))
                .unwrap();
        }
        match fleet.submit(SolveRequest::new(0, vec![1.0; 4]).with_tenant(0)) {
            Err(Rejected::QuotaExceeded {
                tenant,
                in_queue,
                quota,
                retry_after_s,
            }) => {
                assert_eq!((tenant, in_queue, quota), (0, 2, 2));
                assert!(retry_after_s > 0.0);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // Unconfigured tenants share the default bucket: tenant 7 is
        // refused by tenant 0's occupancy.
        assert!(matches!(
            fleet.submit(SolveRequest::new(0, vec![1.0; 4]).with_tenant(7)),
            Err(Rejected::QuotaExceeded { tenant: 7, .. })
        ));
        // The weighted tenant still has headroom.
        for _ in 0..6 {
            fleet
                .submit(SolveRequest::new(0, vec![1.0; 4]).with_tenant(1))
                .unwrap();
        }
        assert!(matches!(
            fleet.submit(SolveRequest::new(0, vec![1.0; 4]).with_tenant(1)),
            Err(Rejected::QuotaExceeded {
                tenant: 1,
                in_queue: 6,
                quota: 6,
                ..
            })
        ));
        // Draining frees the buckets again.
        fleet.run_until_idle();
        assert!(fleet
            .submit(SolveRequest::new(0, vec![1.0; 4]).with_tenant(0))
            .is_ok());
        assert_eq!(fleet.log().rejected, 3);
    }

    #[test]
    fn v1_checkpoints_are_refused_with_a_typed_mismatch() {
        let mut fleet = FleetService::new(FleetConfig::new(2), vec![tri(4)]).unwrap();
        let mut checkpoint = fleet.checkpoint();
        checkpoint.version = 1;
        let err = match FleetService::restore(
            FleetConfig::new(2),
            vec![tri(4)],
            &checkpoint,
            &AdmissionWal::new(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("v1 checkpoint restored"),
        };
        match err {
            SchedError::CheckpointMismatch { message } => {
                assert!(message.contains("v1"), "{message}");
                assert!(message.contains("v2"), "{message}");
            }
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        // A mismatched shard topology is refused too: same chips, but the
        // restoring fleet splits them differently.
        let checkpoint = fleet.checkpoint();
        let err = match FleetService::restore(
            FleetConfig::new(2).with_shards(2),
            vec![tri(4)],
            &checkpoint,
            &AdmissionWal::new(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("mismatched shard topology restored"),
        };
        assert!(matches!(err, SchedError::CheckpointMismatch { .. }));
    }

    #[test]
    fn sharded_checkpoint_restore_is_bit_identical() {
        let structures = || vec![tri(4), tri(5)];
        let cfg = || {
            FleetConfig::new(4)
                .with_shards(2)
                .with_seed(0x5AAD_0001)
                .with_queue_capacity(16)
        };
        let mut fleet = FleetService::new(cfg(), structures()).unwrap();
        for i in 0..6 {
            fleet
                .submit(SolveRequest::new(i % 2, vec![1.0; 4 + (i % 2)]))
                .unwrap();
        }
        fleet.run_round();
        let checkpoint = fleet.checkpoint();
        assert_eq!(checkpoint.version, 2);
        assert_eq!(checkpoint.shards.len(), 2);
        // Post-checkpoint traffic goes to the WAL.
        for i in 0..4 {
            fleet
                .submit(SolveRequest::new(i % 2, vec![2.0; 4 + (i % 2)]))
                .unwrap();
        }
        fleet.run_until_idle();
        let wal = fleet.wal().clone();
        let restored = FleetService::restore(cfg(), structures(), &checkpoint, &wal).unwrap();
        assert_eq!(restored.log(), fleet.log());
        for s in 0..2 {
            assert_eq!(restored.shard_log(s), fleet.shard_log(s), "shard {s}");
            assert_eq!(restored.shard_rounds(s), fleet.shard_rounds(s));
        }
        assert_eq!(restored.health(), fleet.health());
        let a: Vec<_> = fleet.completions().cloned().collect();
        let b: Vec<_> = restored.completions().cloned().collect();
        assert_eq!(a, b);
    }
}
