//! Requests, tickets, admission verdicts, and completions — the service's
//! client-facing vocabulary — plus the [`Backoff`] retry helper that turns
//! typed backpressure verdicts into paced resubmission.

use aa_linalg::rng::Rng64;
use aa_solver::FinalPath;

/// Priority class of a [`SolveRequest`]. Higher classes are dispatched
/// first within a round; ties break by admission order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Latency-sensitive traffic, always scheduled first.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Background traffic, scheduled only after the other classes.
    Low,
}

/// All classes, in dispatch order. Indexable by [`Priority::rank`].
pub const PRIORITY_CLASSES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

impl Priority {
    /// Dispatch rank: `0` is served first.
    pub fn rank(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Short stable label used in telemetry and the schedule log.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// How a [`SolveRequest`] wants its answer produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SolveMode {
    /// One supervised analog solve (possibly coalesced into a multi-RHS
    /// sweep with same-structure neighbours). The default.
    #[default]
    Direct,
    /// Analog-preconditioned flexible CG ([`aa_solver::fcg_solve`]): the
    /// chip runs one supervised analog solve *per preconditioner
    /// application*, so the request is priced against
    /// [`aa_solver::estimate::krylov_solve_time_s`] — its own deadline
    /// profile — and is never coalesced into a shared sweep (each
    /// application's right-hand side depends on the previous iterate).
    KrylovPrecond,
}

impl SolveMode {
    /// Short stable label used in telemetry and the schedule log.
    pub fn label(self) -> &'static str {
        match self {
            SolveMode::Direct => "direct",
            SolveMode::KrylovPrecond => "krylov_precond",
        }
    }
}

/// One `A·u = b` instance submitted to the fleet. The matrix is referenced
/// by the index it was registered under at
/// [`FleetService::new`](crate::FleetService::new) — a chip's compiled-plan
/// cache is keyed by structure, so same-structure requests batch onto one
/// chip and reuse its lowered plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Index of the registered coefficient matrix.
    pub structure: usize,
    /// Right-hand side; must match the structure's dimension.
    pub rhs: Vec<f64>,
    /// Priority class.
    pub priority: Priority,
    /// Optional budget of **simulated analog seconds** for this request.
    /// A request whose analog solve exceeds the budget is answered by the
    /// digital lane instead (see
    /// [`CompletionPath::DeadlineFallback`]); a request whose budget is
    /// below the structure's predicted solve time is rejected at admission.
    pub deadline_s: Option<f64>,
    /// Tenant id for fair-share admission. When the fleet configures
    /// [`tenant_weights`](crate::FleetConfig::tenant_weights), each
    /// tenant's queued footprint is capped at its weighted share of the
    /// fleet's total queue capacity; tenants with no configured weight
    /// share one default-weight bucket. `0` is just another tenant id.
    pub tenant: u32,
    /// How the answer should be produced (direct analog solve or
    /// Krylov-preconditioned FCG).
    pub mode: SolveMode,
}

impl SolveRequest {
    /// A normal-priority request with no deadline, from tenant `0`.
    pub fn new(structure: usize, rhs: Vec<f64>) -> Self {
        SolveRequest {
            structure,
            rhs,
            priority: Priority::Normal,
            deadline_s: None,
            tenant: 0,
            mode: SolveMode::Direct,
        }
    }

    /// Sets the priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the analog-deadline budget, in simulated chip-lifetime seconds.
    pub fn with_deadline_s(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Sets the tenant id for fair-share admission.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Asks for an analog-preconditioned Krylov (FCG) solve instead of a
    /// direct supervised solve.
    pub fn with_krylov(mut self) -> Self {
        self.mode = SolveMode::KrylovPrecond;
        self
    }
}

/// Receipt for an admitted request; redeem it with
/// [`FleetService::completion`](crate::FleetService::completion) once the
/// dispatch loop has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SolveTicket(pub u64);

/// Typed admission-control verdicts. Rejection is backpressure, not an
/// error: the request was never enqueued and the caller may retry later,
/// relax the deadline, or shed the load.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejected {
    /// The bounded queue is at capacity.
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
        /// Predicted seconds until the backlog drains enough to retry —
        /// the queued work's estimated solve time divided over the chips
        /// currently in rotation. A typed hint, not a guarantee.
        retry_after_s: f64,
    },
    /// The tenant's weighted fair-share of the fleet's queue capacity is
    /// already occupied by its own queued requests. Other tenants are
    /// unaffected; retry once some of this tenant's work drains.
    QuotaExceeded {
        /// The tenant that hit its share.
        tenant: u32,
        /// The tenant's queued requests across all shards.
        in_queue: usize,
        /// Its weighted quota (queue slots).
        quota: usize,
        /// Predicted seconds until one of the tenant's queued requests
        /// drains and frees a slot. A typed hint, not a guarantee.
        retry_after_s: f64,
    },
    /// Overload brownout: the queue crossed the configured watermark, so
    /// low-priority admissions are shed to protect higher classes'
    /// deadlines. Retry later or escalate the priority.
    Brownout {
        /// Queue depth at the shedding decision.
        queue_depth: usize,
        /// Predicted seconds until the backlog drains below the watermark.
        retry_after_s: f64,
    },
    /// The requested analog deadline is below the structure's predicted
    /// solve time — it could never be met, so it is refused up front.
    DeadlineInfeasible {
        /// What the request asked for.
        deadline_s: f64,
        /// The fleet's prediction for this structure.
        estimate_s: f64,
    },
    /// The request referenced a structure index that was never registered.
    UnknownStructure {
        /// The out-of-range index.
        structure: usize,
    },
    /// The right-hand side length does not match the structure's dimension.
    RhsLengthMismatch {
        /// The structure's dimension.
        expected: usize,
        /// The submitted length.
        got: usize,
    },
    /// A right-hand side entry is NaN or infinite: no chip can program it,
    /// so it is refused before it can cost a chip its health.
    NonFiniteRhs {
        /// The first non-finite entry.
        index: usize,
    },
}

impl Rejected {
    /// Short stable label used in telemetry and the schedule log.
    pub fn label(&self) -> &'static str {
        match self {
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::QuotaExceeded { .. } => "quota_exceeded",
            Rejected::Brownout { .. } => "brownout",
            Rejected::DeadlineInfeasible { .. } => "deadline_infeasible",
            Rejected::UnknownStructure { .. } => "unknown_structure",
            Rejected::RhsLengthMismatch { .. } => "rhs_length_mismatch",
            Rejected::NonFiniteRhs { .. } => "non_finite_rhs",
        }
    }

    /// The typed retry hint, when the verdict is transient backpressure
    /// (`QueueFull`, `Brownout`). `None` means retrying the same request
    /// verbatim can never succeed.
    pub fn retry_after_s(&self) -> Option<f64> {
        match self {
            Rejected::QueueFull { retry_after_s, .. }
            | Rejected::QuotaExceeded { retry_after_s, .. }
            | Rejected::Brownout { retry_after_s, .. } => Some(*retry_after_s),
            _ => None,
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull {
                capacity,
                retry_after_s,
            } => {
                write!(
                    f,
                    "request queue is full ({capacity} entries), retry after {retry_after_s} s"
                )
            }
            Rejected::QuotaExceeded {
                tenant,
                in_queue,
                quota,
                retry_after_s,
            } => write!(
                f,
                "tenant {tenant} has {in_queue} queued requests, quota is {quota}, \
                 retry after {retry_after_s} s"
            ),
            Rejected::Brownout {
                queue_depth,
                retry_after_s,
            } => write!(
                f,
                "brownout: low-priority admissions shed at queue depth {queue_depth}, \
                 retry after {retry_after_s} s"
            ),
            Rejected::DeadlineInfeasible {
                deadline_s,
                estimate_s,
            } => write!(
                f,
                "deadline {deadline_s} s is below the predicted solve time {estimate_s} s"
            ),
            Rejected::UnknownStructure { structure } => {
                write!(f, "structure index {structure} was never registered")
            }
            Rejected::RhsLengthMismatch { expected, got } => {
                write!(f, "rhs has {got} entries, structure needs {expected}")
            }
            Rejected::NonFiniteRhs { index } => {
                write!(f, "rhs entry {index} is not finite")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// Client-side retry pacing for transient [`Rejected`] verdicts:
/// exponential backoff with deterministic full jitter, floored by the
/// verdict's own typed [`retry_after_s`](Rejected::retry_after_s) hint.
///
/// The jitter draws from the in-repo [`Rng64`], so a seeded client replays
/// the same retry schedule bit-identically — the property every chaos and
/// replay test in this repo leans on.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_s: f64,
    cap_s: f64,
    attempt: u32,
    rng: Rng64,
}

impl Backoff {
    /// A backoff starting at `base_s`, doubling per attempt, capped at
    /// `cap_s`, jittered from `seed`.
    pub fn new(base_s: f64, cap_s: f64, seed: u64) -> Self {
        Backoff {
            base_s: base_s.max(0.0),
            cap_s: cap_s.max(base_s.max(0.0)),
            attempt: 0,
            rng: Rng64::seed_from_u64(seed),
        }
    }

    /// The delay before the next retry: `min(cap, base·2^attempt)` jittered
    /// uniformly into `[delay/2, delay]`, and never below the verdict's own
    /// retry hint when it carries one.
    pub fn next_delay_s(&mut self, verdict: &Rejected) -> f64 {
        let exp = (self.base_s * 2f64.powi(self.attempt.min(30) as i32)).min(self.cap_s);
        self.attempt = self.attempt.saturating_add(1);
        let jittered = 0.5 * exp + 0.5 * exp * self.rng.uniform();
        match verdict.retry_after_s() {
            Some(hint) => jittered.max(hint),
            None => jittered,
        }
    }

    /// Retries attempted since construction or the last [`reset`](Self::reset).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Clears the attempt counter after a successful submission.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// How an accepted request's answer was ultimately produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionPath {
    /// First analog attempt on the placed chip passed validation.
    Analog,
    /// Analog succeeded after the chip's supervisor ran recovery actions.
    AnalogAfterRecovery,
    /// The chip's analog recovery was exhausted; its supervisor's digital
    /// fallback produced the answer.
    DigitalFallback,
    /// Analog answered, but past the request's deadline budget — the
    /// digital lane's answer was served instead.
    DeadlineFallback,
    /// No healthy chip was available; the dispatcher served the request
    /// from the digital lane directly.
    DigitalOnly,
}

impl CompletionPath {
    /// Short stable label used in telemetry and the schedule log.
    pub fn label(self) -> &'static str {
        match self {
            CompletionPath::Analog => "analog",
            CompletionPath::AnalogAfterRecovery => "analog_after_recovery",
            CompletionPath::DigitalFallback => "digital_fallback",
            CompletionPath::DeadlineFallback => "deadline_fallback",
            CompletionPath::DigitalOnly => "digital_only",
        }
    }

    /// Whether the served answer came out of the analog array.
    pub fn is_analog(self) -> bool {
        matches!(
            self,
            CompletionPath::Analog | CompletionPath::AnalogAfterRecovery
        )
    }
}

/// The path a chip's supervisor (or analog preconditioner) reports.
impl From<FinalPath> for CompletionPath {
    fn from(path: FinalPath) -> Self {
        match path {
            FinalPath::Analog => CompletionPath::Analog,
            FinalPath::AnalogAfterRecovery => CompletionPath::AnalogAfterRecovery,
            FinalPath::DigitalFallback => CompletionPath::DigitalFallback,
        }
    }
}

/// The resolved outcome of one admitted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The ticket this completion settles.
    pub ticket: SolveTicket,
    /// The registered structure that was solved.
    pub structure: usize,
    /// The request's priority class.
    pub priority: Priority,
    /// The accepted solution vector.
    pub solution: Vec<f64>,
    /// How the answer was produced.
    pub path: CompletionPath,
    /// Relative residual `‖b − A·u‖ / ‖b‖` of the served answer.
    pub residual: f64,
    /// Simulated analog seconds burned on the placed chip (including
    /// rejected recovery attempts), `0` for [`CompletionPath::DigitalOnly`].
    pub analog_time_s: f64,
    /// Energy drawn from the placed chip, joules (power model ×
    /// `analog_time_s`).
    pub energy_j: f64,
    /// The chip that served it; `None` for [`CompletionPath::DigitalOnly`].
    pub chip: Option<usize>,
    /// The dispatch round it completed in.
    pub round: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ranks_and_labels_are_stable() {
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
        for (i, class) in PRIORITY_CLASSES.iter().enumerate() {
            assert_eq!(class.rank(), i);
        }
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::High.label(), "high");
    }

    #[test]
    fn request_builder_sets_fields() {
        let r = SolveRequest::new(2, vec![1.0, 2.0])
            .with_priority(Priority::Low)
            .with_deadline_s(0.5)
            .with_tenant(7)
            .with_krylov();
        assert_eq!(r.structure, 2);
        assert_eq!(r.priority, Priority::Low);
        assert_eq!(r.deadline_s, Some(0.5));
        assert_eq!(r.tenant, 7);
        assert_eq!(r.mode, SolveMode::KrylovPrecond);
        assert_eq!(r.mode.label(), "krylov_precond");
        let plain = SolveRequest::new(0, vec![]);
        assert_eq!(plain.tenant, 0);
        assert_eq!(plain.mode, SolveMode::Direct);
        assert_eq!(plain.mode.label(), "direct");
    }

    #[test]
    fn rejection_labels_and_messages() {
        let r = Rejected::QueueFull {
            capacity: 4,
            retry_after_s: 0.5,
        };
        assert_eq!(r.label(), "queue_full");
        assert!(r.to_string().contains('4'));
        assert_eq!(r.retry_after_s(), Some(0.5));
        let b = Rejected::Brownout {
            queue_depth: 48,
            retry_after_s: 1.5,
        };
        assert_eq!(b.label(), "brownout");
        assert!(b.to_string().contains("48"));
        assert_eq!(b.retry_after_s(), Some(1.5));
        let d = Rejected::DeadlineInfeasible {
            deadline_s: 0.1,
            estimate_s: 0.2,
        };
        assert_eq!(d.label(), "deadline_infeasible");
        assert!(d.to_string().contains("0.2"));
        assert_eq!(d.retry_after_s(), None);
        let q = Rejected::QuotaExceeded {
            tenant: 3,
            in_queue: 5,
            quota: 4,
            retry_after_s: 2.5,
        };
        assert_eq!(q.label(), "quota_exceeded");
        assert!(q.to_string().contains("tenant 3"));
        assert_eq!(q.retry_after_s(), Some(2.5));
    }

    #[test]
    fn backoff_grows_honors_hints_and_replays_deterministically() {
        let full = Rejected::QueueFull {
            capacity: 4,
            retry_after_s: 0.0,
        };
        let mut a = Backoff::new(0.1, 10.0, 7);
        let mut b = Backoff::new(0.1, 10.0, 7);
        let da: Vec<f64> = (0..6).map(|_| a.next_delay_s(&full)).collect();
        let db: Vec<f64> = (0..6).map(|_| b.next_delay_s(&full)).collect();
        assert_eq!(da, db, "seeded jitter replays bit-identically");
        for (k, d) in da.iter().enumerate() {
            let ceiling = (0.1 * 2f64.powi(k as i32)).min(10.0);
            assert!(*d >= ceiling / 2.0 && *d <= ceiling, "attempt {k}: {d}");
        }
        assert_eq!(a.attempts(), 6);
        a.reset();
        assert_eq!(a.attempts(), 0);
        // A typed hint floors the jittered delay.
        let hinted = Rejected::Brownout {
            queue_depth: 9,
            retry_after_s: 42.0,
        };
        assert!(a.next_delay_s(&hinted) >= 42.0);
    }

    #[test]
    fn completion_path_analog_split() {
        assert!(CompletionPath::Analog.is_analog());
        assert!(CompletionPath::AnalogAfterRecovery.is_analog());
        assert!(!CompletionPath::DigitalFallback.is_analog());
        assert!(!CompletionPath::DeadlineFallback.is_analog());
        assert!(!CompletionPath::DigitalOnly.is_analog());
    }
}
