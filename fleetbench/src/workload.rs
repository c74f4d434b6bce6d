//! The three serving workloads: a fleet configuration, the registered
//! structures, and per-client request streams made from a seed.
//!
//! The seed decides every right-hand side of the timed phase. The rest of
//! a workload — the fleet, the structures, the warm-up, and the traffic
//! shape (which client asks for which structure, at which priority, with
//! which deadline) — is fixed, so runs with different seeds load the same
//! layers in the same proportions and differ only in the data solved.

use aa_analog::engine::EngineOptions;
use aa_analog::fault::{FaultEvent, FaultKind, FaultPlan, Rail};
use aa_linalg::{CsrMatrix, Triplet};
use aa_sched::{CompletionPath, FleetConfig, Priority, SolveMode, SolveRequest};
use aa_solver::estimate::predicted_solve_time_s;

use crate::oracle::Csr;

pub const NAMES: [&str; 3] = ["serve_batched", "serve_mixed", "serve_krylov"];

/// One registered structure, kept in the fleet's form and the oracle's.
pub struct Structure {
    pub matrix: CsrMatrix,
    pub oracle: Csr,
}

impl Structure {
    fn new(n: usize, entries: Vec<(usize, usize, f64)>) -> Structure {
        let triplets: Vec<Triplet> = entries
            .iter()
            .map(|&(r, c, v)| Triplet::new(r, c, v))
            .collect();
        Structure {
            matrix: CsrMatrix::from_triplets(n, &triplets).expect("valid structure"),
            oracle: Csr::from_entries(n, &entries),
        }
    }

    /// A tridiagonal `[off, diag, off]` matrix.
    fn tridiagonal(n: usize, diag: f64, off: f64) -> Structure {
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, diag));
            if i + 1 < n {
                entries.push((i, i + 1, off));
                entries.push((i + 1, i, off));
            }
        }
        Structure::new(n, entries)
    }

    /// The 5-point operator on a `side × side` grid with Dirichlet
    /// boundaries and coupling `cx` along rows and `cy` along columns.
    fn grid(side: usize, cx: f64, cy: f64) -> Structure {
        let idx = |i: usize, j: usize| i * side + j;
        let mut entries = Vec::new();
        for i in 0..side {
            for j in 0..side {
                entries.push((idx(i, j), idx(i, j), 2.0 * (cx + cy)));
                if j + 1 < side {
                    entries.push((idx(i, j), idx(i, j + 1), -cx));
                    entries.push((idx(i, j + 1), idx(i, j), -cx));
                }
                if i + 1 < side {
                    entries.push((idx(i, j), idx(i + 1, j), -cy));
                    entries.push((idx(i + 1, j), idx(i, j), -cy));
                }
            }
        }
        Structure::new(side * side, entries)
    }
}

/// A workload: the fleet, its structures, and what the clients send.
pub struct Workload {
    pub name: &'static str,
    pub config: FleetConfig,
    pub structures: Vec<Structure>,
    /// `streams[c]` is closed-loop client `c`'s requests, in order.
    pub streams: Vec<Vec<SolveRequest>>,
    /// Direct requests served before the timed phase so that every chip
    /// has mapped, calibrated and lowered what it will serve.
    pub warmup: Vec<Vec<SolveRequest>>,
    /// The latency percentile reported as `latency_tail_ms`: the highest
    /// of p90, p99, p99.9 with at least ten samples beyond it in the
    /// fewest passes a run makes.
    pub tail_percentile: f64,
}

impl Workload {
    /// Builds `name` from `seed`; `None` for an unknown workload.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let mut data = Rng(seed ^ 0xF1EE_7BE7_C400_0000);
        let mut shape = Rng(0x5EED_0F5A_9E00_0000);
        match name {
            "serve_batched" => Some(serve_batched(&mut data)),
            "serve_mixed" => Some(serve_mixed(&mut data, &mut shape)),
            "serve_krylov" => Some(serve_krylov(&mut data, &mut shape)),
            _ => None,
        }
    }

    pub fn requests_per_pass(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// The residual the served path promises. A direct analog answer
    /// promises the supervisor's validation tolerance. A direct
    /// `DigitalFallback` answer comes from the supervisor's CG fallback,
    /// or from the chip's digital lane when the structure cannot be
    /// mapped or the supervisor errs, so it promises the looser of their
    /// two tolerances. Every
    /// other answer, Krylov answers included, promises the fleet's
    /// digital-lane tolerance.
    pub fn promised_tolerance(&self, mode: SolveMode, path: CompletionPath) -> f64 {
        let config = &self.config;
        match (mode, path) {
            (SolveMode::Direct, path) if path.is_analog() => config.recovery.residual_tolerance,
            (SolveMode::Direct, CompletionPath::DigitalFallback) => config
                .recovery
                .fallback_tolerance
                .max(config.fallback_tolerance),
            _ => config.fallback_tolerance,
        }
    }
}

/// Many cheap same-shape requests: four 16-unknown grid operators, four
/// clients per structure, so every chip of a 4-chip 2-shard fleet gets a
/// full 4-lane batch each round.
fn serve_batched(data: &mut Rng) -> Workload {
    let couplings = [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (1.0, 0.75)];
    let structures: Vec<Structure> = couplings
        .iter()
        .map(|&(cx, cy)| Structure::grid(4, cx, cy))
        .collect();
    let config = fleet(FleetConfig::new(4).with_shards(2).with_max_batch_rhs(4));
    let clients = 16;
    let per_client = 64;
    let streams = (0..clients)
        .map(|c| {
            let s = c % structures.len();
            (0..per_client)
                .map(|_| SolveRequest::new(s, data.rhs(structures[s].oracle.dim())))
                .collect()
        })
        .collect();
    Workload {
        name: "serve_batched",
        warmup: warmup(&config, &structures),
        config,
        structures,
        streams,
        tail_percentile: 99.0,
    }
}

/// Sixteen tridiagonal structures at batch width 1 with three priority
/// classes and feasible deadlines; chip 1 has an integrator stuck at the
/// positive rail for good.
fn serve_mixed(data: &mut Rng, shape: &mut Rng) -> Workload {
    let structures: Vec<Structure> = (0..16)
        .map(|i| Structure::tridiagonal(4 + (i * 5) % 13, 2.0 + 0.1 * (i % 4) as f64, -1.0))
        .collect();
    let mut config = fleet(FleetConfig::new(4).with_shards(2)).with_fault_plan(
        1,
        FaultPlan::new(0x57AC).with_event(FaultEvent::persistent(
            FaultKind::StuckAtRail {
                integrator: 0,
                rail: Rail::Positive,
            },
            0.0,
        )),
    );
    // A stuck integrator never settles: cap the integration so the
    // faulted chip's attempts fail fast instead of running 2e5 τ.
    config.solver.engine = EngineOptions {
        stop_on_exception: true,
        max_tau: 300.0,
        ..EngineOptions::default()
    };
    config.recovery.max_attempts = 3;
    let estimates: Vec<f64> = structures
        .iter()
        .map(|s| predicted_solve_time_s(&s.matrix, &config.design).expect("priceable"))
        .collect();
    let clients = 6;
    let per_client = 168;
    let streams = (0..clients)
        .map(|_| {
            (0..per_client)
                .map(|_| {
                    let s = shape.below(structures.len());
                    let request = SolveRequest::new(s, data.rhs(structures[s].oracle.dim()));
                    // Deadlines sit well above the admission price, so
                    // every request is admitted; only recovery time can
                    // push an answer past its budget.
                    match shape.below(10) {
                        0..=1 => request
                            .with_priority(Priority::High)
                            .with_deadline_s(estimates[s] * (3.0 + 3.0 * shape.unit())),
                        2..=6 => request
                            .with_priority(Priority::Normal)
                            .with_deadline_s(estimates[s] * (4.0 + 8.0 * shape.unit())),
                        _ => request.with_priority(Priority::Low),
                    }
                })
                .collect()
        })
        .collect();
    Workload {
        name: "serve_mixed",
        warmup: warmup(&config, &structures),
        config,
        structures,
        streams,
        tail_percentile: 99.0,
    }
}

/// Analog-preconditioned flexible-CG requests on 2D Poisson grids of
/// side 4 to 8 (16 to 64 unknowns) from two clients on two chips.
fn serve_krylov(data: &mut Rng, shape: &mut Rng) -> Workload {
    let structures: Vec<Structure> = (4..=8)
        .map(|side| Structure::grid(side, 1.0, 1.0))
        .collect();
    let mut config = fleet(FleetConfig::new(2));
    config.batch_size = 1;
    let clients = 2;
    let per_client = 20;
    let streams = (0..clients)
        .map(|_| {
            (0..per_client)
                .map(|_| {
                    let s = shape.below(structures.len());
                    SolveRequest::new(s, data.rhs(structures[s].oracle.dim())).with_krylov()
                })
                .collect()
        })
        .collect();
    Workload {
        name: "serve_krylov",
        warmup: warmup(&config, &structures),
        config,
        structures,
        streams,
        tail_percentile: 90.0,
    }
}

/// The settings every workload shares: one worker, so each shard's pool
/// runs on the calling thread.
fn fleet(config: FleetConfig) -> FleetConfig {
    config.with_workers(1).with_seed(0xF1EE_7BE7)
}

/// Warm-up rounds, one per structure: `batch_size` requests per chip of
/// the structure's home shard, so each chip there takes a full batch of
/// it and maps, calibrates and lowers its plan before the timed phase.
///
/// The warm-up is part of the fixed deployment, not of the seed's
/// traffic: a chip's γ-calibration follows the first right-hand sides it
/// solves and sets the time scale of every later solve, so a seeded
/// warm-up would move the simulated metrics by several percent between
/// seeds however many requests a pass serves.
fn warmup(config: &FleetConfig, structures: &[Structure]) -> Vec<Vec<SolveRequest>> {
    let mut rng = Rng(0x3A7E_0F5A_9E00_0000);
    let ranges = config.shard_chip_ranges();
    structures
        .iter()
        .enumerate()
        .map(|(s, structure)| {
            let chips = ranges[config.home_shard(s)].1;
            (0..chips * config.batch_size)
                .map(|_| SolveRequest::new(s, rng.rhs(structure.oracle.dim())))
                .collect()
        })
        .collect()
}

/// SplitMix64: the benchmark's own seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A right-hand side with entries uniform in `[0.1, 1)`.
    fn rhs(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 0.1 + 0.9 * self.unit()).collect()
    }
}
