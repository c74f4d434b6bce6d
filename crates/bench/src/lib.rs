//! Shared harness utilities for regenerating the paper's tables and figures.
//!
//! Each evaluation artifact has a binary (`fig7` … `fig12`, `table2`,
//! `table3`) that prints the same rows/series the paper reports, plus
//! Criterion benches for the wall-clock measurements. Absolute values are
//! machine-dependent; the binaries annotate the qualitative expectations so
//! shape regressions are visible at a glance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::Instant;

use aa_linalg::iterative::{cg, IterativeConfig, SolveReport, StoppingCriterion};
use aa_linalg::stencil::PoissonStencil;
use aa_linalg::LinearOperator;

/// Fits the slope of `log(y)` against `log(x)` by least squares — the
/// scaling exponent of a measured series.
///
/// # Panics
///
/// Panics if fewer than two points are given or any value is non-positive.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points to fit a slope");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|(x, y)| {
            assert!(*x > 0.0 && *y > 0.0, "log-log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// The digital baseline measurement: stencil CG on a 2D Poisson problem,
/// stopped at the paper's `bits`-bit equal-accuracy criterion. Returns the
/// report and the measured wall-clock seconds.
///
/// The forcing is scaled so the solution peaks near 1.0 — the "full scale"
/// the stopping rule's `1/2^bits` is a fraction of. (Uniform forcing on the
/// unit square gives a peak of ≈ 0.0737·‖f‖ at the center, independent of
/// resolution.)
pub fn measure_cg_2d(l: usize, bits: u32) -> (SolveReport, f64) {
    let op = PoissonStencil::new_2d(l).expect("l > 0");
    let b = vec![1.0 / 0.0737; op.dim()];
    let cfg = IterativeConfig::with_stopping(StoppingCriterion::adc_equivalent(bits));
    let start = Instant::now();
    let report = cg(&op, &b, &cfg).expect("poisson is SPD");
    let elapsed = start.elapsed().as_secs_f64();
    (report, elapsed)
}

/// Formats a duration with an appropriate SI prefix.
pub fn format_time(t: f64) -> String {
    if !t.is_finite() {
        return "—".to_string();
    }
    if t < 1e-6 {
        format!("{:.2} ns", t * 1e9)
    } else if t < 1e-3 {
        format!("{:.2} µs", t * 1e6)
    } else if t < 1.0 {
        format!("{:.3} ms", t * 1e3)
    } else {
        format!("{t:.3} s")
    }
}

/// Formats an energy with an appropriate SI prefix.
pub fn format_energy(e: f64) -> String {
    if e < 1e-6 {
        format!("{:.2} nJ", e * 1e9)
    } else if e < 1e-3 {
        format!("{:.2} µJ", e * 1e6)
    } else if e < 1.0 {
        format!("{:.3} mJ", e * 1e3)
    } else {
        format!("{e:.3} J")
    }
}

/// Prints a figure/table banner with the paper reference.
pub fn banner(id: &str, caption: &str) {
    println!("==================================================================");
    println!("{id} — {caption}");
    println!("==================================================================");
}

/// A deterministic pseudo-random right-hand side in `[-1, 1)` (no RNG
/// dependency; reproducible across runs).
pub fn deterministic_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
        .collect()
}

/// The clock a [`BenchRow`]'s metrics were read on. The repo has two, and
/// no metric mixes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time and the machine it ran on: throughputs, wall-time
    /// ratios, core counts. Machine-dependent.
    Host,
    /// Deterministic quantities: simulated chip time, the paper's
    /// `CpuModel` time, and counts. The same on every host.
    Simulated,
}

impl Clock {
    /// The JSON spelling, `host` or `simulated`.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
        }
    }
}

/// One `perf_report` row of `BENCH_engine.json`: `wall_ms` is the host
/// wall time of the run the row describes, and every entry of `metrics` is
/// read on `clock`. A run measured on both clocks writes one row per clock.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Benchmark group, e.g. `engine_microbench`.
    pub bench: String,
    /// Human-readable configuration of this row.
    pub config: String,
    /// Host wall time of the run, milliseconds.
    pub wall_ms: f64,
    /// The clock every metric was read on.
    pub clock: Clock,
    /// Named measurements, each finite and non-negative.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchRow {
    /// A row whose `metrics` were all read on `clock`.
    pub fn new(
        bench: &str,
        config: impl Into<String>,
        wall_ms: f64,
        clock: Clock,
        metrics: &[(&str, f64)],
    ) -> Self {
        BenchRow {
            bench: bench.to_string(),
            config: config.into(),
            wall_ms,
            clock,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite float as a JSON number (shortest text that parses back to the
/// same bits), anything else as `null`, which the validator rejects.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serializes rows as a JSON array (hand-rolled — the workspace takes no
/// external dependencies).
pub fn rows_to_json(rows: &[BenchRow]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(name, v)| format!("\"{}\": {}", json_escape(name), json_number(*v)))
                .collect();
            format!(
                "  {{\"bench\": \"{}\", \"config\": \"{}\", \"wall_ms\": {}, \"clock\": \"{}\", \
                 \"metrics\": {{{}}}}}",
                json_escape(&r.bench),
                json_escape(&r.config),
                json_number(r.wall_ms),
                r.clock.label(),
                metrics.join(", ")
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// The exact key set of a `BENCH_engine.json` row.
const ROW_KEYS: [&str; 5] = ["bench", "clock", "config", "metrics", "wall_ms"];

/// Schema check for a `BENCH_engine.json` document, run before the file is
/// (over)written so a serialization bug can never clobber the previous
/// report with garbage: the document must parse, be a non-empty array of
/// rows carrying exactly `ROW_KEYS`, with non-empty string `bench`, string
/// `config`, finite non-negative `wall_ms`, `clock` `host` or `simulated`,
/// and `metrics` an object of non-empty names to finite non-negative
/// numbers.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = aa_obs::json::Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let rows = doc
        .as_array()
        .ok_or_else(|| "top level must be an array".to_string())?;
    if rows.is_empty() {
        return Err("no benchmark records".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        let obj = row
            .as_object()
            .ok_or_else(|| format!("record {i} is not an object"))?;
        if let Some(key) = ROW_KEYS.iter().find(|k| !obj.contains_key(**k)) {
            return Err(format!("record {i} is missing key {key:?}"));
        }
        if let Some(key) = obj.keys().find(|k| !ROW_KEYS.contains(&k.as_str())) {
            return Err(format!("record {i} has unexpected key {key:?}"));
        }
        row.get("bench")
            .and_then(|v| v.as_str())
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("record {i}: \"bench\" must be a non-empty string"))?;
        row.get("config")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("record {i}: \"config\" must be a string"))?;
        let wall = row.get("wall_ms").and_then(|v| v.as_f64());
        if !wall.is_some_and(|w| w >= 0.0 && w.is_finite()) {
            return Err(format!(
                "record {i}: \"wall_ms\" must be a finite non-negative number"
            ));
        }
        let clock = row.get("clock").and_then(|v| v.as_str());
        if !matches!(clock, Some("host" | "simulated")) {
            return Err(format!(
                "record {i}: \"clock\" must be \"host\" or \"simulated\""
            ));
        }
        let metrics = row
            .get("metrics")
            .and_then(|v| v.as_object())
            .ok_or_else(|| format!("record {i}: \"metrics\" must be an object"))?;
        for (name, value) in metrics {
            if name.is_empty() {
                return Err(format!("record {i}: empty metric name"));
            }
            if !value.as_f64().is_some_and(|v| v >= 0.0 && v.is_finite()) {
                return Err(format!(
                    "record {i}: metric {name:?} must be a finite non-negative number"
                ));
            }
        }
    }
    Ok(())
}

/// The comparison a [`Gate`] holds its metric to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `value >= bound`.
    AtLeast(f64),
    /// `value <= bound`.
    AtMost(f64),
    /// `value == bound` (exact counts).
    Exactly(f64),
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (op, b) = match *self {
            Bound::AtLeast(b) => (">=", b),
            Bound::AtMost(b) => ("<=", b),
            Bound::Exactly(b) => ("==", b),
        };
        // Four decimals, as measured values print, without trailing zeros.
        write!(f, "{op} {}", (b * 1e4).round() / 1e4)
    }
}

/// One performance bound of `perf_report`. A [`Clock::Simulated`] gate
/// fires on every host; a [`Clock::Host`] gate fires only where the host
/// has at least two cores, since one core time-slices the threads, and the
/// host itself, that a wall-clock ratio compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What is gated, e.g. `batched_rhs K=16 batched_speedup`.
    pub metric: String,
    /// The bound the value must meet.
    pub bound: Bound,
    /// The clock the value was read on.
    pub clock: Clock,
}

/// What [`Gate::check`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct GateResult {
    /// The gate checked.
    pub gate: Gate,
    /// The measured value.
    pub value: f64,
    /// `false` when the gate could not fire on this host (NOT-GATED).
    pub enforced: bool,
}

impl Gate {
    /// Checks `value` on a host with `cores` cores. An enforced gate that
    /// misses its bound panics; a host gate on one core prints a NOT-GATED
    /// line with its verdict instead.
    pub fn check(self, value: f64, cores: usize) -> GateResult {
        let enforced = self.clock == Clock::Simulated || cores >= 2;
        let result = GateResult {
            gate: self,
            value,
            enforced,
        };
        assert!(
            !enforced || result.passed(),
            "gate failed: {}",
            result.line()
        );
        if !enforced {
            println!("  NOT-GATED on {cores} core: {}", result.line());
        }
        result
    }
}

impl GateResult {
    /// Whether the value meets the bound.
    pub fn passed(&self) -> bool {
        match self.gate.bound {
            Bound::AtLeast(b) => self.value >= b,
            Bound::AtMost(b) => self.value <= b,
            Bound::Exactly(b) => self.value == b,
        }
    }

    /// One line naming the gate, its measured value and its verdict.
    pub fn line(&self) -> String {
        let verdict = match (self.passed(), self.enforced) {
            (true, true) => "pass",
            (false, true) => "FAIL",
            (true, false) => "would pass",
            (false, false) => "WOULD FAIL",
        };
        let Gate {
            metric,
            bound,
            clock,
        } = &self.gate;
        let (clock, value) = (clock.label(), self.value);
        format!("{metric} {bound} ({clock} clock): measured {value:.4} — {verdict}")
    }
}

/// The closing gate table: one line per gate, enforced or NOT-GATED.
pub fn gate_table(results: &[GateResult]) -> String {
    let line = |r: &GateResult| {
        let state = if r.enforced { "gated    " } else { "NOT-GATED" };
        format!("  {state} {}", r.line())
    };
    results.iter().map(line).collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_recovers_power_laws() {
        let quadratic: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((log_log_slope(&quadratic) - 2.0).abs() < 1e-12);
        let linear: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((log_log_slope(&linear) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cg_measurement_runs() {
        let (report, seconds) = measure_cg_2d(8, 8);
        assert!(report.converged);
        assert!(seconds > 0.0);
    }

    #[test]
    fn formatting() {
        assert!(format_time(2e-9).contains("ns"));
        assert!(format_time(2e-5).contains("µs"));
        assert!(format_time(2e-2).contains("ms"));
        assert!(format_time(2.0).contains('s'));
        assert!(format_energy(1e-7).contains("nJ"));
        assert!(format_energy(0.5).contains("mJ"));
    }

    #[test]
    fn rows_round_trip_through_json_exactly() {
        let m = [("a", 865869.4712577438), ("b", 0.1 + 0.2), ("c", 1e-300)];
        let rows = vec![
            BenchRow::new("engine_ir", "16 \"full\"\tplan", 12.5, Clock::Host, &m),
            BenchRow::new("chaos_soak", "", 0.0, Clock::Simulated, &m[..1]),
            BenchRow::new("fig7_analog_solve", "n=16", 3.875, Clock::Host, &[]),
        ];
        let json = rows_to_json(&rows);
        validate_bench_json(&json).expect("valid document");
        let doc = aa_obs::json::Json::parse(&json).expect("parses");
        let parsed = doc.as_array().expect("array");
        assert_eq!(parsed.len(), rows.len());
        let bits = |v: &aa_obs::json::Json| v.as_f64().expect("number").to_bits();
        for (row, back) in rows.iter().zip(parsed) {
            let text = |key| back.get(key).and_then(|v| v.as_str()).expect(key);
            assert_eq!(text("bench"), row.bench);
            assert_eq!(text("config"), row.config);
            assert_eq!(text("clock"), row.clock.label());
            let field = |key| back.get(key).expect(key);
            assert_eq!(bits(field("wall_ms")), row.wall_ms.to_bits());
            let got = field("metrics").as_object().expect("metrics");
            let got: Vec<_> = got.iter().map(|(k, v)| (k.clone(), bits(v))).collect();
            let want: Vec<_> = row
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.to_bits()))
                .collect();
            assert_eq!(got, want);
        }
        // A non-finite metric serializes as null, which the validator refuses.
        let nan = rows_to_json(&[BenchRow::new("x", "", 1.0, Clock::Host, &[("r", f64::NAN)])]);
        assert!(nan.contains("\"r\": null"));
        assert!(validate_bench_json(&nan).is_err());
    }

    #[test]
    fn committed_bench_json_passes_validation() {
        validate_bench_json(include_str!("../../../BENCH_engine.json"))
            .expect("committed BENCH_engine.json matches the row schema");
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        let base = r#"[{"bench": "x", "config": "c", "wall_ms": 1.0, "clock": "host",
            "metrics": {"steps_per_sec": 2.5}}]"#;
        // `needle` must occur exactly once so each case tests what it says.
        let with = |needle: &str, swap: &str| {
            assert_eq!(base.matches(needle).count(), 1, "{needle}");
            validate_bench_json(&base.replace(needle, swap))
        };
        let metric = r#""steps_per_sec": 2.5"#;
        with(metric, metric).expect("base document");
        // Not JSON, not an array, empty, a non-object row.
        for doc in ["not json", "{}", "[]", "[1]"] {
            assert!(validate_bench_json(doc).is_err(), "{doc}");
        }
        let bad = [
            // Missing and unexpected keys.
            (r#""clock": "host","#, ""),
            (r#""wall_ms": 1.0"#, r#""wall_ms": 1.0, "cores": 2"#),
            // Negative or null wall_ms, empty bench, unknown clock.
            (r#""wall_ms": 1.0"#, r#""wall_ms": -1.0"#),
            (r#""wall_ms": 1.0"#, r#""wall_ms": null"#),
            (r#""bench": "x""#, r#""bench": """#),
            (r#""clock": "host""#, r#""clock": "wall""#),
            // Metrics not an object; empty name; non-numeric, null or
            // negative value.
            (r#"{"steps_per_sec": 2.5}"#, "[2.5]"),
            (metric, r#""": 2.5"#),
            (metric, r#""steps_per_sec": "fast""#),
            (metric, r#""steps_per_sec": null"#),
            (metric, r#""steps_per_sec": -2.5"#),
        ];
        for (needle, swap) in bad {
            assert!(with(needle, swap).is_err(), "{swap}");
        }
        with(r#""clock": "host""#, r#""clock": "simulated""#).expect("simulated");
        with(r#"{"steps_per_sec": 2.5}"#, "{}").expect("no metrics");
        with(metric, r#""plans_lowered": 0"#).expect("zero");
    }

    /// Checks `value` against a gate, `None` when the check panicked.
    fn check(bound: Bound, clock: Clock, value: f64, cores: usize) -> Option<GateResult> {
        let metric = "m".to_string();
        let gate = Gate {
            metric,
            bound,
            clock,
        };
        std::panic::catch_unwind(move || gate.check(value, cores)).ok()
    }

    #[test]
    fn host_gates_fire_on_two_cores_and_report_not_gated_on_one() {
        let result = check(Bound::AtLeast(2.0), Clock::Host, 1.5, 1).expect("not gated");
        assert!(!result.enforced && !result.passed());
        let table = gate_table(&[result]);
        assert!(
            table.contains("NOT-GATED") && table.contains("WOULD FAIL"),
            "{table}"
        );
        assert!(table.contains("measured 1.5"), "{table}");
        assert!(check(Bound::AtLeast(2.0), Clock::Host, 1.5, 2).is_none());
    }

    #[test]
    fn simulated_gates_fire_on_every_host() {
        for cores in [1, 2] {
            assert!(check(Bound::AtMost(1.0), Clock::Simulated, 1.5, cores).is_none());
            assert!(check(Bound::Exactly(1.0), Clock::Simulated, 2.0, cores).is_none());
            assert!(check(Bound::Exactly(1.0), Clock::Simulated, 0.0, cores).is_none());
        }
    }

    #[test]
    fn values_at_the_bound_pass() {
        for bound in [Bound::AtLeast(2.0), Bound::AtMost(2.0), Bound::Exactly(2.0)] {
            for (clock, cores) in [(Clock::Host, 1), (Clock::Host, 2), (Clock::Simulated, 1)] {
                let result = check(bound, clock, 2.0, cores).expect("at the bound");
                assert!(result.passed(), "{}", result.line());
            }
        }
    }

    #[test]
    fn deterministic_rhs_is_reproducible_and_bounded() {
        let a = deterministic_rhs(100, 42);
        let b = deterministic_rhs(100, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(a, deterministic_rhs(100, 43));
    }
}
