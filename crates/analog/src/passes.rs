//! The optimization pass pipeline over the plan IR.
//!
//! The `ir` module lowers a committed netlist into a typed op graph; this
//! module decides **what** runs over that graph and in which order, and
//! reports per-pass op counts. The pipeline is fixed:
//!
//! 1. `fold_constants` — DAC outputs are constant within a run (registers
//!    only change behind a commit), so their imperfection-applied values are
//!    computed once at run bind instead of once per RK4 stage.
//! 2. `cse` — structurally identical multiplier ops are value-numbered into
//!    one, and fanout branches (which all carry the same value) collapse to
//!    a single store with consumers re-pointed at it.
//! 3. `fuse_gain_chains` — a gain multiplier whose only input is another
//!    gain multiplier's only consumer fuses into one multiply-accumulate,
//!    eliding the intermediate clip.
//! 4. `normalize_gains` — fusion multiplies coefficients through, so a
//!    chain of within-limit multipliers can fuse into a coefficient no
//!    real multiplier could be programmed with
//!    (`|a| > ChipConfig::max_gain`); this pass peels such MACs back into
//!    chained stages each inside the hardware gain limit.
//! 5. `dce` — ops whose outputs reach neither an integrator input nor a
//!    sink (ADC / analog output) are removed.
//!
//! **Tolerance contract.** `PassConfig::none()` plans are bit-identical to
//! `EvalStrategy::Reference`. Any
//! enabled pass may reassociate floating-point arithmetic (folding bakes
//! `imp.apply` in a different association; fusion multiplies affine
//! coefficients through), so optimized results are only guaranteed to match
//! the reference within a small relative error, and only while the
//! reference run latches **no** overflow exceptions — fusion elides
//! intermediate clips, so saturating circuits may diverge beyond the bound.
//! Eliminated ops report zero range usage and never latch exceptions.
//! Optimized plans never run with an armed fault plan: the engine lowers
//! such runs under `PassConfig::none()` (their *effective* config, which
//! also keys the plan cache), so fault semantics stay bit-exact.

use crate::ir::IrGraph;

/// Which optimization passes run when lowering a committed netlist into the
/// op tape. The default ([`PassConfig::none`]) disables them all, keeping
/// every run bit-exact against the reference evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassConfig {
    /// Fold fixed DAC inputs into constants computed once per run.
    pub fold_constants: bool,
    /// Dead-code-eliminate ops that reach no integrator or sink.
    pub dce: bool,
    /// Deduplicate common subexpressions (including fanout branches).
    pub cse: bool,
    /// Fuse gain-multiplier chains into single multiply-accumulate ops.
    pub fuse_gain_chains: bool,
    /// Rescale fused MAC coefficients back inside the hardware gain limit
    /// by splitting them into chained stages.
    pub normalize_gains: bool,
}

impl PassConfig {
    /// No passes: the lowering is purely structural and runs stay
    /// bit-identical to [`crate::engine::EvalStrategy::Reference`].
    pub fn none() -> Self {
        PassConfig::default()
    }

    /// Every pass enabled — the configuration the `engine_ir` perf gate
    /// measures.
    pub fn full() -> Self {
        PassConfig {
            fold_constants: true,
            dce: true,
            cse: true,
            fuse_gain_chains: true,
            normalize_gains: true,
        }
    }

    /// Whether any pass is enabled (i.e. whether a lowering under this
    /// config counts as an optimized one).
    pub fn any(&self) -> bool {
        self.fold_constants || self.dce || self.cse || self.fuse_gain_chains || self.normalize_gains
    }
}

/// One pass's effect on the plan, measured in output stores per circuit
/// evaluation (sources plus op outputs; a fanout counts once per branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name (`"fold_constants"`, `"cse"`, `"fuse_gain_chains"`,
    /// `"normalize_gains"`, `"dce"`).
    pub pass: &'static str,
    /// Stores per eval before the pass ran.
    pub ops_before: u64,
    /// Stores per eval after the pass ran.
    pub ops_after: u64,
}

/// The static aa-obs counter names for one pass's before/after op counts
/// (counters take `&'static str`, so the names are enumerated, not
/// formatted).
pub(crate) fn pass_counter_names(pass: &str) -> (&'static str, &'static str) {
    match pass {
        "fold_constants" => (
            "engine.pass.fold_constants.ops_before",
            "engine.pass.fold_constants.ops_after",
        ),
        "cse" => ("engine.pass.cse.ops_before", "engine.pass.cse.ops_after"),
        "fuse_gain_chains" => (
            "engine.pass.fuse_gain_chains.ops_before",
            "engine.pass.fuse_gain_chains.ops_after",
        ),
        "normalize_gains" => (
            "engine.pass.normalize_gains.ops_before",
            "engine.pass.normalize_gains.ops_after",
        ),
        "dce" => ("engine.pass.dce.ops_before", "engine.pass.dce.ops_after"),
        _ => ("engine.pass.ops_before", "engine.pass.ops_after"),
    }
}

/// Runs the enabled passes in the fixed pipeline order, returning one
/// [`PassStat`] per pass that ran.
pub(crate) fn run_pipeline(graph: &mut IrGraph, cfg: &PassConfig) -> Vec<PassStat> {
    let mut log = Vec::new();
    let mut run = |graph: &mut IrGraph, pass: &'static str, f: fn(&mut IrGraph)| {
        let ops_before = graph.ops_per_eval();
        f(graph);
        log.push(PassStat {
            pass,
            ops_before,
            ops_after: graph.ops_per_eval(),
        });
    };
    if cfg.fold_constants {
        run(graph, "fold_constants", IrGraph::fold_constants);
    }
    if cfg.cse {
        run(graph, "cse", IrGraph::cse);
    }
    if cfg.fuse_gain_chains {
        run(graph, "fuse_gain_chains", IrGraph::fuse_gain_chains);
    }
    if cfg.normalize_gains {
        run(graph, "normalize_gains", IrGraph::normalize_gains);
    }
    if cfg.dce {
        run(graph, "dce", IrGraph::dce);
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_config_predicates() {
        assert!(!PassConfig::none().any());
        assert!(PassConfig::full().any());
        assert_eq!(PassConfig::default(), PassConfig::none());
        assert!(PassConfig {
            cse: true,
            ..PassConfig::none()
        }
        .any());
    }

    #[test]
    fn counter_names_are_static_and_distinct() {
        let names: Vec<&str> = [
            "fold_constants",
            "cse",
            "fuse_gain_chains",
            "normalize_gains",
            "dce",
        ]
        .iter()
        .flat_map(|p| {
            let (b, a) = pass_counter_names(p);
            [b, a]
        })
        .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "no counter-name collisions");
    }
}
