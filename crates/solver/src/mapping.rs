//! Compiling a (scaled) sparse matrix into a crossbar netlist.
//!
//! The circuit is the paper's Figure 5 generalized to `n` unknowns: one
//! integrator per variable, a fanout tree distributing each variable to its
//! consumers, multipliers applying `−ã_ij` coefficients, DACs injecting
//! `b̃_i`, and an ADC branch per variable for readout. Current summation at
//! the integrator inputs is free (joined branches).
//!
//! Two wiring strategies:
//!
//! * [`MappingStrategy::PerCoefficient`] — one multiplier per non-zero
//!   coefficient. Fully general.
//! * [`MappingStrategy::SharedOffDiagonal`] — when every row's off-diagonal
//!   coefficients share one value (true for all Poisson stencils), the
//!   neighbours are summed *before* a single multiplier: two multipliers
//!   per row, exactly the 2-multipliers-per-integrator provisioning of the
//!   prototype's macroblocks.

use std::collections::BTreeMap;

use aa_analog::netlist::{InputPort, OutputPort};
use aa_analog::units::{ResourceInventory, UnitId};
use aa_analog::{AnalogChip, ChipConfig, EngineOptions, LaneBindings, RunReport};
use aa_linalg::{CsrMatrix, LinearOperator, RowAccess};

use crate::SolverError;

/// How matrix coefficients are assigned to multipliers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingStrategy {
    /// One multiplier per non-zero coefficient (`nnz` multipliers).
    PerCoefficient,
    /// Per row: one diagonal multiplier plus one shared off-diagonal
    /// multiplier fed by the summed neighbours (`2n` multipliers).
    SharedOffDiagonal,
}

/// Picks the cheapest applicable strategy for `a`.
///
/// [`MappingStrategy::SharedOffDiagonal`] applies when, in every row, all
/// off-diagonal coefficients are equal (within `tolerance`, relative to the
/// largest coefficient).
fn detect_strategy(a: &CsrMatrix, tolerance: f64) -> MappingStrategy {
    let scale = a.max_abs().max(f64::MIN_POSITIVE);
    for i in 0..a.dim() {
        let mut shared: Option<f64> = None;
        let mut uniform = true;
        a.for_each_in_row(i, &mut |j, v| {
            if j != i {
                match shared {
                    None => shared = Some(v),
                    Some(s) => {
                        if (v - s).abs() > tolerance * scale {
                            uniform = false;
                        }
                    }
                }
            }
        });
        if !uniform {
            return MappingStrategy::PerCoefficient;
        }
    }
    MappingStrategy::SharedOffDiagonal
}

/// The functional units a mapping will need (the "HW cost" column of the
/// paper's Table III is this, per grid point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceNeeds {
    /// Integrators (one per variable).
    pub integrators: usize,
    /// Multipliers.
    pub multipliers: usize,
    /// Fanout blocks (one per variable).
    pub fanouts: usize,
    /// Output branches needed on the widest fanout.
    pub fanout_branches: usize,
}

/// Computes the resources `a` needs under `strategy`.
pub fn resource_needs(a: &CsrMatrix, strategy: MappingStrategy) -> ResourceNeeds {
    let n = a.dim();
    // Consumers of each variable j: every row i ≠ j with a_ij ≠ 0, plus the
    // diagonal multiplier, plus the ADC readout branch.
    let mut consumers = vec![1usize; n]; // start with the ADC branch
    let mut diag_present = vec![false; n];
    for (i, j, _v) in a.iter() {
        if i == j {
            diag_present[j] = true;
        } else {
            consumers[j] += 1;
        }
    }
    for (c, d) in consumers.iter_mut().zip(&diag_present) {
        if *d {
            *c += 1;
        }
    }
    let multipliers = match strategy {
        MappingStrategy::PerCoefficient => a.nnz(),
        MappingStrategy::SharedOffDiagonal => 2 * n,
    };
    ResourceNeeds {
        integrators: n,
        multipliers,
        fanouts: n,
        fanout_branches: consumers.iter().copied().max().unwrap_or(1),
    }
}

/// A matrix compiled onto a chip, ready to accept right-hand sides.
///
/// The matrix (gains, connections) is static configuration; only the DAC
/// constants change between solves of different `b` — mirroring the paper's
/// split between the configuration bitstream and computation.
pub struct MappedSystem {
    chip: AnalogChip,
    n: usize,
    strategy: MappingStrategy,
    needs: ResourceNeeds,
    /// The lane of the last sequential run ([`run`](Self::run)).
    last_lane: Option<LaneBindings>,
}

impl std::fmt::Debug for MappedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSystem")
            .field("n", &self.n)
            .field("strategy", &self.strategy)
            .field("needs", &self.needs)
            .finish()
    }
}

impl MappedSystem {
    /// Builds a solver-shaped chip for the scaled matrix `a_scaled` and
    /// wires the full gradient-flow circuit. `template` supplies bandwidth,
    /// converter resolutions, and non-ideality magnitudes; the inventory is
    /// replaced by exactly what the matrix needs (the paper's §II-B point:
    /// the prototype "is not representative of an analog accelerator
    /// designed as a system of linear equations solver").
    ///
    /// # Errors
    ///
    /// * [`SolverError::InvalidProblem`] if a coefficient exceeds the gain
    ///   range (scale first — see [`crate::scaling`]).
    /// * Chip-level wiring errors (should not occur for valid inputs).
    pub fn new(a_scaled: &CsrMatrix, template: &ChipConfig) -> Result<Self, SolverError> {
        let n = a_scaled.dim();
        if a_scaled.max_abs() > template.max_gain * (1.0 + 1e-12) {
            return Err(SolverError::invalid(format!(
                "coefficient magnitude {} exceeds gain range {}; apply value scaling first",
                a_scaled.max_abs(),
                template.max_gain
            )));
        }
        let strategy = detect_strategy(a_scaled, 1e-12);
        let needs = resource_needs(a_scaled, strategy);
        let inventory = ResourceInventory {
            integrators: needs.integrators,
            multipliers: needs.multipliers.max(1),
            fanouts: needs.fanouts,
            fanout_branches: needs.fanout_branches,
            adcs: n,
            dacs: n,
            luts: 1,
            analog_inputs: 1,
            analog_outputs: 1,
        };
        let config = ChipConfig {
            inventory,
            ..template.clone()
        };
        let mut chip = AnalogChip::new(config);

        // Fanout branch allocation, one counter per variable.
        let mut next_branch = vec![0usize; n];
        let mut take_branch = move |j: usize| {
            let b = next_branch[j];
            next_branch[j] += 1;
            b
        };

        // Integrator → fanout → ADC spine for every variable.
        for i in 0..n {
            chip.set_conn(
                OutputPort::of(UnitId::Integrator(i)),
                InputPort::of(UnitId::Fanout(i)),
            )?;
            let b = take_branch(i);
            chip.set_conn(
                OutputPort {
                    unit: UnitId::Fanout(i),
                    port: b,
                },
                InputPort::of(UnitId::Adc(i)),
            )?;
            // b̃_i enters the integrator input directly.
            chip.set_conn(
                OutputPort::of(UnitId::Dac(i)),
                InputPort::of(UnitId::Integrator(i)),
            )?;
        }

        match strategy {
            MappingStrategy::SharedOffDiagonal => {
                for i in 0..n {
                    let mut diag = 0.0;
                    let mut shared: Option<f64> = None;
                    let mut neighbors = Vec::new();
                    a_scaled.for_each_in_row(i, &mut |j, v| {
                        if j == i {
                            diag = v;
                        } else {
                            shared.get_or_insert(v);
                            neighbors.push(j);
                        }
                    });
                    // Diagonal multiplier (2i): −ã_ii·u_i.
                    if diag != 0.0 {
                        let mul = 2 * i;
                        let b = take_branch(i);
                        chip.set_conn(
                            OutputPort {
                                unit: UnitId::Fanout(i),
                                port: b,
                            },
                            InputPort::of(UnitId::Multiplier(mul)),
                        )?;
                        chip.set_mul_gain(mul, -diag)?;
                        chip.set_conn(
                            OutputPort::of(UnitId::Multiplier(mul)),
                            InputPort::of(UnitId::Integrator(i)),
                        )?;
                    }
                    // Off-diagonal multiplier (2i+1): −c_i·Σ u_j.
                    if let Some(c) = shared {
                        let mul = 2 * i + 1;
                        for j in neighbors {
                            let b = take_branch(j);
                            chip.set_conn(
                                OutputPort {
                                    unit: UnitId::Fanout(j),
                                    port: b,
                                },
                                InputPort::of(UnitId::Multiplier(mul)),
                            )?;
                        }
                        chip.set_mul_gain(mul, -c)?;
                        chip.set_conn(
                            OutputPort::of(UnitId::Multiplier(mul)),
                            InputPort::of(UnitId::Integrator(i)),
                        )?;
                    }
                }
            }
            MappingStrategy::PerCoefficient => {
                let mut next_mul = 0usize;
                for (i, j, v) in a_scaled.iter() {
                    if v == 0.0 {
                        continue;
                    }
                    let mul = next_mul;
                    next_mul += 1;
                    let b = take_branch(j);
                    chip.set_conn(
                        OutputPort {
                            unit: UnitId::Fanout(j),
                            port: b,
                        },
                        InputPort::of(UnitId::Multiplier(mul)),
                    )?;
                    chip.set_mul_gain(mul, -v)?;
                    chip.set_conn(
                        OutputPort::of(UnitId::Multiplier(mul)),
                        InputPort::of(UnitId::Integrator(i)),
                    )?;
                }
            }
        }

        Ok(MappedSystem {
            chip,
            n,
            strategy,
            needs,
            last_lane: None,
        })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The wiring strategy that was chosen.
    pub fn strategy(&self) -> MappingStrategy {
        self.strategy
    }

    /// The resources the mapping consumed.
    pub fn needs(&self) -> &ResourceNeeds {
        &self.needs
    }

    /// The underlying chip.
    pub fn chip(&self) -> &AnalogChip {
        &self.chip
    }

    /// Mutable chip access (calibration, engine options).
    pub fn chip_mut(&mut self) -> &mut AnalogChip {
        &mut self.chip
    }

    /// The lane bindings that program one run for a (scaled) right-hand
    /// side — the one way a run is programmed, sequential
    /// ([`run`](Self::run)) or batched: DAC constants quantized exactly as
    /// `setDacConstant` stores them, and initial conditions (`None` is
    /// zero) clamped to full scale and quantized to the DAC resolution, so
    /// a programmed start carries no more precision than the host's
    /// converters.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidProblem`] on length mismatch or values beyond
    /// full scale (grow the solution headroom and rescale).
    pub fn lane_bindings(
        &self,
        b_scaled: &[f64],
        initial: Option<&[f64]>,
    ) -> Result<LaneBindings, SolverError> {
        self.check_lengths(b_scaled, initial)?;
        let fs = self.chip.config().full_scale;
        let mut dacs = BTreeMap::new();
        for (i, v) in b_scaled.iter().enumerate() {
            if v.abs() > fs || !v.is_finite() {
                return Err(SolverError::invalid(format!(
                    "scaled rhs element {i} = {v} exceeds full scale {fs}"
                )));
            }
            dacs.insert(i, self.chip.quantize_dac(*v));
        }
        Ok(LaneBindings {
            dac_values: Some(dacs),
            int_initial: Some(self.initial_conditions(initial)),
        })
    }

    fn check_lengths(&self, b_scaled: &[f64], initial: Option<&[f64]>) -> Result<(), SolverError> {
        let initial_len = initial.map_or(self.n, <[f64]>::len);
        for (what, len) in [("rhs", b_scaled.len()), ("initial state", initial_len)] {
            if len != self.n {
                return Err(SolverError::invalid(format!(
                    "{what} has {len} entries, system has {}",
                    self.n
                )));
            }
        }
        Ok(())
    }

    /// The `setIntInitial` value of every integrator: `initial` (scaled
    /// domain) clamped to full scale and quantized to the DAC resolution;
    /// zero without one.
    fn initial_conditions(&self, initial: Option<&[f64]>) -> BTreeMap<usize, f64> {
        (0..self.n)
            .map(|i| (i, initial.map_or(0.0, |u| self.chip.quantize_dac(u[i]))))
            .collect()
    }

    /// Commits the draft configuration if no commit is in effect yet: the
    /// circuit every lane runs on.
    ///
    /// # Errors
    ///
    /// Propagates chip commit errors.
    pub fn ensure_committed(&mut self) -> Result<(), SolverError> {
        if !self.chip.is_committed() {
            self.chip.cfg_commit()?;
        }
        Ok(())
    }

    /// Issues one sequential run of the committed circuit bound to `lane`
    /// (from [`lane_bindings`](Self::lane_bindings)) and keeps the lane as
    /// [`last_lane`](Self::last_lane).
    ///
    /// # Errors
    ///
    /// Propagates chip errors.
    pub fn run(
        &mut self,
        lane: LaneBindings,
        options: &EngineOptions,
    ) -> Result<RunReport, SolverError> {
        let report = self.chip.exec_lane(&lane, options)?;
        self.last_lane = Some(lane);
        Ok(report)
    }

    /// The lane the last [`run`](Self::run) was bound to: what a replay of
    /// that run binds again.
    pub fn last_lane(&self) -> Option<&LaneBindings> {
        self.last_lane.as_ref()
    }

    /// The lane that continues the last run from the state `report`
    /// stopped in: that run's DACs, and every integrator holding its end
    /// state, clamped to full scale but unquantized (the held charge, not
    /// a DAC value).
    pub(crate) fn held(&mut self, report: &RunReport) -> LaneBindings {
        let fs = self.chip.config().full_scale;
        let held = report
            .integrator_values
            .iter()
            .map(|(&i, &u)| (i, u.clamp(-fs, fs)))
            .collect();
        LaneBindings {
            int_initial: Some(held),
            ..self.last_lane.take().expect("a run to continue")
        }
    }

    /// Reads the steady-state solution (scaled domain) through the ADCs,
    /// averaging `samples` conversions per variable.
    ///
    /// # Errors
    ///
    /// Propagates chip read errors.
    pub fn read_solution(&mut self, samples: usize) -> Result<Vec<f64>, SolverError> {
        (0..self.n)
            .map(|i| self.chip.analog_avg(i, samples).map_err(SolverError::from))
            .collect()
    }

    /// The per-variable dynamic-range usage of the last run, for underuse
    /// diagnostics.
    pub fn integrator_range_usage(&self, report: &RunReport) -> BTreeMap<usize, f64> {
        (0..self.n)
            .filter_map(|i| {
                report
                    .range_usage
                    .get(&UnitId::Integrator(i))
                    .map(|u| (i, *u))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_linalg::stencil::PoissonStencil;
    use aa_linalg::Triplet;

    #[test]
    fn strategy_detection() {
        let poisson = CsrMatrix::from_row_access(&PoissonStencil::new_2d(4).unwrap());
        assert_eq!(
            detect_strategy(&poisson, 1e-12),
            MappingStrategy::SharedOffDiagonal
        );
        let general = CsrMatrix::from_triplets(
            2,
            &[
                Triplet::new(0, 0, 1.0),
                Triplet::new(0, 1, 0.5),
                Triplet::new(1, 0, 0.25),
                Triplet::new(1, 1, 1.0),
            ],
        )
        .unwrap();
        // Off-diagonals differ across rows but each row has ONE off-diag, so
        // the shared strategy still applies (per-row uniformity).
        assert_eq!(
            detect_strategy(&general, 1e-12),
            MappingStrategy::SharedOffDiagonal
        );
        let ragged = CsrMatrix::from_triplets(
            3,
            &[
                Triplet::new(0, 0, 1.0),
                Triplet::new(0, 1, 0.5),
                Triplet::new(0, 2, 0.2),
                Triplet::new(1, 1, 1.0),
                Triplet::new(2, 2, 1.0),
            ],
        )
        .unwrap();
        assert_eq!(
            detect_strategy(&ragged, 1e-12),
            MappingStrategy::PerCoefficient
        );
    }

    #[test]
    fn resource_needs_match_paper_table3_hw_column() {
        // One integrator per grid point (Table III "N integrators").
        let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(4).unwrap());
        let needs = resource_needs(&a, MappingStrategy::SharedOffDiagonal);
        assert_eq!(needs.integrators, 16);
        assert_eq!(needs.multipliers, 32); // 2 per row: the macroblock ratio
        assert_eq!(needs.fanouts, 16);
        // Interior variable: 4 neighbours + diag + ADC = 6 branches.
        assert_eq!(needs.fanout_branches, 6);
    }

    /// A 12-bit-converter template (the model accelerator's resolution);
    /// the 8-bit prototype default makes DAC quantization dominate these
    /// circuit-accuracy checks.
    fn template_12bit() -> ChipConfig {
        let mut cfg = ChipConfig::ideal().with_adc_bits(12);
        cfg.dac_bits = 12;
        cfg
    }

    #[test]
    fn mapped_circuit_solves_scaled_poisson() {
        let op = PoissonStencil::new_1d(4).unwrap();
        let a = CsrMatrix::from_row_access(&op);
        // Solution bound chosen near the true peak (0.12) so the scaled
        // problem uses the dynamic range.
        let scaled = crate::ScaledSystem::new(&a, 1.0, 1.0, 0.9, 0.15).unwrap();
        let mut mapped = MappedSystem::new(&scaled.matrix, &template_12bit()).unwrap();
        let b = vec![1.0, 1.0, 1.0, 1.0];
        let b_scaled = scaled.scale_rhs(&b);
        mapped.ensure_committed().unwrap();
        let lane = mapped.lane_bindings(&b_scaled, None).unwrap();
        let report = mapped.run(lane, &EngineOptions::default()).unwrap();
        assert!(report.reached_steady_state);
        assert!(report.exceptions.is_empty(), "{}", report.exceptions);
        // Steady state × γ must solve the original system.
        let u_hw: Vec<f64> = (0..4).map(|i| report.integrator_values[&i]).collect();
        let u = scaled.unscale_solution(&u_hw);
        let exact = aa_linalg::direct::solve(&a.to_dense(), &b).unwrap();
        for (x, e) in u.iter().zip(&exact) {
            assert!((x - e).abs() < 1e-3, "{x} vs {e}");
        }
    }

    #[test]
    fn per_coefficient_strategy_also_solves() {
        // An SPD matrix with non-uniform off-diagonals.
        let a = CsrMatrix::from_triplets(
            3,
            &[
                Triplet::new(0, 0, 1.0),
                Triplet::new(0, 1, -0.3),
                Triplet::new(0, 2, -0.1),
                Triplet::new(1, 0, -0.3),
                Triplet::new(1, 1, 1.0),
                Triplet::new(2, 0, -0.1),
                Triplet::new(2, 2, 1.0),
            ],
        )
        .unwrap();
        assert_eq!(detect_strategy(&a, 1e-12), MappingStrategy::PerCoefficient);
        let mut mapped = MappedSystem::new(&a, &template_12bit()).unwrap();
        assert_eq!(mapped.strategy(), MappingStrategy::PerCoefficient);
        let b = vec![0.5, 0.2, 0.1];
        mapped.ensure_committed().unwrap();
        let lane = mapped.lane_bindings(&b, None).unwrap();
        let report = mapped.run(lane, &EngineOptions::default()).unwrap();
        assert!(report.reached_steady_state);
        let u: Vec<f64> = (0..3).map(|i| report.integrator_values[&i]).collect();
        let exact = aa_linalg::direct::solve(&a.to_dense(), &b).unwrap();
        for (x, e) in u.iter().zip(&exact) {
            assert!((x - e).abs() < 1e-3, "{x} vs {e}");
        }
    }

    #[test]
    fn unscaled_matrix_rejected() {
        let a = CsrMatrix::tridiagonal(3, -10.0, 20.0, -10.0).unwrap();
        assert!(matches!(
            MappedSystem::new(&a, &ChipConfig::ideal()),
            Err(SolverError::InvalidProblem { .. })
        ));
    }

    #[test]
    fn rhs_validation() {
        let a = CsrMatrix::identity(2);
        let mapped = MappedSystem::new(&a, &ChipConfig::ideal()).unwrap();
        assert!(mapped.lane_bindings(&[0.1], None).is_err());
        assert!(mapped.lane_bindings(&[0.1, 2.0], None).is_err());
        assert!(mapped.lane_bindings(&[0.1, f64::NAN], None).is_err());
        assert!(mapped.lane_bindings(&[0.1, 0.2], None).is_ok());
        assert!(mapped.lane_bindings(&[0.1, 0.2], Some(&[0.0])).is_err());
    }

    #[test]
    fn initial_state_is_clamped_and_quantized_alike_on_both_paths() {
        let a = CsrMatrix::identity(2);
        let mut mapped = MappedSystem::new(&a, &ChipConfig::ideal()).unwrap();
        let initial = [0.3001, -7.0];
        let lane = mapped.lane_bindings(&[0.1, 0.2], Some(&initial)).unwrap();
        let ints = lane.int_initial.clone().unwrap();
        let q = |v: f64| mapped.chip().quantize_dac(v);
        assert_eq!(ints[&0], q(0.3001));
        assert_eq!(ints[&1], -mapped.chip().config().full_scale);
        assert_ne!(ints[&0], 0.3001, "carries no more than DAC precision");

        // A sequential run bound to the lane reproduces its batched run on
        // an identical chip.
        let mut twin = MappedSystem::new(&a, &ChipConfig::ideal()).unwrap();
        twin.ensure_committed().unwrap();
        let batch = twin
            .chip_mut()
            .exec_batch(std::slice::from_ref(&lane), &EngineOptions::default())
            .unwrap();
        mapped.ensure_committed().unwrap();
        let sequential = mapped.run(lane, &EngineOptions::default()).unwrap();
        assert_eq!(batch.reports[0], sequential);
    }

    #[test]
    fn a_held_lane_keeps_the_run_dacs_and_its_unquantized_end_state() {
        let a = CsrMatrix::identity(2);
        let mut mapped = MappedSystem::new(&a, &ChipConfig::ideal()).unwrap();
        mapped.ensure_committed().unwrap();
        let lane = mapped.lane_bindings(&[0.3001, -0.2], None).unwrap();
        let options = EngineOptions {
            max_tau: 1.0,
            ..EngineOptions::default()
        };
        let mut report = mapped.run(lane.clone(), &options).unwrap();
        assert_eq!(mapped.last_lane(), Some(&lane));
        report.integrator_values.insert(1, -7.0);
        let held = mapped.held(&report);
        assert_eq!(held.dac_values, lane.dac_values);
        let ints = held.int_initial.unwrap();
        assert_eq!(ints[&0], report.integrator_values[&0], "unquantized");
        assert_eq!(ints[&1], -mapped.chip().config().full_scale, "clamped");
    }

    #[test]
    fn readout_matches_integrator_state() {
        let a = CsrMatrix::identity(2);
        let mut mapped = MappedSystem::new(&a, &ChipConfig::ideal()).unwrap();
        mapped.ensure_committed().unwrap();
        let lane = mapped.lane_bindings(&[0.5, -0.25], None).unwrap();
        let report = mapped.run(lane, &EngineOptions::default()).unwrap();
        assert!(report.reached_steady_state);
        let read = mapped.read_solution(4).unwrap();
        // Identity system: u = b; ADC quantization bounds the error.
        assert!((read[0] - 0.5).abs() < 0.01, "{}", read[0]);
        assert!((read[1] + 0.25).abs() < 0.01, "{}", read[1]);
    }
}
