//! The digital host driver: executes Table I instructions against a chip.
//!
//! The paper's architecture (§III-B) makes the accelerator "a peripheral to
//! a digital host processor, which provides a configuration for the analog
//! accelerator, performs calibration, controls computation, and reads out
//! the output values". [`Host`] is that processor's driver.

use crate::calibrate::{calibrate, CalibrationReport};
use crate::chip::{AnalogChip, BatchExec};
use crate::engine::{EngineOptions, RunReport};
use crate::error::AnalogError;
use crate::isa::Instruction;

/// Where `writeParallel` bytes are routed (the chip's parallel digital
/// input can feed either a DAC or a lookup-table entry pointer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelTarget {
    /// Bytes become DAC codes for the given DAC.
    Dac(usize),
    /// Bytes fill lookup-table entries starting at `next_entry`,
    /// auto-incrementing.
    LutEntry {
        /// Lookup-table index.
        lut: usize,
        /// Next entry to be written.
        next_entry: usize,
    },
}

/// The response returned by an instruction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// Instruction completed with no data.
    Ack,
    /// Calibration finished (from `init`).
    Calibrated(CalibrationReport),
    /// A finished run (from `execStart`).
    Ran(Box<RunReport>),
    /// A finished batched run (from `execBatch`), with per-lane reports.
    RanBatch(Box<BatchExec>),
    /// ADC codes (from `readSerial`), one per ADC in index order.
    Codes(Vec<u32>),
    /// An averaged analog value (from `analogAvg`).
    Analog(f64),
    /// The exception byte vector (from `readExp`).
    Exceptions(Vec<u8>),
}

/// The digital host: owns a chip and executes ISA instructions against it.
///
/// ```
/// use aa_analog::{AnalogChip, ChipConfig, Host, Instruction, Response};
/// use aa_analog::units::UnitId;
/// use aa_analog::netlist::{OutputPort, InputPort};
///
/// # fn main() -> Result<(), aa_analog::AnalogError> {
/// let mut host = Host::new(AnalogChip::new(ChipConfig::ideal()));
/// let program = [
///     Instruction::SetConn {
///         from: OutputPort::of(UnitId::Integrator(0)),
///         to: InputPort::of(UnitId::Multiplier(0)),
///     },
///     Instruction::SetConn {
///         from: OutputPort::of(UnitId::Multiplier(0)),
///         to: InputPort::of(UnitId::Integrator(0)),
///     },
///     Instruction::SetMulGain { multiplier: 0, gain: -1.0 },
///     Instruction::SetIntInitial { integrator: 0, value: 0.5 },
///     Instruction::CfgCommit,
///     Instruction::ExecStart,
/// ];
/// let responses = host.run_program(&program)?;
/// assert!(matches!(responses.last(), Some(Response::Ran(_))));
/// # Ok(())
/// # }
/// ```
pub struct Host {
    chip: AnalogChip,
    engine_options: EngineOptions,
    parallel_target: Option<ParallelTarget>,
    /// The batch opened by `execBatch` and closed by `finishBatch`;
    /// `selectLane` reads against it.
    pending_batch: Option<BatchExec>,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("chip", &self.chip)
            .field("parallel_target", &self.parallel_target)
            .finish()
    }
}

impl Host {
    /// Creates a host driving `chip`.
    pub fn new(chip: AnalogChip) -> Self {
        Host {
            chip,
            engine_options: EngineOptions::default(),
            parallel_target: None,
            pending_batch: None,
        }
    }

    /// The underlying chip.
    pub fn chip(&self) -> &AnalogChip {
        &self.chip
    }

    /// Mutable access to the underlying chip (test-bench conveniences such
    /// as attaching stimulus waveforms).
    pub fn chip_mut(&mut self) -> &mut AnalogChip {
        &mut self.chip
    }

    /// Selects where subsequent `writeParallel` bytes are routed.
    pub fn select_parallel_target(&mut self, target: ParallelTarget) {
        self.parallel_target = Some(target);
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Propagates chip-level errors; `writeParallel` without a selected
    /// target is a [`AnalogError::ProtocolViolation`].
    pub fn execute(&mut self, instruction: &Instruction) -> Result<Response, AnalogError> {
        match instruction {
            Instruction::Init => Ok(Response::Calibrated(calibrate(&mut self.chip)?)),
            Instruction::SetConn { from, to } => {
                self.chip.set_conn(*from, *to)?;
                Ok(Response::Ack)
            }
            Instruction::SetIntInitial { integrator, value } => {
                self.chip.set_int_initial(*integrator, *value)?;
                Ok(Response::Ack)
            }
            Instruction::SetMulGain { multiplier, gain } => {
                self.chip.set_mul_gain(*multiplier, *gain)?;
                Ok(Response::Ack)
            }
            Instruction::SetFunction { lut, function } => {
                let fs = self.chip.config().full_scale;
                let f = function.as_closure(fs);
                self.chip.set_function(*lut, f)?;
                Ok(Response::Ack)
            }
            Instruction::SetDacConstant { dac, value } => {
                self.chip.set_dac_constant(*dac, *value)?;
                Ok(Response::Ack)
            }
            Instruction::SetTimeout { cycles } => {
                self.chip.set_timeout(*cycles);
                Ok(Response::Ack)
            }
            Instruction::CfgCommit => {
                self.chip.cfg_commit()?;
                Ok(Response::Ack)
            }
            Instruction::ExecStart => {
                let report = self.chip.exec(&self.engine_options)?;
                Ok(Response::Ran(Box::new(report)))
            }
            // In this in-process model `execStart` runs to completion, so
            // `execStop` (asynchronous halt on silicon) acknowledges only.
            Instruction::ExecStop => Ok(Response::Ack),
            Instruction::ExecBatch { lanes } => {
                let batch = self.chip.exec_batch(lanes, &self.engine_options)?;
                self.pending_batch = Some(batch.clone());
                Ok(Response::RanBatch(Box::new(batch)))
            }
            Instruction::SelectLane { lane } => {
                let batch = self
                    .pending_batch
                    .as_ref()
                    .ok_or_else(|| AnalogError::protocol("selectLane with no pending execBatch"))?;
                self.chip.select_lane(batch, usize::from(*lane))?;
                Ok(Response::Ack)
            }
            Instruction::FinishBatch => {
                let batch = self.pending_batch.take().ok_or_else(|| {
                    AnalogError::protocol("finishBatch with no pending execBatch")
                })?;
                self.chip.finish_batch(&batch);
                Ok(Response::Ack)
            }
            Instruction::SetAnaInputEn { channel, enabled } => {
                self.chip.set_ana_input_en(*channel, *enabled)?;
                Ok(Response::Ack)
            }
            Instruction::WriteParallel { data } => {
                self.write_parallel(*data)?;
                Ok(Response::Ack)
            }
            Instruction::ReadSerial => {
                let n = self.chip.config().inventory.adcs;
                let codes = (0..n)
                    .map(|i| self.chip.read_serial(i))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Codes(codes))
            }
            Instruction::AnalogAvg { adc, samples } => {
                Ok(Response::Analog(self.chip.analog_avg(*adc, *samples)?))
            }
            Instruction::ReadExp => Ok(Response::Exceptions(self.chip.read_exp())),
        }
    }

    /// Executes a sequence of instructions, stopping at the first error.
    ///
    /// # Errors
    ///
    /// Returns the first instruction failure.
    pub fn run_program(&mut self, program: &[Instruction]) -> Result<Vec<Response>, AnalogError> {
        program.iter().map(|i| self.execute(i)).collect()
    }

    fn write_parallel(&mut self, data: u8) -> Result<(), AnalogError> {
        let fs = self.chip.config().full_scale;
        match self.parallel_target {
            None => Err(AnalogError::protocol(
                "writeParallel with no parallel target selected",
            )),
            Some(ParallelTarget::Dac(dac)) => {
                // Interpret the byte as an offset-binary DAC code.
                let value = -fs + (f64::from(data) + 0.5) * (2.0 * fs / 256.0);
                self.chip.set_dac_constant(dac, value)
            }
            Some(ParallelTarget::LutEntry { lut, next_entry }) => {
                let value = -fs + (f64::from(data) + 0.5) * (2.0 * fs / 256.0);
                self.chip.write_lut_entry(lut, next_entry, value)?;
                self.parallel_target = Some(ParallelTarget::LutEntry {
                    lut,
                    next_entry: next_entry + 1,
                });
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;
    use crate::netlist::{InputPort, OutputPort};
    use crate::units::UnitId;

    fn decay_program() -> Vec<Instruction> {
        vec![
            Instruction::SetConn {
                from: OutputPort::of(UnitId::Integrator(0)),
                to: InputPort::of(UnitId::Fanout(0)),
            },
            Instruction::SetConn {
                from: OutputPort {
                    unit: UnitId::Fanout(0),
                    port: 0,
                },
                to: InputPort::of(UnitId::Adc(0)),
            },
            Instruction::SetConn {
                from: OutputPort {
                    unit: UnitId::Fanout(0),
                    port: 1,
                },
                to: InputPort::of(UnitId::Multiplier(0)),
            },
            Instruction::SetConn {
                from: OutputPort::of(UnitId::Multiplier(0)),
                to: InputPort::of(UnitId::Integrator(0)),
            },
            Instruction::SetMulGain {
                multiplier: 0,
                gain: -1.0,
            },
            Instruction::SetDacConstant { dac: 0, value: 0.5 },
            Instruction::SetConn {
                from: OutputPort::of(UnitId::Dac(0)),
                to: InputPort::of(UnitId::Integrator(0)),
            },
            Instruction::SetIntInitial {
                integrator: 0,
                value: 0.0,
            },
            Instruction::CfgCommit,
            Instruction::ExecStart,
        ]
    }

    #[test]
    fn full_figure1_program_runs_end_to_end() {
        let mut host = Host::new(AnalogChip::new(ChipConfig::ideal()));
        let responses = host.run_program(&decay_program()).unwrap();
        let Response::Ran(report) = responses.last().unwrap() else {
            panic!("expected a run report");
        };
        assert!(report.reached_steady_state);
        // readSerial: the steady-state 0.5 appears as an 8-bit code near 192.
        let Response::Codes(codes) = host.execute(&Instruction::ReadSerial).unwrap() else {
            panic!("expected codes");
        };
        let value = host.chip().value_of(codes[0]);
        assert!((value - 0.5).abs() < 2.0 / 256.0, "read back {value}");
        // No exceptions.
        let Response::Exceptions(bytes) = host.execute(&Instruction::ReadExp).unwrap() else {
            panic!("expected exceptions");
        };
        assert!(bytes.iter().all(|b| *b == 0));
    }

    #[test]
    fn analog_avg_beats_single_sample_under_noise() {
        let noisy = ChipConfig::ideal().with_nonideal(crate::config::NonIdealityConfig {
            offset_std: 0.0,
            gain_error_std: 0.0,
            readout_noise_std: 0.01,
            seed: 3,
        });
        let mut host = Host::new(AnalogChip::new(noisy));
        host.run_program(&decay_program()).unwrap();
        // Average of many single reads vs one big analogAvg.
        let Response::Analog(avg) = host
            .execute(&Instruction::AnalogAvg {
                adc: 0,
                samples: 256,
            })
            .unwrap()
        else {
            panic!("expected analog value");
        };
        assert!((avg - 0.5).abs() < 3e-3, "averaged read {avg}");
    }

    #[test]
    fn init_calibrates_chip() {
        let mut host = Host::new(AnalogChip::new(ChipConfig::prototype()));
        let r = host.execute(&Instruction::Init).unwrap();
        assert!(matches!(r, Response::Calibrated(_)));
        assert!(host.chip().export_state().calibrated);
    }

    #[test]
    fn write_parallel_requires_target() {
        let mut host = Host::new(AnalogChip::new(ChipConfig::ideal()));
        assert!(matches!(
            host.execute(&Instruction::WriteParallel { data: 0 }),
            Err(AnalogError::ProtocolViolation { .. })
        ));
    }

    #[test]
    fn write_parallel_to_dac_sets_constant() {
        let mut host = Host::new(AnalogChip::new(ChipConfig::ideal()));
        host.select_parallel_target(ParallelTarget::Dac(0));
        // Code 255 = close to +fs.
        host.execute(&Instruction::WriteParallel { data: 255 })
            .unwrap();
        // Build a trivial circuit that exposes the DAC at an ADC.
        host.execute(&Instruction::SetConn {
            from: OutputPort::of(UnitId::Dac(0)),
            to: InputPort::of(UnitId::Adc(0)),
        })
        .unwrap();
        host.execute(&Instruction::SetTimeout { cycles: 10 })
            .unwrap();
        host.execute(&Instruction::CfgCommit).unwrap();
        host.execute(&Instruction::ExecStart).unwrap();
        let Response::Codes(codes) = host.execute(&Instruction::ReadSerial).unwrap() else {
            panic!();
        };
        assert!(codes[0] >= 254, "code = {}", codes[0]);
    }

    #[test]
    fn write_parallel_to_lut_autoincrements() {
        let mut host = Host::new(AnalogChip::new(ChipConfig::ideal()));
        host.select_parallel_target(ParallelTarget::LutEntry {
            lut: 0,
            next_entry: 0,
        });
        host.execute(&Instruction::WriteParallel { data: 10 })
            .unwrap();
        host.execute(&Instruction::WriteParallel { data: 20 })
            .unwrap();
        assert_eq!(
            host.parallel_target,
            Some(ParallelTarget::LutEntry {
                lut: 0,
                next_entry: 2
            })
        );
    }

    #[test]
    fn exec_stop_acknowledges() {
        let mut host = Host::new(AnalogChip::new(ChipConfig::ideal()));
        assert_eq!(host.execute(&Instruction::ExecStop).unwrap(), Response::Ack);
    }

    #[test]
    fn exec_batch_runs_lanes_and_select_lane_stages_readout() {
        use crate::engine::LaneBindings;
        use std::collections::BTreeMap;

        let mut host = Host::new(AnalogChip::new(ChipConfig::ideal()));
        // Program the decay circuit but run it batched with two drives.
        let mut setup = decay_program();
        setup.pop(); // drop the ExecStart; we batch instead
        host.run_program(&setup).unwrap();
        let lanes: Vec<LaneBindings> = [0.25, 0.5]
            .iter()
            .map(|&v| LaneBindings {
                dac_values: Some(BTreeMap::from([(0, host.chip().quantize_dac(v))])),
                int_initial: None,
            })
            .collect();
        let Response::RanBatch(batch) = host.execute(&Instruction::ExecBatch { lanes }).unwrap()
        else {
            panic!("expected a batch report");
        };
        assert_eq!(batch.reports.len(), 2);
        // Stage lane 0 and read it back: the ADC sees that lane's value.
        host.execute(&Instruction::SelectLane { lane: 0 }).unwrap();
        let Response::Codes(codes) = host.execute(&Instruction::ReadSerial).unwrap() else {
            panic!("expected codes");
        };
        let value = host.chip().value_of(codes[0]);
        assert!((value - 0.25).abs() < 2.0 / 256.0, "lane 0 read {value}");
        assert_eq!(
            host.execute(&Instruction::FinishBatch).unwrap(),
            Response::Ack
        );
    }

    #[test]
    fn lane_instructions_without_batch_are_protocol_violations() {
        let mut host = Host::new(AnalogChip::new(ChipConfig::ideal()));
        assert!(matches!(
            host.execute(&Instruction::SelectLane { lane: 0 }),
            Err(AnalogError::ProtocolViolation { .. })
        ));
        assert!(matches!(
            host.execute(&Instruction::FinishBatch),
            Err(AnalogError::ProtocolViolation { .. })
        ));
    }
}
