//! Host-driven calibration (the ISA's `init` instruction).
//!
//! Paper §III-B: "We use small DACs in each block to compensate for the
//! first two sources of error [offset bias and gain error] by shifting
//! signals and adjusting gains. … the digital processor uses binary search
//! to find the settings that give the most ideal behavior." The comparator
//! used for the search is the same analog comparator that drives overflow
//! detection, so the search resolves to one trim-DAC step rather than one
//! ADC code.
//!
//! Calibration settings "vary across different copies of the analog
//! accelerator chip, but remain constant during accelerator operation and
//! between solving different problems" — they live in the chip's
//! [`ProcessVariation`](crate::nonideal::ProcessVariation) trim fields.

use std::collections::BTreeMap;

use crate::chip::AnalogChip;
use crate::error::AnalogError;
use crate::nonideal::{trim_code_max, trim_code_min};
use crate::units::UnitId;

/// Per-unit calibration outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitCalibration {
    /// Offset before calibration (fraction of full scale).
    pub offset_before: f64,
    /// Residual offset after trimming.
    pub offset_after: f64,
    /// Relative gain error before calibration.
    pub gain_error_before: f64,
    /// Residual relative gain error after trimming.
    pub gain_error_after: f64,
    /// Chosen offset trim code.
    pub offset_trim: i32,
    /// Chosen gain trim code.
    pub gain_trim: i32,
}

/// The result of calibrating every unit on a chip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationReport {
    /// Per-unit outcomes.
    pub units: BTreeMap<UnitId, UnitCalibration>,
}

impl CalibrationReport {
    /// The worst residual offset magnitude across all units.
    pub fn worst_offset(&self) -> f64 {
        self.units
            .values()
            .map(|u| u.offset_after.abs())
            .fold(0.0, f64::max)
    }
}

/// Calibrates every analog unit on the chip by binary search on its trim
/// DACs, exactly once per unit (the `init` instruction).
///
/// # Errors
///
/// Returns [`AnalogError::CalibrationFailed`] if a unit's residual offset
/// exceeds two trim steps after the search (an imperfection beyond the trim
/// range — a "bad die").
pub fn calibrate(chip: &mut AnalogChip) -> Result<CalibrationReport, AnalogError> {
    let units: Vec<UnitId> = chip.config().inventory.iter().collect();
    let trim_step =
        crate::nonideal::OFFSET_TRIM_RANGE / f64::from(1u32 << (crate::nonideal::TRIM_BITS - 1));
    let gain_step =
        crate::nonideal::GAIN_TRIM_RANGE / f64::from(1u32 << (crate::nonideal::TRIM_BITS - 1));

    let mut report = CalibrationReport::default();
    for unit in units {
        let before = *chip.variation().of(unit);

        // --- Offset: drive input 0, binary search the code whose comparator
        // reading flips sign. The probe goes through the chip so any active
        // runtime fault (e.g. offset drift) is measured — and trimmed out —
        // exactly like a static imperfection. apply(0) is increasing in the
        // trim code.
        let offset_code = binary_search_code(|code| {
            let mut probe = before;
            probe.offset_trim = code;
            chip.probe_value(unit, &probe, 0.0) >= 0.0
        });

        // --- Gain: drive a half-scale reference, search for unity transfer.
        // Offset is compensated first so the comparison isolates gain.
        let half = 0.5 * chip.config().full_scale;
        let gain_code = binary_search_code(|code| {
            let mut probe = before;
            probe.offset_trim = offset_code;
            probe.gain_trim = code;
            chip.probe_value(unit, &probe, half) >= half
        });

        let entry = chip.variation_mut().of_mut(unit);
        entry.offset_trim = offset_code;
        entry.gain_trim = gain_code;
        let after = *entry;

        // Residuals are measured the same way the trims were chosen: through
        // the chip, so post-calibration accuracy reflects the live hardware.
        let offset_after = chip.probe_value(unit, &after, 0.0);
        let gain_after = (chip.probe_value(unit, &after, half) - offset_after) / half - 1.0;
        let cal = UnitCalibration {
            offset_before: before.offset,
            offset_after,
            gain_error_before: before.gain_error,
            gain_error_after: gain_after,
            offset_trim: offset_code,
            gain_trim: gain_code,
        };
        if cal.offset_after.abs() > 2.0 * trim_step || cal.gain_error_after.abs() > 2.0 * gain_step
        {
            return Err(AnalogError::CalibrationFailed {
                unit,
                residual: cal.offset_after.abs().max(cal.gain_error_after.abs()),
            });
        }
        report.units.insert(unit, cal);
    }
    chip.set_calibrated(true);
    Ok(report)
}

/// Classic comparator-driven binary search: `reads_high(code)` must be
/// monotone non-decreasing in `code`; returns the code at the threshold.
fn binary_search_code<F: Fn(i32) -> bool>(reads_high: F) -> i32 {
    let mut lo = trim_code_min();
    let mut hi = trim_code_max();
    // Invariant target: largest code for which reads_high is false, +/- 1.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reads_high(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // lo is the first code that reads high; pick the closer neighbour by
    // probing one below (the comparator tells us only the sign).
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChipConfig, NonIdealityConfig};
    use crate::engine::EngineOptions;
    use crate::netlist::{InputPort, OutputPort};

    #[test]
    fn calibration_reduces_offsets_below_a_trim_step() {
        let mut chip = AnalogChip::new(ChipConfig::prototype());
        let report = calibrate(&mut chip).unwrap();
        let trim_step = crate::nonideal::OFFSET_TRIM_RANGE / 512.0;
        assert!(chip.export_state().calibrated);
        assert!(
            report.worst_offset() <= 2.0 * trim_step,
            "worst residual offset {} > {}",
            report.worst_offset(),
            2.0 * trim_step
        );
        // Offsets genuinely improved.
        for cal in report.units.values() {
            assert!(cal.offset_after.abs() <= cal.offset_before.abs() + trim_step);
        }
    }

    #[test]
    fn calibration_reduces_gain_errors() {
        let mut chip = AnalogChip::new(ChipConfig::prototype());
        let report = calibrate(&mut chip).unwrap();
        let gain_step = crate::nonideal::GAIN_TRIM_RANGE / 512.0;
        assert!(report
            .units
            .values()
            .all(|u| u.gain_error_after.abs() <= 3.0 * gain_step));
    }

    #[test]
    fn different_chip_copies_get_different_codes() {
        let cfg_a = ChipConfig::prototype();
        let cfg_b =
            ChipConfig::prototype().with_nonideal(NonIdealityConfig::default().with_seed(1234));
        let mut chip_a = AnalogChip::new(cfg_a);
        let mut chip_b = AnalogChip::new(cfg_b);
        let rep_a = calibrate(&mut chip_a).unwrap();
        let rep_b = calibrate(&mut chip_b).unwrap();
        let unit = UnitId::Integrator(0);
        assert_ne!(
            rep_a.units[&unit].offset_trim,
            rep_b.units[&unit].offset_trim
        );
    }

    #[test]
    fn ideal_chip_calibrates_to_zero_trims() {
        let mut chip = AnalogChip::new(ChipConfig::ideal());
        let report = calibrate(&mut chip).unwrap();
        for cal in report.units.values() {
            // Comparator search lands within one code of zero.
            assert!(cal.offset_trim.abs() <= 1);
            assert!(cal.gain_trim.abs() <= 1);
        }
    }

    #[test]
    fn out_of_range_imperfection_fails_calibration() {
        let big_offsets = NonIdealityConfig {
            offset_std: 0.2, // far beyond the ±0.08 trim range
            gain_error_std: 0.0,
            readout_noise_std: 0.0,
            seed: 5,
        };
        let mut chip = AnalogChip::new(ChipConfig::prototype().with_nonideal(big_offsets));
        assert!(matches!(
            calibrate(&mut chip),
            Err(AnalogError::CalibrationFailed { .. })
        ));
    }

    #[test]
    fn calibrated_circuit_solves_more_accurately() {
        // The Figure 1 decay circuit on a noisy chip, before and after init.
        let build = |chip: &mut AnalogChip| {
            let int0 = UnitId::Integrator(0);
            let mul0 = UnitId::Multiplier(0);
            let dac0 = UnitId::Dac(0);
            chip.set_conn(OutputPort::of(int0), InputPort::of(mul0))
                .unwrap();
            chip.set_conn(OutputPort::of(mul0), InputPort::of(int0))
                .unwrap();
            chip.set_conn(OutputPort::of(dac0), InputPort::of(int0))
                .unwrap();
            chip.set_mul_gain(0, -1.0).unwrap();
            chip.set_dac_constant(0, 0.5).unwrap();
            chip.set_int_initial(0, 0.0).unwrap();
            chip.cfg_commit().unwrap();
        };
        let solve = |chip: &mut AnalogChip| {
            let report = chip.exec(&EngineOptions::default()).unwrap();
            (report.integrator_values[&0] - 0.5).abs()
        };

        let mut raw = AnalogChip::new(ChipConfig::prototype());
        build(&mut raw);
        let err_raw = solve(&mut raw);

        let mut cal = AnalogChip::new(ChipConfig::prototype());
        calibrate(&mut cal).unwrap();
        build(&mut cal);
        let err_cal = solve(&mut cal);

        assert!(
            err_cal < err_raw,
            "calibration should improve accuracy: {err_cal} !< {err_raw}"
        );
        assert!(err_cal < 5e-3, "calibrated error {err_cal} too large");
    }

    #[test]
    fn binary_search_finds_threshold() {
        // Threshold at code 100: reads_high for code >= 100.
        let code = binary_search_code(|c| c >= 100);
        assert_eq!(code, 100);
        let code = binary_search_code(|c| c >= trim_code_min());
        assert_eq!(code, trim_code_min());
    }
}
