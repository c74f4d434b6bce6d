//! Per-instance imperfections: offset bias, gain error, and trim DACs.
//!
//! The paper (§III-B): numerical errors in analog computing come from
//! (1) offset bias, (2) gain error, and (3) nonlinearity. The first two are
//! compensated by small trim DACs in each block whose codes are found during
//! calibration; nonlinearity (clipping) is handled by overflow exceptions.

use aa_linalg::rng::Rng64;

use crate::config::NonIdealityConfig;
use crate::units::{ResourceInventory, UnitId};

/// Resolution of the per-block calibration trim DACs, in bits.
pub const TRIM_BITS: u32 = 10;

/// Range covered by the offset trim DAC, as a fraction of full scale.
/// Must exceed any plausible process offset (a few sigma).
pub const OFFSET_TRIM_RANGE: f64 = 0.08;

/// Range covered by the gain trim DAC (relative gain adjustment).
pub const GAIN_TRIM_RANGE: f64 = 0.16;

/// The drawn-at-fabrication imperfections of one analog block, together
/// with the current trim-DAC settings that compensate them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockImperfection {
    /// Constant additive shift at the block output (fraction of full scale).
    pub offset: f64,
    /// Relative gain error: the block multiplies by `1 + gain_error`.
    pub gain_error: f64,
    /// Offset trim DAC code, signed around zero: −2^(bits−1) ..= 2^(bits−1)−1.
    pub offset_trim: i32,
    /// Gain trim DAC code, signed around zero.
    pub gain_trim: i32,
}

impl BlockImperfection {
    /// An ideal block: zero errors, zero trims.
    pub fn ideal() -> Self {
        BlockImperfection {
            offset: 0.0,
            gain_error: 0.0,
            offset_trim: 0,
            gain_trim: 0,
        }
    }

    /// The analog value added by the current offset-trim code.
    pub fn offset_trim_value(&self) -> f64 {
        trim_value(self.offset_trim, OFFSET_TRIM_RANGE)
    }

    /// The relative gain adjustment of the current gain-trim code.
    pub fn gain_trim_value(&self) -> f64 {
        trim_value(self.gain_trim, GAIN_TRIM_RANGE)
    }

    /// Applies this block's transfer imperfection to an ideal output value:
    /// `y = x·(1 + gain_error)·(1 + gain_trim) + offset + offset_trim`.
    pub fn apply(&self, ideal: f64) -> f64 {
        ideal * (1.0 + self.gain_error) * (1.0 + self.gain_trim_value())
            + self.offset
            + self.offset_trim_value()
    }
}

/// Converts a signed trim code into its analog value over `±range/…`.
///
/// A full-range code of `±2^(bits−1)` spans `±range`, so one step is
/// `range / 2^(bits−1)`.
fn trim_value(code: i32, range: f64) -> f64 {
    let half_codes = f64::from(2u32).powi(TRIM_BITS as i32 - 1);
    range * f64::from(code) / half_codes
}

/// Largest representable trim code (inclusive).
pub fn trim_code_max() -> i32 {
    (1 << (TRIM_BITS - 1)) - 1
}

/// Smallest representable trim code (inclusive).
pub fn trim_code_min() -> i32 {
    -(1 << (TRIM_BITS - 1))
}

/// The full set of imperfections for one chip instance, indexed by unit.
#[derive(Debug, Clone)]
pub struct ProcessVariation {
    units: std::collections::BTreeMap<UnitId, BlockImperfection>,
    readout_noise_std: f64,
}

impl ProcessVariation {
    /// Draws per-unit imperfections for every unit in `inventory` from the
    /// magnitudes in `config` (seeded, so a given seed is one specific
    /// "copy" of the chip).
    pub fn draw(inventory: &ResourceInventory, config: &NonIdealityConfig) -> Self {
        let mut rng = Rng64::seed_from_u64(config.seed);
        let mut units = std::collections::BTreeMap::new();
        for unit in inventory.iter() {
            let imperfection = if config.is_ideal() {
                BlockImperfection::ideal()
            } else {
                BlockImperfection {
                    offset: rng.gaussian() * config.offset_std,
                    gain_error: rng.gaussian() * config.gain_error_std,
                    offset_trim: 0,
                    gain_trim: 0,
                }
            };
            units.insert(unit, imperfection);
        }
        ProcessVariation {
            units,
            readout_noise_std: config.readout_noise_std,
        }
    }

    /// The imperfection record of `unit`.
    ///
    /// # Panics
    ///
    /// Panics if `unit` was not part of the inventory this variation was
    /// drawn for.
    pub fn of(&self, unit: UnitId) -> &BlockImperfection {
        self.units
            .get(&unit)
            .unwrap_or_else(|| panic!("no imperfection record for {unit}"))
    }

    /// Mutable access for calibration to set trim codes.
    pub fn of_mut(&mut self, unit: UnitId) -> &mut BlockImperfection {
        self.units
            .get_mut(&unit)
            .unwrap_or_else(|| panic!("no imperfection record for {unit}"))
    }

    /// Std-dev of per-sample ADC readout noise.
    pub fn readout_noise_std(&self) -> f64 {
        self.readout_noise_std
    }

    /// Iterates over `(unit, imperfection)` records.
    pub fn iter(&self) -> impl Iterator<Item = (UnitId, &BlockImperfection)> + '_ {
        self.units.iter().map(|(u, b)| (*u, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto_inventory() -> ResourceInventory {
        ResourceInventory::from_macroblocks(4)
    }

    #[test]
    fn ideal_chip_has_zero_imperfections() {
        let v = ProcessVariation::draw(&proto_inventory(), &NonIdealityConfig::none());
        for (_, b) in v.iter() {
            assert_eq!(*b, BlockImperfection::ideal());
        }
    }

    #[test]
    fn same_seed_same_chip_different_seed_different_chip() {
        let cfg = NonIdealityConfig::default();
        let a = ProcessVariation::draw(&proto_inventory(), &cfg);
        let b = ProcessVariation::draw(&proto_inventory(), &cfg);
        let c = ProcessVariation::draw(&proto_inventory(), &cfg.with_seed(99));
        let unit = UnitId::Integrator(0);
        assert_eq!(a.of(unit), b.of(unit));
        assert_ne!(a.of(unit).offset, c.of(unit).offset);
    }

    #[test]
    fn offsets_have_plausible_magnitude() {
        let cfg = NonIdealityConfig {
            offset_std: 0.01,
            gain_error_std: 0.02,
            readout_noise_std: 0.0,
            seed: 7,
        };
        let v = ProcessVariation::draw(&proto_inventory(), &cfg);
        let max_offset = v.iter().map(|(_, b)| b.offset.abs()).fold(0.0, f64::max);
        assert!(max_offset > 0.0);
        assert!(max_offset < 0.06, "6-sigma outlier unlikely: {max_offset}");
    }

    #[test]
    fn trim_compensates_offset() {
        let mut b = BlockImperfection {
            offset: 0.013,
            gain_error: 0.0,
            offset_trim: 0,
            gain_trim: 0,
        };
        // Choose the code closest to −0.013.
        let step = OFFSET_TRIM_RANGE / f64::from(1 << (TRIM_BITS - 1));
        b.offset_trim = (-b.offset / step).round() as i32;
        assert!(b.apply(0.0).abs() < step);
    }

    #[test]
    fn trim_compensates_gain() {
        let mut b = BlockImperfection {
            offset: 0.0,
            gain_error: 0.04,
            offset_trim: 0,
            gain_trim: 0,
        };
        let step = GAIN_TRIM_RANGE / f64::from(1 << (TRIM_BITS - 1));
        // (1+e)(1+t) = 1 → t = −e/(1+e).
        let target = -b.gain_error / (1.0 + b.gain_error);
        b.gain_trim = (target / step).round() as i32;
        // apply(1.0) should now be ≈ 1.0.
        assert!((b.apply(1.0) - 1.0).abs() < 2.0 * step);
    }

    #[test]
    fn trim_code_bounds() {
        assert_eq!(trim_code_max(), 511);
        assert_eq!(trim_code_min(), -512);
        assert!(trim_value(trim_code_max(), OFFSET_TRIM_RANGE) < OFFSET_TRIM_RANGE);
        assert_eq!(
            trim_value(trim_code_min(), OFFSET_TRIM_RANGE),
            -OFFSET_TRIM_RANGE
        );
    }
}
