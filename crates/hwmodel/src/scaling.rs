//! Bandwidth scaling of power and area (paper §V-B).
//!
//! The paper derives that charging current — hence power — in the analog
//! signal path is linear in bandwidth (node capacitance held fixed), and
//! that transistor width — hence area — is likewise linear in bandwidth.
//! Only the *core* fraction of each block participates: calibration logic,
//! test circuits, and registers do not touch analog variables and stay
//! fixed. For a bandwidth multiplied by `α`:
//!
//! ```text
//! power(α) = base_power · (core_fraction·α + (1 − core_fraction))
//! area(α)  = base_area  · (core_fraction·α + (1 − core_fraction))
//! ```

use crate::components::{spec, ComponentSpec, PER_VARIABLE_COUNTS};

/// The prototype's bandwidth, the `α = 1` anchor.
pub(crate) const BASE_BANDWIDTH_HZ: f64 = 20e3;

/// The bandwidth factor `α` of a design relative to the 20 kHz prototype.
///
/// # Panics
///
/// Panics if `bandwidth_hz` is not finite and positive.
pub fn alpha(bandwidth_hz: f64) -> f64 {
    assert!(
        bandwidth_hz.is_finite() && bandwidth_hz > 0.0,
        "bandwidth must be finite and positive"
    );
    bandwidth_hz / BASE_BANDWIDTH_HZ
}

/// Power of one component at bandwidth factor `alpha`, in watts.
pub fn component_power_w(spec: &ComponentSpec, alpha: f64) -> f64 {
    spec.power_w * (spec.core_power_fraction * alpha + (1.0 - spec.core_power_fraction))
}

/// Area of one component at bandwidth factor `alpha`, in mm².
pub fn component_area_mm2(spec: &ComponentSpec, alpha: f64) -> f64 {
    spec.area_mm2 * (spec.core_area_fraction * alpha + (1.0 - spec.core_area_fraction))
}

/// Power of one macroblock-equivalent (one held variable: integrator, two
/// multipliers, two fanouts, half an ADC and DAC) at factor `alpha`, watts.
pub fn per_variable_power_w(alpha: f64) -> f64 {
    PER_VARIABLE_COUNTS
        .iter()
        .map(|(kind, count)| count * component_power_w(&spec(*kind), alpha))
        .sum()
}

/// Area of one macroblock-equivalent at factor `alpha`, in mm².
pub fn per_variable_area_mm2(alpha: f64) -> f64 {
    PER_VARIABLE_COUNTS
        .iter()
        .map(|(kind, count)| count * component_area_mm2(&spec(*kind), alpha))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::ComponentKind;

    /// Fraction of a design's total power spent in the core analog signal
    /// path.
    ///
    /// As bandwidth grows this tends to 1 — the paper's explanation for why
    /// "efficiency gains cease after bandwidth reaches 80 KHz": once nearly
    /// all power is in the analog path, bandwidth raises power and lowers
    /// time by the same factor, leaving energy unchanged.
    fn core_power_share(alpha: f64) -> f64 {
        let core: f64 = PER_VARIABLE_COUNTS
            .iter()
            .map(|(kind, count)| {
                count * spec(*kind).power_w * spec(*kind).core_power_fraction * alpha
            })
            .sum();
        core / per_variable_power_w(alpha)
    }

    #[test]
    fn alpha_of_paper_designs() {
        assert_eq!(alpha(20e3), 1.0);
        assert_eq!(alpha(80e3), 4.0);
        assert_eq!(alpha(320e3), 16.0);
        assert_eq!(alpha(1.3e6), 65.0);
    }

    #[test]
    fn unity_alpha_reproduces_table2() {
        for kind in ComponentKind::ALL {
            let s = spec(kind);
            assert!((component_power_w(&s, 1.0) - s.power_w).abs() < 1e-18);
            assert!((component_area_mm2(&s, 1.0) - s.area_mm2).abs() < 1e-15);
        }
    }

    #[test]
    fn non_core_cost_does_not_scale() {
        // At α → ∞ the fixed non-core share becomes negligible relatively,
        // but in absolute terms power(α) − power(1) should equal
        // core·(α − 1) exactly.
        let s = spec(ComponentKind::Adc); // 50% core
        let grown = component_power_w(&s, 3.0) - component_power_w(&s, 1.0);
        assert!((grown - s.power_w * 0.5 * 2.0).abs() < 1e-18);
    }

    #[test]
    fn paper_checkpoint_650_integrators_150mm2() {
        // §V-A: 650 integrators ≈ 150 mm² at the prototype bandwidth.
        let area = 650.0 * per_variable_area_mm2(1.0);
        assert!(area > 120.0 && area < 160.0, "{area}");
    }

    #[test]
    fn paper_checkpoint_die_power() {
        // §VI-A: a full 600 mm² die ≈ 0.7 W at 20 kHz, ≈ 1.0 W at 320 kHz.
        let n20 = 600.0 / per_variable_area_mm2(1.0);
        let p20 = n20 * per_variable_power_w(1.0);
        assert!(p20 > 0.55 && p20 < 0.8, "20 kHz die power = {p20}");
        let n320 = 600.0 / per_variable_area_mm2(16.0);
        let p320 = n320 * per_variable_power_w(16.0);
        assert!(p320 > 0.85 && p320 < 1.15, "320 kHz die power = {p320}");
    }

    #[test]
    fn core_share_grows_toward_one() {
        let s1 = core_power_share(1.0);
        let s4 = core_power_share(4.0);
        let s64 = core_power_share(64.0);
        assert!(s1 < s4 && s4 < s64);
        assert!(s64 > 0.95);
        assert!(s1 > 0.5 && s1 < 0.9);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn bad_bandwidth_panics() {
        let _ = alpha(-1.0);
    }
}
