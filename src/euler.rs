//! The paper's Algorithm 1, verbatim.

/// Euler's method for the scalar ODE `du/dt = a·u + b` (paper Algorithm 1).
///
/// Returns the evolution of `u` over `steps` equal steps covering `time`
/// seconds, including the initial value — `steps + 1` samples in total.
///
/// This is the didactic routine the paper uses to explain that "analog
/// computing does the same but in continuous time, using an infinitesimally
/// small time period" (§II-A). It is deliberately kept in the paper's exact
/// formulation; the chip model integrates its circuits with its own RK4
/// engine ([`analog::engine`](crate::analog::engine)).
///
/// # Panics
///
/// Panics if `steps == 0` or `time` is not finite and positive.
///
/// ```
/// // du/dt = -u + 0, u(0) = 1 → u(1) ≈ e⁻¹.
/// let history = analog_accel::algorithm1(1.0, 100_000, -1.0, 0.0, 1.0);
/// assert_eq!(history.len(), 100_001);
/// let end = history.last().copied().unwrap();
/// assert!((end - (-1.0f64).exp()).abs() < 1e-4);
/// ```
pub fn algorithm1(time: f64, steps: usize, a: f64, b: f64, u_init: f64) -> Vec<f64> {
    assert!(steps > 0, "steps must be positive");
    assert!(
        time.is_finite() && time > 0.0,
        "time must be finite and positive"
    );
    let step_size = time / steps as f64;
    let mut u = u_init;
    let mut history = Vec::with_capacity(steps + 1);
    history.push(u);
    for _step in 0..steps {
        let delta = a * u + b;
        u += step_size * delta;
        history.push(u);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_closed_form_decay() {
        // u(t) = e^{-t} for a = -1, b = 0.
        let h = algorithm1(2.0, 200_000, -1.0, 0.0, 1.0);
        assert!((h.last().unwrap() - (-2.0f64).exp()).abs() < 1e-4);
    }

    #[test]
    fn constant_bias_reaches_equilibrium() {
        // du/dt = -u + 5 tends to u = 5: the same "steady state solves the
        // algebraic equation" idea the linear solver relies on.
        let h = algorithm1(20.0, 20_000, -1.0, 5.0, 0.0);
        assert!((h.last().unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn history_includes_initial_value() {
        let h = algorithm1(1.0, 4, 0.0, 1.0, 7.0);
        assert_eq!(h.len(), 5);
        assert_eq!(h[0], 7.0);
        // du/dt = 1: u grows by time/steps per step.
        assert!((h[4] - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "steps must be positive")]
    fn zero_steps_panics() {
        algorithm1(1.0, 0, 1.0, 0.0, 0.0);
    }
}
