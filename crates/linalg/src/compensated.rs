//! Compensated (two-float, double-double style) arithmetic kernels.
//!
//! Iterative refinement is limited by the precision in which the residual
//! `b − A·x` is accumulated: once the true residual drops below the rounding
//! noise of an f64 dot product, further rounds stop making progress. The
//! kernels here carry every accumulation as an unevaluated pair
//! `hi + lo` of doubles (a [`TwoFloat`]), using the error-free transforms
//! `two_sum` (Knuth) and `two_prod` (FMA-based), which doubles the effective
//! accumulation precision to ~106 bits without any wide integer or software
//! float type. This is the Ogita–Rump–Oishi `Dot2` construction.
//!
//! The kernels are deterministic: results depend only on operand order, so
//! same-seed replays are bit-identical at any thread count.

use crate::op::RowAccess;

/// An unevaluated sum of two doubles with `|lo| ≤ ulp(hi)/2`.
///
/// The represented value is `hi + lo` evaluated in exact arithmetic. `hi`
/// alone is the value correctly rounded to f64.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TwoFloat {
    /// Leading component (the f64-rounded value).
    pub hi: f64,
    /// Trailing error term.
    pub lo: f64,
}

/// Error-free sum: returns `(s, e)` with `s = fl(a + b)` and `a + b = s + e`
/// exactly (Knuth's TwoSum, branch-free, valid for any operand ordering).
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Error-free product: returns `(p, e)` with `p = fl(a·b)` and `a·b = p + e`
/// exactly, using one fused multiply-add.
#[inline]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

impl TwoFloat {
    /// The pair `(v, 0)`.
    #[inline]
    pub fn new(v: f64) -> Self {
        TwoFloat { hi: v, lo: 0.0 }
    }

    /// The represented value rounded to a single f64.
    #[inline]
    pub fn value(&self) -> f64 {
        self.hi + self.lo
    }

    /// `self + a·b` with both the product and sum errors folded into `lo`.
    #[inline]
    pub fn add_prod(self, a: f64, b: f64) -> Self {
        let (p, pe) = two_prod(a, b);
        let (s, se) = two_sum(self.hi, p);
        TwoFloat {
            hi: s,
            lo: self.lo + pe + se,
        }
    }

    /// Renormalizes so `hi` is the correctly rounded value and `|lo|` is at
    /// most half an ulp of `hi`.
    #[inline]
    pub fn renormalize(self) -> Self {
        let (s, e) = two_sum(self.hi, self.lo);
        TwoFloat { hi: s, lo: e }
    }
}

/// Compensated dot product `xᵀy` (Ogita–Rump `Dot2`): as accurate as a dot
/// product computed in twice the working precision and rounded once.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn dot2(x: &[f64], y: &[f64]) -> TwoFloat {
    assert_eq!(x.len(), y.len(), "dot2: length mismatch");
    let mut acc = TwoFloat::default();
    for (a, b) in x.iter().zip(y) {
        acc = acc.add_prod(*a, *b);
    }
    acc.renormalize()
}

/// Compensated Euclidean norm `‖x‖₂` via [`dot2`]`(x, x)`.
pub fn norm2_comp(x: &[f64]) -> f64 {
    dot2(x, x).value().sqrt()
}

/// Compensated in-place update `y ← a·x + y` on a two-float accumulator
/// vector: the product error and the carry of each element survive in `lo`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn axpy2(a: f64, x: &[f64], y: &mut [TwoFloat]) {
    assert_eq!(x.len(), y.len(), "axpy2: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = yi.add_prod(a, *xi).renormalize();
    }
}

/// Promotes an f64 vector to two-float pairs (all `lo` terms zero).
pub fn promote(x: &[f64]) -> Vec<TwoFloat> {
    x.iter().map(|v| TwoFloat::new(*v)).collect()
}

/// Rounds a two-float vector back to f64, one rounding per element.
pub fn demote(x: &[TwoFloat]) -> Vec<f64> {
    x.iter().map(|v| v.value()).collect()
}

/// Compensated residual `r = b − A·x` where `x` is held as two-float pairs:
/// each row accumulates `b_i − Σ_j a_ij·(x_j.hi + x_j.lo)` in a two-float
/// accumulator, so the result is the residual as if computed in ~106-bit
/// precision and rounded once per element.
///
/// # Panics
///
/// Panics if `x.len()` or `b.len()` differ from `a.dim()`.
pub fn residual_comp<M: RowAccess>(a: &M, x: &[TwoFloat], b: &[f64]) -> Vec<f64> {
    let n = a.dim();
    assert_eq!(x.len(), n, "residual_comp: solution length mismatch");
    assert_eq!(b.len(), n, "residual_comp: rhs length mismatch");
    let mut r = Vec::with_capacity(n);
    for (i, bi) in b.iter().enumerate() {
        let mut acc = TwoFloat::new(*bi);
        a.for_each_in_row(i, &mut |j, v| {
            acc = acc.add_prod(-v, x[j].hi).add_prod(-v, x[j].lo);
        });
        r.push(acc.value());
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn two_sum_is_error_free() {
        let (s, e) = two_sum(1.0, 1e-30);
        assert_eq!(s, 1.0);
        assert_eq!(e, 1e-30);
        let (s, e) = two_sum(0.1, 0.2);
        // s + e recovers information the single rounding lost.
        assert_eq!(s, 0.1 + 0.2);
        assert!(e != 0.0);
    }

    #[test]
    fn two_prod_recovers_rounding_error() {
        let a = 1.0 + f64::EPSILON;
        let (p, e) = two_prod(a, a);
        // (1+ε)² = 1 + 2ε + ε²; the ε² term is the product error.
        assert_eq!(p, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(e, f64::EPSILON * f64::EPSILON);
    }

    #[test]
    fn dot2_survives_catastrophic_cancellation() {
        // Naive summation of [big, 1, -big] loses the 1; dot2 keeps it.
        let x = [1e16, 1.0, -1e16];
        let y = [1.0, 1.0, 1.0];
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert_eq!(naive, 0.0);
        assert_eq!(dot2(&x, &y).value(), 1.0);
    }

    #[test]
    fn axpy2_accumulates_below_f64_ulp() {
        // Adding 2^-60 a thousand times to 1.0 is invisible in f64 but must
        // survive in the two-float accumulator.
        let tiny = (2.0_f64).powi(-60);
        let x = [1.0];
        let mut y = vec![TwoFloat::new(1.0)];
        for _ in 0..1000 {
            axpy2(tiny, &x, &mut y);
        }
        let plain = 1.0 + 1000.0 * tiny; // rounds to 1.0 in f64 per-step form
        assert_eq!(plain, 1.0 + 1000.0 * tiny);
        assert!((y[0].hi + y[0].lo) > 1.0);
        assert!(((y[0].hi - 1.0) + y[0].lo - 1000.0 * tiny).abs() < 1e-30);
    }

    #[test]
    fn residual_comp_matches_plain_on_exact_data() {
        let a = CsrMatrix::tridiagonal(8, -1.0, 2.0, -1.0).unwrap();
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let b = vec![1.0; 8];
        let plain = crate::op::LinearOperator::residual(&a, &x, &b);
        let comp = residual_comp(&a, &promote(&x), &b);
        // Integer-valued data: both paths are exact and identical.
        assert_eq!(plain, comp);
    }

    #[test]
    fn promote_demote_roundtrip() {
        let x = [1.5, -2.25, 0.0];
        assert_eq!(demote(&promote(&x)), x.to_vec());
    }
}
