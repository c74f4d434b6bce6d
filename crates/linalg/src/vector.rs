//! Free functions on `&[f64]` vectors: BLAS-1 style kernels and norms.
//!
//! All functions panic on dimension mismatch — they are inner-loop kernels
//! used pervasively by the solvers, where a mismatch is a programming error
//! rather than a recoverable condition.

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
///
/// ```
/// assert_eq!(aa_linalg::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
///
/// ```
/// assert_eq!(aa_linalg::vector::norm2(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Max norm `‖x‖∞`.
///
/// ```
/// assert_eq!(aa_linalg::vector::norm_inf(&[1.0, -7.0, 3.0]), 7.0);
/// ```
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// `y ← a·x + y`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `y ← x + b·y` (scale-and-add used by CG's direction update).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + b * *yi;
    }
}

/// `x ← a·x`.
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Element-wise difference `x − y` as a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [1.0, -2.0, 2.0];
        assert_eq!(dot(&x, &x), 9.0);
        assert_eq!(norm2(&x), 3.0);
        assert_eq!(norm_inf(&x), 2.0);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn xpby_matches_manual() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn sub_is_element_wise() {
        let x = [3.0, 5.0];
        let y = [1.0, 9.0];
        assert_eq!(sub(&x, &y), vec![2.0, -4.0]);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
