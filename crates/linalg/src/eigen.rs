//! Eigenvalue estimation for convergence-time modelling.
//!
//! The analog gradient flow `du/dt = b − A·u` converges like
//! `e^{−λ_min·t}` (paper §VI inset: `u(t) = A⁻¹b + c·e^{−At}`), so the
//! solution time of the analog accelerator is governed by the smallest
//! eigenvalue of `A` and the circuit bandwidth. This module provides:
//!
//! * [`power_iteration`] — dominant eigenpair `(λ_max, v_max)`.
//! * [`smallest_eigenvalue`] — `(λ_min, v_min)` by shifted power iteration.
//! * [`smallest_eigenpairs`] — the `k` slowest eigenpairs by the block form
//!   of the same iteration.
//! * [`gershgorin_bounds`] — cheap analytic enclosure of the spectrum.

use crate::op::{LinearOperator, RowAccess};
use crate::rng::Rng64;
use crate::{vector, LinalgError};

/// Result of an eigenvalue iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenEstimate {
    /// The eigenvalue estimate.
    pub value: f64,
    /// The iteration's last vector, unit 2-norm: the eigenvector estimate
    /// belonging to `value`.
    pub vector: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the estimate met the requested tolerance.
    pub converged: bool,
}

/// Estimates the dominant eigenpair of a symmetric operator by power
/// iteration with Rayleigh-quotient refinement.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `max_iterations == 0`.
///
/// ```
/// use aa_linalg::{CsrMatrix, eigen::power_iteration};
///
/// # fn main() -> Result<(), aa_linalg::LinalgError> {
/// let a = CsrMatrix::tridiagonal(16, -1.0, 2.0, -1.0)?;
/// let est = power_iteration(&a, 2000, 1e-10)?;
/// assert!(est.value < 4.0 && est.value > 3.8); // λ_max → 4 as n → ∞
/// # Ok(())
/// # }
/// ```
pub fn power_iteration<M: LinearOperator>(
    a: &M,
    max_iterations: usize,
    tolerance: f64,
) -> Result<EigenEstimate, LinalgError> {
    if max_iterations == 0 {
        return Err(LinalgError::invalid("max_iterations must be positive"));
    }
    let mut v = start_vector(a.dim());
    let n = v.len();
    let norm = vector::norm2(&v);
    vector::scale(1.0 / norm, &mut v);

    let mut av = vec![0.0; n];
    let mut lambda = 0.0;
    for k in 1..=max_iterations {
        a.apply(&v, &mut av);
        let new_lambda = vector::dot(&v, &av);
        let norm = vector::norm2(&av);
        if norm == 0.0 {
            // v is in the null space; the dominant eigenvalue along it is 0.
            return Ok(EigenEstimate {
                value: 0.0,
                vector: v,
                iterations: k,
                converged: true,
            });
        }
        for (vi, avi) in v.iter_mut().zip(&av) {
            *vi = avi / norm;
        }
        if (new_lambda - lambda).abs() <= tolerance * new_lambda.abs().max(1.0) {
            return Ok(EigenEstimate {
                value: new_lambda,
                vector: v,
                iterations: k,
                converged: true,
            });
        }
        lambda = new_lambda;
    }
    Ok(EigenEstimate {
        value: lambda,
        vector: v,
        iterations: max_iterations,
        converged: false,
    })
}

/// Estimates the smallest eigenpair of a symmetric positive-definite
/// operator by power iteration on the shifted operator `σI − A`, where
/// `σ ≥ λ_max` comes from a Gershgorin bound. `σI − A` has the eigenvectors
/// of `A`, so the iteration's vector is the estimate of `v_min`.
///
/// # Errors
///
/// Propagates [`power_iteration`] errors.
///
/// ```
/// use aa_linalg::{CsrMatrix, eigen::smallest_eigenvalue};
///
/// # fn main() -> Result<(), aa_linalg::LinalgError> {
/// let a = CsrMatrix::tridiagonal(8, -1.0, 2.0, -1.0)?;
/// let est = smallest_eigenvalue(&a, 20_000, 1e-12)?;
/// // λ_min = 4·sin²(π/18) ≈ 0.120615
/// assert!((est.value - 0.120615).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn smallest_eigenvalue<M: RowAccess>(
    a: &M,
    max_iterations: usize,
    tolerance: f64,
) -> Result<EigenEstimate, LinalgError> {
    let (_, upper) = gershgorin_bounds(a);
    let shifted = Shifted { a, sigma: upper };
    let est = power_iteration(&shifted, max_iterations, tolerance)?;
    Ok(EigenEstimate {
        value: upper - est.value,
        ..est
    })
}

/// Estimates the `k` smallest eigenpairs of a symmetric positive-definite
/// operator, in the order the block converges to (smallest first), by the
/// block form of [`smallest_eigenvalue`]'s iteration (orthogonal
/// iteration): each step
/// applies `σI − A` to `k` vectors and re-orthonormalizes them by modified
/// Gram–Schmidt, `O(k·nnz + k²·n)` work, and no dense factorization of `A`
/// is formed. The first vector starts where [`power_iteration`]'s does, the
/// others from a fixed seed. The span converges at the rate
/// `(σ − λ_{k+1})/(σ − λ_k)`; vector `j` alone at the slower of its two
/// neighbours' rates, so a pair of (nearly) equal eigenvalues shares its
/// plane. Every estimate stops together, once each value moved by at most
/// `tolerance` (relative to the shifted value) in one step.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `max_iterations == 0` or
/// `k` is not in `1..=n`, and [`LinalgError::SingularMatrix`] (at the
/// vector's index) if `σI − A` maps the block onto fewer than `k`
/// independent vectors.
///
/// ```
/// use aa_linalg::{CsrMatrix, eigen::smallest_eigenpairs};
///
/// # fn main() -> Result<(), aa_linalg::LinalgError> {
/// let a = CsrMatrix::tridiagonal(8, -1.0, 2.0, -1.0)?;
/// let pairs = smallest_eigenpairs(&a, 3, 20_000, 1e-12)?;
/// // λ_j = 4·sin²(j·π/18)
/// for (j, pair) in pairs.iter().enumerate() {
///     let exact = 4.0 * (((j + 1) as f64) * std::f64::consts::PI / 18.0).sin().powi(2);
///     assert!((pair.value - exact).abs() < 1e-6);
/// }
/// # Ok(())
/// # }
/// ```
pub fn smallest_eigenpairs<M: RowAccess>(
    a: &M,
    k: usize,
    max_iterations: usize,
    tolerance: f64,
) -> Result<Vec<EigenEstimate>, LinalgError> {
    let n = a.dim();
    if max_iterations == 0 {
        return Err(LinalgError::invalid("max_iterations must be positive"));
    }
    if k == 0 || k > n {
        return Err(LinalgError::invalid(format!(
            "block of {k} vectors for a {n}-row operator"
        )));
    }
    let (_, upper) = gershgorin_bounds(a);
    let shifted = Shifted { a, sigma: upper };
    let mut rng = Rng64::seed_from_u64(BLOCK_SEED);
    let mut block: Vec<Vec<f64>> = (0..k)
        .map(|j| match j {
            0 => start_vector(n),
            _ => (0..n).map(|_| rng.range(-1.0, 1.0)).collect(),
        })
        .collect();
    orthonormalize(&mut block)?;
    let mut applied = vec![vec![0.0; n]; k];
    let mut values = vec![0.0; k];
    let mut iterations = max_iterations;
    let mut converged = false;
    for step in 1..=max_iterations {
        converged = true;
        for ((v, av), value) in block.iter().zip(&mut applied).zip(&mut values) {
            shifted.apply(v, av);
            let new = vector::dot(v, av);
            converged &= (new - *value).abs() <= tolerance * new.abs().max(1.0);
            *value = new;
        }
        std::mem::swap(&mut block, &mut applied);
        orthonormalize(&mut block)?;
        if converged {
            iterations = step;
            break;
        }
    }
    Ok(block
        .into_iter()
        .zip(values)
        .map(|(vector, value)| EigenEstimate {
            value: upper - value,
            vector,
            iterations,
            converged,
        })
        .collect())
}

/// The seed of [`smallest_eigenpairs`]' start vectors after the first.
const BLOCK_SEED: u64 = 0x5EED_B10C;

/// The power iterations' deterministic, non-degenerate start vector (no
/// RNG dependency), before normalization.
fn start_vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((i * 2654435761) % 1000) as f64 / 1000.0)
        .collect()
}

/// Modified Gram–Schmidt: makes `block` orthonormal in order.
fn orthonormalize(block: &mut [Vec<f64>]) -> Result<(), LinalgError> {
    for j in 0..block.len() {
        let (done, rest) = block.split_at_mut(j);
        let v = &mut rest[0];
        for q in done.iter() {
            vector::axpy(-vector::dot(q, v), q, v);
        }
        let norm = vector::norm2(v);
        if !(norm > 0.0 && norm.is_finite()) {
            return Err(LinalgError::SingularMatrix { pivot: j });
        }
        vector::scale(1.0 / norm, v);
    }
    Ok(())
}

/// The shifted operator `σI − A` of [`smallest_eigenvalue`] and
/// [`smallest_eigenpairs`].
struct Shifted<'a, M> {
    a: &'a M,
    sigma: f64,
}

impl<M: LinearOperator> LinearOperator for Shifted<'_, M> {
    fn dim(&self) -> usize {
        self.a.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = self.sigma * xi - *yi;
        }
    }
}

/// Gershgorin disc bounds `(lower, upper)` on the spectrum of `A`:
/// every eigenvalue lies in `[min_i(a_ii − R_i), max_i(a_ii + R_i)]` where
/// `R_i = Σ_{j≠i} |a_ij|`.
pub fn gershgorin_bounds<M: RowAccess>(a: &M) -> (f64, f64) {
    let mut lower = f64::INFINITY;
    let mut upper = f64::NEG_INFINITY;
    for i in 0..a.dim() {
        let mut diag = 0.0;
        let mut radius = 0.0;
        a.for_each_in_row(i, &mut |j, v| {
            if j == i {
                diag += v;
            } else {
                radius += v.abs();
            }
        });
        lower = lower.min(diag - radius);
        upper = upper.max(diag + radius);
    }
    (lower, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::PoissonStencil;
    use crate::CsrMatrix;

    /// Closed-form smallest eigenvalue of the `d`-dimensional Poisson
    /// operator with `l` interior points per side, `λ_min =
    /// d·(4/h²)·sin²(π·h/2)`, `h = 1/(l+1)`: with [`poisson_lambda_max`],
    /// the reference the numerical estimates are checked against.
    fn poisson_lambda_min(l: usize, dimensionality: usize) -> f64 {
        let h = 1.0 / (l as f64 + 1.0);
        let s = (std::f64::consts::PI * h / 2.0).sin();
        dimensionality as f64 * (4.0 / (h * h)) * s * s
    }

    /// Closed-form largest eigenvalue, `λ_max = d·(4/h²)·cos²(π·h/2)`.
    fn poisson_lambda_max(l: usize, dimensionality: usize) -> f64 {
        let h = 1.0 / (l as f64 + 1.0);
        let c = (std::f64::consts::PI * h / 2.0).cos();
        dimensionality as f64 * (4.0 / (h * h)) * c * c
    }

    #[test]
    fn power_iteration_finds_dominant_eigenvalue() {
        // diag(1, 2, 5): λ_max = 5.
        let a = CsrMatrix::from_triplets(
            3,
            &[
                crate::Triplet::new(0, 0, 1.0),
                crate::Triplet::new(1, 1, 2.0),
                crate::Triplet::new(2, 2, 5.0),
            ],
        )
        .unwrap();
        let est = power_iteration(&a, 1000, 1e-12).unwrap();
        assert!(est.converged);
        assert!((est.value - 5.0).abs() < 1e-8);
    }

    #[test]
    fn closed_forms_match_numerical_estimates() {
        for (l, d) in [(6, 1), (5, 2), (4, 3)] {
            let op = PoissonStencil::new(l, d).unwrap();
            let max_est = power_iteration(&op, 50_000, 1e-13).unwrap();
            let min_est = smallest_eigenvalue(&op, 50_000, 1e-13).unwrap();
            let max_true = poisson_lambda_max(l, d);
            let min_true = poisson_lambda_min(l, d);
            assert!(
                (max_est.value - max_true).abs() / max_true < 1e-3,
                "λ_max mismatch in {d}D: {} vs {}",
                max_est.value,
                max_true
            );
            assert!(
                (min_est.value - min_true).abs() / min_true < 1e-2,
                "λ_min mismatch in {d}D: {} vs {}",
                min_est.value,
                min_true
            );
        }
    }

    #[test]
    fn smallest_eigenpair_matches_the_closed_form_mode() {
        // tridiag(−1, 2, −1) has v_min,i = sin(π·i/(n+1)), i = 1..n. The
        // iteration and tolerance are the analog solver's.
        for n in [4, 8, 11, 12, 16] {
            let a = CsrMatrix::tridiagonal(n, -1.0, 2.0, -1.0).unwrap();
            let est = smallest_eigenvalue(&a, 200_000, 1e-10).unwrap();
            assert!(est.converged);
            let (lambda, v) = (est.value, &est.vector);
            assert!((vector::norm2(v) - 1.0).abs() < 1e-12);
            let av = a.apply_vec(v);
            let residual: Vec<f64> = av.iter().zip(v).map(|(x, y)| x - lambda * y).collect();
            let rel = vector::norm2(&residual) / lambda;
            assert!(rel <= 1e-3, "n = {n}: ‖Av − λv‖/λ = {rel}");

            let h = std::f64::consts::PI / (n as f64 + 1.0);
            let mut exact: Vec<f64> = (1..=n).map(|i| (h * i as f64).sin()).collect();
            let norm = vector::norm2(&exact);
            vector::scale(vector::dot(v, &exact).signum() / norm, &mut exact);
            for (x, y) in v.iter().zip(&exact) {
                assert!((x - y).abs() <= 1e-3, "n = {n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn block_iteration_finds_the_slowest_eigenpairs() {
        // tridiag(−1, 2, −1): λ_j = 4·sin²(j·π/(2(n+1))), distinct. The 2D
        // Poisson stencil on a square has λ₂ = λ₃: that pair shares its
        // plane, and every vector of the plane is an eigenvector.
        let tri = CsrMatrix::tridiagonal(16, -1.0, 2.0, -1.0).unwrap();
        let grid = CsrMatrix::from_row_access(&PoissonStencil::new_2d(6).unwrap());
        for (a, k) in [(&tri, 4), (&grid, 4)] {
            let pairs = smallest_eigenpairs(a, k, 20_000, 1e-12).unwrap();
            assert_eq!(pairs.len(), k);
            for (j, p) in pairs.iter().enumerate() {
                assert!(p.converged);
                let av = a.apply_vec(&p.vector);
                let residual: Vec<f64> = av
                    .iter()
                    .zip(&p.vector)
                    .map(|(x, y)| x - p.value * y)
                    .collect();
                let rel = vector::norm2(&residual) / p.value;
                assert!(rel <= 1e-4, "pair {j}: ‖Av − λv‖/λ = {rel}");
                for (i, q) in pairs[..j].iter().enumerate() {
                    assert!(q.value <= p.value * (1.0 + 1e-9), "{i} after {j}");
                    assert!(vector::dot(&q.vector, &p.vector).abs() < 1e-12);
                }
                assert!((vector::norm2(&p.vector) - 1.0).abs() < 1e-12);
            }
        }
        let n = 16.0f64;
        for (j, p) in smallest_eigenpairs(&tri, 4, 20_000, 1e-12)
            .unwrap()
            .iter()
            .enumerate()
        {
            let h = ((j + 1) as f64) * std::f64::consts::PI / (2.0 * (n + 1.0));
            let exact = 4.0 * h.sin().powi(2);
            assert!(
                (p.value - exact).abs() <= 1e-8 * exact,
                "{} vs {exact}",
                p.value
            );
        }
        let pairs = smallest_eigenpairs(&grid, 4, 20_000, 1e-12).unwrap();
        assert!((pairs[0].value - poisson_lambda_min(6, 2)).abs() <= 1e-8 * pairs[0].value);
        assert!((pairs[1].value - pairs[2].value).abs() <= 1e-8 * pairs[1].value);
    }

    #[test]
    fn block_iteration_rejects_an_empty_or_oversized_block() {
        let a = CsrMatrix::tridiagonal(4, -1.0, 2.0, -1.0).unwrap();
        assert!(smallest_eigenpairs(&a, 0, 100, 1e-10).is_err());
        assert!(smallest_eigenpairs(&a, 5, 100, 1e-10).is_err());
        assert!(smallest_eigenpairs(&a, 2, 0, 1e-10).is_err());
        // The first vector starts where the single-vector iteration does.
        let block = smallest_eigenpairs(&a, 1, 200_000, 1e-10).unwrap();
        let single = smallest_eigenvalue(&a, 200_000, 1e-10).unwrap();
        assert!((block[0].value - single.value).abs() <= 1e-9);
    }

    #[test]
    fn gershgorin_encloses_poisson_spectrum() {
        let op = PoissonStencil::new_2d(5).unwrap();
        let (lo, hi) = gershgorin_bounds(&op);
        assert!(lo <= poisson_lambda_min(5, 2));
        assert!(hi >= poisson_lambda_max(5, 2));
        // For interior rows the bound is [0, 8/h²].
        assert!(lo >= 0.0);
    }

    #[test]
    fn zero_max_iterations_rejected() {
        let a = CsrMatrix::identity(2);
        assert!(power_iteration(&a, 0, 1e-10).is_err());
    }

    #[test]
    fn lambda_min_tends_to_continuum_limit() {
        // λ_min → d·π² as resolution increases.
        let lim = 2.0 * std::f64::consts::PI.powi(2);
        let val = poisson_lambda_min(200, 2);
        assert!((val - lim).abs() / lim < 1e-3);
    }
}
