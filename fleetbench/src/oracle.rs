//! The benchmark's own correctness oracle: a CSR matrix assembled from
//! the same coordinate entries the fleet is given, and the relative
//! residual `‖b − A·x‖₂ / ‖b‖₂` of a served answer. It never reads the
//! residual the fleet reports.

/// A square matrix in compressed-sparse-row form.
#[derive(Debug, Clone)]
pub struct Csr {
    row_start: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Csr {
    /// Assembles an `n × n` matrix from `(row, col, value)` entries
    /// (duplicates are summed).
    pub fn from_entries(n: usize, entries: &[(usize, usize, f64)]) -> Csr {
        let mut sorted = entries.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_start = vec![0; n + 1];
        let mut cols = Vec::with_capacity(sorted.len());
        let mut vals: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut last = None;
        for (r, c, v) in sorted {
            assert!(r < n && c < n, "entry ({r}, {c}) outside a {n}x{n} matrix");
            if last == Some((r, c)) {
                *vals.last_mut().expect("a previous entry") += v;
                continue;
            }
            last = Some((r, c));
            row_start[r + 1] += 1;
            cols.push(c);
            vals.push(v);
        }
        for r in 0..n {
            row_start[r + 1] += row_start[r];
        }
        Csr {
            row_start,
            cols,
            vals,
        }
    }

    pub fn dim(&self) -> usize {
        self.row_start.len() - 1
    }

    /// `‖b − A·x‖₂ / ‖b‖₂`; infinite for a wrong-length or non-finite `x`.
    pub fn relative_residual(&self, x: &[f64], b: &[f64]) -> f64 {
        if x.len() != self.dim() || b.len() != self.dim() {
            return f64::INFINITY;
        }
        let mut r2 = 0.0;
        let mut b2 = 0.0;
        for (row, &bi) in b.iter().enumerate() {
            let span = self.row_start[row]..self.row_start[row + 1];
            let ax: f64 = self.cols[span.clone()]
                .iter()
                .zip(&self.vals[span])
                .map(|(&c, &v)| v * x[c])
                .sum();
            r2 += (bi - ax) * (bi - ax);
            b2 += bi * bi;
        }
        let rel = r2.sqrt() / b2.sqrt();
        if rel.is_finite() {
            rel
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_of_exact_and_wrong_answers() {
        // [[2, -1], [-1, 2]] · [1, 1] = [1, 1]
        let a = Csr::from_entries(2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)]);
        assert_eq!(a.relative_residual(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
        assert!((a.relative_residual(&[0.0, 0.0], &[1.0, 1.0]) - 1.0).abs() < 1e-15);
        assert_eq!(a.relative_residual(&[1.0], &[1.0, 1.0]), f64::INFINITY);
        assert_eq!(
            a.relative_residual(&[f64::NAN, 1.0], &[1.0, 1.0]),
            f64::INFINITY
        );
    }

    #[test]
    fn duplicate_entries_sum() {
        let a = Csr::from_entries(1, &[(0, 0, 1.0), (0, 0, 1.0)]);
        assert_eq!(a.relative_residual(&[0.5], &[1.0]), 0.0);
    }
}
