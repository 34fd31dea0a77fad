//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! PCA needs the eigenvalues/eigenvectors of a covariance or correlation
//! matrix — always symmetric and small here (at most a few hundred features).
//! The cyclic Jacobi method is simple, unconditionally stable for symmetric
//! input, and converges quadratically, which makes it the right tool in a
//! dependency-free crate.

use serde::{Deserialize, Serialize};

use crate::{Matrix, StatsError};

/// Maximum number of full Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// Result of a symmetric eigendecomposition.
///
/// Eigenpairs are sorted by descending eigenvalue; eigenvectors are unit
/// length and stored as the *columns* of [`EigenDecomposition::vectors`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EigenDecomposition {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; column `j` pairs with `values[j]`.
    pub vectors: Matrix,
}

impl EigenDecomposition {
    /// Number of eigenpairs (the matrix dimension).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for a 0×0 decomposition (cannot occur via [`jacobi_eigen`]).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Copies eigenvector `j` (paired with `values[j]`) into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    pub fn vector(&self, j: usize) -> Vec<f64> {
        self.vectors.col(j)
    }
}

/// Computes all eigenvalues and eigenvectors of a symmetric matrix.
///
/// The input is symmetrized as `(A + Aᵀ)/2` to absorb floating-point
/// asymmetry from upstream accumulation.
///
/// # Errors
///
/// * [`StatsError::NotSquare`] if `a` is not square.
/// * [`StatsError::NonFinite`] if `a` contains NaN/inf.
/// * [`StatsError::NoConvergence`] if the off-diagonal norm does not vanish
///   within the sweep budget (does not happen for well-formed input).
///
/// # Example
///
/// ```
/// use horizon_stats::{jacobi_eigen, Matrix};
///
/// let a = Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 2.0]])?;
/// let eig = jacobi_eigen(&a)?;
/// assert!((eig.values[0] - 3.0).abs() < 1e-10);
/// assert!((eig.values[1] - 1.0).abs() < 1e-10);
/// # Ok::<(), horizon_stats::StatsError>(())
/// ```
pub fn jacobi_eigen(a: &Matrix) -> Result<EigenDecomposition, StatsError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(StatsError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if !a.is_finite() {
        return Err(StatsError::NonFinite {
            context: "jacobi_eigen input",
        });
    }

    // Work on a symmetrized copy.
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    let mut v = Matrix::identity(n);

    let scale: f64 = (0..n)
        .map(|i| (0..n).map(|j| m[(i, j)].abs()).sum::<f64>())
        .fold(0.0f64, f64::max)
        .max(1.0);
    let tol = 1e-14 * scale;

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(&m);
        if off <= tol {
            return Ok(finish(m, v));
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol * 1e-2 / (n as f64) {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Classic Jacobi rotation parameters (Golub & Van Loan §8.5).
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation: rows/cols p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let off = off_diagonal_norm(&m);
    if off <= tol * 10.0 {
        // Converged to within a small multiple of the target; accept.
        return Ok(finish(m, v));
    }
    Err(StatsError::NoConvergence {
        sweeps: MAX_SWEEPS,
        off_diagonal: off,
    })
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut acc = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                acc += m[(i, j)] * m[(i, j)];
            }
        }
    }
    acc.sqrt()
}

/// Extracts sorted eigenpairs from the diagonalized matrix.
fn finish(m: Matrix, v: Matrix) -> EigenDecomposition {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&a, &b| diag[b].partial_cmp(&diag[a]).expect("finite eigenvalues"));

    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        let mut col = v.col(old_j);
        orient(&mut col);
        for k in 0..n {
            vectors[(k, new_j)] = col[k];
        }
    }
    EigenDecomposition { values, vectors }
}

/// Relative tolerance under which two component magnitudes count as tied
/// for [`orient`].
const SIGN_TIE: f64 = 1e-9;

/// Fixes an eigenvector's sign so decompositions are deterministic: the
/// first component whose magnitude is within [`SIGN_TIE`] (relative) of
/// the largest one is made positive.
///
/// "First within a tolerance" rather than "the largest" keeps the choice
/// stable when two components are tied up to rounding: solvers that
/// differ only in the last bits then still pick the same component.
pub(crate) fn orient(v: &mut [f64]) {
    let max = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let lead = v
        .iter()
        .copied()
        .find(|x| x.abs() >= max * (1.0 - SIGN_TIE))
        .unwrap_or(0.0);
    if lead < 0.0 {
        for x in v.iter_mut() {
            *x = -*x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let a = Matrix::from_rows(vec![
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ])
        .unwrap();
        let eig = jacobi_eigen(&a).unwrap();
        assert_eq!(eig.values, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = jacobi_eigen(&a).unwrap();
        assert!(approx(eig.values[0], 3.0, 1e-12));
        assert!(approx(eig.values[1], 1.0, 1e-12));
        // Eigenvector for λ=3 is (1,1)/√2.
        let v0 = eig.vector(0);
        assert!(approx(v0[0].abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-10));
        assert!(approx(v0[0], v0[1], 1e-10));
    }

    #[test]
    fn reconstruction_holds() {
        // A = V Λ Vᵀ
        let a = Matrix::from_rows(vec![
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 1.0],
        ])
        .unwrap();
        let eig = jacobi_eigen(&a).unwrap();
        let n = 3;
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = eig.values[i];
        }
        let recon = eig
            .vectors
            .matmul(&lam)
            .unwrap()
            .matmul(&eig.vectors.transpose())
            .unwrap();
        for i in 0..n {
            for j in 0..n {
                assert!(approx(recon[(i, j)], a[(i, j)], 1e-9), "({i},{j})");
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(vec![
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ])
        .unwrap();
        let eig = jacobi_eigen(&a).unwrap();
        let vtv = eig.vectors.transpose().matmul(&eig.vectors).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx(vtv[(i, j)], expect, 1e-10));
            }
        }
    }

    #[test]
    fn sign_goes_to_the_first_of_tied_components() {
        // The λ = 3 eigenvector is (1, -1)/√2: its two components tie
        // exactly, so the first one decides the sign.
        let a = Matrix::from_rows(vec![vec![2.0, -1.0], vec![-1.0, 2.0]]).unwrap();
        let eig = jacobi_eigen(&a).unwrap();
        assert!(approx(eig.values[0], 3.0, 1e-12));
        let v0 = eig.vector(0);
        assert_eq!(v0[0], -v0[1]);
        assert!(v0[0] > 0.0, "first tied component must be positive: {v0:?}");
    }

    #[test]
    fn orient_treats_rounding_level_differences_as_ties() {
        // The second magnitude is larger only in the last bits.
        let mut v = vec![0.1, -0.203_653_151_887_991_85, 0.203_653_151_887_992_02];
        orient(&mut v);
        assert!(v[1] > 0.0, "{v:?}");
        let mut w = vec![0.5, -0.9, 0.1];
        orient(&mut w);
        assert_eq!(w, vec![-0.5, 0.9, -0.1]);
        let mut zero = vec![0.0, 0.0];
        orient(&mut zero);
        assert_eq!(zero, vec![0.0, 0.0]);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(vec![vec![5.0, 2.0], vec![2.0, -1.0]]).unwrap();
        let eig = jacobi_eigen(&a).unwrap();
        assert!(approx(eig.values.iter().sum::<f64>(), 4.0, 1e-12));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            jacobi_eigen(&a),
            Err(StatsError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_nan() {
        let a = Matrix::from_rows(vec![vec![f64::NAN, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            jacobi_eigen(&a),
            Err(StatsError::NonFinite { .. })
        ));
    }

    #[test]
    fn handles_1x1() {
        let a = Matrix::from_rows(vec![vec![7.0]]).unwrap();
        let eig = jacobi_eigen(&a).unwrap();
        assert_eq!(eig.values, vec![7.0]);
        assert_eq!(eig.vector(0), vec![1.0]);
    }

    #[test]
    fn large_random_symmetric_converges() {
        // Deterministic pseudo-random symmetric matrix, 40x40.
        let n = 40;
        let mut a = Matrix::zeros(n, n);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for i in 0..n {
            for j in i..n {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let eig = jacobi_eigen(&a).unwrap();
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        assert!(approx(eig.values.iter().sum::<f64>(), trace, 1e-8));
        // Sorted descending.
        for w in eig.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }
}
