use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::StatsError;

/// A dense, row-major, `f64` matrix.
///
/// This is deliberately small: only the operations needed by the PCA and
/// clustering pipeline are provided. Row-major storage keeps per-observation
/// access (one benchmark's feature vector) contiguous.
///
/// # Example
///
/// ```
/// use horizon_stats::Matrix;
///
/// let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m[(1, 0)], 3.0);
/// let t = m.transpose();
/// assert_eq!(t[(0, 1)], 3.0);
/// # Ok::<(), horizon_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a vector of rows.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] if `rows` is empty or the first row is
    /// empty, and [`StatsError::RaggedRows`] if rows have differing lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, StatsError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(StatsError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(StatsError::RaggedRows {
                    expected: cols,
                    row: i,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `data.len() != rows * cols`
    /// and [`StatsError::Empty`] for zero-sized shapes.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, StatsError> {
        if rows == 0 || cols == 0 {
            return Err(StatsError::Empty);
        }
        if data.len() != rows * cols {
            return Err(StatsError::DimensionMismatch {
                op: "from_vec",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] unless
    /// `self.cols() == rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, StatsError> {
        if self.cols != rhs.rows {
            return Err(StatsError::DimensionMismatch {
                op: "matmul",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Per-column means.
    ///
    /// A column whose values are all equal gets that value exactly: a
    /// rounded sum over `n` can miss it by an ulp, which would give the
    /// column a tiny nonzero variance and make it look like a feature.
    pub fn column_means(&self) -> Vec<f64> {
        let Some(first) = self.iter_rows().next() else {
            return vec![f64::NAN; self.cols];
        };
        let mut means = vec![0.0; self.cols];
        let mut uniform = vec![true; self.cols];
        for row in self.iter_rows() {
            for (((m, u), &v), &f) in means.iter_mut().zip(&mut uniform).zip(row).zip(first) {
                *m += v;
                *u &= v == f;
            }
        }
        let n = self.rows as f64;
        for ((m, u), &f) in means.iter_mut().zip(&uniform).zip(first) {
            *m = if *u { f } else { *m / n };
        }
        means
    }

    /// Per-column sample standard deviations (denominator `n - 1`).
    ///
    /// Columns of a single-row matrix have standard deviation `0`.
    pub fn column_stds(&self) -> Vec<f64> {
        if self.rows < 2 {
            return vec![0.0; self.cols];
        }
        let means = self.column_means();
        let mut acc = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for ((a, &v), &m) in acc.iter_mut().zip(row).zip(&means) {
                let d = v - m;
                *a += d * d;
            }
        }
        let denom = (self.rows - 1) as f64;
        acc.into_iter().map(|a| (a / denom).sqrt()).collect()
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Selects a subset of rows (in the given order) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Selects a subset of columns (in the given order) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            for (j, &c) in indices.iter().enumerate() {
                out[(r, j)] = self[(r, c)];
            }
        }
        out
    }

    /// Stacks two matrices vertically (`self` on top of `bottom`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] unless both have the same
    /// column count.
    pub fn vstack(&self, bottom: &Matrix) -> Result<Matrix, StatsError> {
        if self.cols != bottom.cols {
            return Err(StatsError::DimensionMismatch {
                op: "vstack",
                left: (self.rows, self.cols),
                right: (bottom.rows, bottom.cols),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&bottom.data);
        Ok(Matrix {
            rows: self.rows + bottom.rows,
            cols: self.cols,
            data,
        })
    }

    /// Borrows the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in self.iter_rows() {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:>10.4}")).collect();
            writeln!(f, "[{}]", cells.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn uniform_column_mean_is_exact() {
        // Ten copies of 0.1 sum to 0.9999999999999999, so a plain sum/n
        // misses the mean and leaves the column a spurious variance.
        let x = Matrix::from_rows((0..10).map(|i| vec![0.1, i as f64]).collect()).unwrap();
        assert_eq!(x.column_means()[0], 0.1);
        assert_eq!(x.column_stds()[0], 0.0);
        assert_eq!(x.column_means()[1], 4.5);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, StatsError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(Matrix::from_rows(vec![]).unwrap_err(), StatsError::Empty);
        assert_eq!(
            Matrix::from_rows(vec![vec![]]).unwrap_err(),
            StatsError::Empty
        );
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn indexing_round_trips() {
        let mut m = sample();
        assert_eq!(m[(0, 2)], 3.0);
        m[(0, 2)] = 9.0;
        assert_eq!(m[(0, 2)], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let m = sample();
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let id = Matrix::identity(3);
        assert_eq!(m.matmul(&id).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = sample();
        assert!(matches!(
            a.matmul(&a),
            Err(StatsError::DimensionMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn column_means_and_stds() {
        let m = sample();
        assert_eq!(m.column_means(), vec![2.5, 3.5, 4.5]);
        let stds = m.column_stds();
        for s in stds {
            assert!((s - (4.5f64).sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn single_row_std_is_zero() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        assert_eq!(m.column_stds(), vec![0.0, 0.0]);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = sample();
        let r = m.select_rows(&[1]);
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
        let c = m.select_cols(&[2, 0]);
        assert_eq!(c.row(0), &[3.0, 1.0]);
        assert_eq!(c.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let m = sample();
        let s = m.vstack(&m).unwrap();
        assert_eq!(s.rows(), 4);
        assert_eq!(s.row(2), m.row(0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!sample().to_string().is_empty());
    }
}
