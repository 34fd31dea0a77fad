//! Principal Component Analysis with Kaiser-criterion retention.
//!
//! The paper's methodology (§III): standardize every (counter, machine)
//! feature, compute principal components, and keep only the components with
//! eigenvalue ≥ 1 (the Kaiser criterion). Benchmarks are then compared by
//! Euclidean distance between their retained PC scores.

use serde::{Deserialize, Serialize};

use crate::covariance::{correlation_matrix, covariance_matrix};
use crate::eigen::{jacobi_eigen, orient};
use crate::scale::ColumnScaler;
use crate::{Matrix, StatsError};

/// Which second-moment matrix PCA diagonalizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PcaBasis {
    /// Correlation matrix: every feature standardized first (the paper's
    /// setting, mandatory for mixed-unit counters).
    #[default]
    Correlation,
    /// Covariance matrix: raw feature scales retained.
    Covariance,
}

/// How many principal components to retain after fitting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum Retention {
    /// Keep components with eigenvalue ≥ 1 (the paper's default).
    #[default]
    Kaiser,
    /// Keep the smallest number of components whose cumulative explained
    /// variance reaches the given fraction (e.g. `0.9`).
    VarianceCoverage(f64),
    /// Keep exactly this many components (clamped to the available count).
    Fixed(usize),
    /// Keep every component.
    All,
}

impl Retention {
    /// How many of the descending `eigenvalues` this rule keeps (at least
    /// one, at most all).
    fn count(self, eigenvalues: &[f64]) -> usize {
        match self {
            Retention::Kaiser => eigenvalues.iter().filter(|&&v| v >= 1.0).count().max(1),
            Retention::VarianceCoverage(frac) => {
                let frac = frac.clamp(0.0, 1.0);
                let total: f64 = eigenvalues.iter().sum();
                let mut acc = 0.0;
                let mut k = 0;
                for &v in eigenvalues {
                    acc += v;
                    k += 1;
                    if total > 0.0 && acc / total >= frac {
                        break;
                    }
                }
                k.max(1)
            }
            Retention::Fixed(k) => k.clamp(1, eigenvalues.len()),
            Retention::All => eigenvalues.len(),
        }
    }
}

/// A fitted PCA model.
///
/// PCA is performed on the *correlation* matrix — i.e. features are z-scored
/// first — because the features (MPKI, percentages, watts) live on wildly
/// different scales. See DESIGN.md §5.2 for the ablation against
/// covariance-based PCA. A wide table (no more observations than
/// features, the paper's usual shape) is solved on the small
/// observation-space Gram matrix instead, with the same spectrum and
/// loadings.
///
/// # Example
///
/// ```
/// use horizon_stats::{Matrix, Pca, Retention};
///
/// let x = Matrix::from_rows(vec![
///     vec![0.0, 0.1, 10.0],
///     vec![1.0, 1.1, 20.0],
///     vec![2.0, 1.9, 30.0],
///     vec![3.0, 3.2, 40.0],
/// ])?;
/// let pca = Pca::fit(&x, Retention::VarianceCoverage(0.95))?;
/// assert!(pca.explained_variance_ratio()[0] > 0.9); // one dominant axis
/// # Ok::<(), horizon_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pca {
    scaler: ColumnScaler,
    /// All eigenvalues, descending.
    eigenvalues: Vec<f64>,
    /// Loadings for retained components: `features × components`.
    loadings: Matrix,
    /// Scores of the training observations: `observations × components`.
    scores: Matrix,
    retained: usize,
}

impl Pca {
    /// Fits a PCA model on the observation matrix `x`
    /// (rows = observations, columns = features).
    ///
    /// # Errors
    ///
    /// * [`StatsError::Empty`] if `x` has fewer than 2 rows.
    /// * [`StatsError::NonFinite`] on NaN/inf input.
    /// * Propagates eigensolver failures.
    pub fn fit(x: &Matrix, retention: Retention) -> Result<Self, StatsError> {
        Self::fit_with(x, retention, PcaBasis::Correlation)
    }

    /// Fits on an explicit basis: correlation (z-scored features, the
    /// default) or covariance (raw scales — DESIGN.md's §5.2 ablation shows
    /// how large-magnitude counters would then dominate the components).
    ///
    /// # Errors
    ///
    /// Same as [`Pca::fit`].
    pub fn fit_with(x: &Matrix, retention: Retention, basis: PcaBasis) -> Result<Self, StatsError> {
        if x.rows() < 2 {
            return Err(StatsError::Empty);
        }
        let (scaler, z) = {
            let mut span = horizon_telemetry::span("stats.standardize");
            span.record("rows", x.rows());
            span.record("cols", x.cols());
            let scaler = match basis {
                PcaBasis::Correlation => ColumnScaler::fit(x)?,
                // Covariance PCA centers but does not rescale.
                PcaBasis::Covariance => ColumnScaler::fit_center_only(x)?,
            };
            let z = scaler.transform(x)?;
            (scaler, z)
        };
        // With no more observations than features the basis matrix has
        // rank below n, so the n × n problem holds the whole spectrum.
        let (eigenvalues, loadings) = if x.rows() <= x.cols() {
            observation_space(&z, basis, retention)?
        } else {
            feature_space(x, basis, retention)?
        };
        let retained = loadings.cols();
        let scores = {
            let mut span = horizon_telemetry::span("stats.project");
            span.record("retained", retained);
            z.matmul(&loadings)?
        };

        Ok(Pca {
            scaler,
            eigenvalues,
            loadings,
            scores,
            retained,
        })
    }

    /// Number of retained components.
    pub fn components(&self) -> usize {
        self.retained
    }

    /// All eigenvalues of the correlation matrix, descending
    /// (including non-retained components).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Fraction of total variance explained by each retained component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().sum();
        self.eigenvalues[..self.retained]
            .iter()
            .map(|&v| if total > 0.0 { v / total } else { 0.0 })
            .collect()
    }

    /// Cumulative variance fraction covered by the retained components.
    pub fn coverage(&self) -> f64 {
        self.explained_variance_ratio().iter().sum()
    }

    /// PC scores of the training observations (`observations × components`).
    pub fn scores(&self) -> &Matrix {
        &self.scores
    }

    /// Loading matrix (`features × components`). Column `j` holds the feature
    /// weights of PC `j+1`.
    pub fn loadings(&self) -> &Matrix {
        &self.loadings
    }

    /// Indices of the `k` features with the largest absolute loading on
    /// component `pc` (0-based), most dominant first.
    ///
    /// This answers questions like "PC2 is dominated by branch MPKI"
    /// (paper §IV-E).
    ///
    /// # Panics
    ///
    /// Panics if `pc >= self.components()`.
    pub fn dominant_features(&self, pc: usize, k: usize) -> Vec<usize> {
        assert!(pc < self.retained, "component {pc} not retained");
        let col = self.loadings.col(pc);
        let mut idx: Vec<usize> = (0..col.len()).collect();
        idx.sort_by(|&a, &b| {
            col[b]
                .abs()
                .partial_cmp(&col[a].abs())
                .expect("finite loadings")
        });
        idx.truncate(k);
        idx
    }

    /// Projects new observations into the retained PC space.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if the feature count differs
    /// from the training data.
    pub fn project(&self, x: &Matrix) -> Result<Matrix, StatsError> {
        let z = self.scaler.transform(x)?;
        z.matmul(&self.loadings)
    }

    /// Projects a single observation row into the retained PC space.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] on width mismatch.
    pub fn project_row(&self, row: &[f64]) -> Result<Vec<f64>, StatsError> {
        let z = self.scaler.transform_row(row)?;
        let mut out = vec![0.0; self.retained];
        for (j, o) in out.iter_mut().enumerate() {
            *o = z
                .iter()
                .enumerate()
                .map(|(f, &zv)| zv * self.loadings[(f, j)])
                .sum();
        }
        Ok(out)
    }
}

/// Gram eigenvalues at or below this fraction of its trace (which equals
/// the basis matrix's) are rounding noise of the rank deficit, not
/// spectrum.
const GRAM_NOISE: f64 = 1e-12;

/// The spectrum (all `p` eigenvalues, descending) and the retained
/// loadings, from Jacobi on the `p × p` basis matrix itself.
fn feature_space(
    x: &Matrix,
    basis: PcaBasis,
    retention: Retention,
) -> Result<(Vec<f64>, Matrix), StatsError> {
    let basis_matrix = {
        let _span = horizon_telemetry::span("stats.covariance");
        match basis {
            PcaBasis::Correlation => correlation_matrix(x)?,
            PcaBasis::Covariance => covariance_matrix(x)?,
        }
    };
    let mut span = horizon_telemetry::span("stats.eigen");
    span.record("dim", basis_matrix.rows());
    let eig = jacobi_eigen(&basis_matrix)?;
    // Numerical noise can make tiny eigenvalues slightly negative.
    let eigenvalues: Vec<f64> = eig.values.iter().map(|&v| v.max(0.0)).collect();
    let keep: Vec<usize> = (0..retention.count(&eigenvalues)).collect();
    Ok((eigenvalues, eig.vectors.select_cols(&keep)))
}

/// Where one eigenpair of the `p × p` basis matrix comes from.
#[derive(Clone, Copy)]
enum Pair {
    /// Eigenvector `i` of the Gram matrix, mapped back to feature space.
    Gram(usize),
    /// The unit vector of zero-variance column `j`.
    Unit(usize),
}

/// The same spectrum and loadings as [`feature_space`], solved on the
/// `n × n` Gram matrix `G = Z Zᵀ / (n − 1)` of the standardized (or
/// centered) observations `z`.
///
/// `G` and the basis matrix `R = Zᵀ Z / (n − 1)` share their nonzero
/// eigenvalues, and an eigenvector `u` of `G` maps to `Zᵀu / ‖Zᵀu‖`. A
/// zero-variance column contributes nothing to `G`; its eigenpair
/// `(e_j, R_jj)` — `R_jj` is 1 for the correlation basis, 0 for
/// covariance — is built exactly instead, so the Kaiser criterion counts
/// it the way the `p × p` solve does (which leaves such a row untouched).
/// The rest of the spectrum is exactly zero. Only the retained loadings
/// are built.
fn observation_space(
    z: &Matrix,
    basis: PcaBasis,
    retention: Retention,
) -> Result<(Vec<f64>, Matrix), StatsError> {
    let (n, p) = (z.rows(), z.cols());
    let denom = (n - 1) as f64;
    let gram = {
        let _span = horizon_telemetry::span("stats.covariance");
        let mut gram = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = dot(z.row(i), z.row(j)) / denom;
                gram[(i, j)] = v;
                gram[(j, i)] = v;
            }
        }
        gram
    };
    let mut span = horizon_telemetry::span("stats.eigen");
    span.record("dim", n);
    let eig = jacobi_eigen(&gram)?;
    let floor = GRAM_NOISE * (0..n).map(|i| gram[(i, i)]).sum::<f64>();

    // A zero-variance column standardizes (or centers) to exact zeros.
    // With at most one column varying, the basis matrix is diagonal and
    // every column's pair is a unit one.
    let varies: Vec<bool> = (0..p)
        .map(|j| z.iter_rows().any(|row| row[j] != 0.0))
        .collect();
    let diagonal = varies.iter().filter(|&&v| v).count() <= 1;
    let basis_diagonal = |j: usize| match basis {
        PcaBasis::Correlation => 1.0,
        PcaBasis::Covariance => z.iter_rows().map(|row| row[j] * row[j]).sum::<f64>() / denom,
    };
    let mut pairs: Vec<(f64, Pair)> = Vec::with_capacity(p);
    if !diagonal {
        pairs.extend(
            eig.values
                .iter()
                .take_while(|&&v| v > floor)
                .enumerate()
                .map(|(i, &v)| (v, Pair::Gram(i))),
        );
    }
    pairs.extend(
        (0..p)
            .filter(|&j| diagonal || !varies[j])
            .map(|j| (basis_diagonal(j), Pair::Unit(j))),
    );
    // Stable: equal eigenvalues keep Gram-before-unit, then column order.
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite eigenvalues"));
    let mut eigenvalues: Vec<f64> = pairs.iter().map(|&(v, _)| v).collect();
    eigenvalues.resize(p, 0.0);

    let retained = retention.count(&eigenvalues);
    let mut loadings = Matrix::zeros(p, retained);
    for (c, &(_, pair)) in pairs.iter().take(retained).enumerate() {
        match pair {
            Pair::Gram(i) => {
                let mut v = vec![0.0; p];
                for (row, &ur) in z.iter_rows().zip(&eig.vector(i)) {
                    v.iter_mut().zip(row).for_each(|(x, &zr)| *x += ur * zr);
                }
                let norm = dot(&v, &v).sqrt();
                v.iter_mut().for_each(|x| *x /= norm);
                orient(&mut v);
                for (f, x) in v.into_iter().enumerate() {
                    loadings[(f, c)] = x;
                }
            }
            Pair::Unit(j) => loadings[(j, c)] = 1.0,
        }
    }
    if retained > pairs.len() {
        complete_basis(&mut loadings, pairs.len());
    }
    Ok((eigenvalues, loadings))
}

/// Fills columns `filled..` of `loadings` with unit vectors orthogonal
/// to each other and to the orthonormal columns before them: null-space
/// loadings, needed only when retention asks for more components than the
/// nonzero spectrum has.
///
/// Candidates are the standard basis vectors, each orthogonalized twice
/// (Gram–Schmidt) against the basis so far and kept if at least
/// `1/(2p)` of its squared norm survives. That always finishes: a
/// candidate's leftover against the final basis is zero if it was kept
/// and below `1/(2p)` if not, and the leftovers sum to `p` minus the
/// basis size, so fewer than half a dimension can go missing.
fn complete_basis(loadings: &mut Matrix, filled: usize) {
    let (p, k) = (loadings.rows(), loadings.cols());
    let mut basis: Vec<Vec<f64>> = (0..filled).map(|c| loadings.col(c)).collect();
    for j in 0..p {
        if basis.len() == k {
            break;
        }
        let mut v = vec![0.0; p];
        v[j] = 1.0;
        for _ in 0..2 {
            for q in &basis {
                let d = dot(q, &v);
                v.iter_mut().zip(q).for_each(|(x, qx)| *x -= d * qx);
            }
        }
        let norm2 = dot(&v, &v);
        if norm2 >= 0.5 / p as f64 {
            let norm = norm2.sqrt();
            v.iter_mut().for_each(|x| *x /= norm);
            basis.push(v);
        }
    }
    for (c, v) in basis.iter().enumerate().skip(filled) {
        for (f, &x) in v.iter().enumerate() {
            loadings[(f, c)] = x;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observations with one dominant latent direction plus noise.
    fn correlated_data() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..12 {
            let t = i as f64;
            // Feature 3 is pure noise-free constant slope in another axis.
            rows.push(vec![
                t,
                2.0 * t + 0.01 * ((i * 7 % 5) as f64),
                -t + 0.02 * ((i * 3 % 7) as f64),
                (i % 2) as f64,
            ]);
        }
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn kaiser_retains_dominant_components() {
        let pca = Pca::fit(&correlated_data(), Retention::Kaiser).unwrap();
        // Three perfectly correlated features collapse into one PC; the
        // parity feature forms a second axis.
        assert!(pca.components() <= 3);
        assert!(pca.components() >= 1);
        assert!(pca.coverage() > 0.7);
    }

    #[test]
    fn eigenvalue_sum_equals_feature_count() {
        // PCA on a correlation matrix: trace = p.
        let pca = Pca::fit(&correlated_data(), Retention::All).unwrap();
        let sum: f64 = pca.eigenvalues().iter().sum();
        assert!((sum - 4.0).abs() < 1e-8);
    }

    #[test]
    fn variance_coverage_reaches_requested_fraction() {
        let pca = Pca::fit(&correlated_data(), Retention::VarianceCoverage(0.99)).unwrap();
        assert!(pca.coverage() >= 0.99 - 1e-12);
    }

    #[test]
    fn fixed_retention_clamps() {
        let pca = Pca::fit(&correlated_data(), Retention::Fixed(100)).unwrap();
        assert_eq!(pca.components(), 4);
        let pca1 = Pca::fit(&correlated_data(), Retention::Fixed(0)).unwrap();
        assert_eq!(pca1.components(), 1);
    }

    #[test]
    fn scores_shape_and_projection_consistency() {
        let x = correlated_data();
        let pca = Pca::fit(&x, Retention::Kaiser).unwrap();
        assert_eq!(pca.scores().rows(), x.rows());
        assert_eq!(pca.scores().cols(), pca.components());
        // Projecting the training data reproduces the stored scores.
        let proj = pca.project(&x).unwrap();
        for r in 0..x.rows() {
            for c in 0..pca.components() {
                assert!((proj[(r, c)] - pca.scores()[(r, c)]).abs() < 1e-10);
            }
        }
        // Row projection agrees with matrix projection.
        let pr = pca.project_row(x.row(5)).unwrap();
        for c in 0..pca.components() {
            assert!((pr[c] - proj[(5, c)]).abs() < 1e-10);
        }
    }

    #[test]
    fn scores_are_centered() {
        let pca = Pca::fit(&correlated_data(), Retention::All).unwrap();
        for c in 0..pca.components() {
            let col = pca.scores().col(c);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-10);
        }
    }

    #[test]
    fn dominant_features_identifies_loaded_feature() {
        // Feature 3 (parity) is uncorrelated with the slope features, so it
        // must dominate some retained component in an all-components fit.
        let pca = Pca::fit(&correlated_data(), Retention::All).unwrap();
        let found = (0..pca.components()).any(|pc| pca.dominant_features(pc, 1)[0] == 3);
        assert!(found);
    }

    #[test]
    fn covariance_basis_weights_large_scale_features() {
        // Feature 1 has 100x the scale of feature 0: covariance PCA's first
        // component aligns with it; correlation PCA treats them equally.
        let mut rows = Vec::new();
        for i in 0..10 {
            let t = i as f64;
            rows.push(vec![t * 0.01 + ((i % 3) as f64) * 0.001, -t * 100.0]);
        }
        let x = Matrix::from_rows(rows).unwrap();
        let cov = Pca::fit_with(&x, Retention::Fixed(1), PcaBasis::Covariance).unwrap();
        let top = cov.dominant_features(0, 1)[0];
        assert_eq!(top, 1, "covariance PC1 should follow the big feature");
        // First covariance eigenvalue carries essentially all variance.
        assert!(cov.explained_variance_ratio()[0] > 0.999);
    }

    #[test]
    fn rejects_single_observation() {
        let x = Matrix::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            Pca::fit(&x, Retention::Kaiser),
            Err(StatsError::Empty)
        ));
    }

    #[test]
    fn handles_constant_features() {
        let x = Matrix::from_rows(vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]]).unwrap();
        let pca = Pca::fit(&x, Retention::Kaiser).unwrap();
        assert!(pca.scores().is_finite());
    }

    /// Six observations of fifteen features: random-looking columns plus
    /// constant, duplicated and negated ones (the observation-space path).
    fn wide_data() -> Matrix {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let rows = (0..6)
            .map(|_| {
                let mut row: Vec<f64> = (0..10)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0
                    })
                    .collect();
                row.extend([4.0, row[0], -row[1], 0.5, -2.0]);
                row
            })
            .collect();
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn observation_space_matches_feature_space() {
        let x = wide_data();
        for basis in [PcaBasis::Correlation, PcaBasis::Covariance] {
            let pca = Pca::fit_with(&x, Retention::Kaiser, basis).unwrap();
            let (values, loadings) = feature_space(&x, basis, Retention::Kaiser).unwrap();
            assert_eq!(pca.components(), loadings.cols(), "{basis:?}");
            let scale = values[0];
            for (a, b) in pca.eigenvalues().iter().zip(&values) {
                assert!((a - b).abs() < 1e-12 * scale, "{basis:?}: {a} vs {b}");
            }
            for c in 0..loadings.cols() {
                for f in 0..x.cols() {
                    let (a, b) = (pca.loadings()[(f, c)], loadings[(f, c)]);
                    assert!((a - b).abs() < 1e-12, "{basis:?} PC{c} f{f}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn constant_columns_keep_exact_unit_pairs() {
        let x = wide_data();
        let pca = Pca::fit(&x, Retention::Kaiser).unwrap();
        // Three constant columns: eigenvalue exactly 1, loading e_j.
        assert_eq!(pca.eigenvalues().iter().filter(|&&v| v == 1.0).count(), 3);
        for j in [10, 13, 14] {
            let pc = (0..pca.components())
                .find(|&c| pca.loadings()[(j, c)] == 1.0)
                .expect("constant column retained as a unit loading");
            assert!(pca.scores().col(pc).iter().all(|&s| s == 0.0));
        }
        // Five columns vary independently-ish in six observations: the
        // rest of the spectrum is exactly zero.
        assert!(pca.eigenvalues()[8..].iter().all(|&v| v == 0.0));
        let sum: f64 = pca.eigenvalues().iter().sum();
        assert!((sum - 15.0).abs() < 1e-10);
    }

    #[test]
    fn lone_varying_column_has_a_diagonal_spectrum() {
        let x = Matrix::from_rows(vec![vec![3.0, 0.1, 7.0], vec![3.0, 0.7, 7.0]]).unwrap();
        let pca = Pca::fit(&x, Retention::Kaiser).unwrap();
        assert_eq!(pca.eigenvalues(), &[1.0, 1.0, 1.0]);
        assert_eq!(pca.components(), 3);
        let cov = Pca::fit_with(&x, Retention::Kaiser, PcaBasis::Covariance).unwrap();
        let var = 2.0 * 0.3f64.powi(2);
        assert!((cov.eigenvalues()[0] - var).abs() < 1e-15);
        assert_eq!(&cov.eigenvalues()[1..], &[0.0, 0.0]);
        assert_eq!(cov.loadings().col(0), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn retention_all_completes_an_orthonormal_basis() {
        let x = wide_data();
        for basis in [PcaBasis::Correlation, PcaBasis::Covariance] {
            let pca = Pca::fit_with(&x, Retention::All, basis).unwrap();
            let l = pca.loadings();
            assert_eq!((l.rows(), l.cols()), (15, 15));
            let gram = l.transpose().matmul(l).unwrap();
            for i in 0..15 {
                for j in 0..15 {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!((gram[(i, j)] - expect).abs() < 1e-12, "{basis:?} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn projection_rejects_width_mismatch() {
        let pca = Pca::fit(&correlated_data(), Retention::Kaiser).unwrap();
        assert!(pca.project_row(&[1.0, 2.0]).is_err());
    }
}
