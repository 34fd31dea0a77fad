//! Agglomerative hierarchical clustering for workload subsetting.
//!
//! The HPCA'18 study clusters benchmarks by Euclidean distance in PC space,
//! draws dendrograms, cuts them at a linkage distance to obtain the desired
//! subset size, and picks one *representative* benchmark per cluster ("the
//! benchmark with the shortest linkage distance", §IV-A). This crate
//! implements that machinery:
//!
//! * [`Linkage`] — single / complete / average / weighted / Ward, updated via
//!   the Lance–Williams recurrence,
//! * [`Dendrogram`] — the merge tree with per-merge heights,
//! * [`Dendrogram::cut_at`] / [`Dendrogram::cut_into`] — flat clusterings,
//! * [`select_representatives`] — one medoid-style exemplar per cluster,
//! * [`cophenetic_matrix`] / [`cophenetic_correlation`] — linkage quality,
//! * [`render_ascii`] — a terminal dendrogram like the paper's Figures 2–4.
//!
//! # Example
//!
//! ```
//! use horizon_cluster::{cluster, Linkage};
//! use horizon_stats::{DistanceMatrix, Matrix, Metric};
//!
//! let points = Matrix::from_rows(vec![
//!     vec![0.0], vec![0.1], vec![5.0], vec![5.2], vec![99.0],
//! ])?;
//! let d = DistanceMatrix::from_observations(&points, Metric::Euclidean);
//! let tree = cluster(&d, Linkage::Average)?;
//! let clusters = tree.cut_into(3);
//! assert_eq!(clusters.len(), 3); // {0,1}, {2,3}, {4}
//! # Ok::<(), horizon_cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agglomerative;
mod cophenetic;
mod dendrogram;
mod error;
mod linkage;
mod render;
mod representative;
mod silhouette;

pub use agglomerative::cluster;
pub use cophenetic::{cophenetic_correlation, cophenetic_matrix};
pub use dendrogram::{Dendrogram, Merge};
pub use error::ClusterError;
pub use linkage::Linkage;
pub use render::{render_ascii, RenderOptions};
pub use representative::{select_representatives, Representative};
pub use silhouette::{mean_silhouette, silhouette_scores};
