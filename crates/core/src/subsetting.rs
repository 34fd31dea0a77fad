//! Representative benchmark subsets (§IV-A, Table V).
//!
//! Cut the dendrogram into `k` clusters, take each cluster's medoid, and
//! report the linkage-distance threshold and the simulation-time reduction.

use horizon_cluster::select_representatives;
use serde::{Deserialize, Serialize};

use crate::similarity::SimilarityAnalysis;
use crate::CoreError;

/// A representative subset of a benchmark group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Subset {
    /// Chosen representative benchmark names, ordered by cluster.
    pub representatives: Vec<String>,
    /// Full cluster memberships (names), parallel to `representatives`.
    pub clusters: Vec<Vec<String>>,
    /// The linkage distance at which the cut yields this many clusters —
    /// the "vertical line" of Figure 2.
    pub threshold: f64,
}

impl Subset {
    /// True if `name` is one of the representatives.
    pub fn contains(&self, name: &str) -> bool {
        self.representatives.iter().any(|r| r == name)
    }
}

/// Cuts the analysis into `k` clusters and picks each cluster's medoid
/// ("the benchmark with the shortest linkage distance", §IV-A).
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] if `k` is zero or exceeds the
/// number of workloads.
///
/// # Example
///
/// ```no_run
/// use horizon_core::campaign::Campaign;
/// use horizon_core::similarity::SimilarityAnalysis;
/// use horizon_core::subsetting::representative_subset;
/// use horizon_uarch::MachineConfig;
/// use horizon_workloads::cpu2017;
///
/// let result = Campaign::default()
///     .measure(&cpu2017::rate_fp(), &MachineConfig::table_iv_machines());
/// let analysis = SimilarityAnalysis::from_campaign(&result)?;
/// let subset = representative_subset(&analysis, 3)?;
/// println!("run only: {}", subset.representatives.join(", "));
/// # Ok::<(), horizon_core::CoreError>(())
/// ```
pub fn representative_subset(analysis: &SimilarityAnalysis, k: usize) -> Result<Subset, CoreError> {
    let mut span = horizon_telemetry::span("core.subset");
    span.record("k", k);
    let n = analysis.names().len();
    if k == 0 || k > n {
        return Err(CoreError::InvalidArgument {
            reason: format!("subset size {k} out of range 1..={n}"),
        });
    }
    let tree = analysis.dendrogram();
    let clusters = tree.cut_into(k);
    let reps = select_representatives(&clusters, analysis.distances())?;
    Ok(Subset {
        representatives: reps
            .iter()
            .map(|r| analysis.names()[r.index].clone())
            .collect(),
        clusters: clusters
            .iter()
            .map(|c| c.iter().map(|&i| analysis.names()[i].clone()).collect())
            .collect(),
        threshold: tree.threshold_for(k),
    })
}

/// Simulation-time reduction from running only the subset: total dynamic
/// instruction count of the full group divided by the subset's
/// (the 5.6×/4.5×/6.3× numbers of §IV-A).
///
/// `icounts` maps benchmark name → dynamic instruction count (any unit).
///
/// # Errors
///
/// Returns [`CoreError::NotFound`] if a benchmark has no icount entry and
/// [`CoreError::InvalidArgument`] if the subset's total is zero.
pub fn simulation_time_reduction(
    subset: &Subset,
    icounts: &[(String, f64)],
) -> Result<f64, CoreError> {
    let find = |name: &str| -> Result<f64, CoreError> {
        icounts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .ok_or_else(|| CoreError::NotFound {
                kind: "icount",
                name: name.to_string(),
            })
    };
    let mut total = 0.0;
    for cluster in &subset.clusters {
        for name in cluster {
            total += find(name)?;
        }
    }
    let mut subset_total = 0.0;
    for name in &subset.representatives {
        subset_total += find(name)?;
    }
    if subset_total <= 0.0 {
        return Err(CoreError::InvalidArgument {
            reason: "subset has zero total instruction count".into(),
        });
    }
    Ok(total / subset_total)
}

/// Chooses the largest subset whose total dynamic instruction count fits a
/// simulation-time budget (§IV-A: "such analysis can be done at varying
/// linkage distances to select the appropriate number of benchmarks when
/// simulation time is constrained").
///
/// `budget_fraction` is the allowed share of the full group's instruction
/// count (e.g. `0.25` = a quarter of the simulation time). Returns the
/// subset with the most representatives that fits; at minimum one.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for a non-positive budget and
/// propagates icount lookups.
pub fn subset_for_budget(
    analysis: &SimilarityAnalysis,
    icounts: &[(String, f64)],
    budget_fraction: f64,
) -> Result<Subset, CoreError> {
    if budget_fraction <= 0.0 || !budget_fraction.is_finite() {
        return Err(CoreError::InvalidArgument {
            reason: format!("budget fraction must be positive, got {budget_fraction}"),
        });
    }
    let n = analysis.names().len();
    let mut best: Option<Subset> = None;
    for k in 1..=n {
        let candidate = representative_subset(analysis, k)?;
        // reduction = total / subset_total, so subset share = 1 / reduction.
        let reduction = simulation_time_reduction(&candidate, icounts)?;
        if 1.0 / reduction <= budget_fraction {
            best = Some(candidate);
        } else if best.is_some() {
            // Subset cost grows with k once representatives accumulate;
            // keep scanning anyway since medoids can shrink the total.
            continue;
        }
    }
    best.map_or_else(|| representative_subset(analysis, 1), Ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use horizon_uarch::MachineConfig;
    use horizon_workloads::cpu2017;

    fn analysis() -> SimilarityAnalysis {
        // The mcf-outlier claim needs a stable-statistics window.
        let r = Campaign {
            instructions: 200_000,
            warmup: 50_000,
            seed: 42,
        }
        .measure(
            &cpu2017::speed_int(),
            &[
                MachineConfig::skylake_i7_6700(),
                MachineConfig::sparc_t4(),
                MachineConfig::opteron_2435(),
            ],
        );
        SimilarityAnalysis::from_campaign(&r).unwrap()
    }

    #[test]
    fn subset_of_three_has_three_clusters() {
        let a = analysis();
        let s = representative_subset(&a, 3).unwrap();
        assert_eq!(s.representatives.len(), 3);
        assert_eq!(s.clusters.len(), 3);
        // Every benchmark appears in exactly one cluster.
        let all: usize = s.clusters.iter().map(Vec::len).sum();
        assert_eq!(all, 10);
        // Representatives are members of their own cluster.
        for (rep, members) in s.representatives.iter().zip(&s.clusters) {
            assert!(members.contains(rep));
        }
        assert!(s.threshold > 0.0);
    }

    #[test]
    fn mcf_lands_in_the_subset() {
        // §IV-A / Table V: mcf is its own cluster (most distinct) and must
        // be picked as a representative.
        let a = analysis();
        let s = representative_subset(&a, 3).unwrap();
        assert!(s.contains("605.mcf_s"), "{:?}", s.representatives);
    }

    #[test]
    fn k_bounds_checked() {
        let a = analysis();
        assert!(representative_subset(&a, 0).is_err());
        assert!(representative_subset(&a, 11).is_err());
        assert!(representative_subset(&a, 10).is_ok());
    }

    #[test]
    fn time_reduction_matches_icounts() {
        let a = analysis();
        let s = representative_subset(&a, 3).unwrap();
        let icounts: Vec<(String, f64)> = cpu2017::speed_int()
            .iter()
            .map(|b| (b.name().to_string(), b.icount_billions()))
            .collect();
        let reduction = simulation_time_reduction(&s, &icounts).unwrap();
        // 3 of 10 benchmarks: reduction is material and finite.
        assert!(reduction > 1.5, "{reduction}");
        assert!(reduction.is_finite());

        // Missing icounts are reported.
        assert!(matches!(
            simulation_time_reduction(&s, &[]),
            Err(CoreError::NotFound { .. })
        ));
    }

    #[test]
    fn budgeted_subset_fits_the_budget() {
        let a = analysis();
        let icounts: Vec<(String, f64)> = cpu2017::speed_int()
            .iter()
            .map(|b| (b.name().to_string(), b.icount_billions()))
            .collect();
        let total: f64 = icounts.iter().map(|(_, c)| c).sum();
        for budget in [0.1, 0.3, 0.6] {
            let s = subset_for_budget(&a, &icounts, budget).unwrap();
            let cost: f64 = s
                .representatives
                .iter()
                .map(|n| icounts.iter().find(|(m, _)| m == n).unwrap().1)
                .sum();
            // Either the subset fits the budget, or it is the minimal k=1
            // fallback.
            assert!(
                cost / total <= budget + 1e-9 || s.representatives.len() == 1,
                "budget {budget}: cost share {}",
                cost / total
            );
        }
        // A generous budget admits more representatives than a tight one.
        let tight = subset_for_budget(&a, &icounts, 0.05).unwrap();
        let loose = subset_for_budget(&a, &icounts, 0.9).unwrap();
        assert!(loose.representatives.len() >= tight.representatives.len());
        assert!(subset_for_budget(&a, &icounts, 0.0).is_err());
    }

    #[test]
    fn singleton_subset_is_whole_group() {
        let a = analysis();
        let s = representative_subset(&a, 1).unwrap();
        assert_eq!(s.clusters[0].len(), 10);
        assert_eq!(s.representatives.len(), 1);
    }
}
