//! Benchmark classification by branch and memory behavior (§IV-E,
//! Figures 9/10).
//!
//! The paper re-runs the PCA on restricted metric sets (branch metrics
//! only, data-cache metrics only, instruction-cache metrics only) and reads
//! the extremes off the first two PCs.

use horizon_cluster::Linkage;
use horizon_stats::Retention;
use serde::{Deserialize, Serialize};

use crate::campaign::CampaignResult;
use crate::metrics::Metric;
use crate::similarity::SimilarityAnalysis;
use crate::CoreError;

/// Which behavioral aspect to classify on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aspect {
    /// Branch-behavior metrics (Figure 9).
    Branch,
    /// Data-cache metrics (Figure 10, PC1/PC2).
    DataCache,
    /// Instruction-cache metrics (Figure 10, PC3/PC4).
    InstructionCache,
}

impl Aspect {
    fn metrics(self) -> Vec<Metric> {
        match self {
            Aspect::Branch => Metric::branch_set(),
            Aspect::DataCache => Metric::dcache_set(),
            Aspect::InstructionCache => Metric::icache_set(),
        }
    }
}

/// A classification of workloads along one behavioral aspect.
#[derive(Debug, Clone)]
pub struct Classification {
    aspect: Aspect,
    analysis: SimilarityAnalysis,
}

impl Classification {
    /// Runs the restricted-metric PCA for the aspect. All retained PCs are
    /// kept via the Kaiser criterion, as in §IV-E.
    ///
    /// # Errors
    ///
    /// Propagates PCA/clustering failures.
    pub fn new(result: &CampaignResult, aspect: Aspect) -> Result<Self, CoreError> {
        let analysis = SimilarityAnalysis::from_campaign_with(
            result,
            &aspect.metrics(),
            Retention::Kaiser,
            Linkage::Average,
        )?;
        Ok(Classification { aspect, analysis })
    }

    /// The aspect this classification covers.
    pub fn aspect(&self) -> Aspect {
        self.aspect
    }

    /// The underlying restricted-metric similarity analysis.
    pub fn analysis(&self) -> &SimilarityAnalysis {
        &self.analysis
    }

    /// Workloads ranked by their coordinate on a retained PC (descending).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for non-retained PCs.
    pub fn ranked_by_pc(&self, pc: usize) -> Result<Vec<(String, f64)>, CoreError> {
        let k = self.analysis.pca().components();
        if pc >= k {
            return Err(CoreError::InvalidArgument {
                reason: format!("PC{} not retained (have {k})", pc + 1),
            });
        }
        let scores = self.analysis.pca().scores();
        let mut out: Vec<(String, f64)> = self
            .analysis
            .names()
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), scores[(i, pc)]))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        Ok(out)
    }

    /// The top `k` workloads by a raw metric averaged across machines —
    /// the quantity behind statements like "leela and mcf suffer from the
    /// highest branch misprediction rates".
    pub fn extremes_by_metric(
        &self,
        result: &CampaignResult,
        metric: Metric,
        k: usize,
    ) -> Vec<(String, f64)> {
        let machines = result.machines().len().max(1);
        let mut rows: Vec<(String, f64)> = result
            .workloads()
            .iter()
            .enumerate()
            .map(|(w, name)| {
                let mean = (0..machines)
                    .map(|m| metric.extract(result.at(w, m)))
                    .sum::<f64>()
                    / machines as f64;
                (name.clone(), mean)
            })
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite metrics"));
        rows.truncate(k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use horizon_uarch::MachineConfig;
    use horizon_workloads::cpu2017;

    fn campaign() -> CampaignResult {
        // Rate INT + a couple of FP outliers, on two machines.
        let mut benchmarks = cpu2017::rate_int();
        benchmarks.extend(
            cpu2017::rate_fp()
                .into_iter()
                .filter(|b| b.name().contains("fotonik") || b.name().contains("namd")),
        );
        // The branch/mcf claims need a stable-statistics window.
        Campaign {
            instructions: 200_000,
            warmup: 50_000,
            seed: 42,
        }
        .measure(
            &benchmarks,
            &[
                MachineConfig::skylake_i7_6700(),
                MachineConfig::opteron_2435(),
            ],
        )
    }

    #[test]
    fn branch_classification_flags_leela_and_mcf() {
        // §IV-E / Fig 9: leela and mcf have the highest mispredict rates.
        let r = campaign();
        let c = Classification::new(&r, Aspect::Branch).unwrap();
        let top: Vec<String> = c
            .extremes_by_metric(&r, Metric::BranchMpki, 3)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(
            top.iter().any(|n| n.contains("leela")),
            "top mispredictors: {top:?}"
        );
        assert!(
            top.iter().any(|n| n.contains("mcf") || n.contains("xz")),
            "top mispredictors: {top:?}"
        );
    }

    #[test]
    fn dcache_classification_flags_fotonik() {
        // §IV-E / Fig 10: fotonik3d has the highest data-cache miss rates.
        let r = campaign();
        let c = Classification::new(&r, Aspect::DataCache).unwrap();
        let top = c.extremes_by_metric(&r, Metric::L1DMpki, 2);
        assert!(top.iter().any(|(n, _)| n.contains("fotonik3d")), "{top:?}");
    }

    #[test]
    fn icache_classification_flags_perlbench_gcc() {
        // §IV-E / Fig 10: perlbench and gcc have the highest I-side activity.
        let r = campaign();
        let c = Classification::new(&r, Aspect::InstructionCache).unwrap();
        let top: Vec<String> = c
            .extremes_by_metric(&r, Metric::L1IMpki, 3)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(
            top.iter()
                .any(|n| n.contains("perlbench") || n.contains("gcc") || n.contains("xalancbmk")),
            "{top:?}"
        );
    }

    #[test]
    fn pc_ranking_has_all_workloads() {
        let r = campaign();
        let c = Classification::new(&r, Aspect::Branch).unwrap();
        let ranked = c.ranked_by_pc(0).unwrap();
        assert_eq!(ranked.len(), r.workloads().len());
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(c.ranked_by_pc(99).is_err());
    }
}
