//! Robustness of the methodology to the machine population (§III).
//!
//! The paper measures on seven machines across three ISAs precisely so that
//! no single machine's quirks drive the similarity structure. This module
//! quantifies that: a leave-one-machine-out jackknife recomputes the
//! analysis without each machine in turn and reports how much the
//! representative subsets and the most-distinct benchmark move.

use serde::{Deserialize, Serialize};

use crate::campaign::CampaignResult;
use crate::similarity::SimilarityAnalysis;
use crate::subsetting::representative_subset;
use crate::CoreError;

/// Outcome of one leave-one-out replication.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JackknifeReplicate {
    /// The machine that was left out.
    pub dropped_machine: String,
    /// Representatives chosen without that machine.
    pub representatives: Vec<String>,
    /// Overlap with the full-population subset (0..=k).
    pub overlap: usize,
    /// Most-distinct benchmark without that machine.
    pub most_distinct: String,
}

/// Jackknife summary over all machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// The subset computed from the full machine population.
    pub baseline: Vec<String>,
    /// Most-distinct benchmark with every machine present.
    pub baseline_most_distinct: String,
    /// One replicate per dropped machine.
    pub replicates: Vec<JackknifeReplicate>,
}

impl StabilityReport {
    /// Mean representative overlap with the baseline, as a fraction of `k`.
    pub fn mean_overlap(&self) -> f64 {
        if self.replicates.is_empty() || self.baseline.is_empty() {
            return 1.0;
        }
        let k = self.baseline.len() as f64;
        self.replicates
            .iter()
            .map(|r| r.overlap as f64 / k)
            .sum::<f64>()
            / self.replicates.len() as f64
    }

    /// Fraction of replicates that agree with the baseline on the
    /// most-distinct benchmark.
    pub fn most_distinct_agreement(&self) -> f64 {
        if self.replicates.is_empty() {
            return 1.0;
        }
        self.replicates
            .iter()
            .filter(|r| r.most_distinct == self.baseline_most_distinct)
            .count() as f64
            / self.replicates.len() as f64
    }
}

/// Runs the leave-one-machine-out jackknife on a campaign, recomputing the
/// `k`-benchmark subset per replicate.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] if the campaign covers fewer than
/// two machines; propagates analysis failures.
pub fn machine_jackknife(result: &CampaignResult, k: usize) -> Result<StabilityReport, CoreError> {
    let machines = result.machines().to_vec();
    if machines.len() < 2 {
        return Err(CoreError::InvalidArgument {
            reason: "jackknife needs at least two machines".into(),
        });
    }
    let baseline_analysis = SimilarityAnalysis::from_campaign(result)?;
    let baseline = representative_subset(&baseline_analysis, k)?;

    let replicates = machines
        .iter()
        .map(|dropped| {
            let keep: Vec<usize> = (0..machines.len())
                .filter(|&m| &machines[m] != dropped)
                .collect();
            let reduced = result.select_machines(&keep);
            let analysis = SimilarityAnalysis::from_campaign(&reduced)?;
            let subset = representative_subset(&analysis, k)?;
            let overlap = subset
                .representatives
                .iter()
                .filter(|r| baseline.representatives.contains(r))
                .count();
            Ok(JackknifeReplicate {
                dropped_machine: dropped.clone(),
                representatives: subset.representatives,
                overlap,
                most_distinct: analysis.most_distinct().to_string(),
            })
        })
        .collect::<Result<_, CoreError>>()?;

    Ok(StabilityReport {
        baseline: baseline.representatives,
        baseline_most_distinct: baseline_analysis.most_distinct().to_string(),
        replicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use horizon_uarch::MachineConfig;
    use horizon_workloads::cpu2017;

    fn campaign() -> CampaignResult {
        Campaign {
            instructions: 120_000,
            warmup: 30_000,
            seed: 42,
        }
        .measure(&cpu2017::speed_int(), &MachineConfig::table_iv_machines())
    }

    #[test]
    fn jackknife_produces_one_replicate_per_machine() {
        let report = machine_jackknife(&campaign(), 3).unwrap();
        assert_eq!(report.replicates.len(), 7);
        assert_eq!(report.baseline.len(), 3);
        for r in &report.replicates {
            assert_eq!(r.representatives.len(), 3);
            assert!(r.overlap <= 3);
        }
    }

    #[test]
    fn subsets_are_stable_under_machine_removal() {
        // The methodology's whole point: no single machine drives the
        // structure. Expect strong (not necessarily perfect) agreement.
        let report = machine_jackknife(&campaign(), 3).unwrap();
        assert!(
            report.mean_overlap() >= 0.5,
            "mean overlap {:.2}: {:#?}",
            report.mean_overlap(),
            report.replicates
        );
        assert!(report.most_distinct_agreement() >= 0.5);
    }

    #[test]
    fn needs_two_machines() {
        let r = Campaign::quick().measure(
            &cpu2017::speed_int()[..3],
            &[MachineConfig::skylake_i7_6700()],
        );
        assert!(machine_jackknife(&r, 2).is_err());
    }
}
