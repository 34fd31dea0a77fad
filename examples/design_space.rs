//! Microarchitecture design-space exploration with the simulator substrate:
//! the use case the paper's subsets exist for. Sweep L1D sizes and branch
//! predictors over the full SPECrate INT suite and over its 3-benchmark
//! subset, and show that the subset predicts the design ranking.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use horizon::core::campaign::Campaign;
use horizon::core::similarity::SimilarityAnalysis;
use horizon::core::subsetting::representative_subset;
use horizon::stats::geometric_mean;
use horizon::uarch::{CacheConfig, FleetSimulator, MachineConfig, PredictorKind};
use horizon::workloads::cpu2017;

/// Geomean of one design's CPIs (lower is better).
fn geomean_cpi(cpis: impl Iterator<Item = f64>) -> f64 {
    geometric_mean(&cpis.collect::<Vec<_>>()).expect("positive CPIs")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmarks = cpu2017::rate_int();

    // Identify the representative subset once, using the full methodology.
    let result = Campaign::default().measure(&benchmarks, &MachineConfig::table_iv_machines());
    let analysis = SimilarityAnalysis::from_campaign(&result)?;
    let subset = representative_subset(&analysis, 3)?;
    println!(
        "subset used for fast exploration: {}\n",
        subset.representatives.join(", ")
    );

    // Candidate designs: L1D size x predictor.
    let base = MachineConfig::skylake_i7_6700();
    let mut designs: Vec<(String, MachineConfig)> = Vec::new();
    for (l1_kb, ways) in [(16u64, 8u32), (32, 8), (64, 8)] {
        for (pname, predictor) in [
            ("bimodal", PredictorKind::Bimodal { table_bits: 12 }),
            ("tage", PredictorKind::TageLite { table_bits: 13 }),
        ] {
            let m = base
                .with_l1d(CacheConfig::new(l1_kb << 10, ways))
                .with_predictor(predictor);
            designs.push((format!("L1D={l1_kb}KB,{pname}"), m));
        }
    }

    // One fleet run per benchmark simulates all six designs from a single
    // trace expansion: `cpis[b][d]` is benchmark b's CPI on design d.
    let machines: Vec<MachineConfig> = designs.iter().map(|(_, m)| m.clone()).collect();
    let fleet = FleetSimulator::new(&machines).with_warmup(60_000);
    let cpis: Vec<Vec<f64>> = benchmarks
        .iter()
        .map(|b| {
            let counters = fleet.run(b.profile(), 200_000, 42);
            counters.iter().map(|c| c.cpi()).collect()
        })
        .collect();
    let in_subset: Vec<bool> = benchmarks
        .iter()
        .map(|b| subset.contains(b.name()))
        .collect();

    println!(
        "{:<20} {:>10} {:>12}  (geomean CPI, lower is better)",
        "design", "full suite", "3-subset"
    );
    let mut rankings: Vec<(String, f64, f64)> = Vec::new();
    for (d, (name, _)) in designs.iter().enumerate() {
        let full_cpi = geomean_cpi(cpis.iter().map(|row| row[d]));
        let subset_cpi = geomean_cpi(
            cpis.iter()
                .zip(&in_subset)
                .filter(|(_, &keep)| keep)
                .map(|(row, _)| row[d]),
        );
        println!("{name:<20} {full_cpi:>10.3} {subset_cpi:>12.3}");
        rankings.push((name.clone(), full_cpi, subset_cpi));
    }

    // Does the subset rank designs in the same order as the full suite?
    let mut by_full = rankings.clone();
    by_full.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let mut by_subset = rankings.clone();
    by_subset.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
    let agree = by_full
        .iter()
        .zip(&by_subset)
        .filter(|(a, b)| a.0 == b.0)
        .count();
    println!(
        "\ndesign ranking agreement between full suite and subset: {agree}/{}",
        designs.len()
    );
    println!("best design (full): {}", by_full[0].0);
    println!("best design (subset): {}", by_subset[0].0);
    Ok(())
}
