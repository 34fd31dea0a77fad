//! Integration tests for the §V balance studies: CPU2017 vs CPU2006,
//! removed-benchmark coverage, power spectrum, and the emerging-workload
//! case studies.

use horizon::core::balance::{compare_coverage, power_analysis, removed_coverage};
use horizon::core::campaign::Campaign;
use horizon::core::similarity::SimilarityAnalysis;
use horizon::uarch::MachineConfig;
use horizon::workloads::{cpu2000, cpu2006, cpu2017, emerging};

fn campaign() -> Campaign {
    Campaign {
        instructions: 150_000,
        warmup: 40_000,
        seed: 42,
    }
}

fn joint_analysis() -> (SimilarityAnalysis, Vec<String>, Vec<String>) {
    let c2017 = cpu2017::all();
    let c2006 = cpu2006::all();
    let mut all = c2017.clone();
    all.extend(c2006.clone());
    let result = campaign().measure(&all, &MachineConfig::table_iv_machines());
    let analysis = SimilarityAnalysis::from_campaign(&result).unwrap();
    (
        analysis,
        c2017.iter().map(|b| b.name().to_string()).collect(),
        c2006.iter().map(|b| b.name().to_string()).collect(),
    )
}

/// §V-A / Figure 11. The paper's finding is two-part: in PC1–PC2 the new
/// suite "only slightly expands the coverage area" but a large share of its
/// benchmarks fall outside the old hull; in PC3–PC4 it covers about twice
/// the area.
#[test]
fn cpu2017_expands_the_workload_space() {
    let (analysis, names2017, names2006) = joint_analysis();

    let pc12 = compare_coverage(&analysis, &names2017, &names2006, 0, 1).unwrap();
    assert!(
        pc12.area_a > pc12.area_b * 0.75,
        "PC1-2 areas {:.1} vs {:.1}",
        pc12.area_a,
        pc12.area_b
    );
    assert!(
        pc12.outside_fraction >= 0.15,
        "only {:.0}% outside in PC1-2",
        pc12.outside_fraction * 100.0
    );

    let pc34 = compare_coverage(&analysis, &names2017, &names2006, 2, 3).unwrap();
    assert!(
        pc34.area_a > pc34.area_b * 1.5,
        "PC3-4 areas {:.1} vs {:.1} (paper: ~2x)",
        pc34.area_a,
        pc34.area_b
    );
}

/// §V-B: of the removed CPU2006 benchmarks, 429.mcf is NOT covered by
/// CPU2017 (it stresses the caches harder than the new mcf), while the
/// removed-but-covered domains (sphinx3, soplex, gamess, tonto) are.
#[test]
fn removed_coverage_identifies_mcf_gap() {
    let (analysis, names2017, names2006) = joint_analysis();
    let removed: Vec<String> = names2006
        .iter()
        .filter(|n| !["471.omnetpp", "410.bwaves"].contains(&n.as_str()))
        .cloned()
        .collect();
    let gaps = removed_coverage(&analysis, &removed, &names2017, 0.77).unwrap();
    let gap_of = |name: &str| gaps.iter().find(|g| g.removed == name).unwrap();

    assert!(gap_of("429.mcf").uncovered, "{:?}", gap_of("429.mcf"));
    // Covered removals sit closer to CPU2017 than the uncovered mcf.
    for covered in ["483.sphinx3", "416.gamess", "465.tonto"] {
        assert!(
            gap_of(covered).distance < gap_of("429.mcf").distance,
            "{covered}: {:?} vs {:?}",
            gap_of(covered),
            gap_of("429.mcf")
        );
    }
}

/// §V-C / Figure 12: CPU2017 covers at least as much of the power spectrum
/// as CPU2006 (the paper: "much higher coverage space").
#[test]
fn power_spectrum_coverage() {
    let c2017 = cpu2017::all();
    let c2006 = cpu2006::all();
    let mut all = c2017.clone();
    all.extend(c2006.clone());
    let result = campaign().measure(&all, &MachineConfig::rapl_machines());
    let analysis = power_analysis(&result).unwrap();
    let names2017: Vec<String> = c2017.iter().map(|b| b.name().to_string()).collect();
    let names2006: Vec<String> = c2006.iter().map(|b| b.name().to_string()).collect();
    let cmp = compare_coverage(&analysis, &names2017, &names2006, 0, 1).unwrap();
    assert!(
        cmp.area_a > cmp.area_b,
        "power areas {:.2} vs {:.2}",
        cmp.area_a,
        cmp.area_b
    );
}

/// §V-D/E/F / Figure 13: EDA sits close to the CPU2017 space (near mcf),
/// the database workloads sit far from every CPU2017 benchmark, and
/// connected-components sits closer than pagerank.
#[test]
fn emerging_workload_case_studies() {
    let c2017 = cpu2017::all();
    let mut all = c2017.clone();
    all.extend(cpu2000::all());
    all.extend(emerging::all());
    let result = campaign().measure(&all, &MachineConfig::table_iv_machines());
    let analysis = SimilarityAnalysis::from_campaign(&result).unwrap();

    let nearest_2017 = |probe: &str| -> f64 {
        let i = analysis.index_of(probe).unwrap();
        c2017
            .iter()
            .map(|b| {
                let j = analysis.index_of(b.name()).unwrap();
                analysis.distances().get(i, j)
            })
            .fold(f64::INFINITY, f64::min)
    };

    let vpr = nearest_2017("175.vpr");
    let twolf = nearest_2017("300.twolf");
    let cas_a = nearest_2017("cas-WA");
    let cas_c = nearest_2017("cas-WC");
    let pr = nearest_2017("pr-web");
    let cc = nearest_2017("cc-web");

    // §V-D: EDA is well covered.
    // §V-E: Cassandra is not ("very different characteristics").
    assert!(vpr < cas_a, "vpr {vpr:.2} vs cas-WA {cas_a:.2}");
    assert!(twolf < cas_c, "twolf {twolf:.2} vs cas-WC {cas_c:.2}");
    // §V-F: cc is covered, pr is distinct.
    assert!(cc < pr, "cc {cc:.2} vs pr {pr:.2}");
    assert!(cc < cas_a, "cc {cc:.2} vs cas {cas_a:.2}");
}
