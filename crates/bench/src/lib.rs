//! Experiment drivers that regenerate every table and figure of the paper.
//!
//! Each `table_*` / `fig_*` function runs the full pipeline for one
//! experiment and returns its [`Report`]. The `repro` binary prints
//! them; the Criterion benches time them at reduced scale; the integration
//! tests assert their headline properties. The [`serve`] module wraps the
//! same registry in a persistent HTTP daemon (`repro serve`) sharing one
//! warm engine across requests.

// `deny` rather than `forbid`: the daemon's signal handling
// (`serve::signal`) carries the crate's one audited `unsafe` block.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod http;
mod sched;
pub mod serve;

use horizon_core::balance::{compare_coverage, power_analysis, removed_coverage};
use horizon_core::campaign::{Campaign, CampaignResult};
use horizon_core::classification::{Aspect, Classification};
use horizon_core::cpi_stack::{cpi_stacks, render_stacks};
use horizon_core::domains::classify_domains;
use horizon_core::input_sets::analyze_input_sets;
use horizon_core::metrics::Metric;
use horizon_core::rate_speed::{divergent_pairs, rate_speed_distances};
use horizon_core::report::{ascii_scatter, fmt, Report};
use horizon_core::sensitivity::{
    classify_sensitivity, in_class, SensitivityClass, SensitivityThresholds,
};
use horizon_core::similarity::SimilarityAnalysis;
use horizon_core::subsetting::{representative_subset, simulation_time_reduction, Subset};
use horizon_core::validation::{average_error, max_error, SpeedupTable};
use horizon_core::CoreError;
use horizon_stats::Range;
use horizon_uarch::MachineConfig;
use horizon_workloads::systems::{reference_machine, submitted_systems};
use horizon_workloads::{cpu2000, cpu2006, cpu2017, emerging, Benchmark, SubSuite};

/// Scale of a reproduction run.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Simulation window per (workload, machine) pair.
    pub campaign: Campaign,
    /// The measurement machines (the paper's Table IV set by default).
    pub machines: Vec<MachineConfig>,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            campaign: Campaign::default(),
            machines: MachineConfig::table_iv_machines(),
        }
    }
}

impl ReproConfig {
    /// A reduced-scale configuration for benches and smoke tests: three
    /// machines, short windows. Shapes survive; absolute values wobble.
    pub fn quick() -> Self {
        ReproConfig {
            campaign: Campaign::quick(),
            machines: vec![
                MachineConfig::skylake_i7_6700(),
                MachineConfig::sparc_t4(),
                MachineConfig::opteron_2435(),
            ],
        }
    }

    /// The smallest config that still exercises every pipeline stage: two
    /// machines and a minimal window. Used by the Criterion experiment
    /// benches, which time the *pipeline*, not the statistics quality.
    pub fn smoke() -> Self {
        ReproConfig {
            campaign: Campaign {
                instructions: 15_000,
                warmup: 5_000,
                seed: 42,
            },
            machines: vec![MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()],
        }
    }

    fn skylake_only(&self) -> Vec<MachineConfig> {
        vec![MachineConfig::skylake_i7_6700()]
    }
}

fn measure(cfg: &ReproConfig, benchmarks: &[Benchmark]) -> CampaignResult {
    cfg.campaign.measure(benchmarks, &cfg.machines)
}

fn marker(i: usize) -> char {
    const MARKS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    MARKS[i % MARKS.len()] as char
}

/// Table I: dynamic instruction count, instruction mix, and CPI of all 43
/// CPU2017 benchmarks on the Skylake machine.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table_1(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let benchmarks = cpu2017::all();
    let result = cfg.campaign.measure(&benchmarks, &cfg.skylake_only());
    let rows: Vec<Vec<String>> = benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let m = result.at(i, 0);
            vec![
                b.name().to_string(),
                fmt(b.icount_billions(), 0),
                fmt(Metric::PctLoads.extract(m), 2),
                fmt(Metric::PctStores.extract(m), 2),
                fmt(Metric::PctBranches.extract(m), 2),
                fmt(m.counters.cpi(), 2),
            ]
        })
        .collect();
    Ok(Report::default()
        .text(
            "Table I: Dynamic Instr. Count, Instr. Mix and CPI of the 43 SPEC \
             CPU2017 benchmarks (simulated Skylake)\n\n",
        )
        .table(
            &[
                "Benchmark",
                "Icount(B)",
                "Loads%",
                "Stores%",
                "Branches%",
                "CPI",
            ],
            rows,
        ))
}

/// Table II: min–max ranges of the cache/branch metrics per sub-suite.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table_2(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let metrics = [
        ("L1D$ MPKI", Metric::L1DMpki),
        ("L1I$ MPKI", Metric::L1IMpki),
        ("L2D$ MPKI", Metric::L2DMpki),
        ("L2I$ MPKI", Metric::L2IMpki),
        ("L3$ MPKI", Metric::L3Mpki),
        ("Branch misp. PKI", Metric::BranchMpki),
    ];
    let mut columns: Vec<(SubSuite, Vec<Vec<f64>>)> = Vec::new();
    for sub in [
        SubSuite::RateInt,
        SubSuite::SpeedInt,
        SubSuite::RateFp,
        SubSuite::SpeedFp,
    ] {
        let benchmarks = cpu2017::sub_suite(sub);
        let result = cfg.campaign.measure(&benchmarks, &cfg.skylake_only());
        let per_metric: Vec<Vec<f64>> = metrics
            .iter()
            .map(|(_, metric)| {
                (0..benchmarks.len())
                    .map(|w| metric.extract(result.at(w, 0)))
                    .collect()
            })
            .collect();
        columns.push((sub, per_metric));
    }
    let rows: Vec<Vec<String>> = metrics
        .iter()
        .enumerate()
        .map(|(mi, (label, _))| {
            let mut row = vec![label.to_string()];
            for (_, per_metric) in &columns {
                let range = Range::of(&per_metric[mi]).expect("non-empty sub-suite");
                row.push(format!("{range}"));
            }
            row
        })
        .collect();
    Ok(Report::default()
        .text(
            "Table II: Range of important performance characteristics of SPEC \
             CPU2017 benchmarks (simulated Skylake)\n\n",
        )
        .table(
            &["Metric", "Rate INT", "Speed INT", "Rate FP", "Speed FP"],
            rows,
        ))
}

/// Figure 1: CPI stacks of the CPU2017 rate benchmarks.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig_1(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let mut benchmarks = cpu2017::rate_int();
    benchmarks.extend(cpu2017::rate_fp());
    let result = cfg.campaign.measure(&benchmarks, &cfg.skylake_only());
    let rows = cpi_stacks(&result, "Intel Core i7-6700")?;
    Ok(Report::default().text(format!(
        "Figure 1: CPI stack of CPU2017 rate benchmarks\n\
         (# base, F frontend, B bad speculation, M memory, C core)\n\n{}",
        render_stacks(&rows, 0.02)
    )))
}

/// A sub-suite's similarity analysis (shared by Figures 2–4 and Table V).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn sub_suite_analysis(
    cfg: &ReproConfig,
    sub: SubSuite,
) -> Result<(SimilarityAnalysis, Vec<Benchmark>), CoreError> {
    let benchmarks = cpu2017::sub_suite(sub);
    let result = measure(cfg, &benchmarks);
    Ok((SimilarityAnalysis::from_campaign(&result)?, benchmarks))
}

fn dendrogram_figure(cfg: &ReproConfig, sub: SubSuite, title: &str) -> Result<Report, CoreError> {
    let (analysis, _) = sub_suite_analysis(cfg, sub)?;
    Ok(Report::default().text(format!(
        "{title}\n(PCs retained: {} covering {:.0}% of variance; average linkage)\n\n{}",
        analysis.pca().components(),
        analysis.pca().coverage() * 100.0,
        analysis.render_dendrogram()?
    )))
}

/// Figure 2: dendrogram of the SPECspeed INT benchmarks.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig_2(cfg: &ReproConfig) -> Result<Report, CoreError> {
    dendrogram_figure(
        cfg,
        SubSuite::SpeedInt,
        "Figure 2: Similarity between SPECspeed INT benchmarks",
    )
}

/// Figure 3: dendrogram of the SPECspeed FP benchmarks.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig_3(cfg: &ReproConfig) -> Result<Report, CoreError> {
    dendrogram_figure(
        cfg,
        SubSuite::SpeedFp,
        "Figure 3: Similarity between SPECspeed FP benchmarks",
    )
}

/// Figure 4: dendrogram of the SPECrate FP benchmarks.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig_4(cfg: &ReproConfig) -> Result<Report, CoreError> {
    dendrogram_figure(
        cfg,
        SubSuite::RateFp,
        "Figure 4: Similarity between SPECrate FP benchmarks",
    )
}

/// Computes the Table V subset for one sub-suite.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn sub_suite_subset(
    cfg: &ReproConfig,
    sub: SubSuite,
    k: usize,
) -> Result<(Subset, f64), CoreError> {
    let (analysis, benchmarks) = sub_suite_analysis(cfg, sub)?;
    let subset = representative_subset(&analysis, k)?;
    let icounts: Vec<(String, f64)> = benchmarks
        .iter()
        .map(|b| (b.name().to_string(), b.icount_billions()))
        .collect();
    let reduction = simulation_time_reduction(&subset, &icounts)?;
    Ok((subset, reduction))
}

/// Table V: representative 3-benchmark subsets of the four sub-suites, with
/// the §IV-A simulation-time reductions and the cut's silhouette quality.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table_5(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let mut rows = Vec::new();
    for sub in SubSuite::all() {
        let (analysis, benchmarks) = sub_suite_analysis(cfg, sub)?;
        let subset = representative_subset(&analysis, 3)?;
        let icounts: Vec<(String, f64)> = benchmarks
            .iter()
            .map(|b| (b.name().to_string(), b.icount_billions()))
            .collect();
        let reduction = simulation_time_reduction(&subset, &icounts)?;
        let clusters = analysis.dendrogram().cut_into(3);
        let silhouette = horizon_cluster::mean_silhouette(&clusters, analysis.distances())?;
        rows.push(vec![
            sub.to_string(),
            subset.representatives.join(", "),
            format!("{:.1}x", reduction),
            format!("{:.1}", subset.threshold),
            format!("{silhouette:.2}"),
        ]);
    }
    Ok(Report::default()
        .text("Table V: Representative subsets of the CPU2017 sub-suites\n\n")
        .table(
            &[
                "Sub-suite",
                "Subset of 3 Benchmarks",
                "Sim-time reduction",
                "Cut distance",
                "Silhouette",
            ],
            rows,
        ))
}

/// Figures 5/6 + Table VI: subset validation against commercial systems,
/// including the two random-subset baselines.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn validation_report(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let mut report = Report::default().text(
        "Figures 5/6 and Table VI: Validation of subsets using performance \
         scores of commercial systems\n\n",
    );
    let mut table_vi: Vec<Vec<String>> = Vec::new();
    for sub in SubSuite::all() {
        let (subset, _) = sub_suite_subset(cfg, sub, 3)?;
        let benchmarks = cpu2017::sub_suite(sub);
        let table = SpeedupTable::measure(
            &benchmarks,
            &submitted_systems(sub),
            &reference_machine(),
            &cfg.campaign,
        );
        let scores = table.validate(&subset.representatives)?;
        let rows: Vec<Vec<String>> = scores
            .iter()
            .map(|s| {
                vec![
                    s.system.clone(),
                    fmt(s.full_score, 2),
                    fmt(s.subset_score, 2),
                    format!("{:.1}%", s.error_pct()),
                ]
            })
            .collect();
        report = report
            .subset(sub.to_string(), &subset.representatives)
            .table(
                &["System", "Full-suite score", "Subset score", "Error"],
                rows,
            )
            .error_stat(average_error(&scores), max_error(&scores))
            .text("\n");

        // The paper reports two specific random draws; two draws are
        // luck-dominated, so we report the mean and worst of ten.
        let rand_errors: Vec<f64> = (1..=10)
            .map(|seed| Ok(average_error(&table.validate_random(3, seed)?)))
            .collect::<Result<_, CoreError>>()?;
        let rand_mean = rand_errors.iter().sum::<f64>() / rand_errors.len() as f64;
        let rand_worst = rand_errors.iter().cloned().fold(0.0, f64::max);
        table_vi.push(vec![
            sub.to_string(),
            format!("{:.1}%", average_error(&scores)),
            format!("{rand_mean:.1}%"),
            format!("{rand_worst:.1}%"),
        ]);
    }
    Ok(report
        .text(
            "Table VI: Accuracy comparison among proposed and random subsets\n\
             (random column: mean/worst over 10 draws; the paper's two draws\n\
             landed at 22-50%)\n\n",
        )
        .table(
            &[
                "Sub-suite",
                "Identified subset",
                "Rand mean(10)",
                "Rand worst",
            ],
            table_vi,
        ))
}

/// Figures 7/8 + Table VII: input-set similarity and representative-input
/// selection.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn input_sets_report(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let mut report = Report::default().text(
        "Figures 7/8 and Table VII: Input-set similarity and representative \
         input sets\n\n",
    );
    for (label, benchmarks) in [
        ("INT benchmarks (Figure 7)", {
            let mut v = cpu2017::rate_int();
            v.extend(cpu2017::speed_int());
            v
        }),
        ("FP benchmarks (Figure 8)", {
            let mut v = cpu2017::rate_fp();
            v.extend(cpu2017::speed_fp());
            v
        }),
    ] {
        // Keep the dendrogram readable: only the multi-input benchmarks
        // plus their aggregates participate, as in the paper's figures.
        let multi: Vec<Benchmark> = benchmarks
            .into_iter()
            .filter(horizon_workloads::inputs::has_multiple_inputs)
            .collect();
        if multi.is_empty() {
            continue;
        }
        let (analysis, choices) = analyze_input_sets(&multi, &cfg.machines, &cfg.campaign)?;
        report = report.text(format!(
            "{label}: {} PCs covering {:.0}% of variance\n\n{}\n",
            analysis.pca().components(),
            analysis.pca().coverage() * 100.0,
            analysis.render_dendrogram()?
        ));
        let rows: Vec<Vec<String>> = choices
            .iter()
            .map(|c| {
                vec![
                    c.benchmark.clone(),
                    format!("input set {}", c.representative),
                    c.distances_to_aggregate
                        .iter()
                        .map(|d| fmt(*d, 2))
                        .collect::<Vec<_>>()
                        .join(" / "),
                ]
            })
            .collect();
        report = report
            .table(
                &["Benchmark", "Representative", "Distances to aggregate"],
                rows,
            )
            .text("\n");
    }
    Ok(report)
}

/// §IV-D: rate-vs-speed linkage distances over all 43 benchmarks.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn rate_speed_report(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let benchmarks = cpu2017::all();
    let result = measure(cfg, &benchmarks);
    let analysis = SimilarityAnalysis::from_campaign(&result)?;
    let pairs = rate_speed_distances(&analysis, &benchmarks)?;
    let (divergent, similar) = divergent_pairs(&pairs);
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|p| {
            vec![
                p.stem.clone(),
                p.rate.clone(),
                p.speed.clone(),
                fmt(p.distance, 2),
            ]
        })
        .collect();
    Ok(Report::default()
        .text("Section IV-D: Are rate and speed benchmarks different?\n\n")
        .table(&["Stem", "Rate", "Speed", "PC distance"], rows)
        .text(format!(
            "\nmost divergent: {}\nmost similar: {}\n",
            divergent
                .iter()
                .map(|p| p.stem.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            similar
                .iter()
                .map(|p| p.stem.as_str())
                .collect::<Vec<_>>()
                .join(", "),
        )))
}

/// Figure 9: branch-behavior PC scatter over all 43 benchmarks.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig_9(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let benchmarks = cpu2017::all();
    let result = measure(cfg, &benchmarks);
    let c = Classification::new(&result, Aspect::Branch)?;
    let scatter = c
        .analysis()
        .pc_scatter(0, 1.min(c.analysis().pca().components() - 1))?;
    let points: Vec<(char, String, f64, f64)> = scatter
        .iter()
        .enumerate()
        .map(|(i, (n, x, y))| (marker(i), n.clone(), *x, *y))
        .collect();
    let worst = c.extremes_by_metric(&result, Metric::BranchMpki, 4);
    let taken = c.extremes_by_metric(&result, Metric::BranchTakenPki, 4);
    let describe = |pc: usize| -> Result<String, CoreError> {
        Ok(c.analysis()
            .dominant_features(pc, 2)?
            .into_iter()
            .map(|(l, w)| format!("{l} ({w:+.2})"))
            .collect::<Vec<_>>()
            .join(", "))
    };
    Ok(Report::default().text(format!(
        "Figure 9: CPU2017 benchmarks in the PC space of branch metrics\n\n{}\n\
         PC1 dominated by: {}\nPC2 dominated by: {}\n\
         highest misprediction rates: {}\nhighest taken-branch activity: {}\n",
        ascii_scatter(&points, 72, 24, "PC1", "PC2"),
        describe(0)?,
        describe(1.min(c.analysis().pca().components() - 1))?,
        worst
            .iter()
            .map(|(n, v)| format!("{n} ({v:.1})"))
            .collect::<Vec<_>>()
            .join(", "),
        taken
            .iter()
            .map(|(n, v)| format!("{n} ({v:.0})"))
            .collect::<Vec<_>>()
            .join(", "),
    )))
}

/// Figure 10: data-cache and instruction-cache PC scatters.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig_10(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let benchmarks = cpu2017::all();
    let result = measure(cfg, &benchmarks);
    let mut report = Report::default()
        .text("Figure 10: CPU2017 benchmarks in the PC space of cache metrics\n\n");
    for (label, aspect, metric) in [
        (
            "Data-cache space (PC1 vs PC2)",
            Aspect::DataCache,
            Metric::L1DMpki,
        ),
        (
            "Instruction-cache space (PC1 vs PC2)",
            Aspect::InstructionCache,
            Metric::L1IMpki,
        ),
    ] {
        let c = Classification::new(&result, aspect)?;
        let k = c.analysis().pca().components();
        let scatter = c.analysis().pc_scatter(0, 1.min(k - 1))?;
        let points: Vec<(char, String, f64, f64)> = scatter
            .iter()
            .enumerate()
            .map(|(i, (n, x, y))| (marker(i), n.clone(), *x, *y))
            .collect();
        let extremes = c.extremes_by_metric(&result, metric, 4);
        report = report.text(format!(
            "{label}\n\n{}\nextremes by {}: {}\n\n",
            ascii_scatter(&points, 72, 20, "PC1", "PC2"),
            metric.label(),
            extremes
                .iter()
                .map(|(n, v)| format!("{n} ({v:.1})"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    Ok(report)
}

/// Table VIII: application-domain classification with distinct members.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table_8(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let benchmarks = cpu2017::all();
    let result = measure(cfg, &benchmarks);
    let analysis = SimilarityAnalysis::from_campaign(&result)?;
    let table = classify_domains(&analysis, &benchmarks, 0.5)?;
    let rows: Vec<Vec<String>> = table
        .iter()
        .map(|e| {
            vec![
                e.domain.clone(),
                e.members.len().to_string(),
                e.distinct.join(", "),
            ]
        })
        .collect();
    Ok(Report::default()
        .text(
            "Table VIII: Classification of benchmarks based on application \
             domains (distinct members marked)\n\n",
        )
        .table(&["App domain", "Members", "Distinct benchmarks"], rows))
}

/// Figure 11 + §V-B: CPU2017 vs CPU2006 coverage and removed-benchmark
/// coverage gaps.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig_11(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let c2017 = cpu2017::all();
    let c2006 = cpu2006::all();
    let mut all = c2017.clone();
    all.extend(c2006.clone());
    let result = measure(cfg, &all);
    let analysis = SimilarityAnalysis::from_campaign(&result)?;

    let names2017: Vec<String> = c2017.iter().map(|b| b.name().to_string()).collect();
    let names2006: Vec<String> = c2006.iter().map(|b| b.name().to_string()).collect();

    let mut report =
        Report::default().text("Figure 11: CPU2017 and CPU2006 in the PC workload space\n\n");
    let k = analysis.pca().components();
    for (label, px, py) in [("PC1 vs PC2", 0, 1), ("PC3 vs PC4", 2, 3)] {
        if py >= k {
            continue;
        }
        let cmp = compare_coverage(&analysis, &names2017, &names2006, px, py)?;
        let scatter = analysis.pc_scatter(px, py)?;
        let points: Vec<(char, String, f64, f64)> = scatter
            .iter()
            .map(|(n, x, y)| {
                let is2017 = names2017.iter().any(|m| m == n);
                (
                    if is2017 { '7' } else { '6' },
                    if is2017 {
                        "CPU2017".to_string()
                    } else {
                        "CPU2006".to_string()
                    },
                    *x,
                    *y,
                )
            })
            .collect();
        report = report.text(format!(
            "{label}:\n{}\nCPU2017 hull area {:.1}, CPU2006 hull area {:.1} \
             (ratio {:.2}); {:.0}% of CPU2017 outside CPU2006's hull\n\n",
            ascii_scatter(&points, 72, 22, "PCx", "PCy"),
            cmp.area_a,
            cmp.area_b,
            cmp.area_a / cmp.area_b.max(1e-9),
            cmp.outside_fraction * 100.0,
        ));
    }

    // §V-B: coverage of the removed CPU2006 benchmarks.
    let removed: Vec<String> = c2006
        .iter()
        .map(|b| b.name().to_string())
        .filter(|n| !["471.omnetpp", "410.bwaves"].contains(&n.as_str()))
        .collect();
    let gaps = removed_coverage(&analysis, &removed, &names2017, 0.77)?;
    let rows: Vec<Vec<String>> = gaps
        .iter()
        .map(|g| {
            vec![
                g.removed.clone(),
                g.nearest.clone(),
                fmt(g.distance, 2),
                if g.uncovered {
                    "NOT COVERED".into()
                } else {
                    "covered".into()
                },
            ]
        })
        .collect();
    let uncovered: Vec<&str> = gaps
        .iter()
        .filter(|g| g.uncovered)
        .map(|g| g.removed.as_str())
        .collect();
    Ok(report
        .text("Section V-B: coverage of removed CPU2006 benchmarks\n\n")
        .table(
            &[
                "Removed benchmark",
                "Nearest CPU2017",
                "Distance",
                "Verdict",
            ],
            rows,
        )
        .text(format!("\nuncovered: {}\n", uncovered.join(", "))))
}

/// Figure 12: power-characteristics PC scatter of CPU2017 vs CPU2006 on the
/// RAPL-capable Intel machines.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig_12(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let c2017 = cpu2017::all();
    let c2006 = cpu2006::all();
    let mut all = c2017.clone();
    all.extend(c2006.clone());
    let result = cfg.campaign.measure(&all, &MachineConfig::rapl_machines());
    let analysis = power_analysis(&result)?;
    let names2017: Vec<String> = c2017.iter().map(|b| b.name().to_string()).collect();
    let names2006: Vec<String> = c2006.iter().map(|b| b.name().to_string()).collect();
    let cmp = compare_coverage(&analysis, &names2017, &names2006, 0, 1)?;
    let scatter = analysis.pc_scatter(0, 1)?;
    let points: Vec<(char, String, f64, f64)> = scatter
        .iter()
        .map(|(n, x, y)| {
            let is2017 = names2017.iter().any(|m| m == n);
            (
                if is2017 { '7' } else { '6' },
                if is2017 { "CPU2017" } else { "CPU2006" }.to_string(),
                *x,
                *y,
            )
        })
        .collect();
    Ok(Report::default().text(format!(
        "Figure 12: CPU2017 and CPU2006 in the PC space of power \
         characteristics (3 Intel machines)\n\n{}\nCPU2017 hull area {:.1} vs \
         CPU2006 {:.1} (ratio {:.2})\n",
        ascii_scatter(&points, 72, 22, "PC1 (DRAM power)", "PC2 (core power)"),
        cmp.area_a,
        cmp.area_b,
        cmp.area_a / cmp.area_b.max(1e-9),
    )))
}

/// Figure 13: similarity among CPU2017, EDA, graph-analytics, and database
/// workloads.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig_13(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let mut all = cpu2017::all();
    all.extend(cpu2000::all());
    all.extend(emerging::all());
    let result = measure(cfg, &all);
    let analysis = SimilarityAnalysis::from_campaign(&result)?;
    let mut report = Report::default().text(format!(
        "Figure 13: Similarity among CPU2017, EDA, graph analytics and \
         database applications\n\n{}\n",
        analysis.render_dendrogram()?
    ));
    // Headline claims of §V-D/E/F.
    let cpu2017_names: Vec<String> = cpu2017::all()
        .iter()
        .map(|b| b.name().to_string())
        .collect();
    for probe in [
        "175.vpr",
        "300.twolf",
        "cas-WA",
        "cas-WC",
        "pr-web",
        "cc-web",
    ] {
        let i = analysis.index_of(probe)?;
        let (nearest, dist) = (0..analysis.names().len())
            .filter(|&j| j != i && cpu2017_names.contains(&analysis.names()[j]))
            .map(|j| (analysis.names()[j].clone(), analysis.distances().get(i, j)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        report = report.text(format!(
            "{probe}: nearest CPU2017 benchmark {nearest} at distance {dist:.2}\n"
        ));
    }
    Ok(report)
}

/// Table IX: sensitivity classes for branch prediction, L1 D-cache and
/// L1 D-TLB across four machines.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table_9(cfg: &ReproConfig) -> Result<Report, CoreError> {
    let benchmarks = cpu2017::all();
    // Four machines, as in §V-G: diverse predictors, L1 sizes and TLBs.
    let machines = vec![
        MachineConfig::skylake_i7_6700(),
        MachineConfig::core2_e5405(),
        MachineConfig::sparc_iv_plus_v490(),
        MachineConfig::opteron_2435(),
    ];
    let result = cfg.campaign.measure(&benchmarks, &machines);
    let mut report = Report::default().text(
        "Table IX: Sensitivity to branch misprediction rate, L1 D-cache miss \
         rate and TLB miss rate (four machines)\n\n",
    );
    for (label, metric) in [
        ("Branch Prediction", Metric::BranchMpki),
        ("L1 D-cache", Metric::L1DMpki),
        ("L1 D TLB", Metric::DtlbMpmi),
    ] {
        let s = classify_sensitivity(&result, metric, SensitivityThresholds::default())?;
        report = report.text(format!(
            "{label}\n  High:   {}\n  Medium: {}\n\n",
            in_class(&s, SensitivityClass::High).join(", "),
            in_class(&s, SensitivityClass::Medium).join(", "),
        ));
    }
    Ok(report)
}

/// Methodology-robustness report: leave-one-machine-out jackknife of the
/// SPECspeed INT subset (the §III motivation for seven machines).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn stability_report(cfg: &ReproConfig) -> Result<Report, CoreError> {
    use horizon_core::stability::machine_jackknife;
    let benchmarks = cpu2017::speed_int();
    let result = measure(cfg, &benchmarks);
    let jackknife = machine_jackknife(&result, 3)?;
    let rows: Vec<Vec<String>> = jackknife
        .replicates
        .iter()
        .map(|r| {
            vec![
                r.dropped_machine.clone(),
                r.representatives.join(", "),
                format!("{}/3", r.overlap),
                r.most_distinct.clone(),
            ]
        })
        .collect();
    Ok(Report::default()
        .text(format!(
            "Methodology stability: leave-one-machine-out jackknife          \
             (SPECspeed INT, k = 3)\n\nbaseline subset: {} (most distinct: {})\n\n",
            jackknife.baseline.join(", "),
            jackknife.baseline_most_distinct,
        ))
        .table(
            &["Dropped machine", "Subset", "Overlap", "Most distinct"],
            rows,
        )
        .text(format!(
            "\n         mean subset overlap {:.0}%, most-distinct agreement {:.0}%\n",
            jackknife.mean_overlap() * 100.0,
            jackknife.most_distinct_agreement() * 100.0,
        )))
}

/// One experiment of the reproduction: canonical id, accepted aliases, and
/// its driver. The registry below is the single source of truth consumed
/// by [`all_experiments`], the `repro` binary, and the smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Canonical id, as printed by `repro all` section headers.
    pub id: &'static str,
    /// Alternative names accepted on the command line (figures/tables that
    /// share one driver run).
    pub aliases: &'static [&'static str],
    /// One-line description for `repro list`.
    pub summary: &'static str,
    /// Approximate cost: the number of (benchmark × machine) grid cells a
    /// cold run expands. The cluster router charges it against a client's
    /// rate limit; a streamed run's `start` frame reports it.
    pub weight: u64,
    /// The driver producing the report.
    pub run: fn(&ReproConfig) -> Result<Report, CoreError>,
}

/// All experiments, in paper order.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table1",
        aliases: &[],
        summary: "Dynamic instruction count, instruction mix and CPI (Table I)",
        weight: 43,
        run: table_1,
    },
    Experiment {
        id: "table2",
        aliases: &[],
        summary: "Ranges of cache and branch metrics per sub-suite (Table II)",
        weight: 43,
        run: table_2,
    },
    Experiment {
        id: "fig1",
        aliases: &[],
        summary: "CPI stacks of the rate benchmarks (Figure 1)",
        weight: 25,
        run: fig_1,
    },
    Experiment {
        id: "fig2",
        aliases: &[],
        summary: "SPECspeed INT similarity dendrogram (Figure 2)",
        weight: 70,
        run: fig_2,
    },
    Experiment {
        id: "fig3",
        aliases: &[],
        summary: "SPECspeed FP similarity dendrogram (Figure 3)",
        weight: 91,
        run: fig_3,
    },
    Experiment {
        id: "fig4",
        aliases: &[],
        summary: "SPECrate FP similarity dendrogram (Figure 4)",
        weight: 91,
        run: fig_4,
    },
    Experiment {
        id: "table5",
        aliases: &[],
        summary: "Representative 3-benchmark subsets (Table V)",
        weight: 300,
        run: table_5,
    },
    Experiment {
        id: "fig5-6+table6",
        aliases: &["fig5", "fig6", "table6"],
        summary: "Subset validation on commercial systems (Figures 5/6, Table VI)",
        weight: 600,
        run: validation_report,
    },
    Experiment {
        id: "fig7-8+table7",
        aliases: &["fig7", "fig8", "table7"],
        summary: "Input-set similarity and representatives (Figures 7/8, Table VII)",
        weight: 150,
        run: input_sets_report,
    },
    Experiment {
        id: "rate-speed",
        aliases: &[],
        summary: "Rate vs speed benchmark divergence (Section IV-D)",
        weight: 300,
        run: rate_speed_report,
    },
    Experiment {
        id: "fig9",
        aliases: &[],
        summary: "Branch-behavior PC scatter (Figure 9)",
        weight: 301,
        run: fig_9,
    },
    Experiment {
        id: "fig10",
        aliases: &[],
        summary: "Data/instruction cache PC scatters (Figure 10)",
        weight: 301,
        run: fig_10,
    },
    Experiment {
        id: "table8",
        aliases: &[],
        summary: "Application-domain classification (Table VIII)",
        weight: 301,
        run: table_8,
    },
    Experiment {
        id: "fig11",
        aliases: &[],
        summary: "CPU2017 vs CPU2006 workload-space coverage (Figure 11, Section V-B)",
        weight: 600,
        run: fig_11,
    },
    Experiment {
        id: "fig12",
        aliases: &[],
        summary: "Power-characteristics coverage on Intel machines (Figure 12)",
        weight: 350,
        run: fig_12,
    },
    Experiment {
        id: "fig13",
        aliases: &[],
        summary: "Similarity with EDA, graph and database workloads (Figure 13)",
        weight: 700,
        run: fig_13,
    },
    Experiment {
        id: "table9",
        aliases: &[],
        summary: "Branch/L1D/TLB sensitivity classes (Table IX)",
        weight: 250,
        run: table_9,
    },
    Experiment {
        id: "stability",
        aliases: &[],
        summary: "Leave-one-machine-out methodology jackknife",
        weight: 100,
        run: stability_report,
    },
];

/// Looks an experiment up by canonical id or alias.
pub fn find_experiment(name: &str) -> Option<&'static Experiment> {
    REGISTRY
        .iter()
        .find(|e| e.id == name || e.aliases.contains(&name))
}

/// Runs one experiment under an `experiment` telemetry span (carrying the
/// experiment's canonical id), so every engine campaign and pipeline stage
/// it triggers nests under one per-experiment subtree in the trace. Every
/// caller — the `repro` binary, the daemon and [`all_experiments`] — goes
/// through here.
///
/// # Errors
///
/// Propagates the experiment's error.
pub fn run_report(e: &Experiment, cfg: &ReproConfig) -> Result<Report, CoreError> {
    // A phase span, so live-bus subscribers (SSE streams, `--progress`)
    // see the experiment enter and exit.
    let mut span = horizon_telemetry::phase_span("experiment");
    span.record("id", e.id);
    (e.run)(cfg)
}

/// [`run_report`], rendered as the report text.
///
/// # Errors
///
/// Propagates the experiment's error.
pub fn run_experiment(e: &Experiment, cfg: &ReproConfig) -> Result<String, CoreError> {
    run_report(e, cfg).map(|report| report.to_string())
}

/// Every experiment in paper order; each item is `(id, report)`.
///
/// # Errors
///
/// Propagates the first failing experiment's error.
pub fn all_experiments(cfg: &ReproConfig) -> Result<Vec<(&'static str, String)>, CoreError> {
    REGISTRY
        .iter()
        .map(|e| Ok((e.id, run_experiment(e, cfg)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_core::report_v1::ReportV1;

    // Full-scale experiment content is exercised by the integration tests;
    // here we only check driver plumbing at the quick scale.

    #[test]
    fn table_1_lists_all_benchmarks() {
        let out = table_1(&ReproConfig::quick()).unwrap().to_string();
        assert!(out.contains("605.mcf_s"));
        assert!(out.contains("554.roms_r"));
        assert!(out.matches('\n').count() > 43);
    }

    #[test]
    fn table_5_has_four_subsuites() {
        let out = table_5(&ReproConfig::quick()).unwrap().to_string();
        for sub in SubSuite::all() {
            assert!(out.contains(&sub.to_string()), "{out}");
        }
        assert!(out.contains('x'));
    }

    #[test]
    fn fig_2_renders_dendrogram() {
        let out = fig_2(&ReproConfig::quick()).unwrap().to_string();
        assert!(out.contains("641.leela_s"));
        assert!(out.contains('+'));
    }

    #[test]
    fn reports_project_their_tables_titles_and_error_statistics() {
        let cfg = ReproConfig::smoke();
        for e in REGISTRY {
            let report = run_report(e, &cfg).unwrap();
            let text = report.to_string();
            let json = ReportV1::from_report(e.id, &report);
            assert_eq!(text.lines().next(), Some(json.title.as_str()), "{}", e.id);
            for table in &json.tables {
                for row in &table.rows {
                    assert_eq!(row.len(), table.columns.len(), "{}: {row:?}", e.id);
                    assert!(!row[0].starts_with("average error"), "{}: {row:?}", e.id);
                }
            }
            if e.id != "fig5-6+table6" {
                continue;
            }
            let contexts: Vec<String> = json.errors.iter().map(|s| s.context.clone()).collect();
            let sub_suites: Vec<String> = SubSuite::all().iter().map(|s| s.to_string()).collect();
            assert_eq!(contexts, sub_suites);
            let printed: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with("average error"))
                .collect();
            let projected: Vec<String> = json
                .errors
                .iter()
                .map(|s| {
                    format!(
                        "average error {}%, max {}%",
                        fmt(s.average_pct, 1),
                        fmt(s.max_pct, 1)
                    )
                })
                .collect();
            assert_eq!(printed, projected);
        }
    }

    #[test]
    fn marker_cycles() {
        assert_eq!(marker(0), 'a');
        assert_eq!(marker(26), 'A');
        assert_eq!(marker(62), 'a');
    }
}
