//! Ablation benches for the design choices called out in DESIGN.md §5:
//! linkage criterion, PC-retention rule, memory model structure, and the
//! hardware prefetcher. Each target reruns the affected pipeline stage
//! under the alternative design so the cost and behavior can be compared.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use horizon_cluster::Linkage;
use horizon_core::campaign::Campaign;
use horizon_core::metrics::{feature_matrix, Metric};
use horizon_core::similarity::SimilarityAnalysis;
use horizon_stats::Retention;
use horizon_trace::{Region, WorkloadProfile};
use horizon_uarch::{FleetSimulator, MachineConfig, PrefetchConfig};
use horizon_workloads::cpu2017;

fn campaign_features() -> (Vec<String>, horizon_stats::Matrix) {
    let benchmarks = cpu2017::rate_int();
    let result = Campaign::quick().measure(
        &benchmarks,
        &[MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()],
    );
    let (x, _) = feature_matrix(&result, &Metric::table_iii());
    (result.workloads().to_vec(), x)
}

/// DESIGN.md §5.3: subsetting under each linkage criterion.
fn ablation_linkage(c: &mut Criterion) {
    let (names, x) = campaign_features();
    let mut group = c.benchmark_group("ablation/linkage");
    for linkage in Linkage::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(linkage),
            &linkage,
            |b, &linkage| {
                b.iter(|| {
                    SimilarityAnalysis::from_features(names.clone(), &x, Retention::Kaiser, linkage)
                        .unwrap()
                        .dendrogram()
                        .max_height()
                })
            },
        );
    }
    group.finish();
}

/// DESIGN.md §5.4: Kaiser criterion vs variance-coverage vs all components.
fn ablation_retention(c: &mut Criterion) {
    let (names, x) = campaign_features();
    let mut group = c.benchmark_group("ablation/retention");
    for (label, retention) in [
        ("kaiser", Retention::Kaiser),
        ("coverage90", Retention::VarianceCoverage(0.9)),
        ("all", Retention::All),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &retention, |b, &r| {
            b.iter(|| {
                SimilarityAnalysis::from_features(names.clone(), &x, r, Linkage::Average)
                    .unwrap()
                    .pca()
                    .components()
            })
        });
    }
    group.finish();
}

/// DESIGN.md §5.1: single-region vs multi-region memory model.
fn ablation_memory_model(c: &mut Criterion) {
    let machine = [MachineConfig::skylake_i7_6700()];
    let single = WorkloadProfile::builder("single-region")
        .loads(0.25)
        .stores(0.08)
        .branches(0.12)
        .regions(vec![Region::random(8 << 20, 1.0)])
        .build()
        .unwrap();
    let multi = WorkloadProfile::builder("multi-region")
        .loads(0.25)
        .stores(0.08)
        .branches(0.12)
        .regions(vec![
            Region::random(16 << 10, 0.7),
            Region::random(160 << 10, 0.2),
            Region::random(8 << 20, 0.1),
        ])
        .build()
        .unwrap();
    let mut group = c.benchmark_group("ablation/memory_model");
    for (label, profile) in [("single", &single), ("multi", &multi)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), profile, |b, p| {
            b.iter(|| FleetSimulator::new(&machine).run(p, 30_000, 42)[0].l1d_misses)
        });
    }
    group.finish();
}

/// The prefetcher ablation: the same streaming workload with and without
/// hardware prefetch (DESIGN.md's substitution-fidelity argument).
fn ablation_prefetch(c: &mut Criterion) {
    let profile = WorkloadProfile::builder("streaming")
        .loads(0.3)
        .stores(0.1)
        .branches(0.05)
        .regions(vec![Region::streaming(4 << 20, 1.0, 64)])
        .build()
        .unwrap();
    let mut group = c.benchmark_group("ablation/prefetch");
    for (label, prefetch) in [
        ("aggressive", PrefetchConfig::aggressive()),
        ("l2_only", PrefetchConfig::l2_only()),
        ("none", PrefetchConfig::none()),
    ] {
        let mut machine = MachineConfig::skylake_i7_6700();
        machine.hierarchy.prefetch = prefetch;
        group.bench_with_input(BenchmarkId::from_parameter(label), &machine, |b, m| {
            b.iter(|| {
                FleetSimulator::new(std::slice::from_ref(m)).run(&profile, 30_000, 42)[0].cpi()
            })
        });
    }
    group.finish();
}

/// DESIGN.md §5.2: correlation-basis vs covariance-basis PCA. Covariance
/// PCA lets large-magnitude counters (TLB MPMI in the thousands) dominate,
/// which is why the paper standardizes first.
fn ablation_pca_basis(c: &mut Criterion) {
    use horizon_stats::{Pca, PcaBasis};
    let (_names, x) = campaign_features();
    let mut group = c.benchmark_group("ablation/pca_basis");
    for (label, basis) in [
        ("correlation", PcaBasis::Correlation),
        ("covariance", PcaBasis::Covariance),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &basis, |b, &basis| {
            b.iter(|| {
                Pca::fit_with(&x, Retention::Kaiser, basis)
                    .unwrap()
                    .components()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_linkage, ablation_retention, ablation_memory_model, ablation_prefetch,
        ablation_pca_basis
}
criterion_main!(benches);
