//! Microbenchmarks of the pipeline's building blocks: trace generation,
//! cache/TLB/predictor simulation, PCA, and clustering.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use horizon_cluster::{cluster, Linkage};
use horizon_stats::{DistanceMatrix, Matrix, Metric, Pca, Retention};
use horizon_trace::TraceGenerator;
use horizon_uarch::{Cache, CacheConfig, FleetSimulator, MachineConfig};
use horizon_workloads::cpu2017;

fn bench_trace_generation(c: &mut Criterion) {
    let profile = cpu2017::all()[2].profile().clone(); // 605.mcf_s
    c.bench_function("trace/generate_100k_instructions", |b| {
        b.iter(|| {
            TraceGenerator::new(&profile, 42)
                .take(100_000)
                .filter(|i| i.is_load())
                .count()
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    let addrs: Vec<u64> = (0..100_000u64)
        .map(|i| (i * 2654435761) % (1 << 24))
        .collect();
    c.bench_function("uarch/cache_100k_accesses", |b| {
        b.iter_batched(
            || Cache::new(CacheConfig::new(32 << 10, 8)),
            |mut cache| {
                for &a in &addrs {
                    cache.access(a);
                }
                cache.misses()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_simulator(c: &mut Criterion) {
    let profile = cpu2017::all()[2].profile().clone();
    let machine = [MachineConfig::skylake_i7_6700()];
    c.bench_function("uarch/simulate_50k_instructions_skylake", |b| {
        b.iter(|| FleetSimulator::new(&machine).run(&profile, 50_000, 42))
    });
}

fn bench_pca(c: &mut Criterion) {
    // A 43 × 140 feature matrix, the paper's exact shape.
    let mut data = Vec::with_capacity(43 * 140);
    let mut state = 1u64;
    for _ in 0..43 * 140 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        data.push((state >> 11) as f64 / (1u64 << 53) as f64);
    }
    let x = Matrix::from_vec(43, 140, data).unwrap();
    c.bench_function("stats/pca_43x140_kaiser", |b| {
        b.iter(|| Pca::fit(&x, Retention::Kaiser).unwrap().components())
    });
}

fn bench_clustering(c: &mut Criterion) {
    let mut rows = Vec::new();
    let mut state = 7u64;
    for _ in 0..43 {
        let mut row = Vec::with_capacity(8);
        for _ in 0..8 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            row.push((state >> 11) as f64 / (1u64 << 53) as f64);
        }
        rows.push(row);
    }
    let x = Matrix::from_rows(rows).unwrap();
    let d = DistanceMatrix::from_observations(&x, Metric::Euclidean);
    c.bench_function("cluster/agglomerative_43_average", |b| {
        b.iter(|| cluster(&d, Linkage::Average).unwrap().max_height())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_trace_generation, bench_cache, bench_simulator, bench_pca, bench_clustering
}
criterion_main!(benches);
