//! Engine vs direct execution: what deduplication + memoization buy on a
//! small campaign grid, and what the engine costs when the cache is cold.
//!
//! Three configurations over the same 4-workload × 2-machine grid:
//!
//! - `direct` — `Campaign::measure_profiles` with no executor installed:
//!   the builtin backend, no engine.
//! - `engine_cold` — a fresh `Engine` per iteration: fingerprinting,
//!   scheduling and memo bookkeeping on top of the same simulations.
//! - `engine_warm` — a persistent `Engine`: every job memo-hits, so this
//!   measures pure serving cost (the `repro all` case where overlapping
//!   experiments re-request the grid).
//!
//! Each engine configuration also has a `_dark` twin running with a
//! disabled [`Recorder`], isolating what span/counter recording costs when
//! no sink is attached.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use horizon_core::campaign::Campaign;
use horizon_engine::Engine;
use horizon_telemetry::Recorder;
use horizon_trace::WorkloadProfile;
use horizon_uarch::MachineConfig;
use horizon_workloads::cpu2017;

fn grid() -> (Campaign, Vec<WorkloadProfile>, Vec<MachineConfig>) {
    let campaign = Campaign {
        instructions: 15_000,
        warmup: 5_000,
        seed: 42,
    };
    let profiles: Vec<WorkloadProfile> = cpu2017::speed_int()
        .iter()
        .take(4)
        .map(|b| b.profile().clone())
        .collect();
    let machines = vec![MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()];
    (campaign, profiles, machines)
}

fn bench_engine_vs_direct(c: &mut Criterion) {
    let (campaign, profiles, machines) = grid();
    let mut group = c.benchmark_group("engine");

    group.bench_function("direct", |b| {
        b.iter(|| campaign.measure_profiles(&profiles, &machines))
    });

    group.bench_function("engine_cold", |b| {
        b.iter(|| Engine::new().measure_profiles(&campaign, &profiles, &machines))
    });

    group.bench_function("engine_cold_dark", |b| {
        b.iter(|| {
            Engine::new()
                .with_recorder(Arc::new(Recorder::disabled()))
                .measure_profiles(&campaign, &profiles, &machines)
        })
    });

    let warm = Engine::new();
    warm.measure_profiles(&campaign, &profiles, &machines);
    group.bench_function("engine_warm", |b| {
        b.iter(|| warm.measure_profiles(&campaign, &profiles, &machines))
    });

    let warm_dark = Engine::new().with_recorder(Arc::new(Recorder::disabled()));
    warm_dark.measure_profiles(&campaign, &profiles, &machines);
    group.bench_function("engine_warm_dark", |b| {
        b.iter(|| warm_dark.measure_profiles(&campaign, &profiles, &machines))
    });

    group.finish();
}

criterion_group!(benches, bench_engine_vs_direct);
criterion_main!(benches);
