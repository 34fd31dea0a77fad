//! Fleet kernel vs independent per-machine simulation.
//!
//! Three configurations over the same workload (the exchange2 profile, a
//! 2M-instruction measured window with 400k warmup, seed 42):
//!
//! - `independent_7` — seven one-lane fleets, one per Table IV machine;
//!   the trace is regenerated and re-streamed seven times, once per
//!   machine, as `Campaign::measure_profiles_builtin` did before the fleet
//!   kernel.
//! - `fleet_7` — one [`FleetSimulator`] pass over all seven machines:
//!   the trace streams once and every machine's structures step per
//!   instruction, with config-identical front-end structures deduplicated
//!   across machines.
//! - `fleet_1` — a single-machine fleet: one machine's share of
//!   `independent_7`, and the kernel's fixed cost for the degenerate
//!   batch.
//!
//! The headline number is `independent_7` median / `fleet_7` median; the
//! acceptance floor is 2.5x and measured medians are recorded in
//! `BENCH_sim.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use horizon_uarch::{FleetSimulator, MachineConfig};
use horizon_workloads::cpu2017;

const WINDOW: u64 = 2_000_000;
const WARMUP: u64 = 400_000;
const SEED: u64 = 42;

fn bench_fleet_vs_independent(c: &mut Criterion) {
    let profile = cpu2017::speed_int()[8].profile().clone();
    assert_eq!(profile.name(), "648.exchange2_s");
    let machines = MachineConfig::table_iv_machines();

    let mut group = c.benchmark_group("fleet");
    group.sample_size(15);

    group.bench_function("independent_7", |b| {
        b.iter(|| {
            machines
                .iter()
                .map(|m| {
                    FleetSimulator::new(std::slice::from_ref(m))
                        .with_warmup(WARMUP)
                        .run(&profile, WINDOW, SEED)
                })
                .collect::<Vec<_>>()
        })
    });

    group.bench_function("fleet_7", |b| {
        b.iter(|| {
            FleetSimulator::new(&machines)
                .with_warmup(WARMUP)
                .run(&profile, WINDOW, SEED)
        })
    });

    group.bench_function("fleet_1", |b| {
        b.iter(|| {
            FleetSimulator::new(&machines[..1])
                .with_warmup(WARMUP)
                .run(&profile, WINDOW, SEED)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_fleet_vs_independent);
criterion_main!(benches);
