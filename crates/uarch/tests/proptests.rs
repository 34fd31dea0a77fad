//! Property-based tests for the microarchitecture simulator.

use horizon_trace::{Region, WorkloadProfile};
use horizon_uarch::{Cache, CacheConfig, FleetSimulator, MachineConfig, Tlb, TlbConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_misses_never_exceed_accesses(
        addrs in proptest::collection::vec(0u64..(1 << 20), 1..500),
        capacity_kb in 1u64..64,
        ways_pow in 0u32..3,
    ) {
        let ways = 1 << ways_pow;
        let mut c = Cache::new(CacheConfig::new(capacity_kb.next_power_of_two() << 10, ways));
        for &a in &addrs {
            c.access(a);
        }
        prop_assert!(c.misses() <= c.accesses());
        prop_assert_eq!(c.accesses(), addrs.len() as u64);
    }

    #[test]
    fn cache_repeat_trace_second_pass_fits_or_misses_consistently(
        addrs in proptest::collection::vec(0u64..(1 << 14), 1..200),
    ) {
        // A cache as large as the address space: second pass never misses.
        let mut c = Cache::new(CacheConfig::new(1 << 14, 4));
        for &a in &addrs {
            c.access(a);
        }
        let cold = c.misses();
        for &a in &addrs {
            prop_assert!(c.access(a) || false == true); // all hits
        }
        prop_assert_eq!(c.misses(), cold);
    }

    #[test]
    fn tlb_miss_monotone_in_entries(
        pages in proptest::collection::vec(0u64..256, 50..300),
    ) {
        let run = |entries: u32| {
            let mut t = Tlb::new(TlbConfig::new(entries, entries));
            for &p in &pages {
                t.access(p * 4096);
            }
            t.misses()
        };
        // Fully associative LRU TLBs obey inclusion: more entries, fewer misses.
        prop_assert!(run(64) <= run(16));
        prop_assert!(run(16) <= run(4));
    }

    #[test]
    fn simulator_counter_invariants(seed in any::<u64>(), loads in 0.05..0.4f64) {
        let p = WorkloadProfile::builder("p")
            .loads(loads)
            .stores(0.05)
            .branches(0.1)
            .regions(vec![Region::random(1 << 18, 1.0)])
            .build()
            .unwrap();
        let c = FleetSimulator::new(&[MachineConfig::skylake_i7_6700()])
            .run(&p, 20_000, seed)
            .remove(0);
        prop_assert_eq!(c.instructions, 20_000);
        prop_assert_eq!(c.l1d_accesses, c.loads + c.stores);
        prop_assert!(c.l1d_misses <= c.l1d_accesses);
        prop_assert!(c.l2d_accesses <= c.l1d_misses);
        prop_assert!(c.l2d_misses <= c.l2d_accesses);
        prop_assert!(c.l3_misses <= c.l3_accesses);
        prop_assert!(c.taken_branches <= c.branches);
        prop_assert!(c.mispredicts <= c.branches);
        prop_assert!(c.cpi().is_finite() && c.cpi() > 0.0);
        // CPI stack components are non-negative.
        prop_assert!(c.cpi_stack.frontend >= 0.0);
        prop_assert!(c.cpi_stack.bad_speculation >= 0.0);
        prop_assert!(c.cpi_stack.memory >= 0.0);
        prop_assert!(c.cpi_stack.core >= 0.0);
    }

    #[test]
    fn all_machines_accept_any_valid_profile(machine_idx in 0usize..7, seed in 0u64..8) {
        let p = WorkloadProfile::builder("p")
            .loads(0.3)
            .branches(0.12)
            .fp(0.1)
            .build()
            .unwrap();
        let machines = MachineConfig::table_iv_machines();
        let c = FleetSimulator::new(&machines[machine_idx..=machine_idx])
            .run(&p, 10_000, seed)
            .remove(0);
        prop_assert_eq!(c.instructions, 10_000);
        prop_assert!(c.cpi() >= 1.0 / machines[machine_idx].issue_width);
    }
}
