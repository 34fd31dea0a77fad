//! The straight-line reference loop the fleet kernel is checked against.
//!
//! One machine, one instruction at a time: each instruction probes the
//! machine's own caches, TLBs and predictor in program order, with no lane
//! batching, no structures shared between machines and no repeat-granule
//! shortcut. It is built from the same `Cache`, `DataFront`, `L2Back`,
//! `Tlb` and predictor structures as `FleetSimulator`, so the gates below
//! check exactly the fleet kernel's scheduling: fleet counters must be
//! bit-identical to this loop's, machine by machine.

use horizon_trace::{Kind, TraceGenerator, WorkloadProfile};

use crate::cache::Cache;
use crate::counters::Counters;
use crate::fleet::prewarm_spans;
use crate::hierarchy::{DataFront, HierarchyConfig, L2Back};
use crate::machine::MachineConfig;
use crate::tlb::{Tlb, TlbHierarchyConfig};
use crate::topdown::CpiStack;

/// One machine's cache hierarchy: the L1I and the data front, both
/// feeding the shared L2/L3.
pub(crate) struct Caches {
    pub(crate) l1i: Cache,
    pub(crate) data: DataFront,
    pub(crate) back: L2Back,
}

/// Deepest level that serviced an access, read off the back end's
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    L1,
    L2,
    L3,
    Memory,
}

impl Caches {
    pub(crate) fn new(config: &HierarchyConfig) -> Self {
        Caches {
            l1i: Cache::new(config.l1i),
            data: DataFront::new(config.l1d, config.prefetch),
            back: L2Back::new(config),
        }
    }

    pub(crate) fn access_instruction(&mut self, pc: u64) -> Level {
        if self.l1i.access(pc) {
            return Level::L1;
        }
        self.miss(|back| back.demand_fetch(pc))
    }

    /// A data access; its prefetch install reaches the shared levels
    /// before its demand miss does.
    pub(crate) fn access_data(&mut self, addr: u64) -> Level {
        let (hit, install) = self.data.access(addr);
        if let Some(line) = install {
            self.back.install_shared(line);
        }
        if hit {
            return Level::L1;
        }
        self.miss(|back| back.demand_data(addr))
    }

    /// Runs an L1 miss's `demand` on the shared levels and reads off the
    /// level that serviced it.
    fn miss(&mut self, demand: impl FnOnce(&mut L2Back)) -> Level {
        let l2_misses = |back: &L2Back| back.instruction_side().1 + back.data_side().1;
        let (l2_before, memory_before) = (l2_misses(&self.back), self.back.memory_accesses());
        demand(&mut self.back);
        if l2_misses(&self.back) == l2_before {
            Level::L2
        } else if self.back.memory_accesses() == memory_before {
            Level::L3
        } else {
            Level::Memory
        }
    }
}

/// One machine's TLBs: split L1s backed by an optional shared L2. An L2
/// miss, or any L1 miss when there is no L2, is a page walk.
pub(crate) struct Tlbs {
    pub(crate) l1i: Tlb,
    pub(crate) l1d: Tlb,
    l2: Option<Tlb>,
    pub(crate) walks_i: u64,
    pub(crate) walks_d: u64,
}

impl Tlbs {
    pub(crate) fn new(config: &TlbHierarchyConfig) -> Self {
        Tlbs {
            l1i: Tlb::new(config.l1i),
            l1d: Tlb::new(config.l1d),
            l2: config.l2.map(Tlb::new),
            walks_i: 0,
            walks_d: 0,
        }
    }

    pub(crate) fn access_instruction(&mut self, pc: u64) {
        if !self.l1i.access(pc) && self.refill(pc) {
            self.walks_i += 1;
        }
    }

    pub(crate) fn access_data(&mut self, addr: u64) {
        if !self.l1d.access(addr) && self.refill(addr) {
            self.walks_d += 1;
        }
    }

    /// Returns `true` if the refill required a page walk.
    fn refill(&mut self, addr: u64) -> bool {
        match &mut self.l2 {
            Some(l2) => !l2.access(addr),
            None => true,
        }
    }
}

/// The structure-side counters, cumulative since construction.
fn structure_counts(caches: &Caches, tlbs: &Tlbs) -> Counters {
    let (l2i_accesses, l2i_misses) = caches.back.instruction_side();
    let (l2d_accesses, l2d_misses) = caches.back.data_side();
    let (l3_accesses, l3_misses) = caches.back.l3_counts();
    Counters {
        l1i_accesses: caches.l1i.accesses(),
        l1i_misses: caches.l1i.misses(),
        l1d_accesses: caches.data.l1d().accesses(),
        l1d_misses: caches.data.l1d().misses(),
        l2i_accesses,
        l2i_misses,
        l2d_accesses,
        l2d_misses,
        l3_accesses,
        l3_misses,
        memory_accesses: caches.back.memory_accesses(),
        itlb_misses: tlbs.l1i.misses(),
        dtlb_misses: tlbs.l1d.misses(),
        page_walks_instruction: tlbs.walks_i,
        page_walks_data: tlbs.walks_d,
        ..Counters::default()
    }
}

/// Simulates `profile` on `machine` alone: the prewarm sweep (when
/// `warmup > 0`), `warmup` unmeasured instructions, then `instructions`
/// measured ones.
pub(crate) fn run(
    machine: &MachineConfig,
    warmup: u64,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
) -> Counters {
    let mut caches = Caches::new(&machine.hierarchy);
    let mut tlbs = Tlbs::new(&machine.tlb);
    let mut predictor = machine.predictor.build();

    if warmup > 0 {
        let (data, code) = prewarm_spans(profile);
        for span in data {
            for addr in span.step_by(64) {
                caches.access_data(addr);
                tlbs.access_data(addr);
            }
        }
        for span in code {
            for addr in span.step_by(64) {
                caches.access_instruction(addr);
                tlbs.access_instruction(addr);
            }
        }
    }

    let mut gen = TraceGenerator::new(profile, seed);
    for inst in gen.by_ref().take(warmup as usize) {
        caches.access_instruction(inst.pc);
        tlbs.access_instruction(inst.pc);
        if let Some(addr) = inst.data_address() {
            caches.access_data(addr);
            tlbs.access_data(addr);
        }
        if let Kind::Branch { taken, .. } = inst.kind {
            predictor.execute(inst.pc, taken);
        }
    }
    let warm = structure_counts(&caches, &tlbs);

    let mut c = Counters {
        dependency_intensity: profile.dependency_intensity(),
        freq_ghz: machine.freq_ghz,
        ..Counters::default()
    };
    for inst in gen.take(instructions as usize) {
        c.instructions += 1;
        c.kernel_instructions += inst.kernel as u64;
        caches.access_instruction(inst.pc);
        tlbs.access_instruction(inst.pc);
        match inst.kind {
            Kind::Load { addr } => {
                c.loads += 1;
                caches.access_data(addr);
                tlbs.access_data(addr);
            }
            Kind::Store { addr } => {
                c.stores += 1;
                caches.access_data(addr);
                tlbs.access_data(addr);
            }
            Kind::Branch { taken, .. } => {
                c.branches += 1;
                c.taken_branches += taken as u64;
                if !predictor.execute(inst.pc, taken) {
                    c.mispredicts += 1;
                }
            }
            Kind::FpAlu => c.fp_ops += 1,
            Kind::Simd => c.simd_ops += 1,
            Kind::IntAlu => {}
        }
    }

    let end = structure_counts(&caches, &tlbs);
    c.l1i_accesses = end.l1i_accesses - warm.l1i_accesses;
    c.l1i_misses = end.l1i_misses - warm.l1i_misses;
    c.l1d_accesses = end.l1d_accesses - warm.l1d_accesses;
    c.l1d_misses = end.l1d_misses - warm.l1d_misses;
    c.l2i_accesses = end.l2i_accesses - warm.l2i_accesses;
    c.l2i_misses = end.l2i_misses - warm.l2i_misses;
    c.l2d_accesses = end.l2d_accesses - warm.l2d_accesses;
    c.l2d_misses = end.l2d_misses - warm.l2d_misses;
    c.l3_accesses = end.l3_accesses - warm.l3_accesses;
    c.l3_misses = end.l3_misses - warm.l3_misses;
    c.memory_accesses = end.memory_accesses - warm.memory_accesses;
    c.itlb_misses = end.itlb_misses - warm.itlb_misses;
    c.dtlb_misses = end.dtlb_misses - warm.dtlb_misses;
    c.page_walks_instruction = end.page_walks_instruction - warm.page_walks_instruction;
    c.page_walks_data = end.page_walks_data - warm.page_walks_data;
    c.cpi_stack = CpiStack::compute(&c, machine);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::fleet::FleetSimulator;
    use crate::hierarchy::PrefetchConfig;
    use crate::tlb::TlbConfig;
    use horizon_trace::{CodeModel, Region};
    use proptest::prelude::*;

    /// Serialized counters: a byte comparison also fails on a float that
    /// compares equal but renders differently.
    fn counters_json(c: &Counters) -> String {
        serde_json::to_string(c).expect("counters serialize")
    }

    /// Asserts that one fleet run matches the reference loop on every
    /// machine, byte for byte.
    fn assert_fleet_matches(
        machines: &[MachineConfig],
        warmup: u64,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
    ) {
        let fleet =
            FleetSimulator::new(machines)
                .with_warmup(warmup)
                .run(profile, instructions, seed);
        assert_eq!(fleet.len(), machines.len());
        for (machine, counters) in machines.iter().zip(&fleet) {
            assert_eq!(
                counters_json(counters),
                counters_json(&run(machine, warmup, profile, instructions, seed)),
                "fleet diverged from the reference loop on {} ({})",
                machine.name,
                profile.name()
            );
        }
    }

    #[test]
    fn single_machine_fleet_equals_reference() {
        let p = WorkloadProfile::builder("w")
            .loads(0.3)
            .stores(0.1)
            .branches(0.15)
            .build()
            .unwrap();
        let m = MachineConfig::skylake_i7_6700();
        assert_fleet_matches(std::slice::from_ref(&m), 20_000, &p, 100_000, 7);
    }

    #[test]
    fn full_table_iv_fleet_matches_independent_runs() {
        // The fixed-vector correctness gate: all seven paper machines, a
        // memory-heavy profile, warmup enabled.
        let p = WorkloadProfile::builder("w")
            .loads(0.35)
            .stores(0.12)
            .branches(0.18)
            .regions(vec![
                Region::random(24 << 10, 0.6),
                Region::random(3 << 20, 0.4),
            ])
            .build()
            .unwrap();
        assert_fleet_matches(&MachineConfig::table_iv_machines(), 30_000, &p, 120_000, 42);
    }

    #[test]
    fn zero_warmup_fleet_matches() {
        let p = WorkloadProfile::builder("w").loads(0.2).build().unwrap();
        let machines = [MachineConfig::core2_e5405(), MachineConfig::opteron_2435()];
        assert_fleet_matches(&machines, 0, &p, 50_000, 3);
    }

    #[test]
    fn group_dedup_is_semantically_invisible() {
        // Two machines that differ ONLY in shared levels: same L1 front
        // ends, same predictor. The fleet simulates the fronts once; the
        // counters must still match machine-by-machine independent runs.
        let a = MachineConfig::skylake_i7_6700();
        let mut b = a.clone();
        b.name = "variant".into();
        b.hierarchy.l3 = Some(CacheConfig::new(2 << 20, 16));
        b.tlb.l2 = None;
        let p = WorkloadProfile::builder("w")
            .loads(0.35)
            .regions(vec![Region::random(4 << 20, 1.0)])
            .build()
            .unwrap();
        assert_fleet_matches(&[a, b], 10_000, &p, 60_000, 11);
    }

    /// The oracle gate over the real catalog: every CPU2017 profile on the
    /// seven Table IV machines (301 cells). The catalog's multi-region,
    /// streaming, hot-code and kernel-code prewarm spans are shapes that
    /// `arb_profile` never generates; warmup 2,000 runs the full sweep.
    #[test]
    fn every_cpu2017_profile_matches_on_table_iv() {
        let machines = MachineConfig::table_iv_machines();
        let catalog = horizon_workloads::cpu2017::all();
        assert_eq!(catalog.len() * machines.len(), 301);
        for benchmark in &catalog {
            assert_fleet_matches(&machines, 2_000, benchmark.profile(), 5_000, 42);
        }
    }

    /// A randomized but always-valid profile. The mix fractions are kept
    /// comfortably inside the builder's validity envelope while still
    /// exercising load/store/branch/fp extremes and one- or two-region
    /// memory footprints from 64 KiB up to 16 MiB.
    fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
        (
            0.05..0.35f64, // loads
            0.01..0.15f64, // stores
            0.05..0.25f64, // branches
            0.0..0.15f64,  // fp
            16u32..24,     // log2 primary region bytes
            // Optional second (streaming) region.
            prop_oneof![Just(None), (18u32..22).prop_map(Some)],
        )
            .prop_map(|(loads, stores, branches, fp, lg, second)| {
                let mut regions = vec![Region::random(1 << lg, 1.0)];
                if let Some(lg2) = second {
                    regions.push(Region::streaming(1 << lg2, 0.5, 64));
                }
                WorkloadProfile::builder("fleet-prop")
                    .loads(loads)
                    .stores(stores)
                    .branches(branches)
                    .fp(fp)
                    .regions(regions)
                    .build()
                    .expect("generated profile stays within validity envelope")
            })
    }

    /// A deliberately degenerate machine: direct-mapped (1-way) L1s — the
    /// wide-scan kernels' shortest scalar tail — and the SPARC-style huge
    /// fully-associative TLBs (512 ways in one set, the widest scan in any
    /// paper machine, forced through the way-hint path).
    fn degenerate_machine() -> MachineConfig {
        let mut m = MachineConfig::table_iv_machines()[0].clone();
        m.name = "degenerate-1way-512fa".into();
        m.hierarchy.l1i = CacheConfig::new(32 << 10, 1);
        m.hierarchy.l1d = CacheConfig::new(32 << 10, 1);
        m.tlb.l1i = TlbConfig::new(64, 64);
        m.tlb.l1d = TlbConfig::new(512, 512);
        m.tlb.l2 = None;
        m
    }

    proptest! {
        // Each case runs 8 simulations (7 fleet lanes stream once + 7
        // reference runs), so keep the case count modest; the fixed
        // vectors above cover the deterministic paper configuration.
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Fleet counters are byte-identical to the reference loop across
        /// random profiles, seeds, windows and warmups.
        #[test]
        fn fleet_matches_independent_runs(
            profile in arb_profile(),
            seed in any::<u64>(),
            window in 5_000u64..60_000,
            warmup in prop_oneof![Just(0u64), 1_000u64..20_000],
        ) {
            let machines = MachineConfig::table_iv_machines();
            let fleet = FleetSimulator::new(&machines)
                .with_warmup(warmup)
                .run(&profile, window, seed);
            prop_assert_eq!(fleet.len(), machines.len());
            for (machine, fleet_counters) in machines.iter().zip(&fleet) {
                let solo = run(machine, warmup, &profile, window, seed);
                prop_assert_eq!(
                    counters_json(fleet_counters),
                    counters_json(&solo),
                    "fleet diverged from the reference loop on {}",
                    machine.name
                );
            }
        }

        /// Subsetting the fleet never changes any machine's counters: lane
        /// state is fully isolated, so simulating fewer machines together
        /// is indistinguishable from simulating more.
        #[test]
        fn fleet_subsets_are_consistent(
            profile in arb_profile(),
            seed in any::<u64>(),
            split in 1usize..6,
        ) {
            let machines = MachineConfig::table_iv_machines();
            let full = FleetSimulator::new(&machines)
                .with_warmup(2_000)
                .run(&profile, 15_000, seed);
            let front = FleetSimulator::new(&machines[..split])
                .with_warmup(2_000)
                .run(&profile, 15_000, seed);
            let back = FleetSimulator::new(&machines[split..])
                .with_warmup(2_000)
                .run(&profile, 15_000, seed);
            let stitched: Vec<String> = front.iter().chain(&back).map(counters_json).collect();
            let whole: Vec<String> = full.iter().map(counters_json).collect();
            prop_assert_eq!(stitched, whole);
        }
    }

    /// Degenerate geometries pin the kernel edge cases the proptests' paper
    /// machines never reach: 1-way sets (pure scalar-tail scans), 512-way
    /// fully-associative TLBs (the widest wide-op path plus way-hint), and
    /// a single-machine fleet (every group has exactly one lane).
    #[test]
    fn degenerate_geometries_match_reference() {
        let profile = WorkloadProfile::builder("fleet-degenerate")
            .loads(0.3)
            .stores(0.1)
            .branches(0.15)
            .regions(vec![
                Region::random(1 << 22, 1.0),
                Region::streaming(1 << 20, 0.5, 64),
            ])
            .build()
            .expect("valid profile");
        let degenerate = degenerate_machine();

        // Single-machine fleet of the degenerate config.
        assert_fleet_matches(
            std::slice::from_ref(&degenerate),
            5_000,
            &profile,
            40_000,
            99,
        );

        // Mixed fleet: the degenerate machine alongside two paper machines,
        // so its one-lane groups batch next to multi-lane groups.
        let paper = MachineConfig::table_iv_machines();
        let mixed = [degenerate, paper[0].clone(), paper[4].clone()];
        assert_fleet_matches(&mixed, 5_000, &profile, 40_000, 99);
    }

    /// A machine whose shared levels are each one small set: a one-line
    /// L1I and L1D over a 4-way, one-set L2 with no L3, and one-entry L1
    /// TLBs over a 2-way, one-set L2 TLB. An instruction whose fetch and
    /// data access both miss their L1 sends both refills into the same set,
    /// and the order they arrive in decides which of the two that set
    /// evicts first.
    fn one_set_machine() -> MachineConfig {
        let mut m = MachineConfig::table_iv_machines()[0].clone();
        m.name = "one-set-shared-levels".into();
        m.hierarchy = HierarchyConfig {
            l1i: CacheConfig::new(64, 1),
            l1d: CacheConfig::new(64, 1),
            l2: CacheConfig::new(256, 4),
            l3: None,
            prefetch: PrefetchConfig::none(),
        };
        m.tlb = TlbHierarchyConfig {
            l1i: TlbConfig::new(1, 1),
            l1d: TlbConfig::new(1, 1),
            l2: Some(TlbConfig::new(2, 2)),
        };
        m
    }

    /// Code and data that each span `bytes`, all of it hot: footprints a
    /// few times the shared set, so the set keeps meeting the lines or
    /// pages it just evicted, and a wrong eviction shows in its counters.
    fn small_footprint(bytes: u64) -> WorkloadProfile {
        WorkloadProfile::builder("one-set")
            .loads(0.3)
            .stores(0.1)
            .branches(0.15)
            .code_model(CodeModel {
                footprint_bytes: bytes,
                hot_fraction: 1.0,
                hot_bytes: bytes,
            })
            .regions(vec![Region::random(bytes, 1.0)])
            .build()
            .expect("valid profile")
    }

    /// Fixed gate for the cache back lane's merge: when one instruction
    /// misses both L1s, its fetch reaches the L2 before its data access.
    /// Eight code and eight data lines share one 4-way set.
    #[test]
    fn fetch_reaches_the_shared_l2_before_data_on_one_instruction() {
        assert_fleet_matches(&[one_set_machine()], 0, &small_footprint(512), 40_000, 5);
    }

    /// Fixed gate for the cache back lane's order within one data event:
    /// the L2 prefetcher's install of the next line reaches the L2 before
    /// the demand refill of the line that missed. Only a one-set L2 puts
    /// the two lines in one set, where that order decides which of them is
    /// evicted first; a 1 KiB stream keeps the prefetcher installing.
    #[test]
    fn prefetch_install_reaches_the_shared_l2_before_its_demand() {
        let mut machine = one_set_machine();
        machine.hierarchy.prefetch = PrefetchConfig::l2_only();
        let profile = WorkloadProfile::builder("one-set-stream")
            .loads(0.3)
            .stores(0.1)
            .branches(0.15)
            .code_model(CodeModel {
                footprint_bytes: 512,
                hot_fraction: 1.0,
                hot_bytes: 512,
            })
            .regions(vec![
                Region::streaming(1 << 10, 0.5, 64),
                Region::random(512, 0.5),
            ])
            .build()
            .expect("valid profile");
        assert_fleet_matches(&[machine], 0, &profile, 40_000, 5);
    }

    /// Fixed gate for the TLB back lane's merge: when one instruction
    /// misses both L1 TLBs, its instruction-side refill reaches the L2 TLB
    /// before its data-side one. Four code and four data pages share one
    /// 2-way set.
    #[test]
    fn instruction_refill_reaches_the_l2_tlb_before_data_on_one_instruction() {
        assert_fleet_matches(
            &[one_set_machine()],
            0,
            &small_footprint(16 << 10),
            40_000,
            5,
        );
    }
}
