//! The core simulation loop: trace in, counters out.

use horizon_trace::{Instruction, Kind, TraceGenerator, WorkloadProfile};

use crate::counters::Counters;
use crate::hierarchy::{AccessKind, MemoryHierarchy};
use crate::machine::MachineConfig;
use crate::tlb::TlbHierarchy;
use crate::topdown::CpiStack;

/// A single-core functional + timing-model simulator for one machine.
///
/// Each [`CoreSimulator::run`] builds fresh microarchitectural state (cold
/// caches), streams instructions from a [`TraceGenerator`], and returns the
/// accumulated [`Counters`] with the top-down CPI stack filled in. When the
/// stream already exists — replayed from a packed on-disk trace, say —
/// [`CoreSimulator::run_trace`] consumes any `Iterator<Item = Instruction>`
/// instead of expanding the profile in place, with bit-identical counters.
///
/// # Example
///
/// ```
/// use horizon_trace::{TraceGenerator, WorkloadProfile};
/// use horizon_uarch::{CoreSimulator, MachineConfig};
///
/// let p = WorkloadProfile::builder("w").loads(0.25).build()?;
/// let sim = CoreSimulator::new(&MachineConfig::sparc_t4());
/// let c = sim.run(&p, 50_000, 1);
/// assert_eq!(c.instructions, 50_000);
///
/// // Replay entry point: identical counters from a caller-supplied stream.
/// let replayed = sim.run_trace(&p, 50_000, TraceGenerator::new(&p, 1));
/// assert_eq!(replayed, c);
/// # Ok::<(), horizon_trace::ProfileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoreSimulator {
    machine: MachineConfig,
    /// Instructions to run before counters start (cold-start warmup).
    warmup: u64,
}

/// Largest data region the prewarm pass walks through the hierarchy:
/// anything bigger cannot stay resident and would only wash the LLC right
/// before measurement (shared with the fleet kernel).
pub(crate) const PREWARM_LIMIT: u64 = 6 << 20;

impl CoreSimulator {
    /// Creates a simulator for a machine with **no warmup**: counters start
    /// accumulating from the first instruction and cold-start misses are
    /// included. Set a warmup explicitly with
    /// [`CoreSimulator::with_warmup`], or use
    /// [`CoreSimulator::with_default_warmup`] for the conventional 10% of
    /// the measured window.
    pub fn new(machine: &MachineConfig) -> Self {
        CoreSimulator {
            machine: machine.clone(),
            warmup: 0,
        }
    }

    /// Sets an explicit warmup instruction count executed (and simulated)
    /// before measurement begins.
    pub fn with_warmup(mut self, instructions: u64) -> Self {
        self.warmup = instructions;
        self
    }

    /// Sets the conventional warmup of 10% of a measured window of
    /// `instructions`, the ratio used by the repo's default campaigns.
    pub fn with_default_warmup(self, instructions: u64) -> Self {
        self.with_warmup(instructions / 10)
    }

    /// The machine this simulator models.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Runs `instructions` measured instructions of `profile` (after any
    /// warmup) using the given trace seed and returns the counters.
    ///
    /// When a warmup is configured, the caches and TLBs are additionally
    /// *pre-warmed*: every line of every cache-scale data region
    /// (≤ 6 MiB, `PREWARM_LIMIT`) and of the code regions is touched once,
    /// emulating the steady state of a benchmark that has already been
    /// running for minutes — without it, short simulation windows
    /// over-count cold misses of rarely-touched regions.
    pub fn run(&self, profile: &WorkloadProfile, instructions: u64, seed: u64) -> Counters {
        self.run_trace(profile, instructions, TraceGenerator::new(profile, seed))
    }

    /// [`CoreSimulator::run`] with the instruction stream supplied by the
    /// caller instead of expanded in place — the replay entry point. Any
    /// `Iterator<Item = Instruction>` works: a live [`TraceGenerator`], a
    /// packed trace replayed from disk, or a synthetic test stream. The
    /// source must yield at least `warmup + instructions` items and must
    /// reproduce the generator stream exactly for counters to match
    /// [`CoreSimulator::run`]; `run` itself delegates here, so the two
    /// paths cannot drift.
    pub fn run_trace(
        &self,
        profile: &WorkloadProfile,
        instructions: u64,
        source: impl Iterator<Item = Instruction>,
    ) -> Counters {
        let mut caches = MemoryHierarchy::new(&self.machine.hierarchy);
        let mut tlbs = TlbHierarchy::new(&self.machine.tlb);
        let mut predictor = self.machine.predictor.build();

        if self.warmup > 0 {
            let _prewarm_span = horizon_telemetry::span("sim.prewarm");
            // Only pre-warm regions that can actually stay resident: walking
            // a DRAM-scale region through the hierarchy would wash the LLC
            // right before measurement and re-cold every smaller region.
            for (base, bytes) in horizon_trace::region_layout(profile) {
                if bytes <= PREWARM_LIMIT {
                    for addr in (base..base + bytes).step_by(64) {
                        caches.access(addr, AccessKind::Data);
                        tlbs.access_data(addr);
                    }
                }
            }
            let (code_base, code_bytes) = horizon_trace::hot_code_layout(profile);
            for addr in (code_base..code_base + code_bytes).step_by(64) {
                caches.access(addr, AccessKind::Fetch);
                tlbs.access_instruction(addr);
            }
            if profile.kernel_fraction() > 0.0 {
                let (kbase, kbytes) = horizon_trace::kernel_code_layout();
                for addr in (kbase..kbase + kbytes).step_by(64) {
                    caches.access(addr, AccessKind::Fetch);
                    tlbs.access_instruction(addr);
                }
            }
        }

        let mut gen = source;

        // Warmup: exercise all structures, then snapshot-subtract by simply
        // re-creating counters (structures keep their state).
        {
            let mut warmup_span = horizon_telemetry::span("sim.warmup");
            warmup_span.record("instructions", self.warmup);
            for inst in gen.by_ref().take(self.warmup as usize) {
                caches.access(inst.pc, AccessKind::Fetch);
                tlbs.access_instruction(inst.pc);
                if let Some(addr) = inst.data_address() {
                    caches.access(addr, AccessKind::Data);
                    tlbs.access_data(addr);
                }
                if let Kind::Branch { taken, .. } = inst.kind {
                    predictor.execute(inst.pc, taken);
                }
            }
        }
        let warm = snapshot(&caches, &tlbs);

        let mut c = Counters {
            dependency_intensity: profile.dependency_intensity(),
            freq_ghz: self.machine.freq_ghz,
            ..Default::default()
        };

        let mut measure_span = horizon_telemetry::span("sim.measure");
        measure_span.record("instructions", instructions);
        for inst in gen.take(instructions as usize) {
            c.instructions += 1;
            c.kernel_instructions += inst.kernel as u64;
            caches.access(inst.pc, AccessKind::Fetch);
            tlbs.access_instruction(inst.pc);
            match inst.kind {
                Kind::Load { addr } => {
                    c.loads += 1;
                    caches.access(addr, AccessKind::Data);
                    tlbs.access_data(addr);
                }
                Kind::Store { addr } => {
                    c.stores += 1;
                    caches.access(addr, AccessKind::Data);
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

        drop(measure_span);

        let end = snapshot(&caches, &tlbs);
        c.l1i_accesses = end.l1i_acc - warm.l1i_acc;
        c.l1i_misses = end.l1i_miss - warm.l1i_miss;
        c.l1d_accesses = end.l1d_acc - warm.l1d_acc;
        c.l1d_misses = end.l1d_miss - warm.l1d_miss;
        c.l2i_accesses = end.l2i_acc - warm.l2i_acc;
        c.l2i_misses = end.l2i_miss - warm.l2i_miss;
        c.l2d_accesses = end.l2d_acc - warm.l2d_acc;
        c.l2d_misses = end.l2d_miss - warm.l2d_miss;
        c.l3_accesses = end.l3_acc - warm.l3_acc;
        c.l3_misses = end.l3_miss - warm.l3_miss;
        c.memory_accesses = end.mem - warm.mem;
        c.itlb_misses = end.itlb_miss - warm.itlb_miss;
        c.dtlb_misses = end.dtlb_miss - warm.dtlb_miss;
        c.page_walks_instruction = end.walks_i - warm.walks_i;
        c.page_walks_data = end.walks_d - warm.walks_d;

        // Feed the measured cache/branch behavior into the telemetry
        // counters (no-ops unless a recorder is installed process-wide).
        horizon_telemetry::counter_add("sim.instructions", c.instructions);
        horizon_telemetry::counter_add("sim.l1d_accesses", c.l1d_accesses);
        horizon_telemetry::counter_add("sim.l1d_misses", c.l1d_misses);
        horizon_telemetry::counter_add("sim.l3_accesses", c.l3_accesses);
        horizon_telemetry::counter_add("sim.l3_misses", c.l3_misses);
        horizon_telemetry::counter_add("sim.branch_mispredicts", c.mispredicts);

        c.cpi_stack = CpiStack::compute(&c, &self.machine);
        c
    }
}

/// Counter snapshot for warmup subtraction (shared with the fleet kernel).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Snapshot {
    pub(crate) l1i_acc: u64,
    pub(crate) l1i_miss: u64,
    pub(crate) l1d_acc: u64,
    pub(crate) l1d_miss: u64,
    pub(crate) l2i_acc: u64,
    pub(crate) l2i_miss: u64,
    pub(crate) l2d_acc: u64,
    pub(crate) l2d_miss: u64,
    pub(crate) l3_acc: u64,
    pub(crate) l3_miss: u64,
    pub(crate) mem: u64,
    pub(crate) itlb_miss: u64,
    pub(crate) dtlb_miss: u64,
    pub(crate) walks_i: u64,
    pub(crate) walks_d: u64,
}

pub(crate) fn snapshot(caches: &MemoryHierarchy, tlbs: &TlbHierarchy) -> Snapshot {
    let (l2i_acc, l2i_miss) = caches.l2_instruction_side();
    let (l2d_acc, l2d_miss) = caches.l2_data_side();
    let (l3_acc, l3_miss) = caches.l3_counts();
    Snapshot {
        l1i_acc: caches.l1i().accesses(),
        l1i_miss: caches.l1i().misses(),
        l1d_acc: caches.l1d().accesses(),
        l1d_miss: caches.l1d().misses(),
        l2i_acc,
        l2i_miss,
        l2d_acc,
        l2d_miss,
        l3_acc,
        l3_miss,
        mem: caches.memory_accesses(),
        itlb_miss: tlbs.l1i().misses(),
        dtlb_miss: tlbs.l1d().misses(),
        walks_i: tlbs.page_walks_instruction(),
        walks_d: tlbs.page_walks_data(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_trace::Region;

    fn quick(profile: &WorkloadProfile, machine: &MachineConfig) -> Counters {
        CoreSimulator::new(machine)
            .with_warmup(20_000)
            .run(profile, 100_000, 7)
    }

    #[test]
    fn counts_are_consistent() {
        let p = WorkloadProfile::builder("w")
            .loads(0.3)
            .stores(0.1)
            .branches(0.15)
            .build()
            .unwrap();
        let c = quick(&p, &MachineConfig::skylake_i7_6700());
        assert_eq!(c.instructions, 100_000);
        assert_eq!(c.l1d_accesses, c.loads + c.stores);
        assert_eq!(c.l1i_accesses, c.instructions);
        assert!(c.taken_branches <= c.branches);
        assert!(c.mispredicts <= c.branches);
        assert!(c.l1d_misses <= c.l1d_accesses);
        assert!(c.cpi() >= 1.0 / 4.0);
    }

    #[test]
    fn determinism() {
        let p = WorkloadProfile::builder("w").build().unwrap();
        let m = MachineConfig::skylake_i7_6700();
        let a = CoreSimulator::new(&m).run(&p, 30_000, 5);
        let b = CoreSimulator::new(&m).run(&p, 30_000, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn bigger_footprint_more_misses() {
        let small = WorkloadProfile::builder("s")
            .loads(0.4)
            .regions(vec![Region::random(16 << 10, 1.0)])
            .build()
            .unwrap();
        let large = WorkloadProfile::builder("l")
            .loads(0.4)
            .regions(vec![Region::random(64 << 20, 1.0)])
            .build()
            .unwrap();
        let m = MachineConfig::skylake_i7_6700();
        let cs = quick(&small, &m);
        let cl = quick(&large, &m);
        assert!(cl.l1d_misses > cs.l1d_misses * 5);
        assert!(cl.cpi() > cs.cpi());
    }

    #[test]
    fn same_workload_differs_across_machines() {
        // A 3 MB working set fits Skylake's 8 MB LLC but thrashes the T4's
        // 4 MB LLC together with its tiny L1/L2.
        let p = WorkloadProfile::builder("w")
            .loads(0.35)
            .regions(vec![Region::random(3 << 20, 1.0)])
            .build()
            .unwrap();
        let sky = quick(&p, &MachineConfig::skylake_i7_6700());
        let t4 = quick(&p, &MachineConfig::sparc_t4());
        assert!(t4.mpki(t4.l2d_misses) > sky.mpki(sky.l2d_misses));
    }

    #[test]
    fn warmup_removes_cold_misses() {
        // A fully cache-resident working set: with warmup the measured
        // window sees (almost) no data misses.
        let p = WorkloadProfile::builder("w")
            .loads(0.4)
            .regions(vec![Region::random(8 << 10, 1.0)])
            .build()
            .unwrap();
        let m = MachineConfig::skylake_i7_6700();
        let cold = CoreSimulator::new(&m).run(&p, 50_000, 3);
        let warm = CoreSimulator::new(&m)
            .with_warmup(20_000)
            .run(&p, 50_000, 3);
        assert!(warm.l1d_misses < cold.l1d_misses);
        assert_eq!(warm.mpki(warm.l1d_misses).round(), 0.0);
    }

    #[test]
    fn irregular_branches_mispredict_more() {
        use horizon_trace::BranchBehavior;
        let make = |regularity: f64| {
            WorkloadProfile::builder("w")
                .branches(0.2)
                .branch_behavior(BranchBehavior {
                    taken_fraction: 0.5,
                    regularity,
                    pattern_share: 0.5,
                    static_branches: 128,
                    bias_spread: 0.1,
                })
                .build()
                .unwrap()
        };
        let m = MachineConfig::skylake_i7_6700();
        let regular = quick(&make(1.0), &m);
        let irregular = quick(&make(0.0), &m);
        assert!(
            irregular.branch_mpki() > regular.branch_mpki() * 2.0,
            "irregular {} vs regular {}",
            irregular.branch_mpki(),
            regular.branch_mpki()
        );
    }

    #[test]
    fn weaker_predictor_mispredicts_more_on_patterned_branches() {
        use crate::branch::PredictorKind;
        use horizon_trace::BranchBehavior;
        // regularity 0 → half the sites carry learnable rotations that a
        // history predictor gets and a bimodal table cannot.
        let p = WorkloadProfile::builder("w")
            .branches(0.2)
            .branch_behavior(BranchBehavior {
                taken_fraction: 0.5,
                regularity: 0.0,
                pattern_share: 0.5,
                static_branches: 8192,
                bias_spread: 0.2,
            })
            .build()
            .unwrap();
        let strong = MachineConfig::sparc_t4(); // two-level local predictor
        let weak = strong.with_predictor(PredictorKind::Bimodal { table_bits: 12 });
        let cs = quick(&p, &strong);
        let cw = quick(&p, &weak);
        assert!(
            cw.branch_mpki() > cs.branch_mpki(),
            "weak {} strong {}",
            cw.branch_mpki(),
            cs.branch_mpki()
        );
    }
}
