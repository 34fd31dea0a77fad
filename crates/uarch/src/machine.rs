//! Machine configurations, including the seven systems of the paper's
//! Table IV.

use serde::{Deserialize, Serialize};

use crate::branch::PredictorKind;
use crate::cache::CacheConfig;
use crate::hierarchy::{HierarchyConfig, PrefetchConfig};
use crate::tlb::{TlbConfig, TlbHierarchyConfig};

/// Instruction-set architecture of a machine (affects nothing functionally;
/// recorded because the paper deliberately mixes ISAs to wash out
/// ISA-specific bias).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Isa {
    /// x86-64.
    X86,
    /// SPARC V9.
    Sparc,
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Isa::X86 => f.write_str("x86"),
            Isa::Sparc => f.write_str("SPARC"),
        }
    }
}

/// Cycle penalties charged by the CPI model for each event class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Extra cycles for an L1 miss that hits L2.
    pub l2_hit: f64,
    /// Extra cycles for an L2 miss that hits L3.
    pub l3_hit: f64,
    /// Extra cycles for a DRAM access.
    pub memory: f64,
    /// Cycles for a page walk.
    pub page_walk: f64,
    /// Pipeline refill cycles on a branch mispredict.
    pub mispredict: f64,
    /// Multiplier on the workload's stall-overlap factor: ~1.0 for a deep
    /// out-of-order core that hides independent misses, >1 for narrow or
    /// in-order cores that expose most of the latency.
    pub overlap_scale: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            l2_hit: 10.0,
            l3_hit: 35.0,
            memory: 200.0,
            page_walk: 80.0,
            mispredict: 15.0,
            overlap_scale: 1.0,
        }
    }
}

/// Full description of one simulated machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable name (matches Table IV rows for the paper machines).
    pub name: String,
    /// Instruction-set architecture.
    pub isa: Isa,
    /// Core frequency in GHz (drives runtimes and power).
    pub freq_ghz: f64,
    /// Sustainable issue width (baseline CPI = 1 / width).
    pub issue_width: f64,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// TLB hierarchy geometry.
    pub tlb: TlbHierarchyConfig,
    /// Branch predictor family and sizing.
    pub predictor: PredictorKind,
    /// Event cycle penalties.
    pub latency: LatencyModel,
}

impl MachineConfig {
    /// Intel Core i7-6700 (Skylake): 3.4 GHz, 32K/32K L1, 256K L2, 8 MB LLC.
    /// The paper's primary characterization machine (§II).
    pub fn skylake_i7_6700() -> Self {
        MachineConfig {
            name: "Intel Core i7-6700".into(),
            isa: Isa::X86,
            freq_ghz: 3.4,
            issue_width: 4.0,
            hierarchy: HierarchyConfig {
                l1i: CacheConfig::new(32 << 10, 8),
                l1d: CacheConfig::new(32 << 10, 8),
                l2: CacheConfig::new(256 << 10, 8),
                l3: Some(CacheConfig::new(8 << 20, 16)),
                prefetch: PrefetchConfig::aggressive(),
            },
            tlb: TlbHierarchyConfig {
                l1i: TlbConfig::new(128, 8),
                l1d: TlbConfig::new(64, 4),
                l2: Some(TlbConfig::new(1536, 12)),
            },
            predictor: PredictorKind::TageLite { table_bits: 13 },
            latency: LatencyModel {
                l2_hit: 10.0,
                l3_hit: 40.0,
                memory: 190.0,
                page_walk: 70.0,
                mispredict: 16.0,
                overlap_scale: 1.0,
            },
        }
    }

    /// Intel Xeon E5-2650 v4 (Broadwell): 2.2 GHz, 30 MB LLC.
    pub fn broadwell_e5_2650v4() -> Self {
        MachineConfig {
            name: "Intel Xeon E5-2650 v4".into(),
            isa: Isa::X86,
            freq_ghz: 2.2,
            issue_width: 4.0,
            hierarchy: HierarchyConfig {
                l1i: CacheConfig::new(32 << 10, 8),
                l1d: CacheConfig::new(32 << 10, 8),
                l2: CacheConfig::new(256 << 10, 8),
                // 30 MB, 15-way: 32768 sets (power of two).
                l3: Some(CacheConfig::new(30 << 20, 15)),
                prefetch: PrefetchConfig::aggressive(),
            },
            tlb: TlbHierarchyConfig {
                l1i: TlbConfig::new(128, 8),
                l1d: TlbConfig::new(64, 4),
                l2: Some(TlbConfig::new(1024, 8)),
            },
            predictor: PredictorKind::TageLite { table_bits: 12 },
            latency: LatencyModel {
                l2_hit: 11.0,
                l3_hit: 45.0,
                memory: 210.0,
                page_walk: 75.0,
                mispredict: 16.0,
                overlap_scale: 1.0,
            },
        }
    }

    /// Intel Xeon E5-2430 v2 (Ivy Bridge): 2.5 GHz, 15 MB LLC.
    pub fn ivybridge_e5_2430v2() -> Self {
        MachineConfig {
            name: "Intel Xeon E5-2430 v2".into(),
            isa: Isa::X86,
            freq_ghz: 2.5,
            issue_width: 4.0,
            hierarchy: HierarchyConfig {
                l1i: CacheConfig::new(32 << 10, 8),
                l1d: CacheConfig::new(32 << 10, 8),
                l2: CacheConfig::new(256 << 10, 8),
                // 15 MB, 15-way: 16384 sets.
                l3: Some(CacheConfig::new(15 << 20, 15)),
                prefetch: PrefetchConfig::aggressive(),
            },
            tlb: TlbHierarchyConfig {
                l1i: TlbConfig::new(128, 4),
                l1d: TlbConfig::new(64, 4),
                l2: Some(TlbConfig::new(512, 4)),
            },
            predictor: PredictorKind::Tournament {
                table_bits: 14,
                history_bits: 12,
            },
            latency: LatencyModel {
                l2_hit: 11.0,
                l3_hit: 42.0,
                memory: 220.0,
                page_walk: 80.0,
                mispredict: 15.0,
                overlap_scale: 1.1,
            },
        }
    }

    /// Intel Xeon E5405 (Core2 Harpertown): 2.0 GHz, 6 MB L2, no L3.
    pub fn core2_e5405() -> Self {
        MachineConfig {
            name: "Intel Xeon E5405".into(),
            isa: Isa::X86,
            freq_ghz: 2.0,
            issue_width: 3.0,
            hierarchy: HierarchyConfig {
                l1i: CacheConfig::new(32 << 10, 8),
                l1d: CacheConfig::new(32 << 10, 8),
                // One core's share of the 2x6MB L2: 6 MB, 24-way.
                l2: CacheConfig::new(6 << 20, 24),
                l3: None,
                prefetch: PrefetchConfig::l2_only(),
            },
            tlb: TlbHierarchyConfig {
                l1i: TlbConfig::new(128, 4),
                l1d: TlbConfig::new(256, 4),
                l2: None,
            },
            predictor: PredictorKind::Tournament {
                table_bits: 12,
                history_bits: 10,
            },
            latency: LatencyModel {
                l2_hit: 15.0,
                l3_hit: 0.0,
                memory: 240.0,
                page_walk: 100.0,
                mispredict: 13.0,
                overlap_scale: 1.4,
            },
        }
    }

    /// SPARC64 IV+ (Sun Fire V490): 2.1 GHz, 64K/64K L1, 2 MB L2, 32 MB LLC.
    pub fn sparc_iv_plus_v490() -> Self {
        MachineConfig {
            name: "SPARC-IV+ v490".into(),
            isa: Isa::Sparc,
            freq_ghz: 2.1,
            // Shallow early-2000s pipeline: the SPEC reference machine that
            // every submitted system outruns.
            issue_width: 1.2,
            hierarchy: HierarchyConfig {
                l1i: CacheConfig::new(64 << 10, 2),
                l1d: CacheConfig::new(64 << 10, 2),
                l2: CacheConfig::new(2 << 20, 8),
                l3: Some(CacheConfig::new(32 << 20, 16)),
                prefetch: PrefetchConfig::l2_only(),
            },
            tlb: TlbHierarchyConfig {
                // Fully associative (entries == ways → 1 set).
                l1i: TlbConfig::new(64, 64),
                l1d: TlbConfig::new(512, 512),
                l2: None,
            },
            predictor: PredictorKind::Bimodal { table_bits: 13 },
            latency: LatencyModel {
                l2_hit: 26.0,
                l3_hit: 80.0,
                memory: 380.0,
                page_walk: 150.0,
                mispredict: 14.0,
                overlap_scale: 2.4,
            },
        }
    }

    /// SPARC T4: 2.85 GHz, 16K/16K L1, 128K L2, 4 MB LLC.
    pub fn sparc_t4() -> Self {
        MachineConfig {
            name: "SPARC T4".into(),
            isa: Isa::Sparc,
            freq_ghz: 2.85,
            issue_width: 2.0,
            hierarchy: HierarchyConfig {
                l1i: CacheConfig::new(16 << 10, 4),
                l1d: CacheConfig::new(16 << 10, 4),
                l2: CacheConfig::new(128 << 10, 8),
                l3: Some(CacheConfig::new(4 << 20, 16)),
                prefetch: PrefetchConfig::l2_only(),
            },
            tlb: TlbHierarchyConfig {
                l1i: TlbConfig::new(64, 64),
                l1d: TlbConfig::new(128, 128),
                l2: None,
            },
            predictor: PredictorKind::TwoLevelLocal {
                history_table_bits: 13,
                history_bits: 10,
            },
            latency: LatencyModel {
                l2_hit: 12.0,
                l3_hit: 35.0,
                memory: 230.0,
                page_walk: 90.0,
                mispredict: 12.0,
                overlap_scale: 1.7,
            },
        }
    }

    /// AMD Opteron 2435 (Istanbul): 2.6 GHz, 64K/64K L1, 512K L2, 6 MB LLC.
    pub fn opteron_2435() -> Self {
        MachineConfig {
            name: "AMD Opteron 2435".into(),
            isa: Isa::X86,
            freq_ghz: 2.6,
            issue_width: 3.0,
            hierarchy: HierarchyConfig {
                l1i: CacheConfig::new(64 << 10, 2),
                l1d: CacheConfig::new(64 << 10, 2),
                l2: CacheConfig::new(512 << 10, 8),
                // 6 MB, 12-way: 8192 sets.
                l3: Some(CacheConfig::new(6 << 20, 12)),
                prefetch: PrefetchConfig::l2_only(),
            },
            tlb: TlbHierarchyConfig {
                l1i: TlbConfig::new(32, 32),
                l1d: TlbConfig::new(48, 48),
                l2: Some(TlbConfig::new(512, 4)),
            },
            predictor: PredictorKind::TwoLevelLocal {
                history_table_bits: 14,
                history_bits: 8,
            },
            latency: LatencyModel {
                l2_hit: 12.0,
                l3_hit: 45.0,
                memory: 230.0,
                page_walk: 95.0,
                mispredict: 12.0,
                overlap_scale: 1.15,
            },
        }
    }

    /// The seven machines of the paper's Table IV, in table order.
    pub fn table_iv_machines() -> Vec<MachineConfig> {
        vec![
            MachineConfig::skylake_i7_6700(),
            MachineConfig::broadwell_e5_2650v4(),
            MachineConfig::ivybridge_e5_2430v2(),
            MachineConfig::core2_e5405(),
            MachineConfig::sparc_iv_plus_v490(),
            MachineConfig::sparc_t4(),
            MachineConfig::opteron_2435(),
        ]
    }

    /// The three Intel machines with RAPL counters used for the power study
    /// (Figure 12): Skylake, Ivy Bridge, Broadwell.
    pub fn rapl_machines() -> Vec<MachineConfig> {
        vec![
            MachineConfig::skylake_i7_6700(),
            MachineConfig::ivybridge_e5_2430v2(),
            MachineConfig::broadwell_e5_2650v4(),
        ]
    }

    /// The simulated part of the machine: its cache hierarchy, TLB
    /// hierarchy and branch predictor. These are the grouping keys of the
    /// fleet kernel's `FleetState::new` and the only fields a simulation
    /// reads; the others (name, ISA, clock, issue width, latencies) enter
    /// only the CPI stack and power estimate computed from the counters.
    /// Two machines with equal triples therefore produce identical
    /// structural counters, and `horizon-engine` keys its jobs on this
    /// triple. A field the kernel starts to read must join it.
    pub fn microarchitecture(&self) -> (&HierarchyConfig, &TlbHierarchyConfig, &PredictorKind) {
        (&self.hierarchy, &self.tlb, &self.predictor)
    }

    /// Returns a copy with a different L1 data cache, for sensitivity sweeps.
    pub fn with_l1d(&self, config: CacheConfig) -> MachineConfig {
        let mut m = self.clone();
        m.hierarchy.l1d = config;
        m
    }

    /// Returns a copy with a different branch predictor.
    pub fn with_predictor(&self, predictor: PredictorKind) -> MachineConfig {
        let mut m = self.clone();
        m.predictor = predictor;
        m
    }

    /// Returns a copy with a different L1 data TLB.
    pub fn with_l1d_tlb(&self, config: TlbConfig) -> MachineConfig {
        let mut m = self.clone();
        m.tlb.l1d = config;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetSimulator;
    use horizon_trace::WorkloadProfile;

    #[test]
    fn all_seven_machines_instantiate() {
        let machines = MachineConfig::table_iv_machines();
        assert_eq!(machines.len(), 7);
        let p = WorkloadProfile::builder("w").loads(0.3).build().unwrap();
        for m in &machines {
            // Building the simulated structures validates geometry
            // (power-of-two set counts etc.); a short one-lane run steps
            // each of them.
            let c = FleetSimulator::new(std::slice::from_ref(m)).run(&p, 1_000, 1);
            assert_eq!(c[0].instructions, 1_000);
            assert!(m.freq_ghz > 0.0);
            assert!(m.issue_width >= 1.0);
        }
    }

    #[test]
    fn names_are_unique() {
        let machines = MachineConfig::table_iv_machines();
        let names: std::collections::HashSet<_> = machines.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn table_iv_geometries_match_paper() {
        let sky = MachineConfig::skylake_i7_6700();
        assert_eq!(sky.hierarchy.l1d.capacity_bytes, 32 << 10);
        assert_eq!(sky.hierarchy.l2.capacity_bytes, 256 << 10);
        assert_eq!(sky.hierarchy.l3.unwrap().capacity_bytes, 8 << 20);

        let core2 = MachineConfig::core2_e5405();
        assert!(core2.hierarchy.l3.is_none());
        assert_eq!(core2.hierarchy.l2.capacity_bytes, 6 << 20);

        let v490 = MachineConfig::sparc_iv_plus_v490();
        assert_eq!(v490.isa, Isa::Sparc);
        assert_eq!(v490.hierarchy.l1d.capacity_bytes, 64 << 10);
        assert_eq!(v490.hierarchy.l3.unwrap().capacity_bytes, 32 << 20);

        let t4 = MachineConfig::sparc_t4();
        assert_eq!(t4.hierarchy.l1d.capacity_bytes, 16 << 10);
        assert_eq!(t4.hierarchy.l2.capacity_bytes, 128 << 10);
    }

    #[test]
    fn rapl_machines_are_intel() {
        for m in MachineConfig::rapl_machines() {
            assert_eq!(m.isa, Isa::X86);
            assert!(m.name.contains("Intel"));
        }
    }

    #[test]
    fn with_variants_change_only_target() {
        let base = MachineConfig::skylake_i7_6700();
        let small = base.with_l1d(CacheConfig::new(8 << 10, 8));
        assert_eq!(small.hierarchy.l1d.capacity_bytes, 8 << 10);
        assert_eq!(small.hierarchy.l1i, base.hierarchy.l1i);
        let pred = base.with_predictor(PredictorKind::Bimodal { table_bits: 10 });
        assert_ne!(pred.predictor, base.predictor);
        assert_eq!(pred.hierarchy, base.hierarchy);
    }

    /// Machines that differ only outside [`MachineConfig::microarchitecture`]
    /// share every structural counter; only clock and CPI stack move.
    #[test]
    fn clones_outside_the_microarchitecture_simulate_identically() {
        use crate::{Counters, CpiStack, FleetSimulator};
        let base = MachineConfig::sparc_t4();
        let clone = MachineConfig {
            name: "Vendor-D Blade 3.2GHz".into(),
            isa: Isa::X86,
            freq_ghz: 3.2,
            issue_width: 4.0,
            latency: LatencyModel::default(),
            ..base.clone()
        };
        assert_eq!(base.microarchitecture(), clone.microarchitecture());
        let profile = horizon_trace::WorkloadProfile::builder("w")
            .loads(0.3)
            .build()
            .unwrap();
        let run = |m: &MachineConfig| {
            FleetSimulator::new(std::slice::from_ref(m))
                .with_warmup(5_000)
                .run(&profile, 20_000, 7)
                .remove(0)
        };
        let (a, b) = (run(&base), run(&clone));
        let structural = |c: &Counters| Counters {
            freq_ghz: 0.0,
            cpi_stack: CpiStack::default(),
            ..c.clone()
        };
        assert_eq!(structural(&a), structural(&b));
        assert_ne!(a.freq_ghz, b.freq_ghz);
        assert_ne!(a.cpi_stack, b.cpi_stack);
    }

    #[test]
    fn isa_display() {
        assert_eq!(Isa::X86.to_string(), "x86");
        assert_eq!(Isa::Sparc.to_string(), "SPARC");
    }
}
