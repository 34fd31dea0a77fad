//! SPEC CPU2006 benchmarks, for the balance study of §V.
//!
//! The paper's claims drive the calibration:
//!
//! * CPU2006 INT programs average ~20% branches vs ≤15% in CPU2017 (§II-B).
//! * 429.mcf "exerts the data caches (all cache-levels) more than the mcf
//!   benchmarks from the CPU2017 suite" (§V-A).
//! * 429.mcf, 445.gobmk and 473.astar are the only removed benchmarks whose
//!   performance spectrum CPU2017 does not cover (§V-B).
//! * Retained programs (omnetpp, bwaves) look like their CPU2017 versions.
//! * CPU2006 shows less core-power diversity than CPU2017 (§V-C): lower
//!   SIMD intensity across the board.

use crate::benchmark::{Benchmark, Language};
use crate::spec::{Br, MemSpec, Spec};
use crate::suite::{ApplicationDomain as D, Suite};

fn int(spec: &Spec, domain: D, language: Language) -> Benchmark {
    spec.build(Suite::Cpu2006Int, domain, language)
}

fn fp(spec: &Spec, domain: D, language: Language) -> Benchmark {
    spec.build(Suite::Cpu2006Fp, domain, language)
}

/// CPU2006 integer benchmarks.
pub fn int_suite() -> Vec<Benchmark> {
    vec![
        // Predecessor of 500.perlbench_r; similar shape, branchier (§II-B:
        // CPU2006 INT averages ~20% branches).
        int(
            &Spec {
                name: "400.perlbench",
                icount: 1200.0,
                loads: 26.0,
                stores: 15.0,
                branches: 21.0,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 3.5,
                    l2_mpki: 1.0,
                    l3_mpki: 0.3,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 32,
                },
                br: Br::moderate(0.47),
                code_kb: 1536,
                hot_kb: 31,
                kernel: 0.03,
                dep: 0.22,
            },
            D::Compiler,
            Language::C,
        ),
        // Removed; compression behavior covered by 557.xz (§V-B).
        int(
            &Spec {
                name: "401.bzip2",
                icount: 500.0,
                loads: 25.0,
                stores: 9.0,
                branches: 19.0,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 20.0,
                    l2_mpki: 9.0,
                    l3_mpki: 2.5,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 96,
                },
                br: Br::hard(0.5, 0.88),
                code_kb: 128,
                hot_kb: 16,
                kernel: 0.02,
                dep: 0.5,
            },
            D::Compression,
            Language::C,
        ),
        // Predecessor of 502/602.gcc.
        int(
            &Spec {
                name: "403.gcc",
                icount: 400.0,
                loads: 31.0,
                stores: 16.0,
                branches: 20.5,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 22.0,
                    l2_mpki: 10.0,
                    l3_mpki: 1.6,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 32,
                },
                br: Br {
                    taken: 0.66,
                    regularity: 0.96,
                    spread: 0.4,
                    sites: 16384,
                    pattern: 0.5,
                },
                code_kb: 3584,
                hot_kb: 31,
                kernel: 0.02,
                dep: 0.25,
            },
            D::Compiler,
            Language::C,
        ),
        // §V-A: "exerts the data caches (all cache-levels) more than the mcf
        // benchmarks from the CPU2017 suite" — higher targets at every level
        // than 505/605. One of the three uncovered removed benchmarks (§V-B).
        int(
            &Spec {
                name: "429.mcf",
                icount: 380.0,
                loads: 31.0,
                stores: 9.0,
                branches: 21.0,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 68.0,
                    l2_mpki: 28.0,
                    l3_mpki: 6.5,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: true,
                    dram_mb: 1536,
                },
                br: Br::hard(0.68, 0.82),
                code_kb: 128,
                hot_kb: 16,
                kernel: 0.02,
                dep: 0.6,
            },
            D::CombinatorialOptimization,
            Language::C,
        ),
        // Go AI; uncovered removed benchmark (§V-B): very hard branches over a
        // large, I-side-heavy evaluation function — a combination CPU2017 lacks.
        int(
            &Spec {
                name: "445.gobmk",
                icount: 450.0,
                loads: 27.0,
                stores: 14.0,
                branches: 20.0,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 5.0,
                    l2_mpki: 1.5,
                    l3_mpki: 0.4,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 64,
                },
                br: Br {
                    taken: 0.42,
                    regularity: 0.55,
                    spread: 0.2,
                    sites: 16384,
                    pattern: 0.5,
                },
                code_kb: 4096,
                hot_kb: 40,
                kernel: 0.02,
                dep: 0.35,
            },
            D::ArtificialIntelligence,
            Language::C,
        ),
        // Profile HMM search; compute-bound and covered.
        int(
            &Spec {
                name: "456.hmmer",
                icount: 900.0,
                loads: 28.0,
                stores: 14.0,
                branches: 17.0,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 2.0,
                    l2_mpki: 0.5,
                    l3_mpki: 0.1,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 64,
                },
                br: Br::easy(0.45),
                code_kb: 256,
                hot_kb: 12,
                kernel: 0.01,
                dep: 0.3,
            },
            D::Other,
            Language::C,
        ),
        // Chess; predecessor of deepsjeng.
        int(
            &Spec {
                name: "458.sjeng",
                icount: 700.0,
                loads: 21.0,
                stores: 8.0,
                branches: 21.5,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 9.0,
                    l2_mpki: 3.5,
                    l3_mpki: 1.0,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 256,
                },
                br: Br::hard(0.45, 0.86),
                code_kb: 384,
                hot_kb: 22,
                kernel: 0.02,
                dep: 0.3,
            },
            D::ArtificialIntelligence,
            Language::C,
        ),
        // Streaming quantum-register sweeps; famously prefetch-friendly.
        int(
            &Spec {
                name: "462.libquantum",
                icount: 1200.0,
                loads: 24.0,
                stores: 9.0,
                branches: 26.0,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 12.0,
                    l2_mpki: 2.5,
                    l3_mpki: 1.0,
                    wide: 0.0,
                    dense: 0.55,
                    line: 0.05,
                    tlb_heavy: false,
                    dram_mb: 48,
                },
                br: Br::easy(0.75),
                code_kb: 64,
                hot_kb: 6,
                kernel: 0.01,
                dep: 0.25,
            },
            D::Physics,
            Language::C,
        ),
        // Predecessor of 525.x264.
        int(
            &Spec {
                name: "464.h264ref",
                icount: 800.0,
                loads: 35.0,
                stores: 11.0,
                branches: 7.5,
                fp: 0.0,
                simd: 0.1,
                mem: MemSpec {
                    l1_mpki: 5.0,
                    l2_mpki: 1.2,
                    l3_mpki: 0.3,
                    wide: 0.0,
                    dense: 0.26,
                    line: 0.08,
                    tlb_heavy: false,
                    dram_mb: 16,
                },
                br: Br::easy(0.5),
                code_kb: 768,
                hot_kb: 22,
                kernel: 0.02,
                dep: 0.18,
            },
            D::Compression,
            Language::C,
        ),
        // Retained as 520.omnetpp_r with close characteristics (§V-A), so this
        // profile tracks 520's.
        int(
            &Spec {
                name: "471.omnetpp",
                icount: 500.0,
                loads: 23.0,
                stores: 13.0,
                branches: 20.0,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 44.0,
                    l2_mpki: 17.0,
                    l3_mpki: 4.2,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 128,
                },
                br: Br::moderate(0.62),
                code_kb: 1280,
                hot_kb: 28,
                kernel: 0.02,
                dep: 0.6,
            },
            D::DiscreteEventSimulation,
            Language::Cpp,
        ),
        // Path-finding; uncovered removed benchmark (§V-B): pointer chasing
        // with mid-size working sets plus data-dependent hard branches.
        int(
            &Spec {
                name: "473.astar",
                icount: 600.0,
                loads: 27.0,
                stores: 10.0,
                branches: 17.0,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 44.0,
                    l2_mpki: 22.0,
                    l3_mpki: 6.2,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 320,
                },
                br: Br::hard(0.55, 0.75),
                code_kb: 128,
                hot_kb: 14,
                kernel: 0.02,
                dep: 0.7,
            },
            D::Other,
            Language::Cpp,
        ),
        // Predecessor of 523.xalancbmk.
        int(
            &Spec {
                name: "483.xalancbmk",
                icount: 800.0,
                loads: 32.0,
                stores: 9.0,
                branches: 26.0,
                fp: 0.0,
                simd: 0.0,
                mem: MemSpec {
                    l1_mpki: 24.0,
                    l2_mpki: 9.0,
                    l3_mpki: 2.2,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 48,
                },
                br: Br {
                    taken: 0.7,
                    regularity: 0.975,
                    spread: 0.3,
                    sites: 8192,
                    pattern: 0.5,
                },
                code_kb: 2560,
                hot_kb: 29,
                kernel: 0.02,
                dep: 0.35,
            },
            D::DocumentProcessing,
            Language::Cpp,
        ),
    ]
}

/// CPU2006 floating-point benchmarks.
pub fn fp_suite() -> Vec<Benchmark> {
    vec![
        // Retained as 503.bwaves_r with similar characteristics (§V-A).
        fp(
            &Spec {
                name: "410.bwaves",
                icount: 1600.0,
                loads: 34.0,
                stores: 5.5,
                branches: 11.0,
                fp: 0.28,
                simd: 0.05,
                mem: MemSpec {
                    l1_mpki: 14.0,
                    l2_mpki: 3.0,
                    l3_mpki: 0.8,
                    wide: 0.4,
                    dense: 0.37,
                    line: 0.02,
                    tlb_heavy: false,
                    dram_mb: 48,
                },
                br: Br {
                    taken: 0.8,
                    regularity: 0.975,
                    spread: 0.25,
                    sites: 2048,
                    pattern: 1.0,
                },
                code_kb: 256,
                hot_kb: 10,
                kernel: 0.01,
                dep: 0.2,
            },
            D::FluidDynamics,
            Language::Fortran,
        ),
        // Quantum chemistry, removed but covered (§V-B): compute-dense and
        // cache-resident like nab/namd.
        fp(
            &Spec {
                name: "416.gamess",
                icount: 1300.0,
                loads: 26.0,
                stores: 8.0,
                branches: 9.0,
                fp: 0.3,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 2.5,
                    l2_mpki: 0.6,
                    l3_mpki: 0.15,
                    wide: 0.0,
                    dense: 0.1,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 64,
                },
                br: Br::easy(0.5),
                code_kb: 4096,
                hot_kb: 18,
                kernel: 0.01,
                dep: 0.4,
            },
            D::QuantumChemistry,
            Language::Fortran,
        ),
        // Lattice QCD: line streaming with real DRAM pressure.
        fp(
            &Spec {
                name: "433.milc",
                icount: 900.0,
                loads: 31.0,
                stores: 13.0,
                branches: 3.0,
                fp: 0.3,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 36.0,
                    l2_mpki: 10.0,
                    l3_mpki: 2.8,
                    wide: 0.3,
                    dense: 0.0,
                    line: 0.05,
                    tlb_heavy: false,
                    dram_mb: 512,
                },
                br: Br::easy(0.6),
                code_kb: 256,
                hot_kb: 10,
                kernel: 0.01,
                dep: 0.5,
            },
            D::Physics,
            Language::C,
        ),
        // Astrophysical CFD.
        fp(
            &Spec {
                name: "434.zeusmp",
                icount: 1100.0,
                loads: 23.0,
                stores: 9.0,
                branches: 5.0,
                fp: 0.3,
                simd: 0.05,
                mem: MemSpec {
                    l1_mpki: 22.0,
                    l2_mpki: 6.0,
                    l3_mpki: 1.5,
                    wide: 0.0,
                    dense: 0.3,
                    line: 0.14,
                    tlb_heavy: false,
                    dram_mb: 256,
                },
                br: Br::easy(0.6),
                code_kb: 512,
                hot_kb: 12,
                kernel: 0.01,
                dep: 0.4,
            },
            D::Physics,
            Language::Fortran,
        ),
        // Molecular dynamics; resident.
        fp(
            &Spec {
                name: "435.gromacs",
                icount: 1000.0,
                loads: 29.0,
                stores: 11.0,
                branches: 4.0,
                fp: 0.3,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 3.0,
                    l2_mpki: 0.8,
                    l3_mpki: 0.2,
                    wide: 0.0,
                    dense: 0.12,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 64,
                },
                br: Br::easy(0.5),
                code_kb: 1024,
                hot_kb: 14,
                kernel: 0.01,
                dep: 0.4,
            },
            D::MolecularDynamics,
            Language::Mixed,
        ),
        // Predecessor of 507.cactuBSSN with tamer TLB behavior.
        fp(
            &Spec {
                name: "436.cactusADM",
                icount: 1300.0,
                loads: 40.0,
                stores: 10.0,
                branches: 1.0,
                fp: 0.3,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 48.0,
                    l2_mpki: 8.0,
                    l3_mpki: 2.5,
                    wide: 0.6,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: true,
                    dram_mb: 384,
                },
                br: Br::easy(0.6),
                code_kb: 768,
                hot_kb: 20,
                kernel: 0.01,
                dep: 0.35,
            },
            D::Physics,
            Language::Mixed,
        ),
        // CFD with deep streaming.
        fp(
            &Spec {
                name: "437.leslie3d",
                icount: 1200.0,
                loads: 29.0,
                stores: 10.0,
                branches: 4.5,
                fp: 0.3,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 30.0,
                    l2_mpki: 7.0,
                    l3_mpki: 1.8,
                    wide: 0.0,
                    dense: 0.32,
                    line: 0.16,
                    tlb_heavy: false,
                    dram_mb: 320,
                },
                br: Br::easy(0.62),
                code_kb: 512,
                hot_kb: 12,
                kernel: 0.01,
                dep: 0.45,
            },
            D::FluidDynamics,
            Language::Fortran,
        ),
        // Predecessor of 508.namd_r.
        fp(
            &Spec {
                name: "444.namd",
                icount: 1500.0,
                loads: 29.0,
                stores: 10.0,
                branches: 2.5,
                fp: 0.3,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 3.0,
                    l2_mpki: 0.8,
                    l3_mpki: 0.2,
                    wide: 0.0,
                    dense: 0.09,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 64,
                },
                br: Br::easy(0.5),
                code_kb: 512,
                hot_kb: 12,
                kernel: 0.01,
                dep: 0.35,
            },
            D::MolecularDynamics,
            Language::Cpp,
        ),
        // Finite elements; close to parest territory.
        fp(
            &Spec {
                name: "447.dealII",
                icount: 1100.0,
                loads: 34.0,
                stores: 8.0,
                branches: 14.0,
                fp: 0.26,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 13.0,
                    l2_mpki: 4.0,
                    l3_mpki: 1.0,
                    wide: 0.0,
                    dense: 0.16,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 64,
                },
                br: Br::easy(0.55),
                code_kb: 4096,
                hot_kb: 24,
                kernel: 0.01,
                dep: 0.35,
            },
            D::Biomedical,
            Language::Cpp,
        ),
        // Linear programming, removed but covered (§V-B): sparse algebra near
        // parest/dealII.
        fp(
            &Spec {
                name: "450.soplex",
                icount: 700.0,
                loads: 32.0,
                stores: 7.0,
                branches: 16.0,
                fp: 0.26,
                simd: 0.03,
                mem: MemSpec {
                    l1_mpki: 25.0,
                    l2_mpki: 10.0,
                    l3_mpki: 3.0,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 192,
                },
                br: Br::moderate(0.55),
                code_kb: 1024,
                hot_kb: 20,
                kernel: 0.01,
                dep: 0.45,
            },
            D::LinearProgramming,
            Language::Cpp,
        ),
        // Predecessor of 511.povray_r.
        fp(
            &Spec {
                name: "453.povray",
                icount: 1000.0,
                loads: 30.0,
                stores: 13.0,
                branches: 15.0,
                fp: 0.26,
                simd: 0.03,
                mem: MemSpec {
                    l1_mpki: 3.5,
                    l2_mpki: 1.0,
                    l3_mpki: 0.3,
                    wide: 0.0,
                    dense: 0.0,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 128,
                },
                br: Br::easy(0.5),
                code_kb: 1024,
                hot_kb: 20,
                kernel: 0.01,
                dep: 0.3,
            },
            D::Visualization,
            Language::Cpp,
        ),
        // Structural mechanics.
        fp(
            &Spec {
                name: "454.calculix",
                icount: 1400.0,
                loads: 27.0,
                stores: 9.0,
                branches: 6.0,
                fp: 0.3,
                simd: 0.05,
                mem: MemSpec {
                    l1_mpki: 9.0,
                    l2_mpki: 3.0,
                    l3_mpki: 0.8,
                    wide: 0.0,
                    dense: 0.16,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 64,
                },
                br: Br::easy(0.55),
                code_kb: 2048,
                hot_kb: 18,
                kernel: 0.01,
                dep: 0.4,
            },
            D::Other,
            Language::Mixed,
        ),
        // FDTD solver: deep streaming with DRAM pressure.
        fp(
            &Spec {
                name: "459.GemsFDTD",
                icount: 1400.0,
                loads: 32.0,
                stores: 11.0,
                branches: 4.0,
                fp: 0.3,
                simd: 0.05,
                mem: MemSpec {
                    l1_mpki: 36.0,
                    l2_mpki: 9.0,
                    l3_mpki: 2.6,
                    wide: 0.35,
                    dense: 0.0,
                    line: 0.05,
                    tlb_heavy: false,
                    dram_mb: 512,
                },
                br: Br::easy(0.6),
                code_kb: 512,
                hot_kb: 12,
                kernel: 0.01,
                dep: 0.45,
            },
            D::Physics,
            Language::Fortran,
        ),
        // Quantum chemistry, removed but covered (§V-B).
        fp(
            &Spec {
                name: "465.tonto",
                icount: 1300.0,
                loads: 27.0,
                stores: 11.0,
                branches: 9.0,
                fp: 0.3,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 3.0,
                    l2_mpki: 0.8,
                    l3_mpki: 0.2,
                    wide: 0.0,
                    dense: 0.12,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 64,
                },
                br: Br::easy(0.5),
                code_kb: 4096,
                hot_kb: 20,
                kernel: 0.01,
                dep: 0.4,
            },
            D::QuantumChemistry,
            Language::Fortran,
        ),
        // Predecessor of 519.lbm_r.
        fp(
            &Spec {
                name: "470.lbm",
                icount: 1300.0,
                loads: 26.0,
                stores: 13.0,
                branches: 1.0,
                fp: 0.3,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 38.0,
                    l2_mpki: 6.0,
                    l3_mpki: 2.2,
                    wide: 0.45,
                    dense: 0.0,
                    line: 0.03,
                    tlb_heavy: false,
                    dram_mb: 160,
                },
                br: Br::easy(0.7),
                code_kb: 128,
                hot_kb: 8,
                kernel: 0.01,
                dep: 0.4,
            },
            D::FluidDynamics,
            Language::C,
        ),
        // Predecessor of 521.wrf_r.
        fp(
            &Spec {
                name: "481.wrf",
                icount: 1600.0,
                loads: 24.0,
                stores: 7.0,
                branches: 10.0,
                fp: 0.28,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 22.0,
                    l2_mpki: 6.5,
                    l3_mpki: 1.7,
                    wide: 0.0,
                    dense: 0.17,
                    line: 0.0,
                    tlb_heavy: false,
                    dram_mb: 96,
                },
                br: Br::easy(0.55),
                code_kb: 8192,
                hot_kb: 28,
                kernel: 0.01,
                dep: 0.5,
            },
            D::Climatology,
            Language::Mixed,
        ),
        // Speech recognition, removed but covered (§V-B): lands near the
        // CPU2017 FP streaming group.
        fp(
            &Spec {
                name: "483.sphinx3",
                icount: 1300.0,
                loads: 30.0,
                stores: 6.0,
                branches: 10.0,
                fp: 0.28,
                simd: 0.04,
                mem: MemSpec {
                    l1_mpki: 20.0,
                    l2_mpki: 5.0,
                    l3_mpki: 1.3,
                    wide: 0.0,
                    dense: 0.26,
                    line: 0.12,
                    tlb_heavy: false,
                    dram_mb: 96,
                },
                br: Br::easy(0.58),
                code_kb: 512,
                hot_kb: 14,
                kernel: 0.01,
                dep: 0.35,
            },
            D::SpeechRecognition,
            Language::C,
        ),
    ]
}

/// All cataloged CPU2006 benchmarks.
pub fn all() -> Vec<Benchmark> {
    let mut v = int_suite();
    v.extend(fp_suite());
    v
}

/// Names of CPU2006 benchmarks removed in CPU2017 that the paper finds
/// *uncovered* by the new suite (§V-B).
pub const UNCOVERED_REMOVED: [&str; 3] = ["429.mcf", "445.gobmk", "473.astar"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_uniqueness() {
        let all = all();
        assert_eq!(all.len(), int_suite().len() + fp_suite().len());
        let names: std::collections::HashSet<_> = all.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn int_suite_branchier_than_cpu2017_int() {
        // §II-B: CPU2006 INT averages ~20% branches, CPU2017 INT ≤ 15%.
        let avg2006: f64 = int_suite()
            .iter()
            .map(|b| b.profile().mix().branches)
            .sum::<f64>()
            / int_suite().len() as f64;
        let c2017 = crate::cpu2017::rate_int();
        let avg2017: f64 = c2017
            .iter()
            .map(|b| b.profile().mix().branches)
            .sum::<f64>()
            / c2017.len() as f64;
        assert!(avg2006 > 0.18, "{avg2006}");
        assert!(avg2017 < 0.15, "{avg2017}");
    }

    #[test]
    fn mcf2006_stresses_caches_more_than_mcf2017() {
        // §V-A: 429.mcf exerts all cache levels more than 505/605.mcf.
        use horizon_uarch::{FleetSimulator, MachineConfig};
        let all = all();
        let mcf06 = all.iter().find(|b| b.name() == "429.mcf").unwrap();
        let c2017 = crate::cpu2017::all();
        let mcf17 = c2017.iter().find(|b| b.name() == "505.mcf_r").unwrap();
        let sim = FleetSimulator::new(&[MachineConfig::skylake_i7_6700()]).with_warmup(30_000);
        let c06 = sim.run(mcf06.profile(), 120_000, 9).remove(0);
        let c17 = sim.run(mcf17.profile(), 120_000, 9).remove(0);
        assert!(c06.mpki(c06.l1d_misses) > c17.mpki(c17.l1d_misses));
        assert!(c06.mpki(c06.l2d_misses) > c17.mpki(c17.l2d_misses));
        assert!(c06.mpki(c06.l3_misses) > c17.mpki(c17.l3_misses));
    }

    #[test]
    fn uncovered_benchmarks_exist_in_catalog() {
        let all = all();
        for name in UNCOVERED_REMOVED {
            assert!(all.iter().any(|b| b.name() == name), "{name}");
        }
    }

    #[test]
    fn suites_assigned_correctly() {
        for b in int_suite() {
            assert_eq!(b.suite(), Suite::Cpu2006Int);
        }
        for b in fp_suite() {
            assert_eq!(b.suite(), Suite::Cpu2006Fp);
        }
    }
}
