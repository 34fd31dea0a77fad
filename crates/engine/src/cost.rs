//! Per-job cost estimation for scheduling order.
//!
//! The work-stealing pool claims jobs in queue order, so a costly job
//! claimed last can idle every other worker while it finishes alone.
//! Sorting the pending queue largest-first bounds that tail: the longest
//! jobs start first and the short ones pack the remaining slack
//! (classic LPT scheduling). The estimate only has to *rank* jobs, not
//! predict wall time.

use horizon_core::campaign::Campaign;
use horizon_trace::WorkloadProfile;

/// Estimated cost of simulating one `(profile, machine)` job, in simulated
/// "instruction equivalents": the trace window (measured + warmup
/// instructions, weighted by the profile's memory intensity — every load
/// and store walks the cache and TLB hierarchies on top of the fetch
/// path) plus one access per cache line of the simulator's prewarm sweep
/// ([`horizon_uarch::prewarm_spans`]), which runs only with a warmup.
/// Purely a function of the campaign and profile, so identical across
/// machines and fully deterministic.
pub fn estimated_cost(campaign: &Campaign, profile: &WorkloadProfile) -> u64 {
    let window = campaign.instructions + campaign.warmup;
    let mix = profile.mix();
    let memory_weight = 1.0 + mix.loads + mix.stores;
    let weighted_window = (window as f64 * memory_weight) as u64;

    let mut prewarm_lines = 0u64;
    if campaign.warmup > 0 {
        let (data, code) = horizon_uarch::prewarm_spans(profile);
        prewarm_lines = data
            .iter()
            .chain(&code)
            .map(|span| (span.end - span.start) / 64)
            .sum();
    }
    weighted_window + prewarm_lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_trace::Region;

    fn campaign() -> Campaign {
        Campaign {
            instructions: 100_000,
            warmup: 20_000,
            seed: 1,
        }
    }

    #[test]
    fn memory_heavy_profiles_cost_more() {
        let light = WorkloadProfile::builder("light")
            .loads(0.05)
            .build()
            .unwrap();
        let heavy = WorkloadProfile::builder("heavy")
            .loads(0.35)
            .stores(0.15)
            .build()
            .unwrap();
        assert!(estimated_cost(&campaign(), &heavy) > estimated_cost(&campaign(), &light));
    }

    #[test]
    fn prewarmable_footprint_adds_cost_dram_regions_do_not() {
        let base = WorkloadProfile::builder("base").loads(0.2).build().unwrap();
        let resident = WorkloadProfile::builder("resident")
            .loads(0.2)
            .regions(vec![Region::random(4 << 20, 1.0)])
            .build()
            .unwrap();
        let dram = WorkloadProfile::builder("dram")
            .loads(0.2)
            .regions(vec![Region::random(64 << 20, 1.0)])
            .build()
            .unwrap();
        let c = campaign();
        // Same mix, so the cost gap is exactly the extra pre-warmed lines
        // (the default memory model is a single 1 MiB region).
        assert_eq!(
            estimated_cost(&c, &resident) - estimated_cost(&c, &base),
            ((4 << 20) - (1 << 20)) / 64
        );
        // DRAM-scale regions are skipped by the pre-warm walk.
        assert!(estimated_cost(&c, &dram) < estimated_cost(&c, &resident));
    }

    #[test]
    fn no_warmup_means_no_prewarm_cost() {
        let p = WorkloadProfile::builder("w")
            .loads(0.2)
            .regions(vec![Region::random(4 << 20, 1.0)])
            .build()
            .unwrap();
        let cold = Campaign {
            warmup: 0,
            ..campaign()
        };
        let warm = campaign();
        assert!(estimated_cost(&warm, &p) > estimated_cost(&cold, &p));
    }

    #[test]
    fn deterministic() {
        let p = WorkloadProfile::builder("w").loads(0.1).build().unwrap();
        assert_eq!(
            estimated_cost(&campaign(), &p),
            estimated_cost(&campaign(), &p)
        );
    }
}
