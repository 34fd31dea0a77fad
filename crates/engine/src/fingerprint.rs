//! Content fingerprints for simulation jobs.
//!
//! A job is what the fleet kernel simulates: one workload profile on one
//! microarchitecture ([`MachineConfig::microarchitecture`]: the cache
//! hierarchy, TLB hierarchy and branch predictor) over one window, warmup
//! and seed. Machines that differ only in name, ISA, clock, issue width or
//! latencies share a job; each grid cell derives its own clock, CPI stack
//! and power from the job's counters
//! (`horizon_core::campaign::Measurement::for_machine`).
//!
//! The fingerprint is a 128-bit FNV-1a hash of
//! `schema=2;instructions=…;warmup=…;seed=…;profile=<digest>;uarch=<digest>`,
//! where each digest is the same hash (32 hex digits) of the input's
//! canonical JSON. Both digests are fixed-width, so the string is
//! injective, and the engine digests each profile and each machine once
//! per campaign call instead of serializing them again for every cell. The
//! memo table and the on-disk cache key on the fingerprint; the schema
//! version invalidates old cache entries when the encoding changes instead
//! of silently aliasing them.

use horizon_core::campaign::Campaign;
use horizon_trace::WorkloadProfile;
use horizon_uarch::MachineConfig;

/// Bump when the fingerprint encoding (or the meaning of a cached
/// measurement) changes; old disk-cache entries then miss cleanly.
pub const SCHEMA_VERSION: u32 = 2;

/// A job's content fingerprint: 32 lowercase hex digits.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(String);

impl Fingerprint {
    /// Fingerprints one simulation job: `profile` on `machine`'s
    /// microarchitecture.
    pub fn of_job(campaign: &Campaign, profile: &WorkloadProfile, machine: &MachineConfig) -> Self {
        compose(
            campaign,
            &profile_digest(profile),
            Some(&uarch_digest(machine)),
        )
    }

    /// Fingerprints the trace-defining inputs of a job — the campaign
    /// window and the workload profile, *without* the machine. Two jobs
    /// sharing this fingerprint expand the identical instruction stream,
    /// so the engine can simulate their machines together as one fleet
    /// batch (see `horizon_uarch::FleetSimulator`) without changing any
    /// result.
    pub fn of_profile(campaign: &Campaign, profile: &WorkloadProfile) -> Self {
        compose(campaign, &profile_digest(profile), None)
    }

    /// Fingerprints an arbitrary canonical byte string with the same
    /// 128-bit FNV-1a digest the job and profile fingerprints use. This
    /// is the routing-key entry point for the serve cluster: the router
    /// canonicalizes a run request into bytes and hashes them here, so a
    /// run's shard assignment is derived from the same content-addressing
    /// scheme that keys the memo table and disk cache. Callers own the
    /// canonicalization; two byte-identical inputs always collide.
    pub fn of_canonical(bytes: &[u8]) -> Self {
        Fingerprint(fnv1a_128_hex(bytes))
    }

    /// The hex digest.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Digest of a profile's canonical JSON.
pub(crate) fn profile_digest(profile: &WorkloadProfile) -> Fingerprint {
    let canonical = serde_json::to_string(profile).expect("profile serializes");
    Fingerprint::of_canonical(canonical.as_bytes())
}

/// Digest of the canonical JSON of a machine's simulated part,
/// [`MachineConfig::microarchitecture`].
pub(crate) fn uarch_digest(machine: &MachineConfig) -> Fingerprint {
    let canonical =
        serde_json::to_string(&machine.microarchitecture()).expect("microarchitecture serializes");
    Fingerprint::of_canonical(canonical.as_bytes())
}

/// The job key from pre-computed digests; `uarch: None` keys the trace
/// alone ([`Fingerprint::of_profile`]).
pub(crate) fn compose(
    campaign: &Campaign,
    profile: &Fingerprint,
    uarch: Option<&Fingerprint>,
) -> Fingerprint {
    let key = format!(
        "schema={SCHEMA_VERSION};instructions={};warmup={};seed={};profile={profile};uarch={}",
        campaign.instructions,
        campaign.warmup,
        campaign.seed,
        uarch.map_or("-", Fingerprint::as_str),
    );
    Fingerprint::of_canonical(key.as_bytes())
}

/// 128-bit FNV-1a, rendered as 32 hex digits.
fn fnv1a_128_hex(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    format!("{hash:032x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_uarch::{CacheConfig, Isa, LatencyModel, PredictorKind, TlbConfig};

    fn sample_inputs() -> (Campaign, WorkloadProfile, MachineConfig) {
        let campaign = Campaign::quick();
        let profile = horizon_workloads::cpu2017::all()[0].profile().clone();
        let machine = MachineConfig::skylake_i7_6700();
        (campaign, profile, machine)
    }

    #[test]
    fn stable_for_identical_inputs() {
        let (c, p, m) = sample_inputs();
        assert_eq!(
            Fingerprint::of_job(&c, &p, &m),
            Fingerprint::of_job(&c, &p, &m)
        );
    }

    #[test]
    fn sensitive_to_every_campaign_knob() {
        let (c, p, m) = sample_inputs();
        let base = Fingerprint::of_job(&c, &p, &m);
        for variant in [
            Campaign {
                instructions: c.instructions + 1,
                ..c
            },
            Campaign {
                warmup: c.warmup + 1,
                ..c
            },
            Campaign {
                seed: c.seed + 1,
                ..c
            },
        ] {
            assert_ne!(base, Fingerprint::of_job(&variant, &p, &m));
        }
    }

    #[test]
    fn sensitive_to_profile_and_machine() {
        let (c, p, m) = sample_inputs();
        let base = Fingerprint::of_job(&c, &p, &m);
        let other_profile = horizon_workloads::cpu2017::all()[1].profile().clone();
        assert_ne!(base, Fingerprint::of_job(&c, &other_profile, &m));
        let other_machine = MachineConfig::sparc_t4();
        assert_ne!(base, Fingerprint::of_job(&c, &p, &other_machine));
    }

    /// Name, ISA, clock, issue width and latencies never reach the
    /// simulator, so a machine that differs only there shares the job.
    #[test]
    fn ignores_fields_outside_the_microarchitecture() {
        let (c, p, m) = sample_inputs();
        let base = Fingerprint::of_job(&c, &p, &m);
        let variants = [
            MachineConfig {
                name: "Vendor-A Workstation 3.8GHz".into(),
                ..m.clone()
            },
            MachineConfig {
                isa: Isa::Sparc,
                ..m.clone()
            },
            MachineConfig {
                freq_ghz: 3.8,
                ..m.clone()
            },
            MachineConfig {
                issue_width: 2.0,
                ..m.clone()
            },
            MachineConfig {
                latency: LatencyModel::default(),
                ..m.clone()
            },
        ];
        for variant in &variants {
            assert_ne!(*variant, m);
            assert_eq!(Fingerprint::of_job(&c, &p, variant), base, "{variant:?}");
        }
    }

    #[test]
    fn sensitive_to_each_microarchitecture_field() {
        let (c, p, m) = sample_inputs();
        let base = Fingerprint::of_job(&c, &p, &m);
        let mut hierarchy = m.clone();
        hierarchy.hierarchy.l3 = Some(CacheConfig::new(16 << 20, 16));
        let mut tlb = m.clone();
        tlb.tlb.l1d = TlbConfig::new(32, 4);
        let predictor = m.with_predictor(PredictorKind::Bimodal { table_bits: 10 });
        for variant in [hierarchy, tlb, predictor] {
            assert_ne!(Fingerprint::of_job(&c, &p, &variant), base, "{variant:?}");
        }
    }

    /// The engine composes keys from digests it computes once per call;
    /// the public constructors must agree with that composition.
    #[test]
    fn per_call_composition_matches_the_public_keys() {
        let (c, p, _) = sample_inputs();
        let profile = profile_digest(&p);
        for m in MachineConfig::table_iv_machines() {
            assert_eq!(
                compose(&c, &profile, Some(&uarch_digest(&m))),
                Fingerprint::of_job(&c, &p, &m)
            );
        }
        assert_eq!(compose(&c, &profile, None), Fingerprint::of_profile(&c, &p));
    }

    #[test]
    fn canonical_digest_is_stable_and_input_sensitive() {
        let a = Fingerprint::of_canonical(b"route:table1:quick");
        assert_eq!(a, Fingerprint::of_canonical(b"route:table1:quick"));
        assert_ne!(a, Fingerprint::of_canonical(b"route:table2:quick"));
        assert_eq!(a.as_str().len(), 32);
        assert!(a.as_str().chars().all(|ch| ch.is_ascii_hexdigit()));
    }

    /// Every disk cache dir is keyed on these digests, so the canonical
    /// encoding must not drift without a `SCHEMA_VERSION` bump.
    #[test]
    fn exact_digests_are_pinned() {
        let (c, p, m) = sample_inputs();
        assert_eq!(
            Fingerprint::of_job(&c, &p, &m).as_str(),
            "903d4910098717d0400b3ac897bd5f52"
        );
        assert_eq!(
            Fingerprint::of_profile(&c, &p).as_str(),
            "b26a915cf90cfed0653cadc99f2bad9a"
        );
    }

    #[test]
    fn digest_shape() {
        let (c, p, m) = sample_inputs();
        let fp = Fingerprint::of_job(&c, &p, &m);
        assert_eq!(fp.as_str().len(), 32);
        assert!(fp.as_str().chars().all(|ch| ch.is_ascii_hexdigit()));
    }
}
