//! Content fingerprints for simulation jobs.
//!
//! A job is one `(workload profile, machine config, window, warmup, seed)`
//! quintuple. Its fingerprint is a 128-bit FNV-1a hash of the quintuple's
//! canonical JSON encoding, so two jobs share a fingerprint exactly when
//! every simulation input matches — the memo table and the on-disk cache
//! key on it. The encoding includes a schema version, so any change to the
//! serialized shape of profiles or machines invalidates old cache entries
//! instead of silently aliasing them.

use horizon_core::campaign::Campaign;
use horizon_trace::WorkloadProfile;
use horizon_uarch::MachineConfig;
use serde::{Serialize, Value};

/// Bump when the fingerprint encoding (or the meaning of a cached
/// measurement) changes; old disk-cache entries then miss cleanly.
pub const SCHEMA_VERSION: u32 = 1;

/// A job's content fingerprint: 32 lowercase hex digits.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(String);

impl Fingerprint {
    /// Fingerprints one simulation job.
    pub fn of_job(campaign: &Campaign, profile: &WorkloadProfile, machine: &MachineConfig) -> Self {
        let key = Value::Map(vec![
            ("schema".to_string(), SCHEMA_VERSION.to_value()),
            ("instructions".to_string(), campaign.instructions.to_value()),
            ("warmup".to_string(), campaign.warmup.to_value()),
            ("seed".to_string(), campaign.seed.to_value()),
            ("profile".to_string(), profile.to_value()),
            ("machine".to_string(), machine.to_value()),
        ]);
        let canonical = serde_json::to_string(&key).expect("canonical key serializes");
        Fingerprint(fnv1a_128_hex(canonical.as_bytes()))
    }

    /// Fingerprints the trace-defining inputs of a job — the campaign
    /// window and the workload profile, *without* the machine. Two jobs
    /// sharing this fingerprint expand the identical instruction stream,
    /// so the engine can simulate their machines together as one fleet
    /// batch (see `horizon_uarch::FleetSimulator`) without changing any
    /// result.
    pub fn of_profile(campaign: &Campaign, profile: &WorkloadProfile) -> Self {
        let key = Value::Map(vec![
            ("schema".to_string(), SCHEMA_VERSION.to_value()),
            ("instructions".to_string(), campaign.instructions.to_value()),
            ("warmup".to_string(), campaign.warmup.to_value()),
            ("seed".to_string(), campaign.seed.to_value()),
            ("profile".to_string(), profile.to_value()),
        ]);
        let canonical = serde_json::to_string(&key).expect("canonical key serializes");
        Fingerprint(fnv1a_128_hex(canonical.as_bytes()))
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
            "285852e5460b2309e0a371376c60ed33"
        );
        assert_eq!(
            Fingerprint::of_profile(&c, &p).as_str(),
            "1fcd381a7c492b226f81ea8680290d59"
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
