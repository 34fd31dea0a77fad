//! Set-associative cache with true-LRU replacement.

use serde::{Deserialize, Serialize};

use crate::lru::LruSets;

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Convenience constructor with 64-byte lines.
    pub fn new(capacity_bytes: u64, associativity: u32) -> Self {
        CacheConfig {
            capacity_bytes,
            associativity,
            line_bytes: 64,
        }
    }

    /// Number of sets implied by the geometry (at least 1).
    pub fn sets(&self) -> u64 {
        (self.capacity_bytes / (self.line_bytes * self.associativity as u64)).max(1)
    }
}

/// A set-associative cache with LRU replacement and hit/miss counters.
///
/// The simulator only needs hit/miss behavior, so lines carry no data.
///
/// # Example
///
/// ```
/// use horizon_uarch::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2)); // 8 sets x 2 ways
/// assert!(!c.access(0));        // cold miss
/// assert!(c.access(0));         // hit
/// assert_eq!(c.misses(), 1);
/// assert_eq!(c.accesses(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// Tag/stamp storage with true-LRU replacement and a hot-line memo;
    /// keys are line indices (`addr >> line_shift`).
    lines: LruSets,
    accesses: u64,
    misses: u64,
    line_shift: u32,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two, the associativity is
    /// zero, or the capacity is smaller than one way of lines.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.associativity > 0, "associativity must be nonzero");
        let sets = config.sets();
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (capacity {} / line {} / ways {})",
            config.capacity_bytes,
            config.line_bytes,
            config.associativity
        );
        Cache {
            lines: LruSets::new(sets, config.associativity),
            accesses: 0,
            misses: 0,
            line_shift: config.line_bytes.trailing_zeros(),
        }
    }

    /// Accesses the line containing `addr`; returns `true` on hit.
    /// On miss, the line is installed (allocate-on-miss for both reads and
    /// writes — the counter study doesn't distinguish write policies).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let hit = self.lines.touch(addr >> self.line_shift);
        self.misses += !hit as u64;
        hit
    }

    /// Streams a batch of `(position, address)` demand probes through the
    /// cache in order, appending the events that missed to `misses`
    /// (positions preserved, so callers can merge miss lists from several
    /// structures back into per-instruction order). Counter-equivalent to
    /// calling [`Cache::access`] once per event; this is the fleet
    /// kernel's lane-stepping entry point, which keeps the LRU clock and
    /// memo state hot across the whole event run.
    pub fn access_events(&mut self, events: &[(u32, u64)], misses: &mut Vec<(u32, u64)>) {
        self.accesses += events.len() as u64;
        let before = misses.len();
        self.lines.touch_lanes(self.line_shift, events, misses);
        self.misses += (misses.len() - before) as u64;
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Credits `n` batched hits: accesses known to repeat the immediately
    /// preceding access's line (hence resident and already MRU), counted
    /// without replaying the lookup. Used by the fleet kernel's
    /// repeat-granule fast path.
    pub(crate) fn credit_hits(&mut self, n: u64) {
        self.accesses += n;
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Installs the line containing `addr` without touching the access/miss
    /// counters — the fill path used by hardware prefetchers. Inserts at
    /// MRU priority.
    pub fn install(&mut self, addr: u64) {
        self.install_with_priority(addr, true);
    }

    /// Installs a line at LRU priority: it becomes the set's first victim
    /// unless a demand access promotes it. This is how hardware inserts
    /// prefetches into shared levels so streams cannot wash out resident
    /// working sets.
    pub fn install_lru(&mut self, addr: u64) {
        self.install_with_priority(addr, false);
    }

    fn install_with_priority(&mut self, addr: u64, mru: bool) {
        // LRU-priority fills take stamp 0 so they are the set's first
        // victim; MRU fills take the newest stamp.
        self.lines.fill(addr >> self.line_shift, mru);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_computation() {
        let c = CacheConfig::new(32 << 10, 8);
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::new(1024, 2));
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13F)); // same 64B line
        assert!(!c.access(0x140)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways: lines A, B fill the set; touching A then adding C
        // must evict B.
        let mut c = Cache::new(Cache::tiny_config());
        let a = 0u64;
        let b = 64 * Cache::tiny_sets();
        let cc = 2 * 64 * Cache::tiny_sets();
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // A is now MRU
        assert!(!c.access(cc)); // evicts B
        assert!(c.access(a));
        assert!(!c.access(b)); // B was evicted
    }

    impl Cache {
        fn tiny_config() -> CacheConfig {
            CacheConfig::new(128, 2) // 1 set x 2 ways x 64B
        }
        fn tiny_sets() -> u64 {
            Cache::tiny_config().sets()
        }
    }

    #[test]
    fn working_set_behavior() {
        // A working set that fits has ~0 steady-state misses; one that
        // doesn't fit thrashes.
        let cfg = CacheConfig::new(4096, 4); // 64 lines
        let mut fits = Cache::new(cfg);
        for _ in 0..10 {
            for i in 0..32u64 {
                fits.access(i * 64);
            }
        }
        assert_eq!(fits.misses(), 32); // only cold misses

        let mut thrash = Cache::new(cfg);
        for _ in 0..10 {
            for i in 0..128u64 {
                thrash.access(i * 64);
            }
        }
        // LRU on a cyclic sweep larger than capacity misses every time.
        assert_eq!(thrash.misses(), 1280);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_ways_panics() {
        Cache::new(CacheConfig::new(1024, 0));
    }

    #[test]
    fn larger_cache_never_misses_more() {
        // Inclusion-style sanity: same trace, bigger capacity, same assoc.
        let addrs: Vec<u64> = (0..2000u64).map(|i| (i * 2654435761) % (1 << 16)).collect();
        let mut small = Cache::new(CacheConfig::new(4 << 10, 4));
        let mut big = Cache::new(CacheConfig::new(64 << 10, 4));
        for &a in &addrs {
            small.access(a);
            big.access(a);
        }
        assert!(big.misses() <= small.misses());
    }
}
