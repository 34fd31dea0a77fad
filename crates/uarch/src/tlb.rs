//! Translation lookaside buffers and the page-walk model.

use serde::{Deserialize, Serialize};

use crate::lru::LruSets;

/// Geometry of one TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: u32,
    /// Associativity (ways per set). Use `entries` for fully-associative.
    pub associativity: u32,
    /// Page size in bytes.
    pub page_bytes: u64,
}

impl TlbConfig {
    /// Convenience constructor for a 4 KiB-page TLB.
    pub fn new(entries: u32, associativity: u32) -> Self {
        TlbConfig {
            entries,
            associativity,
            page_bytes: 4096,
        }
    }

    fn sets(&self) -> u32 {
        (self.entries / self.associativity).max(1)
    }
}

/// A set-associative TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Tag/stamp storage with true-LRU replacement and a hot-page memo;
    /// keys are page numbers (`addr >> page_shift`).
    entries: LruSets,
    accesses: u64,
    misses: u64,
    page_shift: u32,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if entries/associativity are zero, the set count is not a
    /// power of two, or the page size is not a power of two.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0 && config.associativity > 0);
        assert!(config.page_bytes.is_power_of_two());
        let sets = config.sets();
        assert!(
            sets.is_power_of_two(),
            "TLB set count must be a power of two"
        );
        Tlb {
            entries: LruSets::new(sets as u64, config.associativity),
            accesses: 0,
            misses: 0,
            page_shift: config.page_bytes.trailing_zeros(),
        }
    }

    /// Looks up the page containing `addr`; returns `true` on hit. Misses
    /// install the translation.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let hit = self.entries.touch(addr >> self.page_shift);
        self.misses += !hit as u64;
        hit
    }

    /// Streams a batch of `(position, address)` lookups through the TLB in
    /// order, appending the events that missed to `misses` (positions
    /// preserved for per-instruction merging). Counter-equivalent to
    /// calling [`Tlb::access`] once per event; the fleet kernel's
    /// lane-stepping entry point.
    pub fn access_events(&mut self, events: &[(u32, u64)], misses: &mut Vec<(u32, u64)>) {
        self.accesses += events.len() as u64;
        let before = misses.len();
        self.entries.touch_lanes(self.page_shift, events, misses);
        self.misses += (misses.len() - before) as u64;
    }

    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Credits `n` batched hits: lookups known to repeat the immediately
    /// preceding lookup's page (hence resident and already MRU), counted
    /// without replaying the lookup. Used by the fleet kernel's
    /// repeat-granule fast path.
    pub(crate) fn credit_hits(&mut self, n: u64) {
        self.accesses += n;
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Configuration of the two-level TLB hierarchy: split L1 I/D TLBs backed
/// by an optional unified L2. An L2 miss, or any L1 miss when there is no
/// L2, counts as a page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbHierarchyConfig {
    /// First-level instruction TLB.
    pub l1i: TlbConfig,
    /// First-level data TLB.
    pub l1d: TlbConfig,
    /// Unified second-level TLB, if present.
    pub l2: Option<TlbConfig>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Tlbs;

    fn small_hierarchy() -> Tlbs {
        Tlbs::new(&TlbHierarchyConfig {
            l1i: TlbConfig::new(4, 4),
            l1d: TlbConfig::new(4, 4),
            l2: Some(TlbConfig::new(16, 4)),
        })
    }

    #[test]
    fn hit_after_install() {
        let mut t = Tlb::new(TlbConfig::new(16, 4));
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff)); // same page
        assert!(!t.access(0x2000)); // next page
        assert_eq!(t.misses(), 2);
        assert_eq!(t.accesses(), 3);
    }

    #[test]
    fn capacity_eviction() {
        // Fully-associative 4-entry TLB: a 5-page cyclic sweep always misses.
        let mut t = Tlb::new(TlbConfig::new(4, 4));
        for _ in 0..3 {
            for p in 0..5u64 {
                t.access(p * 4096);
            }
        }
        assert_eq!(t.misses(), 15);
    }

    #[test]
    fn l2_filters_page_walks() {
        let mut h = small_hierarchy();
        // Touch 8 data pages repeatedly: misses L1 (4 entries) but fits L2.
        for _ in 0..5 {
            for p in 0..8u64 {
                h.access_data(p * 4096);
            }
        }
        assert!(h.l1d.misses() > 0);
        assert_eq!(h.walks_d, 8); // cold L2 misses only
    }

    #[test]
    fn no_l2_walks_on_every_l1_miss() {
        let mut h = Tlbs::new(&TlbHierarchyConfig {
            l1i: TlbConfig::new(4, 4),
            l1d: TlbConfig::new(4, 4),
            l2: None,
        });
        for p in 0..6u64 {
            h.access_data(p * 4096);
        }
        assert_eq!(h.walks_d, 6);
    }

    #[test]
    fn instruction_and_data_sides_are_split() {
        let mut h = small_hierarchy();
        h.access_instruction(0x1000);
        assert_eq!(h.l1i.accesses(), 1);
        assert_eq!(h.l1d.accesses(), 0);
        assert_eq!((h.walks_i, h.walks_d), (1, 0));
        h.access_data(0x1000);
        assert_eq!(h.l1d.accesses(), 1);
    }

    #[test]
    fn huge_pages_reduce_misses() {
        let small = {
            let mut t = Tlb::new(TlbConfig::new(4, 4));
            for a in (0..(1u64 << 22)).step_by(1 << 14) {
                t.access(a);
            }
            t.misses()
        };
        let huge = {
            let mut t = Tlb::new(TlbConfig {
                entries: 4,
                associativity: 4,
                page_bytes: 2 << 20,
            });
            for a in (0..(1u64 << 22)).step_by(1 << 14) {
                t.access(a);
            }
            t.misses()
        };
        assert!(huge < small);
    }
}
