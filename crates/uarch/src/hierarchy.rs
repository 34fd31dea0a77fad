//! The multi-level cache hierarchy.

use serde::{Deserialize, Serialize};

use crate::cache::{Cache, CacheConfig};

/// Hardware next-line prefetcher configuration.
///
/// On an L1D miss, the line after the missing one is installed into the
/// configured levels. This is what lets streaming workloads (lbm, bwaves,
/// fotonik3d) run at low CPI despite touching a new line per access — and
/// its presence/absence per machine is one of the cross-machine axes behind
/// the paper's sensitivity study (Table IX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchConfig {
    /// Prefetch into the L1 data cache.
    pub to_l1: bool,
    /// Prefetch into the L2 (and L3 if present).
    pub to_l2: bool,
}

impl PrefetchConfig {
    /// No prefetching.
    pub fn none() -> Self {
        PrefetchConfig {
            to_l1: false,
            to_l2: false,
        }
    }

    /// Aggressive prefetch into every level (modern Intel style).
    pub fn aggressive() -> Self {
        PrefetchConfig {
            to_l1: true,
            to_l2: true,
        }
    }

    /// Prefetch into L2/L3 only (older cores).
    pub fn l2_only() -> Self {
        PrefetchConfig {
            to_l1: false,
            to_l2: true,
        }
    }
}

/// Cache-hierarchy geometry: split L1, unified L2, optional unified L3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Unified L3, absent on some machines (e.g. Xeon E5405, Table IV).
    pub l3: Option<CacheConfig>,
    /// Data-side next-line prefetcher.
    pub prefetch: PrefetchConfig,
}

/// The data half of an L1 front end: the L1D cache plus the stream
/// prefetcher state it drives.
///
/// The prefetcher and the L1D are inseparable — tracker allocation is
/// driven by the L1D miss stream, and `to_l1` prefetches mutate L1D
/// contents — so they group as one unit. The evolution of a `DataFront`
/// depends only on (its configuration, the machine-independent data
/// address stream): the fleet kernel shares one instance between machines
/// with an identical (l1d, prefetch) pair.
#[derive(Debug, Clone)]
pub(crate) struct DataFront {
    l1d: Cache,
    prefetch: PrefetchConfig,
    /// Stream-tracker table: per slot, the next line address the stream is
    /// expected to touch. A demand access matching a tracker confirms the
    /// stream and prefetches one line ahead.
    streams: [u64; 16],
    stream_cursor: usize,
    /// Line of the most recent unmatched L1D miss: a second miss on the
    /// next sequential line is what allocates a tracker, so random misses
    /// cannot thrash the tracker table.
    last_miss_line: u64,
}

impl DataFront {
    pub(crate) fn new(l1d: CacheConfig, prefetch: PrefetchConfig) -> Self {
        DataFront {
            l1d: Cache::new(l1d),
            prefetch,
            streams: [u64::MAX; 16],
            stream_cursor: 0,
            last_miss_line: u64::MAX,
        }
    }

    /// Data probe; returns the L1D outcome and, when the stream prefetcher
    /// fires toward the shared levels, the line address the back end must
    /// install (in that order: install precedes the demand L2 access).
    #[inline]
    pub(crate) fn access(&mut self, addr: u64) -> (bool, Option<u64>) {
        let l1_hit = self.l1d.access(addr);
        let install = self.stream_prefetch(addr, l1_hit);
        (l1_hit, install)
    }

    pub(crate) fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Stream prefetcher: a demand access that matches a tracked stream
    /// confirms it and runs one line ahead; an L1D miss with no matching
    /// stream allocates a tracker. Fills never count as demand traffic.
    /// Returns the prefetched line when the shared levels must install it.
    fn stream_prefetch(&mut self, addr: u64, l1_hit: bool) -> Option<u64> {
        if !self.prefetch.to_l1 && !self.prefetch.to_l2 {
            return None;
        }
        let line = addr & !63;
        // Branch-free membership reduce before the locate scan: the 16-wide
        // tracker compare vectorizes, and most accesses match no stream.
        let mut tracked = false;
        for &s in &self.streams {
            tracked |= s == line;
        }
        if tracked {
            let slot = self.streams.iter().position(|&s| s == line).unwrap();
            let next = line.wrapping_add(64);
            self.streams[slot] = next;
            return self.install_prefetch(next);
        } else if !l1_hit {
            // Allocate only on two sequential misses, so random traffic
            // cannot evict live stream trackers.
            if line == self.last_miss_line.wrapping_add(64) {
                let next = line.wrapping_add(64);
                self.streams[self.stream_cursor] = next;
                self.stream_cursor = (self.stream_cursor + 1) % self.streams.len();
                self.last_miss_line = line;
                return self.install_prefetch(next);
            }
            self.last_miss_line = line;
        }
        None
    }

    fn install_prefetch(&mut self, addr: u64) -> Option<u64> {
        // L1 fills at MRU (the demand use follows within a few accesses);
        // shared levels fill at LRU priority so streams cannot wash out
        // resident working sets.
        if self.prefetch.to_l1 {
            self.l1d.install(addr);
        }
        self.prefetch.to_l2.then_some(addr)
    }
}

/// The shared half of a hierarchy: unified L2, optional L3, and the
/// per-side demand accounting. Driven purely by the L1 miss/install
/// stream its front end produces.
#[derive(Debug, Clone)]
pub(crate) struct L2Back {
    l2: Cache,
    l3: Option<Cache>,
    l2i_accesses: u64,
    l2i_misses: u64,
    l2d_accesses: u64,
    l2d_misses: u64,
    l3_accesses: u64,
    l3_misses: u64,
}

impl L2Back {
    pub(crate) fn new(config: &HierarchyConfig) -> Self {
        L2Back {
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
            l2i_accesses: 0,
            l2i_misses: 0,
            l2d_accesses: 0,
            l2d_misses: 0,
            l3_accesses: 0,
            l3_misses: 0,
        }
    }

    /// Demand access from an L1I miss.
    #[inline]
    pub(crate) fn demand_fetch(&mut self, addr: u64) {
        self.l2i_accesses += 1;
        if !self.l2.access(addr) {
            self.l2i_misses += 1;
            self.l3_demand(addr);
        }
    }

    /// Demand access from an L1D miss.
    #[inline]
    pub(crate) fn demand_data(&mut self, addr: u64) {
        self.l2d_accesses += 1;
        if !self.l2.access(addr) {
            self.l2d_misses += 1;
            self.l3_demand(addr);
        }
    }

    /// An L2 demand miss goes on to the L3, when there is one.
    #[inline]
    fn l3_demand(&mut self, addr: u64) {
        if let Some(l3) = &mut self.l3 {
            self.l3_accesses += 1;
            if !l3.access(addr) {
                self.l3_misses += 1;
            }
        }
    }

    /// Prefetch fill at LRU priority into L2 and (when present) L3.
    pub(crate) fn install_shared(&mut self, addr: u64) {
        self.l2.install_lru(addr);
        if let Some(l3) = &mut self.l3 {
            l3.install_lru(addr);
        }
    }

    pub(crate) fn instruction_side(&self) -> (u64, u64) {
        (self.l2i_accesses, self.l2i_misses)
    }

    pub(crate) fn data_side(&self) -> (u64, u64) {
        (self.l2d_accesses, self.l2d_misses)
    }

    pub(crate) fn l3_counts(&self) -> (u64, u64) {
        (self.l3_accesses, self.l3_misses)
    }

    /// Accesses that went all the way to DRAM.
    pub(crate) fn memory_accesses(&self) -> u64 {
        match self.l3 {
            Some(_) => self.l3_misses,
            None => self.l2i_misses + self.l2d_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{Caches, Level};

    fn tiny() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new(1 << 10, 2),
            l1d: CacheConfig::new(1 << 10, 2),
            l2: CacheConfig::new(8 << 10, 4),
            l3: Some(CacheConfig::new(64 << 10, 8)),
            prefetch: PrefetchConfig::none(),
        }
    }

    #[test]
    fn first_touch_misses_everywhere() {
        let mut h = Caches::new(&tiny());
        assert_eq!(h.access_data(0x1000), Level::Memory);
        assert_eq!(h.access_data(0x1000), Level::L1);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut h = Caches::new(&tiny());
        // Touch 2 KiB of lines: exceeds 1 KiB L1D, fits 8 KiB L2.
        for round in 0..3 {
            for a in (0..2048u64).step_by(64) {
                let lvl = h.access_data(a);
                if round > 0 {
                    assert!(lvl == Level::L1 || lvl == Level::L2);
                }
            }
        }
        let (acc, miss) = h.back.data_side();
        assert!(acc > 0);
        assert_eq!(miss, 32); // cold fills only
    }

    #[test]
    fn instruction_and_data_sides_tracked_separately() {
        let mut h = Caches::new(&tiny());
        h.access_instruction(0x10_0000);
        h.access_data(0x20_0000);
        assert_eq!(h.back.instruction_side(), (1, 1));
        assert_eq!(h.back.data_side(), (1, 1));
        assert_eq!(h.l1i.accesses(), 1);
        assert_eq!(h.data.l1d().accesses(), 1);
    }

    #[test]
    fn no_l3_goes_straight_to_memory() {
        let mut cfg = tiny();
        cfg.l3 = None;
        let mut h = Caches::new(&cfg);
        assert_eq!(h.access_data(0x1000), Level::Memory);
        assert_eq!(h.back.l3_counts(), (0, 0));
        assert_eq!(h.back.memory_accesses(), 1);
    }

    #[test]
    fn prefetch_hides_streaming_misses() {
        let mut cfg = tiny();
        cfg.prefetch = PrefetchConfig::aggressive();
        let mut with = Caches::new(&cfg);
        cfg.prefetch = PrefetchConfig::none();
        let mut without = Caches::new(&cfg);
        // Stream 64 KiB line by line: next-line prefetch converts nearly
        // every miss after the first into a hit.
        for a in (0..65536u64).step_by(64) {
            with.access_data(a);
            without.access_data(a);
        }
        assert_eq!(without.data.l1d().misses(), 1024);
        let misses = with.data.l1d().misses();
        assert!(misses <= 2, "{misses}");
    }

    #[test]
    fn l2_only_prefetch_leaves_l1_misses() {
        let mut cfg = tiny();
        cfg.prefetch = PrefetchConfig::l2_only();
        let mut h = Caches::new(&cfg);
        for a in (0..65536u64).step_by(64) {
            h.access_data(a);
        }
        // L1 still misses every new line, but the lines are waiting in L2.
        assert_eq!(h.data.l1d().misses(), 1024);
        let (_, l2d_misses) = h.back.data_side();
        assert!(l2d_misses <= 2, "{l2d_misses}");
    }

    #[test]
    fn prefetch_does_not_help_instruction_side() {
        let mut cfg = tiny();
        cfg.prefetch = PrefetchConfig::aggressive();
        let mut h = Caches::new(&cfg);
        for a in (0..65536u64).step_by(64) {
            h.access_instruction(a);
        }
        assert_eq!(h.l1i.misses(), 1024);
    }

    #[test]
    fn l3_hit_level_reported() {
        let mut h = Caches::new(&tiny());
        // Touch 16 KiB: exceeds L2 (8 KiB), fits L3 (64 KiB).
        for _ in 0..2 {
            for a in (0..16384u64).step_by(64) {
                h.access_data(a);
            }
        }
        // Second sweep: L1/L2 thrash; many L3 hits.
        let (l3a, l3m) = h.back.l3_counts();
        assert!(l3a > 0);
        assert_eq!(l3m, 256); // 16 KiB / 64 = 256 cold misses only
        assert_eq!(h.back.memory_accesses(), 256);
        assert_eq!(h.access_data(0), Level::L3);
    }
}
