//! Shared set-associative true-LRU array used by [`crate::Cache`] and
//! [`crate::Tlb`].
//!
//! The layout and lookup path are tuned for the simulator's inner loop,
//! which performs one instruction-side and up to one data-side probe per
//! simulated instruction:
//!
//! - tags and stamps for a set are interleaved in one allocation
//!   (`ways` tags followed by `ways` stamps per set), so a probe touches
//!   one or two host cache lines instead of two distant arrays;
//! - the set shift is precomputed instead of re-deriving it from the set
//!   mask on every access;
//! - the most recent resident key and its slot are memoized. Sequential
//!   fetch streams touch the same 64-byte line ~16 times in a row and the
//!   same 4 KiB page ~1024 times in a row, so the memo short-circuits the
//!   associative scan for the overwhelmingly common repeat probe;
//! - high-associativity geometries (the fully-associative TLBs of Table IV,
//!   up to 512 ways in one set) additionally keep a hashed *way-hint*
//!   table: key → last known tag slot, verified before use, so a hot
//!   working set resolves in one probe instead of a 512-entry scan;
//! - the scans themselves run as wide [`crate::lanes::U64x4`] kernels
//!   (8-wide and 4-wide chunks with a ≤3-element scalar tail) that LLVM
//!   autovectorizes.
//!
//! The memo is semantically invisible: a repeated key is by definition the
//! most-recently-used entry of its set, so the slow path would find it
//! resident and refresh its stamp — exactly what the fast path does. Every
//! mutation that can evict an entry (`touch` miss fill, `fill` install)
//! re-points the memo at the slot it wrote, so the memo can never alias a
//! slot whose tag has changed.
//!
//! The way-hint is likewise invisible: a hint is only *used* after
//! verifying that it points inside the probing key's tag half and that the
//! slot holds the key's biased tag. Tags are unique within a set (an
//! install only happens after a scan found the tag absent) and
//! `(set, tag) ↔ key` is a bijection, so a verified hint identifies exactly
//! the slot the full scan would have returned; a stale or colliding hint
//! merely fails verification and falls back to the scan.

use crate::lanes::U64x4;

/// A sets × ways true-LRU tag array with a most-recent-key memo.
///
/// Keys are arbitrary `u64` values except `u64::MAX`, which is the memo's
/// cold sentinel. Cache line indices and page numbers both stay far below
/// that. Tags are stored biased by +1 so an all-zero array means "every
/// way invalid": construction is a zeroed allocation (`alloc_zeroed`, no
/// memset), and [`LruSets::new`] then prefaults every page of it in
/// sequential order, so big L3-sized arrays are committed up front rather
/// than faulted in set by set inside the simulation loop.
#[derive(Debug, Clone)]
pub(crate) struct LruSets {
    /// Per set: `ways` biased tags (`tag + 1`, 0 = invalid), then `ways`
    /// stamps (higher = more recent).
    data: Vec<u64>,
    ways: usize,
    /// `2 * ways`: length of one set's block in `data`.
    stride: usize,
    set_mask: u64,
    set_shift: u32,
    clock: u64,
    /// Most recent resident key (`u64::MAX` when the memo is cold).
    last_key: u64,
    /// Index into `data` of `last_key`'s tag slot.
    last_slot: usize,
    /// Hashed key → candidate tag-slot index (`u32::MAX` = empty), enabled
    /// only for wide, small geometries (see [`LruSets::new`]). Entries are
    /// hints, never truth: each is verified against `data` before use.
    hint: Vec<u32>,
    /// `64 - log2(hint.len())`: multiply-shift hash uses the top bits.
    hint_shift: u32,
    /// Per set: number of valid ways. Installs always claim the *first*
    /// invalid way, so the valid ways of a set are a prefix of length
    /// `filled[set]`: tag scans cover only that prefix, and a full set
    /// (the steady state) skips the invalid-way scan outright and goes
    /// straight to the stamp reduction.
    filled: Vec<u32>,
}

impl LruSets {
    /// Creates an empty array. `sets` must be a power of two and `ways`
    /// nonzero (callers validate and panic with their own messages).
    pub(crate) fn new(sets: u64, ways: u32) -> Self {
        debug_assert!(sets.is_power_of_two() && ways > 0);
        let ways = ways as usize;
        let entries = sets as usize * ways;
        let mut data = vec![0u64; entries * 2];
        // Prefault the backing pages in sequential order: one store per
        // 4 KiB page commits the whole allocation up front (letting the
        // kernel coalesce huge pages) instead of taking scattered soft
        // faults inside the simulation loop on first touch of each set.
        // The stored value must come from `black_box`: a plain `= 0` into
        // a `vec![0; n]` allocation is a provably dead store that LLVM may
        // elide, silently dropping the prefault.
        for i in (0..data.len()).step_by(512) {
            data[i] = std::hint::black_box(0u64);
        }
        // The way-hint pays off where scans are long (wide sets) and the
        // hint table itself stays cache-resident (small structures): that
        // is exactly the fully-associative TLB geometries. Set-indexed L1s
        // scan ≤ 12 ways and big L3s would thrash a hint table, so both
        // run hint-free.
        let hint = if ways >= 16 && entries <= 4096 {
            vec![u32::MAX; (entries.next_power_of_two() * 2).max(64)]
        } else {
            Vec::new()
        };
        let hint_shift = if hint.is_empty() {
            63 // never used: hint_slot is only reached when hint is nonempty
        } else {
            64 - hint.len().trailing_zeros()
        };
        LruSets {
            data,
            ways,
            stride: ways * 2,
            set_mask: sets - 1,
            set_shift: (sets - 1).count_ones(),
            clock: 0,
            last_key: u64::MAX,
            last_slot: 0,
            hint,
            hint_shift,
            filled: vec![0; sets as usize],
        }
    }

    /// Hash slot of `key` in the way-hint table. Multiply-shift: page
    /// numbers and line indices are sequentially correlated, the odd
    /// multiplier spreads them across the table.
    #[inline]
    fn hint_slot(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.hint_shift) as usize
    }

    /// Re-points the most-recent-key memo (and, when enabled, the way-hint
    /// entry) at the tag slot a probe just hit or filled.
    #[inline]
    fn note_slot(&mut self, key: u64, slot: usize) {
        self.last_key = key;
        self.last_slot = slot;
        if !self.hint.is_empty() {
            let h = self.hint_slot(key);
            self.hint[h] = slot as u32;
        }
    }

    /// Demand access: returns `true` on hit; on miss, installs `key` in the
    /// LRU way at MRU priority. Always advances the LRU clock.
    #[inline]
    pub(crate) fn touch(&mut self, key: u64) -> bool {
        self.clock += 1;
        if key == self.last_key {
            // The memoized slot is guaranteed to still hold this key (see
            // module docs), so only the LRU stamp needs refreshing.
            self.data[self.last_slot + self.ways] = self.clock;
            return true;
        }
        let set = (key & self.set_mask) as usize;
        let base = set * self.stride;
        let tag = (key >> self.set_shift) + 1;
        if !self.hint.is_empty() {
            let slot = self.hint[self.hint_slot(key)] as usize;
            // Verified hint: inside this key's tag half and holding this
            // key's tag — exactly the slot the scan would return.
            if slot.wrapping_sub(base) < self.ways && self.data[slot] == tag {
                self.data[slot + self.ways] = self.clock;
                self.last_key = key;
                self.last_slot = slot;
                return true;
            }
        }
        let valid = self.filled[set] as usize;
        let (tags, stamps) = self.data[base..base + self.stride].split_at_mut(self.ways);
        if let Some(w) = find_tag(&tags[..valid], tag) {
            stamps[w] = self.clock;
            self.note_slot(key, base + w);
            return true;
        }
        let victim = if valid < self.ways {
            // Valid ways are a prefix: the first invalid way is `valid`.
            self.filled[set] += 1;
            valid
        } else {
            oldest_way(stamps)
        };
        tags[victim] = tag;
        stamps[victim] = self.clock;
        self.note_slot(key, base + victim);
        false
    }

    /// Fill-path install (prefetch): never reported as a demand hit or
    /// miss. A resident key is stamp-refreshed only at MRU priority; an
    /// absent key evicts the LRU way and takes the newest stamp (MRU) or
    /// stamp 0 (LRU priority, first victim of its set).
    pub(crate) fn fill(&mut self, key: u64, mru: bool) {
        self.clock += 1;
        let set = (key & self.set_mask) as usize;
        let base = set * self.stride;
        let tag = (key >> self.set_shift) + 1;
        let valid = self.filled[set] as usize;
        let (tags, stamps) = self.data[base..base + self.stride].split_at_mut(self.ways);
        if let Some(w) = find_tag(&tags[..valid], tag) {
            if mru {
                stamps[w] = self.clock;
            }
            return;
        }
        let victim = if valid < self.ways {
            // Valid ways are a prefix: the first invalid way is `valid`.
            self.filled[set] += 1;
            valid
        } else {
            oldest_way(stamps)
        };
        tags[victim] = tag;
        stamps[victim] = if mru { self.clock } else { 0 };
        // The install may have evicted the memoized key's slot; re-point
        // the memo at what this slot now holds to keep it truthful.
        self.note_slot(key, base + victim);
    }

    /// Batched demand probes: streams `(position, address)` events through
    /// [`LruSets::touch`] in order (key = `addr >> shift`), appending the
    /// events that missed to `misses`. The fleet kernel's lane-stepping
    /// entry point: one call per lane group per batch keeps the clock,
    /// memo and hint state hot in registers across the whole event run.
    pub(crate) fn touch_lanes(
        &mut self,
        shift: u32,
        events: &[(u32, u64)],
        misses: &mut Vec<(u32, u64)>,
    ) {
        for &(pos, addr) in events {
            if !self.touch(addr >> shift) {
                misses.push((pos, addr));
            }
        }
    }
}

/// Index of biased `tag` within the set's tag half, if resident.
///
/// Scans in branch-free 8-wide blocks (two [`U64x4`] compares fused into
/// one movemask) so the compiler emits SIMD compares; an early-exit scalar
/// scan defeats vectorization, which matters for the fully-associative TLB
/// geometries (up to 512 ways in one set). A 4-wide chunk then a ≤3-element
/// scalar tail cover the narrow-set remainders.
#[inline]
fn find_tag(tags: &[u64], tag: u64) -> Option<usize> {
    let needle = U64x4::splat(tag);
    let mut base = 0;
    let mut chunks = tags.chunks_exact(8);
    for chunk in &mut chunks {
        let m = U64x4::load(&chunk[..4]).eq_mask(needle)
            | (U64x4::load(&chunk[4..]).eq_mask(needle) << 4);
        if m != 0 {
            return Some(base + m.trailing_zeros() as usize);
        }
        base += 8;
    }
    let mut rest = chunks.remainder();
    if rest.len() >= 4 {
        let m = U64x4::load(rest).eq_mask(needle);
        if m != 0 {
            return Some(base + m.trailing_zeros() as usize);
        }
        base += 4;
        rest = &rest[4..];
    }
    rest.iter().position(|&t| t == tag).map(|w| base + w)
}

/// The way with the oldest stamp, for a set with no invalid ways (the
/// caller routes not-yet-full sets to their first invalid way directly).
///
/// Same tie-breaking as a forward scan: among equal-oldest stamps the
/// lowest index wins. Split into reduce-then-locate passes so wide sets
/// vectorize; the reduction runs as a [`U64x4`] lane-wise min with a
/// scalar tail.
#[inline]
fn oldest_way(stamps: &[u64]) -> usize {
    let mut acc = U64x4::splat(u64::MAX);
    let mut chunks = stamps.chunks_exact(4);
    for chunk in &mut chunks {
        acc = acc.min_lanes(U64x4::load(chunk));
    }
    let mut oldest = acc.hmin();
    for &s in chunks.remainder() {
        oldest = oldest.min(s);
    }
    stamps.iter().position(|&s| s == oldest).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Straight-line reference model with the pre-optimization semantics:
    /// flat tag/stamp arrays, set index from `key & mask`, no memo.
    struct Reference {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        ways: usize,
        set_mask: u64,
        clock: u64,
    }

    impl Reference {
        fn new(sets: u64, ways: usize) -> Self {
            Reference {
                tags: vec![u64::MAX; sets as usize * ways],
                stamps: vec![0; sets as usize * ways],
                ways,
                set_mask: sets - 1,
                clock: 0,
            }
        }

        fn victim(&self, base: usize) -> usize {
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for w in 0..self.ways {
                if self.tags[base + w] == u64::MAX {
                    return w;
                }
                if self.stamps[base + w] < oldest {
                    oldest = self.stamps[base + w];
                    victim = w;
                }
            }
            victim
        }

        fn touch(&mut self, key: u64) -> bool {
            self.clock += 1;
            let base = (key & self.set_mask) as usize * self.ways;
            let tag = key >> self.set_mask.count_ones();
            for w in 0..self.ways {
                if self.tags[base + w] == tag {
                    self.stamps[base + w] = self.clock;
                    return true;
                }
            }
            let v = self.victim(base);
            self.tags[base + v] = tag;
            self.stamps[base + v] = self.clock;
            false
        }

        fn fill(&mut self, key: u64, mru: bool) {
            self.clock += 1;
            let base = (key & self.set_mask) as usize * self.ways;
            let tag = key >> self.set_mask.count_ones();
            for w in 0..self.ways {
                if self.tags[base + w] == tag {
                    if mru {
                        self.stamps[base + w] = self.clock;
                    }
                    return;
                }
            }
            let v = self.victim(base);
            self.tags[base + v] = tag;
            self.stamps[base + v] = if mru { self.clock } else { 0 };
        }
    }

    #[test]
    fn memo_fast_path_matches_reference_model() {
        // Pseudorandom mix of repeat-heavy touches and fills across several
        // geometries — including hint-enabled fully-associative ones (ways
        // ≥ 16) and non-power-of-two way counts (the Opteron's 48-entry
        // DTLB): every touch outcome must match the memo-free reference
        // model exactly.
        for (sets, ways) in [
            (1u64, 1u32),
            (1, 8),
            (4, 2),
            (16, 4),
            (1, 16),
            (1, 48),
            (2, 64),
            (1, 512),
        ] {
            let mut opt = LruSets::new(sets, ways);
            let mut reference = Reference::new(sets, ways as usize);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut key = 0u64;
            for i in 0..6000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // ~3/4 of probes repeat the previous key to exercise the
                // memo; the rest jump to a new key in a small space.
                if x >> 62 == 0 {
                    key = (x >> 32) % (sets * ways as u64 * 3);
                }
                if i % 7 == 3 {
                    let mru = x & 1 == 0;
                    opt.fill(key, mru);
                    reference.fill(key, mru);
                } else {
                    assert_eq!(
                        opt.touch(key),
                        reference.touch(key),
                        "probe {i} sets {sets} ways {ways}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_lanes_match_scalar_probes() {
        // touch_lanes must be event-for-event equivalent to the scalar
        // calls, including the reported miss positions, also on sets that
        // fills have reordered between batches.
        for (sets, ways) in [(16u64, 4u32), (1, 128)] {
            let mut batched = LruSets::new(sets, ways);
            let mut scalar = LruSets::new(sets, ways);
            let mut x = 7u64;
            let mut events = Vec::new();
            let mut fills = Vec::new();
            for round in 0..40 {
                events.clear();
                fills.clear();
                for pos in 0..97u32 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
                    events.push((pos, (x >> 30) % (sets * ways as u64 * 128)));
                    if pos % 9 == 0 {
                        fills.push((x >> 33) % (sets * ways as u64 * 128));
                    }
                }
                let mut got = Vec::new();
                batched.touch_lanes(7, &events, &mut got);
                let mut want = Vec::new();
                for &(pos, addr) in &events {
                    if !scalar.touch(addr >> 7) {
                        want.push((pos, addr));
                    }
                }
                assert_eq!(got, want, "round {round}");
                for &addr in &fills {
                    batched.fill(addr >> 7, round % 2 == 0);
                    scalar.fill(addr >> 7, round % 2 == 0);
                }
            }
            assert_eq!(batched.data, scalar.data);
        }
    }

    #[test]
    fn way_hint_survives_eviction_churn() {
        // A fully-associative geometry under heavy eviction: stale hints
        // must always fail verification, never produce a phantom hit.
        let mut opt = LruSets::new(1, 32);
        let mut reference = Reference::new(1, 32);
        // Cyclic sweep over 48 keys: every probe past the first lap evicts.
        for lap in 0..6 {
            for key in 0..48u64 {
                assert_eq!(opt.touch(key), reference.touch(key), "lap {lap} key {key}");
            }
        }
    }
}
