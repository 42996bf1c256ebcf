//! A generic set-associative, write-back/write-allocate cache.
//!
//! [`Cache`] models the conventional levels of Table 1 (L1I, L1D, L2) and
//! the plain last-level organizations the paper compares against (private
//! slices, one shared LRU cache, and the slices of the cooperative
//! scheme). The adaptive organization has its own bespoke set structure in
//! the `nuca-core` crate, built from the same packed-LRU primitive.
//!
//! Timing is handled by the callers; this type answers *what happened*
//! (hit, miss, eviction), not *when*.
//!
//! # Layout
//!
//! The cache is stored struct-of-arrays: one flat set-major `Vec` of
//! block addresses, one of owners, a `u32` valid/dirty bitmask per set,
//! and one [`Recency`] word per set. A lookup touches one contiguous
//! tag stripe plus two words — no per-set pointer chasing, no per-access
//! allocation — which is what the per-step hot path of the event-driven
//! run loop needs.

use simcore::config::CacheGeometry;
use simcore::invariant::{Invariant, Violation};
use simcore::stats::HitMiss;
use simcore::types::{Address, BlockAddr, CoreId};

use crate::lru::Recency;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The block was present. `was_lru` reports whether it sat in the LRU
    /// position before the access — the event the paper's "hits in the LRU
    /// blocks" counter (Figure 4c) observes.
    Hit {
        /// Whether the block was the set's LRU block before this access.
        was_lru: bool,
    },
    /// The block was absent.
    Miss,
}

impl Lookup {
    /// Whether the lookup hit.
    #[inline]
    pub const fn is_hit(self) -> bool {
        matches!(self, Lookup::Hit { .. })
    }
}

/// A block pushed out of the cache by a fill or invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// Block address of the victim.
    pub addr: BlockAddr,
    /// Whether the victim was dirty (must be written back).
    pub dirty: bool,
    /// The core that originally fetched the victim.
    pub owner: CoreId,
}

/// A set-associative, write-back/write-allocate cache with LRU replacement.
///
/// # Example
///
/// ```
/// use cachesim::cache::{Cache, Lookup};
/// use simcore::config::CacheGeometry;
/// use simcore::types::{Address, CoreId};
///
/// let mut c = Cache::new(CacheGeometry::new(4096, 2, 64, 1).unwrap());
/// let core = CoreId::from_index(0);
/// let a = Address::new(0x80);
/// assert_eq!(c.access(a, true, core), Lookup::Miss);
/// c.fill(a, true, core);                        // write-allocate, dirty
/// let evicted = c.fill(Address::new(0x80 + 4096), false, core);
/// assert!(evicted.is_none());                   // other way still free
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    /// Associativity, cached out of `geom` for the hot path.
    ways: usize,
    /// Block-offset bits and the set-index mask over the block number
    /// (the set count is a power of two), cached out of `geom`: every
    /// probe, fill and invalidate indexes a set, and
    /// `CacheGeometry::index_bits` divides to count the sets.
    offset_bits: u32,
    index_mask: u64,
    /// Flat set-major block addresses: `tags[set * ways + way]`.
    /// Meaningful only where the set's valid bit is set.
    tags: Vec<BlockAddr>,
    /// Flat set-major fetching cores, parallel to `tags`.
    owners: Vec<CoreId>,
    /// One valid bit per way, per set (associativity caps at 32).
    valid: Vec<u32>,
    /// One dirty bit per way, per set.
    dirty: Vec<u32>,
    /// One recency word per set (packed when the associativity fits).
    lru: Vec<Recency>,
    /// Last-hit-way memo: `way + 1` per set, 0 = empty. A validated memo
    /// hit answers `find` without walking the set; because a set never
    /// holds duplicate block addresses (see [`Invariant::audit`]), the
    /// memo'd way and the walk always agree — a pure search-order
    /// optimization. Maintained unconditionally; *read* only when
    /// `memo_on`.
    memo: Vec<u8>,
    /// Whether `find` consults the last-hit-way memo (the fast path).
    memo_on: bool,
    stats: HitMiss,
    writebacks: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let ways = geom.total_ways() as usize;
        let sets = geom.sets() as usize;
        Cache {
            geom,
            ways,
            offset_bits: geom.offset_bits(),
            index_mask: geom.sets() - 1,
            tags: vec![BlockAddr::new(0); sets * ways], // lint:allow(L7): constructor
            owners: vec![CoreId::from_index(0); sets * ways], // lint:allow(L7): constructor
            valid: vec![0; sets],                       // lint:allow(L7): constructor
            dirty: vec![0; sets],                       // lint:allow(L7): constructor
            lru: vec![Recency::for_ways(ways); sets],   // lint:allow(L7): constructor
            memo: vec![0; sets],                        // lint:allow(L7): constructor
            memo_on: true,
            stats: HitMiss::new(),
            writebacks: 0,
        }
    }

    /// Enables or disables the last-hit-way memo read in lookups (the
    /// `--no-fast-path` escape hatch). The memo keeps being maintained
    /// either way, so toggling needs no rebuild; results are identical
    /// in both modes.
    pub fn set_memo(&mut self, enabled: bool) {
        self.memo_on = enabled;
    }

    /// The cache geometry.
    #[inline]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Block-offset bits (log2 of the block size).
    #[inline]
    pub fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Hit latency in cycles.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.geom.latency()
    }

    /// The set index for an address.
    #[inline]
    pub fn set_index(&self, addr: Address) -> usize {
        (addr.block(self.offset_bits).raw() & self.index_mask) as usize
    }

    /// The way holding `blk` in `set`, if resident: the validated
    /// last-hit-way memo first (when enabled), then a low-to-high walk of
    /// the set's valid ways.
    #[inline]
    fn find(&self, set: usize, blk: BlockAddr) -> Option<usize> {
        let base = set * self.ways;
        if self.memo_on {
            let m = self.memo[set];
            if m != 0 {
                let w = usize::from(m - 1);
                if self.valid[set] & (1 << w) != 0 && self.tags[base + w] == blk {
                    return Some(w);
                }
            }
        }
        let mut m = self.valid[set];
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            if self.tags[base + w] == blk {
                return Some(w);
            }
            m &= m - 1;
        }
        None
    }

    /// Accesses the cache: on a hit the block is promoted to MRU (and
    /// marked dirty for writes); on a miss nothing changes — callers decide
    /// whether and when to [`fill`](Self::fill).
    pub fn access(&mut self, addr: Address, write: bool, _core: CoreId) -> Lookup {
        let blk = addr.block(self.offset_bits);
        let set = self.set_index(addr);
        if let Some(w) = self.find(set, blk) {
            return self.commit_hit(set, w, write);
        }
        self.note_miss();
        Lookup::Miss
    }

    /// Applies the miss-side update for an address that
    /// [`peek_hit_way`](Self::peek_hit_way) found absent: exactly what
    /// [`access`](Self::access) does on a miss — which is only the miss
    /// count. Recency and residency change at fill time, not lookup time.
    #[inline]
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Probes for a block without updating recency or statistics.
    pub fn probe(&self, addr: Address) -> bool {
        let blk = addr.block(self.offset_bits);
        self.find(self.set_index(addr), blk).is_some()
    }

    /// Non-mutating hit probe for the fused TLB+L1 fast path: the way
    /// holding `addr`, if resident. No recency, dirty, memo or statistic
    /// update — pair with [`commit_hit_at`](Self::commit_hit_at) once the
    /// fused probe has decided the whole access goes through.
    #[inline]
    pub fn peek_hit_way(&self, addr: Address) -> Option<usize> {
        let blk = addr.block(self.offset_bits);
        self.find(self.set_index(addr), blk)
    }

    /// Applies the hit-side updates for a way returned by
    /// [`peek_hit_way`](Self::peek_hit_way): exactly what
    /// [`access`](Self::access) does on a hit.
    #[inline]
    pub fn commit_hit_at(&mut self, addr: Address, way: usize, write: bool) -> Lookup {
        let set = self.set_index(addr);
        self.commit_hit(set, way, write)
    }

    /// The shared hit path: MRU promotion, dirty marking, statistics and
    /// the last-hit-way memo update.
    #[inline]
    fn commit_hit(&mut self, set: usize, w: usize, write: bool) -> Lookup {
        let was_lru = self.lru[set].is_lru(w as u8);
        self.lru[set].touch(w as u8);
        if write {
            self.dirty[set] |= 1 << w;
        }
        self.stats.hits += 1;
        self.memo[set] = w as u8 + 1;
        Lookup::Hit { was_lru }
    }

    /// Installs a block as MRU, evicting the LRU block if the set is full.
    ///
    /// Returns the evicted block, if any. Filling a block that is already
    /// present just promotes it (and merges the dirty bit).
    pub fn fill(&mut self, addr: Address, dirty: bool, owner: CoreId) -> Option<EvictedBlock> {
        let blk = addr.block(self.offset_bits);
        let set = self.set_index(addr);

        // Already present: refresh.
        if let Some(w) = self.find(set, blk) {
            self.dirty[set] |= u32::from(dirty) << w;
            self.lru[set].touch(w as u8);
            self.memo[set] = w as u8 + 1;
            return None;
        }
        self.install_absent(set, blk, dirty, owner)
    }

    /// Fused access-plus-allocate for latency-free (functional) paths: one
    /// set walk answers the lookup, and a miss installs the block as MRU
    /// immediately. Bit-identical to [`access`](Self::access) followed by
    /// [`fill`](Self::fill) with nothing touching this cache in between —
    /// the hit path is `access`'s hit path, the miss path skips `fill`'s
    /// redundant re-probe and goes straight to the install.
    pub fn access_fill(
        &mut self,
        addr: Address,
        write: bool,
        owner: CoreId,
    ) -> (Lookup, Option<EvictedBlock>) {
        let blk = addr.block(self.offset_bits);
        let set = self.set_index(addr);
        if let Some(w) = self.find(set, blk) {
            return (self.commit_hit(set, w, write), None);
        }
        self.stats.misses += 1;
        (Lookup::Miss, self.install_absent(set, blk, write, owner))
    }

    /// Installs a block known to be absent from `set`, evicting the LRU
    /// block if the set is full. The install half of [`fill`](Self::fill),
    /// shared with [`access_fill`](Self::access_fill).
    #[inline]
    fn install_absent(
        &mut self,
        set: usize,
        blk: BlockAddr,
        dirty: bool,
        owner: CoreId,
    ) -> Option<EvictedBlock> {
        let base = set * self.ways;
        // Free way?
        let full_mask = ((1u64 << self.ways) - 1) as u32;
        let free = !self.valid[set] & full_mask;
        if free != 0 {
            let w = free.trailing_zeros() as usize;
            self.tags[base + w] = blk;
            self.owners[base + w] = owner;
            self.valid[set] |= 1 << w;
            self.dirty[set] = (self.dirty[set] & !(1 << w)) | (u32::from(dirty) << w);
            self.lru[set].push_mru(w as u8);
            self.memo[set] = w as u8 + 1;
            debug_assert!(self.lru[set].len() <= self.ways);
            return None;
        }
        // Evict LRU. A full set always has an LRU way; fall back to way 0
        // defensively rather than aborting a long run (the Invariant audit
        // catches the corrupted stack).
        let w = usize::from(self.lru[set].pop_lru().unwrap_or(0));
        let victim_dirty = self.dirty[set] & (1 << w) != 0;
        if victim_dirty {
            self.writebacks += 1;
        }
        let victim = EvictedBlock {
            addr: self.tags[base + w],
            dirty: victim_dirty,
            owner: self.owners[base + w],
        };
        self.tags[base + w] = blk;
        self.owners[base + w] = owner;
        self.dirty[set] = (self.dirty[set] & !(1 << w)) | (u32::from(dirty) << w);
        self.lru[set].push_mru(w as u8);
        self.memo[set] = w as u8 + 1;
        Some(victim)
    }

    /// Removes a block if present, returning its metadata (used when an
    /// organization migrates a block to another slice).
    pub fn invalidate(&mut self, addr: Address) -> Option<EvictedBlock> {
        let blk = addr.block(self.offset_bits);
        let set = self.set_index(addr);
        let w = self.find(set, blk)?;
        let out = EvictedBlock {
            addr: blk,
            dirty: self.dirty[set] & (1 << w) != 0,
            owner: self.owners[set * self.ways + w],
        };
        self.valid[set] &= !(1 << w);
        self.dirty[set] &= !(1 << w);
        self.lru[set].remove(w as u8);
        Some(out)
    }

    /// The owner recorded for a resident block.
    pub fn owner_of(&self, addr: Address) -> Option<CoreId> {
        let blk = addr.block(self.offset_bits);
        let set = self.set_index(addr);
        self.find(set, blk)
            .map(|w| self.owners[set * self.ways + w])
    }

    /// Number of valid blocks in the set containing `addr` owned by `core`.
    pub fn owned_in_set(&self, addr: Address, core: CoreId) -> usize {
        let set = self.set_index(addr);
        let base = set * self.ways;
        let mut m = self.valid[set];
        let mut n = 0;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            n += usize::from(self.owners[base + w] == core);
            m &= m - 1;
        }
        n
    }

    /// Hit/miss statistics since the last reset.
    #[inline]
    pub fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Number of dirty evictions since the last reset.
    #[inline]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Clears statistics (contents are kept — used at the warm-up
    /// boundary).
    pub fn reset_stats(&mut self) {
        self.stats = HitMiss::new();
        self.writebacks = 0;
    }

    /// Total valid blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Checks internal invariants (every set's LRU stack is a permutation
    /// of its valid ways; no duplicate block addresses in a set). Bool
    /// wrapper over [`Invariant::audit`], kept for test ergonomics.
    pub fn check_invariants(&self) -> bool {
        self.is_consistent()
    }

    /// Writes the mutable contents (tags, owners, valid/dirty bits,
    /// recency, statistics) to a snapshot. Geometry-derived
    /// fields are not written — the restoring cache supplies its own.
    pub fn save_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        w.put_usize(self.tags.len());
        for &t in &self.tags {
            w.put_u64(t.raw());
        }
        w.put_usize(self.owners.len());
        for &o in &self.owners {
            w.put_u8(o.asid());
        }
        w.put_u32_slice(&self.valid);
        w.put_u32_slice(&self.dirty);
        w.put_usize(self.lru.len());
        for r in &self.lru {
            r.save_state(w);
        }
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.writebacks);
    }

    /// Restores contents written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError::Mismatch`] when the snapshot
    /// was taken from a cache of different geometry; decode errors
    /// otherwise.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::SnapshotError;
        let n_tags = r.get_usize()?;
        if n_tags != self.tags.len() {
            return Err(SnapshotError::Mismatch("cache tag array size"));
        }
        for t in &mut self.tags {
            *t = BlockAddr::new(r.get_u64()?);
        }
        let n_owners = r.get_usize()?;
        if n_owners != self.owners.len() {
            return Err(SnapshotError::Mismatch("cache owner array size"));
        }
        for o in &mut self.owners {
            *o = CoreId::from_index(r.get_u8()?);
        }
        let valid = r.get_u32_vec()?;
        let dirty = r.get_u32_vec()?;
        if valid.len() != self.valid.len() || dirty.len() != self.dirty.len() {
            return Err(SnapshotError::Mismatch("cache set count"));
        }
        self.valid = valid;
        self.dirty = dirty;
        let n_lru = r.get_usize()?;
        if n_lru != self.lru.len() {
            return Err(SnapshotError::Mismatch("cache recency array size"));
        }
        for rec in &mut self.lru {
            rec.load_state(r)?;
        }
        // The memo is derived, unsnapshotted state; stale entries are
        // validated before use, but start the restored cache clean.
        self.memo.fill(0);
        self.stats.hits = r.get_u64()?;
        self.stats.misses = r.get_u64()?;
        self.writebacks = r.get_u64()?;
        Ok(())
    }
}

impl Invariant for Cache {
    fn component(&self) -> &'static str {
        "cache"
    }

    fn audit(&self) -> Vec<Violation> {
        let mut out = Vec::new(); // lint:allow(L7): cold diagnostics path
        let ways_mask = ((1u64 << self.ways) - 1) as u32;
        for (si, (&mask, lru)) in self.valid.iter().zip(&self.lru).enumerate() {
            let base = si * self.ways;
            // `find` walks every set bit, so a valid bit past the last
            // way would index another set's tags.
            let stray = mask & !ways_mask;
            if stray != 0 {
                out.push(
                    Violation::new(self.component(), "valid bit beyond associativity")
                        .at_set(si)
                        .at_way(stray.trailing_zeros() as usize),
                );
            }
            let valid: Vec<u8> = (0..self.ways as u8)
                .filter(|&w| mask & (1 << w) != 0)
                .collect();
            if lru.len() != valid.len() {
                out.push(
                    Violation::new(
                        self.component(),
                        format!(
                            "LRU stack tracks {} ways but {} blocks are valid",
                            lru.len(),
                            valid.len()
                        ),
                    )
                    .at_set(si),
                );
            }
            for &w in &valid {
                if !lru.contains(w) {
                    out.push(
                        Violation::new(self.component(), "valid block missing from LRU stack")
                            .at_set(si)
                            .at_way(usize::from(w)),
                    );
                }
            }
            for i in 0..valid.len() {
                for j in (i + 1)..valid.len() {
                    let (wi, wj) = (usize::from(valid[i]), usize::from(valid[j]));
                    if self.tags[base + wi] == self.tags[base + wj] {
                        out.push(
                            Violation::new(
                                self.component(),
                                format!(
                                    "duplicate block address {:#x} (also in way {wi})",
                                    self.tags[base + wj].raw()
                                ),
                            )
                            .at_set(si)
                            .at_way(wj),
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B
        Cache::new(CacheGeometry::new(512, 2, 64, 1).unwrap())
    }

    fn c0() -> CoreId {
        CoreId::from_index(0)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let a = Address::new(0x40);
        assert_eq!(c.access(a, false, c0()), Lookup::Miss);
        assert!(c.fill(a, false, c0()).is_none());
        assert!(c.access(a, false, c0()).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_set_conflict_evicts_lru() {
        let mut c = small();
        // 4 sets => stride 4*64 = 256 maps to the same set.
        let a = Address::new(0x00);
        let b = Address::new(0x100);
        let d = Address::new(0x200);
        c.fill(a, false, c0());
        c.fill(b, false, c0());
        let ev = c.fill(d, false, c0()).expect("two-way set overflows");
        assert_eq!(ev.addr, a.block(6));
        assert!(c.probe(b) && c.probe(d) && !c.probe(a));
        assert!(c.check_invariants());
    }

    #[test]
    fn access_promotes_to_mru() {
        let mut c = small();
        let a = Address::new(0x00);
        let b = Address::new(0x100);
        c.fill(a, false, c0());
        c.fill(b, false, c0());
        c.access(a, false, c0()); // a now MRU; b is LRU
        let ev = c.fill(Address::new(0x200), false, c0()).unwrap();
        assert_eq!(ev.addr, b.block(6));
    }

    #[test]
    fn lru_hit_is_flagged() {
        let mut c = small();
        let a = Address::new(0x00);
        let b = Address::new(0x100);
        c.fill(a, false, c0());
        c.fill(b, false, c0()); // stack: b(MRU), a(LRU)
        assert_eq!(c.access(a, false, c0()), Lookup::Hit { was_lru: true });
        assert_eq!(c.access(a, false, c0()), Lookup::Hit { was_lru: false });
    }

    #[test]
    fn write_sets_dirty_and_writeback_counted() {
        let mut c = small();
        let a = Address::new(0x00);
        c.fill(a, false, c0());
        c.access(a, true, c0()); // dirty now
        c.fill(Address::new(0x100), false, c0());
        assert!(c.fill(Address::new(0x200), false, c0()).unwrap().dirty);
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn refill_of_resident_block_merges_dirty() {
        let mut c = small();
        let a = Address::new(0x00);
        c.fill(a, false, c0());
        assert!(c.fill(a, true, c0()).is_none());
        c.fill(Address::new(0x100), false, c0());
        let ev = c.fill(Address::new(0x200), false, c0()).unwrap();
        assert!(ev.dirty, "merged dirty bit must survive");
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = small();
        let a = Address::new(0x40);
        c.fill(a, true, c0());
        let out = c.invalidate(a).unwrap();
        assert_eq!(out.addr, a.block(6));
        assert!(out.dirty);
        assert!(!c.probe(a));
        assert!(c.invalidate(a).is_none());
        assert!(c.check_invariants());
    }

    #[test]
    fn owner_tracking() {
        let mut c = small();
        let a = Address::new(0x40);
        let owner = CoreId::from_index(2);
        c.fill(a, false, owner);
        assert_eq!(c.owner_of(a), Some(owner));
        assert_eq!(c.owned_in_set(a, owner), 1);
        assert_eq!(c.owned_in_set(a, c0()), 0);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small();
        let a = Address::new(0x00);
        let b = Address::new(0x100);
        c.fill(a, false, c0());
        c.fill(b, false, c0());
        assert!(c.probe(a));
        // a must still be LRU (probe must not promote).
        let ev = c.fill(Address::new(0x200), false, c0()).unwrap();
        assert_eq!(ev.addr, a.block(6));
        assert_eq!(c.stats().accesses(), 0, "probe leaves stats untouched");
    }

    #[test]
    fn resident_block_count() {
        let mut c = small();
        assert_eq!(c.resident_blocks(), 0);
        c.fill(Address::new(0x00), false, c0());
        c.fill(Address::new(0x40), false, c0());
        assert_eq!(c.resident_blocks(), 2);
    }

    #[test]
    fn sixteen_way_set_fills_and_evicts() {
        // One-set, 16-way cache: the packed-LRU word at full width.
        let mut c = Cache::new(CacheGeometry::new(1024, 16, 64, 1).unwrap());
        for i in 0..16u64 {
            assert!(c.fill(Address::new(i * 1024), false, c0()).is_none());
        }
        assert_eq!(c.resident_blocks(), 16);
        c.access(Address::new(0), false, c0()); // block 0 becomes MRU
        let ev = c.fill(Address::new(16 * 1024), false, c0()).unwrap();
        assert_eq!(ev.addr, Address::new(1024).block(6), "oldest untouched");
        assert!(c.check_invariants());
    }

    #[test]
    fn access_fill_matches_access_then_fill() {
        // The fused entry must evolve tags, recency, dirty bits and
        // statistics exactly like the two-call sequence, hit or miss.
        use simcore::rng::SimRng;
        let mut rng = SimRng::seed_from(42);
        let mut fused = Cache::new(CacheGeometry::new(4096, 4, 64, 1).unwrap());
        let mut split = Cache::new(CacheGeometry::new(4096, 4, 64, 1).unwrap());
        for _ in 0..20_000 {
            let a = Address::new(rng.below(1 << 13));
            let write = rng.chance(0.3);
            let owner = CoreId::from_index((rng.below(4)) as u8);
            let (lookup_f, ev_f) = fused.access_fill(a, write, owner);
            let lookup_s = split.access(a, write, owner);
            let ev_s = if lookup_s.is_hit() {
                None
            } else {
                split.fill(a, write, owner)
            };
            assert_eq!(lookup_f, lookup_s);
            assert_eq!(ev_f, ev_s);
        }
        assert_eq!(fused.stats(), split.stats());
        assert_eq!(fused.writebacks(), split.writebacks());
        assert_eq!(fused.resident_blocks(), split.resident_blocks());
        assert!(fused.check_invariants());
        // Spot-check identical residency.
        for i in 0..(1u64 << 7) {
            let a = Address::new(i * 64);
            assert_eq!(fused.probe(a), split.probe(a));
            assert_eq!(fused.owner_of(a), split.owner_of(a));
        }
    }

    #[test]
    fn way_memo_is_invisible_to_results() {
        // The last-hit-way memo is a pure search-order optimization: a
        // random access/fill/invalidate workload must produce identical
        // lookups, evictions, statistics and snapshots with the memo
        // read on and off.
        use simcore::rng::SimRng;
        let run = |memo: bool| {
            let mut rng = SimRng::seed_from(7);
            let mut c = Cache::new(CacheGeometry::new(4096, 4, 64, 1).unwrap());
            c.set_memo(memo);
            let mut log = Vec::new();
            for _ in 0..20_000 {
                let a = Address::new(rng.below(1 << 13));
                let write = rng.chance(0.3);
                match rng.below(10) {
                    0 => log.push(format!("{:?}", c.invalidate(a))),
                    1 => log.push(format!("{:?}", c.fill(a, write, c0()))),
                    _ => {
                        let l = c.access(a, write, c0());
                        if !l.is_hit() {
                            c.fill(a, write, c0());
                        }
                        log.push(format!("{l:?}"));
                    }
                }
            }
            assert!(c.check_invariants());
            let mut w = simcore::snapshot::SnapshotWriter::new();
            c.save_state(&mut w);
            (log, c.stats(), c.writebacks(), w.finish())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn peek_and_commit_match_access_on_hits() {
        let mut a = Cache::new(CacheGeometry::new(2048, 4, 64, 1).unwrap());
        let mut b = Cache::new(CacheGeometry::new(2048, 4, 64, 1).unwrap());
        use simcore::rng::SimRng;
        let mut rng = SimRng::seed_from(17);
        for _ in 0..10_000 {
            let addr = Address::new(rng.below(1 << 12));
            let write = rng.chance(0.25);
            let la = a.access(addr, write, c0());
            let lb = match b.peek_hit_way(addr) {
                Some(w) => b.commit_hit_at(addr, w, write),
                None => b.access(addr, write, c0()),
            };
            assert_eq!(la, lb);
            if !la.is_hit() {
                a.fill(addr, write, c0());
                b.fill(addr, write, c0());
            }
        }
        assert_eq!(a.stats(), b.stats());
        let enc = |c: &Cache| {
            let mut w = simcore::snapshot::SnapshotWriter::new();
            c.save_state(&mut w);
            w.finish()
        };
        assert_eq!(enc(&a), enc(&b));
    }

    #[test]
    fn invariants_hold_under_random_workload() {
        use simcore::rng::SimRng;
        let mut rng = SimRng::seed_from(99);
        let mut c = Cache::new(CacheGeometry::new(4096, 4, 64, 1).unwrap());
        for _ in 0..5_000 {
            let a = Address::new(rng.below(1 << 14));
            let write = rng.chance(0.3);
            if !c.access(a, write, c0()).is_hit() {
                c.fill(a, write, c0());
            }
        }
        assert!(c.check_invariants());
        assert!(c.stats().accesses() == 5_000);
    }

    #[test]
    fn set_index_matches_the_geometry_on_every_built_shape() {
        // `set_index` masks with what the constructor cached; it must pick
        // the set `CacheGeometry` defines for every geometry the simulator
        // builds: Table 1's L1I, L1D, L2 and both L3s, as built, at twice
        // the L3 capacity (Figure 9) and technology-scaled (Figure 10);
        // Figure 3's slices (the private L3's sets at 1 to 16 ways); one
        // set; 32 ways.
        use simcore::config::MachineConfig;
        use simcore::rng::SimRng;
        let table1 = MachineConfig::baseline();
        let mut geoms = Vec::new();
        for m in [
            table1,
            table1.with_l3_scale(2).unwrap(),
            table1.technology_scaled(),
        ] {
            geoms.extend([m.l1i, m.l1d, m.l2, m.l3.shared, m.l3.private]);
        }
        let private = table1.l3.private;
        for ways in [1, 2, 3, 4, 6, 8, 16] {
            let bytes = private.sets() * u64::from(ways) * 64;
            geoms.push(CacheGeometry::new(bytes, ways, 64, private.latency()).unwrap());
        }
        geoms.push(CacheGeometry::new(16 * 64, 16, 64, 1).unwrap());
        geoms.push(CacheGeometry::new(64 * 32 * 64, 32, 64, 1).unwrap());
        let mut rng = SimRng::seed_from(5);
        for geom in geoms {
            let c = Cache::new(geom);
            for _ in 0..10_000 {
                let a = Address::new(rng.next_u64());
                let want = a.block(geom.offset_bits()).index_bits(0, geom.index_bits());
                assert_eq!(c.set_index(a) as u64, want, "{geom:?} at {a}");
            }
        }
    }

    #[test]
    fn audit_flags_valid_bits_beyond_the_associativity() {
        let mut c = small();
        c.valid[3] |= 1 << 31;
        let v = c.audit();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].set, v[0].way), (Some(3), Some(31)));
        // At 32 ways every bit is a way: a full set is clean.
        let mut wide = Cache::new(CacheGeometry::new(32 * 64, 32, 64, 1).unwrap());
        for i in 0..32 {
            wide.fill(Address::new(i * 64), false, c0());
        }
        assert_eq!(wide.valid[0], u32::MAX);
        assert!(wide.check_invariants());
    }
}
