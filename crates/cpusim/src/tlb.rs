//! Fully-associative translation lookaside buffers (Table 1: 128 entries,
//! 30-cycle miss penalty, separate instruction and data TLBs).
//!
//! Storage is a pair of flat vectors (`pages`/`stamps`) plus a small
//! direct-mapped *residency memo* that remembers the slot of the last
//! translation per page-hash bucket. The memo is a pure search-order
//! optimization, like the last-hit-way memo in `cachesim::cache`: a memo
//! hit skips the linear scan, a memo mismatch falls back to it, and because
//! pages are unique within the TLB both paths find the same slot. The
//! memo read is gated by [`Tlb::set_memo`] (the `--no-fast-path` escape
//! hatch); the memo is *maintained* unconditionally so toggling is free.

use simcore::config::TlbConfig;
use simcore::types::Address;

/// Index bits of the direct-mapped memo (see [`Tlb::memo_slot`]).
const MEMO_BITS: u32 = 8;
/// Direct-mapped memo size.
const MEMO_SLOTS: usize = 1 << MEMO_BITS;

/// A fully-associative, LRU-replaced TLB over 4-KiB pages.
///
/// # Example
///
/// ```
/// use cpusim::tlb::Tlb;
/// use simcore::config::TlbConfig;
/// use simcore::types::Address;
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// assert!(!tlb.access(Address::new(0x1000)));  // cold miss
/// assert!(tlb.access(Address::new(0x1fff)));   // same page: hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// Resident pages, in insertion order. Pages are unique, so any scan
    /// order finds the same slot; eviction replaces in place.
    pages: Vec<u64>,
    /// Last-use stamp per slot, parallel to `pages`. Stamps are unique
    /// (one global counter), so the LRU victim is deterministic
    /// regardless of storage order.
    stamps: Vec<u64>,
    /// Direct-mapped slot memo: `slot + 1`, 0 = empty. Validated against
    /// `pages` before being trusted, so stale entries are harmless.
    memo: Vec<u32>,
    /// Whether lookups may consult the memo (the fast path). Off, every
    /// lookup is the reference linear scan.
    memo_on: bool,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the entry count is zero.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries > 0, "TLB needs at least one entry");
        Tlb {
            pages: Vec::with_capacity(cfg.entries),
            stamps: Vec::with_capacity(cfg.entries),
            memo: vec![0; MEMO_SLOTS],
            memo_on: true,
            stamp: 0,
            hits: 0,
            misses: 0,
            cfg,
        }
    }

    /// Enables or disables the residency-memo fast path. Disabled, every
    /// lookup runs the reference linear scan; the memo keeps being
    /// maintained either way, so re-enabling needs no rebuild. Results
    /// are identical in both modes.
    pub fn set_memo(&mut self, enabled: bool) {
        self.memo_on = enabled;
    }

    /// The memo slot of `page`: the top [`MEMO_BITS`] of the page times
    /// 2^64/φ (Fibonacci hashing). The page's low bits would spread a
    /// dense page range just as well, but every data region of a trace
    /// starts on a 256-page boundary, so the regions' first pages would
    /// all share one slot.
    #[inline]
    fn memo_slot(page: u64) -> usize {
        (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_BITS)) as usize
    }

    /// The memo'd slot of `page`, when the memo read is enabled and the
    /// slot still holds `page`.
    #[inline]
    fn memo_hit(&self, page: u64) -> Option<usize> {
        if !self.memo_on {
            return None;
        }
        let slot = (self.memo[Self::memo_slot(page)] as usize).checked_sub(1)?;
        (self.pages.get(slot) == Some(&page)).then_some(slot)
    }

    /// Finds the slot holding `page`, memo first when enabled. Pages are
    /// unique within the TLB, so the memo'd slot and the scan agree.
    #[inline]
    fn find(&self, page: u64) -> Option<usize> {
        self.memo_hit(page)
            .or_else(|| self.pages.iter().position(|&p| p == page))
    }

    /// One walk over the slots for `page`: `Ok` with the slot holding
    /// it, or `Err` with the slot a miss installs it in — a fresh one
    /// while the TLB has room, else the LRU victim. Stamps are unique,
    /// so the victim is the same entry whatever order the walk takes.
    fn scan(&self, page: u64) -> Result<usize, usize> {
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (slot, (&p, &stamp)) in self.pages.iter().zip(&self.stamps).enumerate() {
            if p == page {
                return Ok(slot);
            }
            if stamp < oldest {
                oldest = stamp;
                victim = slot;
            }
        }
        Err(if self.pages.len() < self.cfg.entries {
            self.pages.len()
        } else {
            victim
        })
    }

    /// Non-mutating residency probe: the slot translating `addr`, if any.
    /// No stamp, statistic or memo update — pair with
    /// [`commit_hit`](Self::commit_hit) once the fused TLB+L1 probe has
    /// decided the whole access is a hit.
    #[inline]
    pub fn lookup(&self, addr: Address) -> Option<usize> {
        self.find(addr.page())
    }

    /// Applies the hit-side state updates for a slot returned by
    /// [`lookup`](Self::lookup): exactly what [`access`](Self::access)
    /// does on a hit.
    #[inline]
    pub fn commit_hit(&mut self, slot: usize) {
        self.stamp += 1;
        self.stamps[slot] = self.stamp;
        self.hits += 1;
        self.memo[Self::memo_slot(self.pages[slot])] = slot as u32 + 1;
    }

    /// Translates `addr`; returns `true` on a hit. A miss installs the
    /// page, evicting the LRU entry when full. A lookup the memo does not
    /// answer walks the slots once, finding the page or the victim.
    pub fn access(&mut self, addr: Address) -> bool {
        let page = addr.page();
        let found = match self.memo_hit(page) {
            Some(slot) => Ok(slot),
            None => self.scan(page),
        };
        match found {
            Ok(slot) => {
                self.commit_hit(slot);
                true
            }
            Err(slot) => {
                self.install(page, slot);
                false
            }
        }
    }

    /// The miss side of [`access`](Self::access): counts the miss and
    /// puts `page` in `slot` (a fresh slot or the LRU victim, see
    /// [`scan`](Self::scan)).
    fn install(&mut self, page: u64, slot: usize) {
        self.stamp += 1;
        self.misses += 1;
        if slot == self.pages.len() {
            self.pages.push(page);
            self.stamps.push(self.stamp);
        } else {
            self.pages[slot] = page;
            self.stamps[slot] = self.stamp;
        }
        self.memo[Self::memo_slot(page)] = slot as u32 + 1;
    }

    /// The miss penalty in cycles.
    #[inline]
    pub fn miss_penalty(&self) -> u64 {
        self.cfg.miss_penalty
    }

    /// Hits since the last reset.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since the last reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clears statistics (translations are kept).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Writes the translations, LRU stamps and statistics to a snapshot.
    /// Entries are emitted in page order — the canonical encoding the
    /// earlier ordered-map storage produced — so snapshots are
    /// byte-identical across storage layouts. The memo is derived state
    /// and is not encoded.
    pub fn save_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        let mut entries: Vec<(u64, u64)> = self
            .pages
            .iter()
            .copied()
            .zip(self.stamps.iter().copied())
            .collect();
        entries.sort_unstable_by_key(|&(page, _)| page);
        w.put_usize(entries.len());
        for (page, last) in entries {
            w.put_u64(page);
            w.put_u64(last);
        }
        w.put_u64(self.stamp);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError::Mismatch`] when the entry
    /// count exceeds this TLB's capacity;
    /// [`simcore::snapshot::SnapshotError::Corrupt`] when the entries are
    /// ones no run can produce: pages not in strictly increasing order
    /// (the encoding's order, so a page listed twice is refused), two
    /// entries sharing a stamp, or a stamp above the stamp counter (a
    /// later touch would tie with it, making the LRU victim depend on
    /// storage order). Decode errors otherwise.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::SnapshotError;
        let n = r.get_usize()?;
        if n > self.cfg.entries {
            return Err(SnapshotError::Mismatch("TLB entry count exceeds capacity"));
        }
        self.pages.clear();
        self.stamps.clear();
        self.memo.fill(0);
        for _ in 0..n {
            let page = r.get_u64()?;
            let last = r.get_u64()?;
            if self.pages.last().is_some_and(|&prev| prev >= page) {
                return Err(SnapshotError::Corrupt("TLB pages not strictly increasing"));
            }
            if self.stamps.contains(&last) {
                return Err(SnapshotError::Corrupt("two TLB entries share a stamp"));
            }
            self.pages.push(page);
            self.stamps.push(last);
            self.memo[Self::memo_slot(page)] = self.pages.len() as u32;
        }
        self.stamp = r.get_u64()?;
        if self.stamps.iter().any(|&last| last > self.stamp) {
            return Err(SnapshotError::Corrupt("TLB stamp above the stamp counter"));
        }
        self.hits = r.get_u64()?;
        self.misses = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(entries: usize) -> Tlb {
        Tlb::new(TlbConfig {
            entries,
            miss_penalty: 30,
        })
    }

    #[test]
    fn hit_within_page_miss_across() {
        let mut t = small(4);
        assert!(!t.access(Address::new(0x0000)));
        assert!(t.access(Address::new(0x0fff)));
        assert!(!t.access(Address::new(0x1000)));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut t = small(2);
        t.access(Address::new(0x0000)); // page 0
        t.access(Address::new(0x1000)); // page 1
        t.access(Address::new(0x0000)); // touch page 0 -> page 1 is LRU
        t.access(Address::new(0x2000)); // evicts page 1
        assert!(t.access(Address::new(0x0000)), "page 0 survived");
        assert!(!t.access(Address::new(0x1000)), "page 1 was evicted");
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut t = small(128);
        for p in 0..128u64 {
            t.access(Address::new(p << 12));
        }
        t.reset_stats();
        for round in 0..4 {
            for p in 0..128u64 {
                assert!(t.access(Address::new(p << 12)), "round {round} page {p}");
            }
        }
        assert_eq!(t.misses(), 0);
    }

    #[test]
    fn penalty_comes_from_config() {
        let t = small(4);
        assert_eq!(t.miss_penalty(), 30);
    }

    #[test]
    fn memo_and_reference_scan_agree() {
        // The memo is a pure search-order optimization: a page stream
        // whose resident pages share memo slots must produce identical
        // verdicts, statistics and snapshots with the memo read on and
        // off. Pages 0-7 each come with the next two pages that share
        // their slot, found through the slot function itself.
        let aliases: Vec<[u64; 3]> = (0..8u64)
            .map(|page| {
                let slot = Tlb::memo_slot(page);
                let mut same = (page + 1..).filter(|&p| Tlb::memo_slot(p) == slot);
                [page, same.next().unwrap(), same.next().unwrap()]
            })
            .collect();
        let run = |memo: bool| {
            let mut t = small(16);
            t.set_memo(memo);
            let mut verdicts = Vec::new();
            let mut mismatches = 0;
            for i in 0..4_000u64 {
                // Mix of reuse, slot aliasing and fresh pages, so hits,
                // memo mismatches and evictions all fire: each alias group
                // is walked three times in a row.
                let page = match i % 5 {
                    k @ 0..=2 => aliases[(i / 15 % 8) as usize][k as usize],
                    3 => i % 24,
                    _ => i * 7 % 97,
                };
                // A resident page whose memo entry names another page's
                // slot: the memo misses, and the scan must find it.
                let m = t.memo[Tlb::memo_slot(page)] as usize;
                let resident = t.pages.contains(&page);
                mismatches += u64::from(resident && m != 0 && t.pages[m - 1] != page);
                verdicts.push(t.access(Address::new(page << 12)));
            }
            assert!(mismatches > 100, "only {mismatches} memo mismatches");
            let mut w = simcore::snapshot::SnapshotWriter::new();
            t.save_state(&mut w);
            (verdicts, t.hits(), t.misses(), w.finish())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn load_state_refuses_entries_no_run_can_produce() {
        let mut t = small(8);
        for p in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            t.access(Address::new(p << 12));
        }
        let encode = |entries: &[(u64, u64)], stamp: u64| {
            let mut w = simcore::snapshot::SnapshotWriter::new();
            w.put_usize(entries.len());
            for &(page, last) in entries {
                w.put_u64(page);
                w.put_u64(last);
            }
            w.put_u64(stamp);
            w.put_u64(0);
            w.put_u64(0);
            w.finish()
        };
        let load = |bytes: &[u8]| {
            let mut fresh = small(8);
            let mut r = simcore::snapshot::SnapshotReader::open(bytes).unwrap();
            fresh.load_state(&mut r).map(|()| fresh)
        };
        // The canonical encoding round-trips, and the most recent touch
        // holds a stamp equal to the counter.
        let mut w = simcore::snapshot::SnapshotWriter::new();
        t.save_state(&mut w);
        let restored = load(&w.finish()).expect("a saved TLB loads");
        assert_eq!((restored.stamp, restored.pages.len()), (t.stamp, 7));
        assert!(load(&encode(&[(1, 2), (4, 7)], 7)).is_ok());

        let corrupt = |bytes: &[u8]| {
            matches!(
                load(bytes),
                Err(simcore::snapshot::SnapshotError::Corrupt(_))
            )
        };
        assert!(corrupt(&encode(&[(4, 2), (4, 7)], 7)), "page listed twice");
        assert!(corrupt(&encode(&[(4, 2), (1, 7)], 7)), "pages out of order");
        assert!(corrupt(&encode(&[(1, 7), (4, 7)], 7)), "shared stamp");
        assert!(
            corrupt(&encode(&[(1, 2), (4, 8)], 7)),
            "stamp above the counter"
        );
    }

    #[test]
    fn lookup_and_commit_hit_match_access() {
        let mut a = small(8);
        let mut b = small(8);
        for i in 0..2_000u64 {
            let addr = Address::new((i * 13 % 29) << 12);
            let via_access = a.access(addr);
            let via_parts = match b.lookup(addr) {
                Some(slot) => {
                    b.commit_hit(slot);
                    true
                }
                None => b.access(addr),
            };
            assert_eq!(via_access, via_parts, "op {i}");
        }
        assert_eq!((a.hits(), a.misses()), (b.hits(), b.misses()));
        let enc = |t: &Tlb| {
            let mut w = simcore::snapshot::SnapshotWriter::new();
            t.save_state(&mut w);
            w.finish()
        };
        assert_eq!(enc(&a), enc(&b));
    }
}
