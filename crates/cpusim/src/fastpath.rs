//! The fused TLB+cache hit probe behind the core-side fast path.
//!
//! The overwhelmingly common event in a measured window is a TLB hit
//! followed by an L1 hit. The reference path resolves it as two
//! independent structure walks with their updates interleaved; the fused
//! probe resolves both *reads* first — TLB residency via
//! [`Tlb::lookup`], the L1 way via [`Cache::peek_hit_way`], each served
//! by its own last-hit memo — and commits the two hit-side updates only
//! when **both** structures hit. On any miss nothing has been mutated,
//! so the caller re-runs the full reference sequence from the top and
//! every miss-side effect (stamp ordering, installs, evictions,
//! statistics) happens exactly as it always did.
//!
//! Exactness argument: pages are unique within a TLB and block addresses
//! are unique within a cache set, so the memo-served lookups answer
//! exactly what the reference walks answer; on the both-hit path the
//! committed updates are, statement for statement, the reference hit
//! paths of [`Tlb::access`] and [`Cache::access`]; on any other path no
//! state changed. The fast path is therefore bit-identical end-to-end —
//! the property the `--no-fast-path` differentials pin.
//!
//! Two entry points share that machinery. [`fused_hit`] is
//! all-or-nothing — right for the detailed pipeline, where the miss
//! timing interleaves with other state and the caller wants the whole
//! reference sequence on any miss. [`functional_walk`] is
//! commit-on-every-outcome — right for the functional warm path, where
//! a miss owes no timing: it probes each structure once and applies the
//! exact hit *or* miss side in place, so the majority-miss warm stream
//! never pays a duplicated lookup.
//!
//! This module is covered by the L7/D4 hot-path lint passes.

use cachesim::cache::Cache;
use simcore::types::Address;

use crate::tlb::Tlb;

/// Counters of fast-path effectiveness for one core. These feed the
/// perf attribution side channel only — they are **not** part of
/// [`CoreStats`](crate::core::CoreStats) and never reach rendered
/// results, traces or snapshots, which must stay byte-identical across
/// fast-path modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Data-side accesses retired through the fused probe.
    pub data_fast_hits: u64,
    /// Data-side accesses that fell back to the reference path.
    pub data_slow: u64,
    /// Instruction-side fetch blocks resolved through the fused probe.
    pub inst_fast_hits: u64,
    /// Instruction-side fetch blocks that fell back.
    pub inst_slow: u64,
}

impl FastPathStats {
    /// Accumulates another core's counters (chip-level aggregation).
    pub fn absorb(&mut self, other: FastPathStats) {
        self.data_fast_hits += other.data_fast_hits;
        self.data_slow += other.data_slow;
        self.inst_fast_hits += other.inst_fast_hits;
        self.inst_slow += other.inst_slow;
    }

    /// Fraction of accesses (both sides) served by the fused probe.
    pub fn fast_fraction(&self) -> f64 {
        let fast = self.data_fast_hits + self.inst_fast_hits;
        let total = fast + self.data_slow + self.inst_slow;
        if total == 0 {
            0.0
        } else {
            fast as f64 / total as f64
        }
    }
}

/// The fused TLB+L1 probe: resolves translation and tag match in one
/// pass and commits both hit-side updates iff both structures hit.
/// Returns `true` on the fused hit; `false` leaves `tlb` and `l1`
/// untouched (all-or-nothing), and the caller must run the reference
/// sequence.
#[inline]
pub fn fused_hit(tlb: &mut Tlb, l1: &mut Cache, addr: Address, write: bool) -> bool {
    let Some(slot) = tlb.lookup(addr) else {
        return false;
    };
    let Some(way) = l1.peek_hit_way(addr) else {
        return false;
    };
    tlb.commit_hit(slot);
    let _ = l1.commit_hit_at(addr, way, write);
    true
}

/// The fused TLB+L1 *walk* for the functional (warm / pipeline-drain)
/// path: probes each structure exactly once and commits the matching
/// side — hit or miss — immediately, instead of the all-or-nothing
/// [`fused_hit`] contract that makes the caller rerun both reference
/// walks on any miss. Returns `true` iff the L1 hit; on `false` the
/// caller owes only the L2-and-beyond reference sequence (plus the L1
/// fill), never a TLB or L1 re-probe.
///
/// Exactness: the TLB side is [`Tlb::access`] itself (one walk on a
/// miss, finding the victim as it proves the page absent), and
/// [`Cache::access`] is literally `peek_hit_way` then
/// `commit_hit_at`/`note_miss` — this walk performs the same statements
/// in the same order, so the two structures end in the byte-identical
/// states the sequential reference walk produces, for all four hit/miss
/// combinations.
#[inline]
pub fn functional_walk(tlb: &mut Tlb, l1: &mut Cache, addr: Address, write: bool) -> bool {
    let _ = tlb.access(addr);
    match l1.peek_hit_way(addr) {
        Some(way) => {
            let _ = l1.commit_hit_at(addr, way, write);
            true
        }
        None => {
            l1.note_miss();
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::config::{CacheGeometry, TlbConfig};
    use simcore::rng::SimRng;
    use simcore::types::CoreId;

    fn parts() -> (Tlb, Cache) {
        (
            Tlb::new(TlbConfig {
                entries: 16,
                miss_penalty: 30,
            }),
            Cache::new(CacheGeometry::new(4096, 4, 64, 1).unwrap()),
        )
    }

    #[test]
    fn fused_probe_equals_sequential_reference() {
        // Random streams through the fused probe (with reference
        // fallback) and through the plain sequential TLB-then-L1 walk
        // must leave both structures in identical states.
        let mut rng = SimRng::seed_from(3);
        let (mut ft, mut fc) = parts();
        let (mut rt, mut rc) = parts();
        let core = CoreId::from_index(0);
        for i in 0..30_000 {
            let addr = Address::new(rng.below(1 << 17) & !7);
            let write = rng.chance(0.3);
            // Fused side.
            let fused = fused_hit(&mut ft, &mut fc, addr, write);
            if !fused {
                ft.access(addr);
                if !fc.access(addr, write, core).is_hit() {
                    fc.fill(addr, write, core);
                }
            }
            // Reference side.
            let tlb_hit = rt.access(addr);
            let l1_hit = rc.access(addr, write, core).is_hit();
            if !l1_hit {
                rc.fill(addr, write, core);
            }
            assert_eq!(fused, tlb_hit && l1_hit, "op {i}");
        }
        assert_eq!((ft.hits(), ft.misses()), (rt.hits(), rt.misses()));
        assert_eq!(fc.stats(), rc.stats());
        let enc_tlb = |t: &Tlb| {
            let mut w = simcore::snapshot::SnapshotWriter::new();
            t.save_state(&mut w);
            w.finish()
        };
        let enc_cache = |c: &Cache| {
            let mut w = simcore::snapshot::SnapshotWriter::new();
            c.save_state(&mut w);
            w.finish()
        };
        assert_eq!(enc_tlb(&ft), enc_tlb(&rt));
        assert_eq!(enc_cache(&fc), enc_cache(&rc));
    }

    #[test]
    fn functional_walk_equals_sequential_reference() {
        // Same twin-state check as the fused probe, but for the
        // commit-on-every-outcome walk: a random stream (page space
        // sized to exercise all four TLB×L1 hit/miss combinations) must
        // leave both structures byte-identical to the sequential
        // `tlb.access` → `l1.access` reference, with no fallback probes.
        let mut rng = SimRng::seed_from(11);
        let (mut ft, mut fc) = parts();
        let (mut rt, mut rc) = parts();
        let core = CoreId::from_index(0);
        let mut outcomes = [0u64; 4];
        for i in 0..30_000 {
            let addr = Address::new(rng.below(1 << 18) & !7);
            let write = rng.chance(0.3);
            // Walk side: L1 miss owes only the fill.
            let walk_hit = functional_walk(&mut ft, &mut fc, addr, write);
            if !walk_hit {
                fc.fill(addr, write, core);
            }
            // Reference side.
            let tlb_hit = rt.access(addr);
            let l1_hit = rc.access(addr, write, core).is_hit();
            if !l1_hit {
                rc.fill(addr, write, core);
            }
            assert_eq!(walk_hit, l1_hit, "op {i}");
            outcomes[(tlb_hit as usize) << 1 | l1_hit as usize] += 1;
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "stream must cover all four TLB×L1 outcomes: {outcomes:?}"
        );
        assert_eq!((ft.hits(), ft.misses()), (rt.hits(), rt.misses()));
        assert_eq!(fc.stats(), rc.stats());
        let enc_tlb = |t: &Tlb| {
            let mut w = simcore::snapshot::SnapshotWriter::new();
            t.save_state(&mut w);
            w.finish()
        };
        let enc_cache = |c: &Cache| {
            let mut w = simcore::snapshot::SnapshotWriter::new();
            c.save_state(&mut w);
            w.finish()
        };
        assert_eq!(enc_tlb(&ft), enc_tlb(&rt));
        assert_eq!(enc_cache(&fc), enc_cache(&rc));
    }

    #[test]
    fn failed_probe_mutates_nothing() {
        let (mut tlb, mut cache) = parts();
        let core = CoreId::from_index(0);
        let a = Address::new(0x4000);
        // TLB resident, cache not: probe must fail and leave the TLB's
        // stamp/statistics untouched (all-or-nothing).
        tlb.access(a);
        let (h0, m0) = (tlb.hits(), tlb.misses());
        assert!(!fused_hit(&mut tlb, &mut cache, a, false));
        assert_eq!((tlb.hits(), tlb.misses()), (h0, m0));
        assert_eq!(cache.stats().accesses(), 0);
        // Cache resident, TLB evicted: same from the other side.
        cache.fill(a, false, core);
        for p in 1..=16u64 {
            tlb.access(Address::new((100 + p) << 12)); // evict page of `a`
        }
        let cache_stats = cache.stats();
        assert!(!fused_hit(&mut tlb, &mut cache, a, false));
        assert_eq!(cache.stats(), cache_stats);
    }

    #[test]
    fn stats_aggregate_and_report() {
        let mut a = FastPathStats {
            data_fast_hits: 6,
            data_slow: 2,
            inst_fast_hits: 3,
            inst_slow: 1,
        };
        a.absorb(FastPathStats {
            data_fast_hits: 1,
            data_slow: 1,
            inst_fast_hits: 0,
            inst_slow: 2,
        });
        assert_eq!(a.data_fast_hits, 7);
        assert!((a.fast_fraction() - 10.0 / 16.0).abs() < 1e-12);
        assert_eq!(FastPathStats::default().fast_fraction(), 0.0);
    }
}
