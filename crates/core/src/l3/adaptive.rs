//! The paper's contribution: the adaptive shared/private NUCA last-level
//! cache (Section 2).
//!
//! Every set of the aggregate 16-way cache is divided into per-core
//! **private partitions** (each at most the 4 ways of the core's local
//! slice) and one **shared partition** holding everything else. The
//! division is *logical*: partitions are recency words over way
//! indices, and "moving" a block between partitions re-labels its way
//! rather than copying data — the paper's lazy repartitioning.
//!
//! Key events (Section 2.3):
//!
//! - **Private hit** (14 cycles): the block moves to the top of its
//!   private LRU stack. A hit in the LRU position feeds the loss
//!   estimator.
//! - **Shared/neighbor hit** (19 cycles): the block is swapped into the
//!   requester's private partition — the private-LRU block takes its
//!   place in the shared partition as shared-MRU.
//! - **Miss**: the line is fetched from memory and installed private-MRU.
//!   The private-LRU block is demoted to the shared partition; the shared
//!   victim is chosen by Algorithm 1 (first over-quota owner from the LRU
//!   end, else the global LRU block). The victim's tag is recorded in its
//!   owner's shadow register, feeding the gain estimator; every 2000
//!   misses the sharing engine re-evaluates the quotas.
//!
//! # Layout
//!
//! The cache state is struct-of-arrays, sized once at construction and
//! never reallocated: a flat set-major tag/owner stripe, `u32`
//! valid/dirty bitmasks per set, one [`Recency`] word per set for the
//! shared partition, and a core-major [`PerCoreTable`] holding each
//! core's private stacks and occupancy counters for every set as one
//! contiguous stripe. The per-access hot path (lookup, touch, victim
//! search, install) performs no heap allocation — enforced by lint rule
//! L7.

use cachesim::lru::Recency;
use cachesim::percore::PerCoreTable;
use cpusim::l3iface::{L3Outcome, L3Source};
use simcore::config::MachineConfig;
use simcore::invariant::{Invariant, Violation};
use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::types::{Address, BlockAddr, CoreId, Cycle};
use telemetry::{CoreOccupancy, Event, NullSink, Sink};

use super::Memory;
use crate::engine::{AdaptiveParams, SharingEngine};

/// Aggregate statistics of the adaptive organization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Hits served from the requester's private partition (14 cycles).
    pub private_hits: u64,
    /// Hits served from the shared partition (19 cycles).
    pub shared_hits: u64,
    /// Misses served by main memory.
    pub misses: u64,
    /// Blocks evicted from the chip.
    pub evictions: u64,
    /// Evictions where Algorithm 1 found an over-quota victim (rather
    /// than falling back to the global LRU block).
    pub over_quota_evictions: u64,
    /// Private-to-shared demotions.
    pub demotions: u64,
    /// Quota transfers performed by the sharing engine.
    pub repartitions: u64,
}

/// Per-core residency measured by [`AdaptiveL3::occupancy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyRow {
    /// The owning core.
    pub core: CoreId,
    /// Blocks resident in the core's private partitions.
    pub private_blocks: u64,
    /// Blocks owned by the core resident in the shared partition.
    pub shared_blocks: u64,
}

impl OccupancyRow {
    /// Total blocks owned by the core.
    pub fn total(&self) -> u64 {
        self.private_blocks + self.shared_blocks
    }
}

/// The adaptive shared/private NUCA last-level cache, built by
/// [`L3System`](super::L3System) from
/// [`Organization::Adaptive`](super::Organization::Adaptive).
///
/// # Example
///
/// ```
/// use nuca_core::engine::AdaptiveParams;
/// use nuca_core::l3::{L3System, Organization};
/// use cpusim::l3iface::LastLevel;
/// use simcore::config::MachineConfig;
/// use simcore::types::{Address, CoreId, Cycle};
///
/// let cfg = MachineConfig::baseline();
/// let org = Organization::Adaptive(AdaptiveParams::default());
/// let mut l3 = L3System::build(org, &cfg)?;
/// let c0 = CoreId::from_index(0);
/// l3.access(c0, Address::new(0x1000), false, Cycle::new(0));   // miss
/// let out = l3.access(c0, Address::new(0x1000), false, Cycle::new(500));
/// assert_eq!(out.data_ready.raw(), 514);                        // private hit
/// assert_eq!(l3.as_adaptive().map(|a| a.stats().private_hits), Some(1));
/// # Ok::<(), simcore::error::ConfigError>(())
/// ```
/// The `S` parameter selects the telemetry sink; the default
/// [`NullSink`] has `ENABLED == false`, so every emission site
/// monomorphizes to nothing and the traced and untraced organizations
/// share one source.
#[derive(Debug)]
pub struct AdaptiveL3<S: Sink = NullSink> {
    /// Associativity of the aggregate cache.
    ways: usize,
    /// Flat set-major block addresses: `tags[set * ways + way]`.
    /// Meaningful only where the set's valid bit is set.
    tags: Vec<BlockAddr>,
    /// Flat set-major fetching cores, parallel to `tags`. The owner
    /// never changes while a block is resident (hit-path swaps move
    /// ways between stacks but never re-label ownership).
    owners: Vec<CoreId>,
    /// One valid bit per way, per set.
    valid: Vec<u32>,
    /// One dirty bit per way, per set.
    dirty: Vec<u32>,
    /// The shared partition's recency word, per set.
    shared: Vec<Recency>,
    /// Core-major private-partition recency words: core `c`'s stack for
    /// set `s` is `private.get(c, s)`.
    private: PerCoreTable<Recency>,
    /// Core-major count of valid blocks owned per set, maintained
    /// incrementally in [`AdaptiveL3::install`] — the only place
    /// ownership or validity changes. Turns Algorithm 1's per-candidate
    /// quota check from an O(ways) rescan into an O(1) lookup;
    /// cross-checked against a full recount by [`Invariant::audit`].
    owned: PerCoreTable<u32>,
    engine: SharingEngine,
    cores: usize,
    offset_bits: u32,
    /// Precomputed `sets - 1` mask — the set index is computed on every
    /// access, so the mask is hoisted out of the hot path instead of
    /// being rebuilt from the bit count each time.
    index_mask: u64,
    /// All ways valid: `(1 << ways) - 1`, the steady state after cold
    /// fill. Comparing the valid mask against this skips the free-way
    /// scan entirely.
    full_mask: u32,
    private_latency: u64,
    shared_latency: u64,
    stats: AdaptiveStats,
    sink: S,
}

impl<S: Sink> AdaptiveL3<S> {
    /// Builds the adaptive organization emitting telemetry into `sink`.
    pub(super) fn new(cfg: &MachineConfig, params: AdaptiveParams, sink: S) -> Self {
        let geom = cfg.l3.shared;
        let sets = geom.sets() as usize;
        let ways = geom.total_ways() as usize;
        AdaptiveL3 {
            ways,
            tags: vec![BlockAddr::new(0); sets * ways], // lint:allow(L7): constructor
            owners: vec![CoreId::from_index(0); sets * ways], // lint:allow(L7): constructor
            valid: vec![0; sets],                       // lint:allow(L7): constructor
            dirty: vec![0; sets],                       // lint:allow(L7): constructor
            shared: vec![Recency::for_ways(ways); sets], // lint:allow(L7): constructor
            private: PerCoreTable::filled(cfg.cores, sets, Recency::for_ways(ways)), // lint:allow(D4): constructor
            owned: PerCoreTable::filled(cfg.cores, sets, 0), // lint:allow(D4): constructor
            engine: SharingEngine::new(
                sets,
                cfg.cores,
                geom.total_ways(),
                cfg.l3.private.total_ways(),
                params,
            ),
            cores: cfg.cores,
            offset_bits: geom.offset_bits(),
            index_mask: (1u64 << geom.index_bits()) - 1,
            full_mask: ((1u64 << ways) - 1) as u32,
            private_latency: cfg.l3.private.latency(),
            shared_latency: cfg.l3.neighbor_latency,
            stats: AdaptiveStats::default(),
            sink,
        }
    }

    /// Freezes or unfreezes quota adaptation (see
    /// [`SharingEngine::set_frozen`]).
    pub fn set_adaptation_frozen(&mut self, frozen: bool) {
        self.engine.set_frozen(frozen);
    }

    /// The sharing engine (quotas, counters, repartition history).
    pub fn engine(&self) -> &SharingEngine {
        &self.engine
    }

    /// Current per-core quotas (max blocks per set, Figure 4d).
    pub fn quotas(&self) -> Vec<u32> {
        self.engine.quotas()
    }

    /// Organization-level statistics.
    pub fn stats(&self) -> AdaptiveStats {
        let mut s = self.stats;
        s.repartitions = self.engine.repartitions().len() as u64;
        s
    }

    /// Resets counters at the warm-up boundary (cache contents, quotas
    /// and learned state are kept).
    pub(super) fn reset_stats(&mut self) {
        self.stats = AdaptiveStats::default();
    }

    #[inline]
    fn set_index(&self, blk: BlockAddr) -> usize {
        (blk.raw() & self.index_mask) as usize
    }

    /// The way holding `blk` in `set_idx`, if resident: a low-to-high walk
    /// of the set's valid ways.
    #[inline]
    fn find(&self, set_idx: usize, blk: BlockAddr) -> Option<usize> {
        let base = set_idx * self.ways;
        let mut m = self.valid[set_idx];
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            if self.tags[base + w] == blk {
                return Some(w);
            }
            m &= m - 1;
        }
        None
    }

    /// Demotes `core`'s private-LRU blocks to the shared partition until
    /// its private stack fits within `capacity`.
    fn trim_private(&mut self, set_idx: usize, core: CoreId, capacity: u32, now: Cycle) {
        let stack = self.private.get_mut(core, set_idx);
        let shared = &mut self.shared[set_idx];
        while stack.len() > capacity as usize {
            // The loop guard keeps the stack nonempty here.
            let Some(way) = stack.pop_lru() else {
                break;
            };
            shared.push_mru(way);
            self.stats.demotions += 1;
            if S::ENABLED {
                self.sink.emit(
                    now,
                    Event::Demotion {
                        core,
                        set: set_idx as u32,
                    },
                );
            }
        }
    }

    /// Algorithm 1: walk the shared partition from the LRU end and evict
    /// the first block whose owner is over quota; fall back to the global
    /// LRU block (step 8). The block being installed for `requester` is
    /// counted towards the requester's occupancy, so a core already at
    /// quota evicts its own LRU-most block rather than an innocent
    /// neighbor's.
    fn find_victim(&self, set_idx: usize, requester: CoreId) -> (usize, bool) {
        let base = set_idx * self.ways;
        let shared = &self.shared[set_idx];
        if self.engine.use_algorithm1() {
            for way in shared.iter_from_lru() {
                let owner = self.owners[base + way as usize];
                let incoming = u32::from(owner == requester);
                if self.owned.get(owner, set_idx) + incoming > self.engine.quota(owner) {
                    return (way as usize, true);
                }
            }
        }
        // `ensure_shared_nonempty` ran before this; way 0 is a defensive
        // fallback for a corrupted partition, caught by the Invariant audit.
        (shared.lru().map_or(0, usize::from), false)
    }

    /// Ensures the shared partition is nonempty by demoting from the most
    /// over-subscribed private partition. Needed only in the transient
    /// after quota shrinks (lazy repartitioning can leave every way
    /// privately labeled).
    fn ensure_shared_nonempty(&mut self, set_idx: usize, now: Cycle) {
        if !self.shared[set_idx].is_empty() {
            return;
        }
        let mut best: Option<(CoreId, i64)> = None;
        for i in 0..self.cores {
            let c = CoreId::from_index(i as u8);
            let over =
                self.private.get(c, set_idx).len() as i64 - self.engine.private_capacity(c) as i64;
            if best.is_none_or(|(_, b)| over > b) {
                best = Some((c, over));
            }
        }
        let Some((core, _)) = best else {
            return; // zero cores cannot occur; nothing to demote
        };
        if let Some(way) = self.private.get_mut(core, set_idx).pop_lru() {
            self.shared[set_idx].push_mru(way);
            self.stats.demotions += 1;
            if S::ENABLED {
                self.sink.emit(
                    now,
                    Event::Demotion {
                        core,
                        set: set_idx as u32,
                    },
                );
            }
        }
    }

    fn install(
        &mut self,
        set_idx: usize,
        way: usize,
        blk: BlockAddr,
        dirty: bool,
        core: CoreId,
        now: Cycle,
    ) {
        let capacity = self.engine.private_capacity(core);
        let base = set_idx * self.ways;
        let bit = 1u32 << way;
        // Sole ownership/validity mutation point: keep the incremental
        // per-core occupancy counters exact here and nowhere else.
        if self.valid[set_idx] & bit != 0 {
            let old_owner = self.owners[base + way];
            let n = self.owned.get_mut(old_owner, set_idx);
            *n = n.saturating_sub(1);
        } else {
            self.valid[set_idx] |= bit;
        }
        *self.owned.get_mut(core, set_idx) += 1;
        self.tags[base + way] = blk;
        self.owners[base + way] = core;
        self.dirty[set_idx] = (self.dirty[set_idx] & !bit) | (u32::from(dirty) << way);
        if capacity == 0 {
            // Quota-1 cores live entirely in the shared partition but are
            // still guaranteed this one block (Section 2.4).
            self.shared[set_idx].push_mru(way as u8);
        } else {
            self.private.get_mut(core, set_idx).push_mru(way as u8);
            self.trim_private(set_idx, core, capacity, now);
        }
    }

    /// Measures how many blocks each core currently holds across the
    /// whole cache, split into private-partition and shared-partition
    /// residency — the physical realization of the quotas.
    pub fn occupancy(&self) -> Vec<OccupancyRow> {
        let mut rows: Vec<OccupancyRow> = (0..self.cores)
            .map(|i| OccupancyRow {
                core: CoreId::from_index(i as u8),
                private_blocks: 0,
                shared_blocks: 0,
            })
            .collect();
        for (c, row) in rows.iter_mut().enumerate() {
            row.private_blocks = self
                .private
                .row(CoreId::from_index(c as u8))
                .iter()
                .map(|s| s.len() as u64)
                .sum();
        }
        for (set_idx, shared) in self.shared.iter().enumerate() {
            let base = set_idx * self.ways;
            for way in shared.iter_from_mru() {
                let owner = self.owners[base + way as usize];
                rows[owner.index()].shared_blocks += 1;
            }
        }
        rows
    }

    /// Emits the structural events of one observed miss: the shadow-tag
    /// tick, the repartition (if any) and the per-epoch snapshot. Called
    /// only when `S::ENABLED`; the occupancy scan is O(sets × ways), so
    /// it must never run on the untraced path.
    fn emit_miss_observation(
        &mut self,
        obs: crate::engine::MissObservation,
        core: CoreId,
        set_idx: usize,
        now: Cycle,
    ) {
        if obs.shadow_hit {
            self.sink.emit(
                now,
                Event::ShadowHit {
                    core,
                    set: set_idx as u32,
                },
            );
        }
        if let Some(r) = obs.repartition {
            self.sink.emit(
                now,
                Event::Repartition {
                    epoch: self.engine.epochs(),
                    gainer: r.gainer,
                    loser: r.loser,
                    gain: r.gain,
                    loss: r.loss,
                    quotas: self.engine.quotas(),
                },
            );
        }
        if obs.epoch_ended {
            let occupancy = self
                .occupancy()
                .into_iter()
                .map(|row| CoreOccupancy {
                    core: row.core,
                    private_blocks: row.private_blocks,
                    shared_blocks: row.shared_blocks,
                })
                .collect();
            self.sink.emit(
                now,
                Event::Epoch {
                    index: self.engine.epochs(),
                    quotas: self.engine.quotas(),
                    occupancy,
                    private_hits: self.stats.private_hits,
                    shared_hits: self.stats.shared_hits,
                    misses: self.stats.misses,
                    demotions: self.stats.demotions,
                    evictions: self.stats.evictions,
                },
            );
        }
    }

    /// Checks structural invariants (every valid block in exactly one
    /// stack, no duplicate tags, quota consistency of the embedded
    /// engine). Bool wrapper over [`Invariant::audit`], kept for test
    /// ergonomics.
    pub fn check_invariants(&self) -> bool {
        self.is_consistent()
    }

    /// Writes the cache arrays, partition stacks, engine and statistics
    /// to a snapshot. Geometry and latencies are reconstructed from
    /// configuration and are not encoded.
    pub(super) fn save_state(&self, w: &mut SnapshotWriter) {
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
        w.put_usize(self.shared.len());
        for rec in &self.shared {
            rec.save_state(w);
        }
        w.put_usize(self.cores);
        for core in CoreId::all(self.cores) {
            for rec in self.private.row(core) {
                rec.save_state(w);
            }
            for &n in self.owned.row(core) {
                w.put_u32(n);
            }
        }
        self.engine.save_state(w);
        w.put_u64(self.stats.private_hits);
        w.put_u64(self.stats.shared_hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.evictions);
        w.put_u64(self.stats.over_quota_evictions);
        w.put_u64(self.stats.demotions);
    }

    /// Restores state written by [`save_state`](Self::save_state) into an
    /// organization built from the same machine configuration:
    /// [`SnapshotError::Mismatch`] on geometry differences.
    pub(super) fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        if r.get_usize()? != self.tags.len() {
            return Err(SnapshotError::Mismatch("adaptive L3 tag array size"));
        }
        for t in &mut self.tags {
            *t = BlockAddr::new(r.get_u64()?);
        }
        if r.get_usize()? != self.owners.len() {
            return Err(SnapshotError::Mismatch("adaptive L3 owner array size"));
        }
        for o in &mut self.owners {
            *o = CoreId::from_index(r.get_u8()?);
        }
        let valid = r.get_u32_vec()?;
        if valid.len() != self.valid.len() {
            return Err(SnapshotError::Mismatch("adaptive L3 set count"));
        }
        self.valid = valid;
        let dirty = r.get_u32_vec()?;
        if dirty.len() != self.dirty.len() {
            return Err(SnapshotError::Mismatch("adaptive L3 set count"));
        }
        self.dirty = dirty;
        if r.get_usize()? != self.shared.len() {
            return Err(SnapshotError::Mismatch("adaptive L3 recency array size"));
        }
        for rec in &mut self.shared {
            rec.load_state(r)?;
        }
        if r.get_usize()? != self.cores {
            return Err(SnapshotError::Mismatch("adaptive L3 core count"));
        }
        for core in CoreId::all(self.cores) {
            for set in 0..self.private.row_len() {
                self.private.get_mut(core, set).load_state(r)?;
            }
            for set in 0..self.owned.row_len() {
                *self.owned.get_mut(core, set) = r.get_u32()?;
            }
        }
        self.engine.load_state(r)?;
        self.stats.private_hits = r.get_u64()?;
        self.stats.shared_hits = r.get_u64()?;
        self.stats.misses = r.get_u64()?;
        self.stats.evictions = r.get_u64()?;
        self.stats.over_quota_evictions = r.get_u64()?;
        self.stats.demotions = r.get_u64()?;
        Ok(())
    }
}

impl<S: Sink> Invariant for AdaptiveL3<S> {
    fn component(&self) -> &'static str {
        "adaptive-l3"
    }

    fn audit(&self) -> Vec<Violation> {
        let mut out = self.engine.audit();
        for (si, (&mask, shared)) in self.valid.iter().zip(&self.shared).enumerate() {
            let base = si * self.ways;
            // `find` walks every set bit, so a valid bit past the last
            // way would index another set's tags.
            let stray = mask & !self.full_mask;
            if stray != 0 {
                out.push(
                    Violation::new(self.component(), "valid bit beyond associativity")
                        .at_set(si)
                        .at_way(stray.trailing_zeros() as usize),
                );
            }
            let mut seen = vec![0u32; self.ways]; // lint:allow(L7): audit is --paranoid only
            for c in 0..self.cores {
                let core = CoreId::from_index(c as u8);
                for w in self.private.get(core, si).iter_from_mru() {
                    match seen.get_mut(w as usize) {
                        Some(count) => *count += 1,
                        None => out.push(
                            Violation::new(
                                self.component(),
                                format!("stack references way {w} beyond associativity"),
                            )
                            .at_set(si)
                            .at_way(usize::from(w))
                            .for_core(c),
                        ),
                    }
                }
            }
            for w in shared.iter_from_mru() {
                match seen.get_mut(w as usize) {
                    Some(count) => *count += 1,
                    None => out.push(
                        Violation::new(
                            self.component(),
                            format!("stack references way {w} beyond associativity"),
                        )
                        .at_set(si)
                        .at_way(usize::from(w)),
                    ),
                }
            }
            for (w, &count) in seen.iter().enumerate() {
                let valid = mask & (1 << w) != 0;
                let expected = u32::from(valid);
                if count != expected {
                    out.push(
                        Violation::new(
                            self.component(),
                            if valid {
                                format!("valid block appears in {count} stacks, expected exactly 1")
                            } else {
                                format!("invalid block appears in {count} stacks, expected 0")
                            },
                        )
                        .at_set(si)
                        .at_way(w)
                        .for_core(self.owners[base + w].index()),
                    );
                }
            }
            // Cross-check the incremental occupancy counters against a
            // full recount — the counters feed Algorithm 1's quota
            // comparison, so drift here would silently change victims.
            let mut recount = vec![0u32; self.cores]; // lint:allow(L7): audit is --paranoid only
            for w in 0..self.ways {
                if mask & (1 << w) != 0 {
                    if let Some(n) = recount.get_mut(self.owners[base + w].index()) {
                        *n += 1;
                    }
                }
            }
            for (ci, &rec) in recount.iter().enumerate() {
                let inc = *self.owned.get(CoreId::from_index(ci as u8), si);
                if inc != rec {
                    out.push(
                        Violation::new(
                            self.component(),
                            format!("incremental owned counter {inc} != {rec} blocks recounted"),
                        )
                        .at_set(si)
                        .for_core(ci),
                    );
                }
            }
            for i in 0..self.ways {
                for j in (i + 1)..self.ways {
                    if mask & (1 << i) != 0
                        && mask & (1 << j) != 0
                        && self.tags[base + i] == self.tags[base + j]
                    {
                        out.push(
                            Violation::new(
                                self.component(),
                                format!(
                                    "duplicate tag {:#x} (also in way {i})",
                                    self.tags[base + j].raw()
                                ),
                            )
                            .at_set(si)
                            .at_way(j),
                        );
                    }
                }
            }
        }
        out
    }
}

impl<S: Sink> AdaptiveL3<S> {
    /// Serves `core`'s access to `addr` at `now` (Section 2.3's private
    /// hit, shared hit and miss), fetching a missing line over `memory`.
    pub(super) fn access(
        &mut self,
        memory: &mut Memory<S>,
        core: CoreId,
        addr: Address,
        write: bool,
        now: Cycle,
    ) -> L3Outcome {
        let blk = addr.block(self.offset_bits);
        let set_idx = self.set_index(blk);

        if let Some(way) = self.find(set_idx, blk) {
            let way8 = way as u8;
            self.dirty[set_idx] |= u32::from(write) << way;
            let private = self.private.get_mut(core, set_idx);
            if private.contains(way8) {
                // Phase-1 tag match: fast private hit.
                if private.is_lru(way8) {
                    self.engine.record_lru_hit(core);
                    if S::ENABLED {
                        self.sink.emit(now, Event::LruHit { core });
                    }
                }
                self.private.get_mut(core, set_idx).touch(way8);
                self.stats.private_hits += 1;
                return L3Outcome {
                    data_ready: now + self.private_latency,
                    source: L3Source::LocalHit,
                };
            }
            // Phase-2 match: the block sits outside the requester's
            // private partition. With parallel (read-shared) workloads it
            // may live in *another core's* private partition — §2.3: "to
            // locate a block in the cache, the partitioning does not
            // matter" — in which case it is served at the neighbor
            // latency and left where it is (the owner keeps its
            // protection).
            if !self.shared[set_idx].contains(way8) {
                self.stats.shared_hits += 1;
                return L3Outcome {
                    data_ready: now + self.shared_latency,
                    source: L3Source::RemoteHit,
                };
            }
            // Otherwise it is in the shared partition (possibly
            // physically in a neighbor's slice): swap it into the
            // requester's private partition, demoting the private-LRU
            // block.
            let capacity = self.engine.private_capacity(core);
            if capacity > 0 {
                self.shared[set_idx].remove(way8);
                self.private.get_mut(core, set_idx).push_mru(way8);
                self.trim_private(set_idx, core, capacity, now);
            } else {
                self.shared[set_idx].touch(way8);
            }
            self.stats.shared_hits += 1;
            return L3Outcome {
                data_ready: now + self.shared_latency,
                source: L3Source::RemoteHit,
            };
        }

        // Miss: gain estimation, re-evaluation tick, fetch and install.
        let obs = self.engine.observe_miss(set_idx, core, blk);
        self.stats.misses += 1;
        if S::ENABLED {
            self.emit_miss_observation(obs, core, set_idx, now);
        }
        let data_ready = memory.fetch(core, now, false);

        // The free-way pick only triggers during cold fill; a full valid
        // mask short-circuits it in the steady state.
        let free = !self.valid[set_idx] & self.full_mask;
        let victim_way = if free != 0 {
            free.trailing_zeros() as usize
        } else {
            self.ensure_shared_nonempty(set_idx, now);
            let (way, over_quota) = self.find_victim(set_idx, core);
            let base = set_idx * self.ways;
            let victim_owner = self.owners[base + way];
            let victim_dirty = self.dirty[set_idx] & (1 << way) != 0;
            self.engine
                .record_eviction(set_idx, victim_owner, self.tags[base + way]);
            if victim_dirty {
                memory.writeback(now);
            }
            self.shared[set_idx].remove(way as u8);
            self.stats.evictions += 1;
            if over_quota {
                self.stats.over_quota_evictions += 1;
            }
            if S::ENABLED {
                self.sink.emit(
                    now,
                    Event::SharedEviction {
                        set: set_idx as u32,
                        owner: victim_owner,
                        over_quota,
                    },
                );
            }
            way
        };

        self.install(set_idx, victim_way, blk, write, core, now);
        L3Outcome {
            data_ready,
            source: L3Source::Memory,
        }
    }

    /// Absorbs an L2 writeback of `addr`: a resident block turns dirty,
    /// any other line goes to memory.
    pub(super) fn writeback(&mut self, memory: &mut Memory<S>, addr: Address, now: Cycle) {
        let blk = addr.block(self.offset_bits);
        let set_idx = self.set_index(blk);
        if let Some(way) = self.find(set_idx, blk) {
            self.dirty[set_idx] |= 1 << way;
        } else {
            memory.writeback(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MemoryStats;
    use simcore::config::MachineConfigBuilder;
    use std::ops::Deref;

    /// An adaptive organization with its own memory channel, standing in
    /// for the `L3System` that owns both on a chip.
    struct Rig {
        l3: AdaptiveL3,
        memory: Memory<NullSink>,
    }

    impl Rig {
        fn new(cfg: &MachineConfig, params: AdaptiveParams) -> Self {
            Rig {
                l3: AdaptiveL3::new(cfg, params, NullSink),
                memory: Memory::new(cfg, cfg.l3.shared, NullSink),
            }
        }

        fn access(&mut self, core: CoreId, addr: Address, write: bool, now: Cycle) -> L3Outcome {
            self.l3.access(&mut self.memory, core, addr, write, now)
        }

        fn writeback(&mut self, _core: CoreId, addr: Address, now: Cycle) {
            self.l3.writeback(&mut self.memory, addr, now);
        }

        fn memory_stats(&self) -> MemoryStats {
            self.memory.bus.stats()
        }
    }

    impl Deref for Rig {
        type Target = AdaptiveL3;

        fn deref(&self) -> &AdaptiveL3 {
            &self.l3
        }
    }

    fn machine() -> MachineConfig {
        MachineConfig::baseline()
    }

    /// A machine with a tiny L3 (16 sets) so sets overflow quickly.
    fn tiny_machine() -> MachineConfig {
        MachineConfigBuilder::new()
            .l3_capacity(16 * 16 * 64) // 16 sets x 16 ways x 64 B
            .build()
            .unwrap()
    }

    fn c(i: u8) -> CoreId {
        CoreId::from_index(i)
    }

    /// Address mapping to `set` with tag `tag` for the tiny machine.
    fn addr(set: u64, tag: u64) -> Address {
        Address::new((tag * 16 + set) * 64)
    }

    #[test]
    fn miss_then_private_hit() {
        let mut l3 = Rig::new(&machine(), AdaptiveParams::default());
        let a = Address::new(0x8000);
        let out = l3.access(c(0), a, false, Cycle::new(0));
        assert_eq!(out.source, L3Source::Memory);
        assert_eq!(out.data_ready.raw(), 260);
        let out = l3.access(c(0), a, false, Cycle::new(1000));
        assert_eq!(out.source, L3Source::LocalHit);
        assert_eq!(out.data_ready.raw(), 1014);
        assert!(l3.check_invariants());
    }

    #[test]
    fn overflow_demotes_to_shared_and_hits_at_19() {
        let mut l3 = Rig::new(&tiny_machine(), AdaptiveParams::default());
        // Private capacity is 3; the fourth fill demotes the first block.
        for t in 0..4u64 {
            l3.access(c(0), addr(0, t), false, Cycle::new(t * 1000));
        }
        let out = l3.access(c(0), addr(0, 0), false, Cycle::new(10_000));
        assert_eq!(
            out.source,
            L3Source::RemoteHit,
            "demoted block hits in shared partition"
        );
        assert_eq!(out.data_ready.raw(), 10_019);
        assert!(l3.check_invariants());
        assert!(l3.stats().demotions >= 1);
    }

    #[test]
    fn shared_hit_swaps_back_into_private() {
        let mut l3 = Rig::new(&tiny_machine(), AdaptiveParams::default());
        for t in 0..4u64 {
            l3.access(c(0), addr(0, t), false, Cycle::new(t * 1000));
        }
        // Tag 0 now shared; touch it (19 cycles) — it swaps into private.
        l3.access(c(0), addr(0, 0), false, Cycle::new(10_000));
        let out = l3.access(c(0), addr(0, 0), false, Cycle::new(20_000));
        assert_eq!(
            out.source,
            L3Source::LocalHit,
            "swapped block is now private"
        );
        assert!(l3.check_invariants());
    }

    #[test]
    fn cores_cannot_hit_each_others_private_blocks() {
        let mut l3 = Rig::new(&machine(), AdaptiveParams::default());
        // ASID-tagged addresses differ per core, so core 1 misses on the
        // "same" address core 0 loaded.
        let a0 = Address::new(0x8000).with_asid(0);
        let a1 = Address::new(0x8000).with_asid(1);
        l3.access(c(0), a0, false, Cycle::new(0));
        let out = l3.access(c(1), a1, false, Cycle::new(1000));
        assert_eq!(out.source, L3Source::Memory);
    }

    #[test]
    fn eviction_records_shadow_tag_and_gain_counts() {
        let mut l3 = Rig::new(&tiny_machine(), AdaptiveParams::default());
        // Fill set 0 completely from core 0 (16 ways: 3 private + shared).
        for t in 0..16u64 {
            l3.access(c(0), addr(0, t), false, Cycle::new(t * 100));
        }
        // Next fill evicts some block owned by core 0 -> shadow tag set.
        l3.access(c(0), addr(0, 16), false, Cycle::new(10_000));
        assert!(l3.stats().evictions >= 1);
        // A miss on the just-evicted tag increments the gain estimator.
        let victim_before = l3.engine().shadow_hits(c(0));
        // Find which tag was evicted by probing: access all old tags and
        // count shadow hits afterwards.
        for t in 0..16u64 {
            l3.access(c(0), addr(0, t), false, Cycle::new(20_000 + t * 100));
        }
        assert!(l3.engine().shadow_hits(c(0)) > victim_before);
        assert!(l3.check_invariants());
    }

    #[test]
    fn greedy_core_is_bounded_by_quota_under_algorithm1() {
        let mut l3 = Rig::new(&tiny_machine(), AdaptiveParams::default());
        // Core 1 establishes a modest working set in set 0.
        for t in 0..3u64 {
            l3.access(
                c(1),
                addr(0, 100 + t).with_asid(1),
                false,
                Cycle::new(t * 100),
            );
        }
        // Core 0 streams over set 0 far beyond its quota.
        for t in 0..64u64 {
            l3.access(
                c(0),
                addr(0, t).with_asid(0),
                false,
                Cycle::new(1_000 + t * 100),
            );
        }
        // Algorithm 1 should have preferred evicting core 0's over-quota
        // blocks, so core 1's blocks survive.
        let mut survived = 0;
        for t in 0..3u64 {
            let out = l3.access(
                c(1),
                addr(0, 100 + t).with_asid(1),
                false,
                Cycle::new(100_000 + t * 100),
            );
            if out.source != L3Source::Memory {
                survived += 1;
            }
        }
        assert!(
            survived >= 2,
            "protected blocks survived pollution: {survived}/3"
        );
        assert!(l3.stats().over_quota_evictions > 0);
        assert!(l3.check_invariants());
    }

    #[test]
    fn without_algorithm1_pollution_wins() {
        let params = AdaptiveParams {
            use_algorithm1: false,
            // Disable repartitioning so only the victim policy differs.
            reeval_period: u64::MAX,
            ..AdaptiveParams::default()
        };
        let mut l3 = Rig::new(&tiny_machine(), params);
        for t in 0..3u64 {
            l3.access(
                c(1),
                addr(0, 100 + t).with_asid(1),
                false,
                Cycle::new(t * 100),
            );
        }
        for t in 0..64u64 {
            l3.access(
                c(0),
                addr(0, t).with_asid(0),
                false,
                Cycle::new(1_000 + t * 100),
            );
        }
        let mut survived = 0;
        for t in 0..3u64 {
            let out = l3.access(
                c(1),
                addr(0, 100 + t).with_asid(1),
                false,
                Cycle::new(100_000 + t * 100),
            );
            if out.source != L3Source::Memory {
                survived += 1;
            }
        }
        // Core 1's private blocks (3 of them) are protected, but its
        // guaranteed shared block is not; plain LRU lets the streaming
        // core evict the whole shared partition. Private protection still
        // saves the private ones, so survival can be high — the real
        // difference shows in eviction counters.
        let s = l3.stats();
        assert_eq!(s.over_quota_evictions, 0, "Algorithm 1 disabled");
        assert!(survived <= 3);
    }

    #[test]
    fn writeback_marks_dirty_or_goes_to_memory() {
        let mut l3 = Rig::new(&machine(), AdaptiveParams::default());
        let a = Address::new(0x8000);
        l3.access(c(0), a, false, Cycle::new(0));
        let busy = l3.memory_stats().busy_cycles;
        l3.writeback(c(0), a, Cycle::new(100));
        assert_eq!(l3.memory_stats().busy_cycles, busy);
        l3.writeback(c(0), Address::new(0xffff000), Cycle::new(200));
        assert_eq!(l3.memory_stats().busy_cycles, busy + 32);
    }

    #[test]
    fn quota_one_core_lives_in_shared_partition() {
        let params = AdaptiveParams {
            reeval_period: 1,
            ..AdaptiveParams::default()
        };
        let mut l3 = Rig::new(&tiny_machine(), params);
        // Make core 0 the perpetual gainer: cycling over 17 tags in a
        // 16-way set means every eviction is re-referenced one access
        // later — each miss hits the shadow tag.
        for round in 0..2000u64 {
            l3.access(
                c(0),
                addr(0, round % 17).with_asid(0),
                false,
                Cycle::new(round * 50),
            );
        }
        let quotas = l3.quotas();
        assert!(quotas[0] > 4, "gainer grew: {quotas:?}");
        assert!(quotas.iter().all(|&q| q >= 1));
        // A quota-1 core can still cache (one shared block per set).
        let loser = quotas.iter().position(|&q| q == 1);
        if let Some(l) = loser {
            let lc = c(l as u8);
            let a = addr(0, 7777).with_asid(l as u8);
            l3.access(lc, a, false, Cycle::new(1_000_000));
            let out = l3.access(lc, a, false, Cycle::new(1_000_100));
            assert_eq!(out.source, L3Source::RemoteHit);
        }
        assert!(l3.check_invariants());
    }

    #[test]
    fn lazy_repartitioning_never_invalidates() {
        let params = AdaptiveParams {
            reeval_period: 1,
            ..AdaptiveParams::default()
        };
        let mut l3 = Rig::new(&tiny_machine(), params);
        // Core 1 fills private blocks.
        for t in 0..3u64 {
            l3.access(c(1), addr(0, t).with_asid(1), false, Cycle::new(t * 100));
        }
        let before: u64 = (0..3u64)
            .filter(|&t| l3.find(0, addr(0, t).with_asid(1).block(6)).is_some())
            .count() as u64;
        // Shrink core 1's quota via core 0 gains.
        for round in 0..200u64 {
            l3.access(
                c(0),
                addr(1, round).with_asid(0),
                false,
                Cycle::new(10_000 + round * 100),
            );
        }
        let after: u64 = (0..3u64)
            .filter(|&t| l3.find(0, addr(0, t).with_asid(1).block(6)).is_some())
            .count() as u64;
        assert_eq!(before, after, "quota shrink alone never invalidates blocks");
        assert!(l3.check_invariants());
    }

    #[test]
    fn occupancy_tracks_resident_blocks() {
        let mut l3 = Rig::new(&tiny_machine(), AdaptiveParams::default());
        for t in 0..6u64 {
            l3.access(c(0), addr(0, t), false, Cycle::new(t * 100));
        }
        let occ = l3.occupancy();
        assert_eq!(occ[0].total(), 6, "all six fills owned by core 0");
        assert_eq!(occ[0].private_blocks, 3, "private partition capped at 3");
        assert_eq!(occ[0].shared_blocks, 3, "overflow demoted to shared");
        assert_eq!(occ[1].total(), 0);
    }

    #[test]
    fn random_stress_preserves_invariants() {
        use simcore::rng::SimRng;
        let params = AdaptiveParams {
            reeval_period: 50,
            ..AdaptiveParams::default()
        };
        let mut l3 = Rig::new(&tiny_machine(), params);
        let mut rng = SimRng::seed_from(31);
        for i in 0..20_000u64 {
            let core = rng.below(4) as u8;
            let a = addr(rng.below(16), rng.below(40)).with_asid(core);
            l3.access(c(core), a, rng.chance(0.3), Cycle::new(i * 10));
        }
        assert!(l3.check_invariants());
        let s = l3.stats();
        assert!(s.private_hits > 0 && s.shared_hits > 0 && s.misses > 0);
    }
}
