//! Chang & Sohi's cooperative caching, as the paper implements it for
//! comparison ("random replacement", Section 4.7).
//!
//! Private per-core slices; when a core evicts a block it fetched itself
//! (and the eviction was caused by its own access), the block spills into
//! a *randomly chosen* neighbor slice as MRU. A block that was itself
//! spilled earlier is not re-spilled ("it must earlier have been evicted
//! from cache *b*, and therefore it is not allocated again"), and a spill
//! victim is never forwarded anywhere ("to avoid ripple effects"). On a
//! local miss all neighbor slices are checked in parallel (19 cycles); a
//! remote hit migrates the block back to the local slice.

use cachesim::cache::Cache;
use cachesim::percore::PerCore;
use cpusim::l3iface::{L3Outcome, L3Source};
use simcore::config::MachineConfig;
use simcore::invariant::{Invariant, Violation};
use simcore::rng::SimRng;
use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::types::{Address, CoreId, Cycle};
use telemetry::{Event, NullSink, Sink};

use super::Memory;

/// Statistics specific to the cooperative scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CooperativeStats {
    /// Blocks spilled into a neighbor slice.
    pub spills: u64,
    /// Spill victims silently dropped (the no-ripple rule).
    pub ripple_drops: u64,
    /// Remote hits migrated back to the requester's slice.
    pub migrations: u64,
    /// Once-spilled blocks dropped instead of re-spilled.
    pub respill_drops: u64,
}

/// Cooperative caching over private slices with random spilling.
#[derive(Debug)]
pub struct CooperativeL3<S: Sink = NullSink> {
    slices: PerCore<Cache>,
    rng: SimRng,
    cores: usize,
    local_latency: u64,
    neighbor_latency: u64,
    stats: CooperativeStats,
    sink: S,
}

impl<S: Sink> CooperativeL3<S> {
    /// Builds the cooperative organization emitting telemetry into
    /// `sink`.
    pub(super) fn new(cfg: &MachineConfig, seed: u64, sink: S) -> Self {
        CooperativeL3 {
            slices: PerCore::from_fn(cfg.cores, |_| Cache::new(cfg.l3.private)),
            rng: SimRng::seed_from(seed ^ 0xc0de_cafe),
            cores: cfg.cores,
            local_latency: cfg.l3.private.latency(),
            neighbor_latency: cfg.l3.neighbor_latency,
            stats: CooperativeStats::default(),
            sink,
        }
    }

    /// Scheme-specific statistics.
    pub fn stats(&self) -> CooperativeStats {
        self.stats
    }

    /// Resets statistics at the warm-up boundary.
    pub(super) fn reset_stats(&mut self) {
        self.stats = CooperativeStats::default();
        for s in self.slices.iter_mut() {
            s.reset_stats();
        }
    }

    /// Writes the slice contents, spill RNG and statistics to a
    /// snapshot.
    pub(super) fn save_state(&self, w: &mut SnapshotWriter) {
        for slice in self.slices.iter() {
            slice.save_state(w);
        }
        self.rng.save_state(w);
        w.put_u64(self.stats.spills);
        w.put_u64(self.stats.ripple_drops);
        w.put_u64(self.stats.migrations);
        w.put_u64(self.stats.respill_drops);
    }

    /// Restores state written by [`save_state`](Self::save_state).
    pub(super) fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        for slice in self.slices.iter_mut() {
            slice.load_state(r)?;
        }
        self.rng.load_state(r)?;
        self.stats.spills = r.get_u64()?;
        self.stats.ripple_drops = r.get_u64()?;
        self.stats.migrations = r.get_u64()?;
        self.stats.respill_drops = r.get_u64()?;
        Ok(())
    }

    fn random_neighbor(&mut self, of: CoreId) -> CoreId {
        let pick = self.rng.below(self.cores as u64 - 1) as usize;
        let idx = if pick >= of.index() { pick + 1 } else { pick };
        CoreId::from_index(idx as u8)
    }

    /// Applies the spill rules to a block evicted from `core`'s slice by
    /// `core`'s own access.
    fn handle_eviction(
        &mut self,
        memory: &mut Memory<S>,
        core: CoreId,
        ev: cachesim::cache::EvictedBlock,
        now: Cycle,
    ) {
        let offset_bits = self.slices[core].geometry().offset_bits();
        if ev.owner == core {
            // Loaded by this core: spill to a random neighbor as MRU.
            let neighbor = self.random_neighbor(core);
            let addr = ev.addr.first_byte(offset_bits);
            self.stats.spills += 1;
            if S::ENABLED {
                self.sink.emit(
                    now,
                    Event::Spill {
                        from: core,
                        to: neighbor,
                    },
                );
            }
            if let Some(victim) = self.slices[neighbor].fill(addr, ev.dirty, ev.owner) {
                // The neighbor's displaced block is dropped — no ripple.
                self.stats.ripple_drops += 1;
                if S::ENABLED {
                    self.sink.emit(
                        now,
                        Event::Eviction {
                            owner: victim.owner,
                        },
                    );
                }
                if victim.dirty {
                    memory.writeback(now);
                }
            }
        } else {
            // A once-spilled block is not allocated again.
            self.stats.respill_drops += 1;
            if S::ENABLED {
                self.sink.emit(now, Event::Eviction { owner: ev.owner });
            }
            if ev.dirty {
                memory.writeback(now);
            }
        }
    }
}

impl<S: Sink> Invariant for CooperativeL3<S> {
    fn component(&self) -> &'static str {
        "cooperative-l3"
    }

    fn audit(&self) -> Vec<Violation> {
        self.slices
            .iter()
            .enumerate()
            .flat_map(|(i, slice)| {
                slice.audit().into_iter().map(move |mut v| {
                    v.core.get_or_insert(i);
                    v
                })
            })
            .collect()
    }
}

impl<S: Sink> CooperativeL3<S> {
    /// Serves `core`'s access to `addr` at `now`: a local hit, a neighbor
    /// hit migrated home, or a line fetched over `memory`.
    pub(super) fn access(
        &mut self,
        memory: &mut Memory<S>,
        core: CoreId,
        addr: Address,
        write: bool,
        now: Cycle,
    ) -> L3Outcome {
        if self.slices[core].access(addr, write, core).is_hit() {
            return L3Outcome {
                data_ready: now + self.local_latency,
                source: L3Source::LocalHit,
            };
        }
        // Check all neighbors in parallel.
        for i in 0..self.cores {
            let neighbor = CoreId::from_index(i as u8);
            if neighbor == core {
                continue;
            }
            if self.slices[neighbor].probe(addr) {
                // The probe just found the block, so invalidate returns it;
                // skip the neighbor defensively if the slice disagrees.
                let Some(meta) = self.slices[neighbor].invalidate(addr) else {
                    continue;
                };
                self.stats.migrations += 1;
                // Migrate home: the requester becomes the owner again.
                if let Some(ev) = self.slices[core].fill(addr, meta.dirty || write, core) {
                    self.handle_eviction(memory, core, ev, now);
                }
                return L3Outcome {
                    data_ready: now + self.neighbor_latency,
                    source: L3Source::RemoteHit,
                };
            }
        }
        // Miss: fetch from memory (260-cycle first chunk — the global
        // lookup precedes the memory access).
        let data_ready = memory.fetch(core, now, false);
        if let Some(ev) = self.slices[core].fill(addr, write, core) {
            self.handle_eviction(memory, core, ev, now);
        }
        L3Outcome {
            data_ready,
            source: L3Source::Memory,
        }
    }

    /// Absorbs an L2 writeback of `addr`: the block turns dirty in
    /// whichever slice holds it, any other line goes to memory.
    pub(super) fn writeback(&mut self, memory: &mut Memory<S>, addr: Address, now: Cycle) {
        for i in 0..self.cores {
            let c = CoreId::from_index(i as u8);
            if self.slices[c].probe(addr) {
                if let Some(owner) = self.slices[c].owner_of(addr) {
                    self.slices[c].fill(addr, true, owner);
                    return;
                }
            }
        }
        memory.writeback(now);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{L3System, Organization};
    use super::*;
    use cpusim::l3iface::LastLevel;
    use simcore::config::MachineConfigBuilder;

    /// Tiny slices: 4 sets x 4 ways each, 4 cores.
    fn tiny() -> L3System {
        let cfg = MachineConfigBuilder::new()
            .l3_capacity(4 * 4 * 4 * 64)
            .build()
            .unwrap();
        L3System::build(Organization::Cooperative { seed: 7 }, &cfg).unwrap()
    }

    fn stats(l3: &L3System) -> CooperativeStats {
        l3.as_cooperative().unwrap().stats()
    }

    fn c(i: u8) -> CoreId {
        CoreId::from_index(i)
    }

    /// Address in set `set` with tag `tag` for the tiny slices (4 sets).
    fn addr(set: u64, tag: u64, asid: u8) -> Address {
        Address::new((tag * 4 + set) * 64).with_asid(asid)
    }

    #[test]
    fn local_hit_is_fast() {
        let mut l3 = tiny();
        let a = addr(0, 1, 0);
        l3.access(c(0), a, false, Cycle::new(0));
        let out = l3.access(c(0), a, false, Cycle::new(1000));
        assert_eq!(out.source, L3Source::LocalHit);
        assert_eq!(out.data_ready.raw(), 1014);
    }

    #[test]
    fn eviction_spills_to_neighbor_and_remote_hit_migrates_back() {
        let mut l3 = tiny();
        // Fill set 0 of core 0's slice (4 ways) plus one more: the LRU
        // block spills to some neighbor.
        for t in 0..5u64 {
            l3.access(c(0), addr(0, t, 0), false, Cycle::new(t * 1000));
        }
        assert_eq!(stats(&l3).spills, 1);
        // Tag 0 was evicted and spilled: a new access hits remotely.
        let out = l3.access(c(0), addr(0, 0, 0), false, Cycle::new(100_000));
        assert_eq!(out.source, L3Source::RemoteHit);
        assert_eq!(stats(&l3).migrations, 1);
        // And it is now local again.
        let out = l3.access(c(0), addr(0, 0, 0), false, Cycle::new(200_000));
        assert_eq!(out.source, L3Source::LocalHit);
    }

    #[test]
    fn spilled_blocks_are_not_respilled() {
        let mut l3 = tiny();
        // Core 0 streams enough tags through set 0 that spilled blocks in
        // neighbor slices get evicted by further spills; those victims
        // must be dropped, not forwarded.
        for t in 0..64u64 {
            l3.access(c(0), addr(0, t, 0), false, Cycle::new(t * 1000));
        }
        let s = stats(&l3);
        assert!(s.spills > 10);
        // Spill victims displaced by later spills are dropped without
        // rippling (counted either as ripple drops at fill time or as
        // respill drops when the owner differs).
        assert!(s.ripple_drops + s.respill_drops > 0);
    }

    #[test]
    fn neighbor_blocks_evicted_by_spills_do_not_ripple() {
        let mut l3 = tiny();
        // Give each neighbor slice a full set 0 so spills displace.
        for i in 1..4u8 {
            for t in 0..4u64 {
                l3.access(c(i), addr(0, 100 + t, i), false, Cycle::new(t));
            }
        }
        let before = stats(&l3).spills;
        for t in 0..12u64 {
            l3.access(c(0), addr(0, t, 0), false, Cycle::new(10_000 + t * 1000));
        }
        let s = stats(&l3);
        assert!(s.spills > before);
        assert!(s.ripple_drops > 0, "displaced neighbor blocks were dropped");
    }

    #[test]
    fn miss_pays_shared_first_chunk() {
        let mut l3 = tiny();
        let out = l3.access(c(0), addr(0, 0, 0), false, Cycle::new(0));
        assert_eq!(out.data_ready.raw(), 260);
    }

    #[test]
    fn writeback_finds_block_wherever_it_lives() {
        let mut l3 = tiny();
        for t in 0..5u64 {
            l3.access(c(0), addr(0, t, 0), false, Cycle::new(t * 1000));
        }
        // Tag 0 lives in a neighbor slice now; a writeback must not go to
        // memory.
        let busy = l3.memory_stats().busy_cycles;
        l3.writeback(c(0), addr(0, 0, 0), Cycle::new(50_000));
        assert_eq!(l3.memory_stats().busy_cycles, busy);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut l3 = tiny();
            for t in 0..100u64 {
                l3.access(
                    c((t % 4) as u8),
                    addr(t % 4, t / 4, (t % 4) as u8),
                    false,
                    Cycle::new(t * 10),
                );
            }
            stats(&l3)
        };
        assert_eq!(run(), run());
    }
}
