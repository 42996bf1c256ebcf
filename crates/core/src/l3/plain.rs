//! The plain last-level organizations: LRU slices with no sharing policy.
//!
//! - **Private**: one isolated slice per core. The baseline the paper
//!   compares everything against: "the performance of such an
//!   organization is quite predictable and well understood". Hits cost
//!   14 cycles; misses go straight to memory with the 258-cycle first
//!   chunk (two cycles less than the shared organizations, which must
//!   complete a global lookup first). With a scaled or custom geometry
//!   it is also the "4 x size private" yardstick of Figures 7–9 and the
//!   Figure 3 blocks-per-set sweep.
//! - **Shared**: one LRU cache for all cores. Flexible — any core may use
//!   the whole 4 MBytes — but every hit costs the full 19 cycles and
//!   nothing protects a core's working set from being displaced by its
//!   neighbors (the pollution the paper's adaptive scheme controls).

use cachesim::cache::Cache;
use cpusim::l3iface::{L3Outcome, L3Source};
use simcore::config::{CacheGeometry, MachineConfig};
use simcore::invariant::{Invariant, Violation};
use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::types::{Address, CoreId, Cycle};
use telemetry::{Event, Sink};

use super::Memory;

/// Per-core private slices, or one slice shared by every core.
#[derive(Debug)]
pub(super) struct PlainL3<S: Sink> {
    /// One slice per core when private, else the one shared slice.
    slices: Vec<Cache>,
    latency: u64,
    private: bool,
    sink: S,
}

impl<S: Sink> PlainL3<S> {
    /// Slices of `geometry`: one per core when `private`, else one for
    /// everyone.
    pub(super) fn new(
        cfg: &MachineConfig,
        geometry: CacheGeometry,
        private: bool,
        sink: S,
    ) -> Self {
        let slices = if private { cfg.cores } else { 1 };
        PlainL3 {
            slices: (0..slices).map(|_| Cache::new(geometry)).collect(),
            latency: geometry.latency(),
            private,
            sink,
        }
    }

    /// Whether each core owns a slice.
    pub(super) fn is_private(&self) -> bool {
        self.private
    }

    /// The slice `core` looks up.
    #[inline]
    fn slice(&mut self, core: CoreId) -> &mut Cache {
        let i = if self.private { core.index() } else { 0 };
        &mut self.slices[i]
    }

    /// Resets the slices' statistics at the warm-up boundary.
    pub(super) fn reset_stats(&mut self) {
        for s in &mut self.slices {
            s.reset_stats();
        }
    }

    /// Writes the slice contents to a snapshot.
    pub(super) fn save_state(&self, w: &mut SnapshotWriter) {
        for slice in &self.slices {
            slice.save_state(w);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state).
    pub(super) fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        for slice in &mut self.slices {
            slice.load_state(r)?;
        }
        Ok(())
    }

    /// Serves `core`'s access to `addr` at `now` from its slice, fetching
    /// a missing line over `memory`.
    pub(super) fn access(
        &mut self,
        memory: &mut Memory<S>,
        core: CoreId,
        addr: Address,
        write: bool,
        now: Cycle,
    ) -> L3Outcome {
        if self.slice(core).access(addr, write, core).is_hit() {
            return L3Outcome {
                data_ready: now + self.latency,
                source: if self.private {
                    L3Source::LocalHit
                } else {
                    L3Source::RemoteHit
                },
            };
        }
        let data_ready = memory.fetch(core, now, self.private);
        if let Some(ev) = self.slice(core).fill(addr, write, core) {
            if S::ENABLED {
                self.sink.emit(now, Event::Eviction { owner: ev.owner });
            }
            if ev.dirty {
                memory.writeback(now);
            }
        }
        L3Outcome {
            data_ready,
            source: L3Source::Memory,
        }
    }

    /// Absorbs an L2 writeback of `addr`: a resident block turns dirty,
    /// any other line goes to memory.
    pub(super) fn writeback(
        &mut self,
        memory: &mut Memory<S>,
        core: CoreId,
        addr: Address,
        now: Cycle,
    ) {
        let slice = self.slice(core);
        if slice.probe(addr) {
            slice.fill(addr, true, core); // merge the dirty bit
        } else {
            memory.writeback(now);
        }
    }
}

impl<S: Sink> Invariant for PlainL3<S> {
    fn component(&self) -> &'static str {
        if self.private {
            "private-l3"
        } else {
            "shared-l3"
        }
    }

    fn audit(&self) -> Vec<Violation> {
        let private = self.private;
        self.slices
            .iter()
            .enumerate()
            .flat_map(|(i, slice)| {
                slice.audit().into_iter().map(move |mut v| {
                    if private {
                        v.core.get_or_insert(i);
                    }
                    v
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{L3System, Organization};
    use cpusim::l3iface::{L3Source, LastLevel};
    use simcore::config::{CacheGeometry, MachineConfig};
    use simcore::types::{Address, CoreId, Cycle};

    fn private() -> L3System {
        L3System::build(Organization::Private, &MachineConfig::baseline()).unwrap()
    }

    fn shared() -> L3System {
        L3System::build(Organization::Shared, &MachineConfig::baseline()).unwrap()
    }

    fn c(i: u8) -> CoreId {
        CoreId::from_index(i)
    }

    #[test]
    fn hit_costs_14_cycles() {
        let mut p = private();
        let a = Address::new(0x1000);
        p.access(c(0), a, false, Cycle::new(0));
        let out = p.access(c(0), a, false, Cycle::new(500));
        assert_eq!(out.source, L3Source::LocalHit);
        assert_eq!(out.data_ready.raw(), 514);
    }

    #[test]
    fn miss_uses_private_first_chunk() {
        let mut p = private();
        let out = p.access(c(0), Address::new(0x1000), false, Cycle::new(0));
        assert_eq!(out.source, L3Source::Memory);
        assert_eq!(out.data_ready.raw(), 258);
    }

    #[test]
    fn slices_are_isolated() {
        let mut p = private();
        let a = Address::new(0x1000);
        p.access(c(0), a, false, Cycle::new(0));
        // Same address from core 1 misses: no sharing whatsoever.
        let out = p.access(c(1), a, false, Cycle::new(500));
        assert_eq!(out.source, L3Source::Memory);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let cfg = MachineConfig::baseline();
        // Tiny slice: 1 set x 2 ways.
        let geometry = CacheGeometry::new(128, 2, 64, 14).unwrap();
        let mut p = L3System::build(Organization::PrivateCustom { geometry }, &cfg).unwrap();
        p.access(c(0), Address::new(0x000), true, Cycle::new(0));
        p.access(c(0), Address::new(0x040), false, Cycle::new(1000));
        let before = p.memory_stats().busy_cycles;
        p.access(c(0), Address::new(0x080), false, Cycle::new(2000)); // evicts dirty 0x000
        assert!(
            p.memory_stats().busy_cycles > before + 32,
            "writeback occupied the bus"
        );
    }

    #[test]
    fn l2_writeback_to_absent_block_goes_to_memory() {
        let mut p = private();
        let before = p.memory_stats().busy_cycles;
        p.writeback(c(0), Address::new(0x9000), Cycle::new(0));
        assert_eq!(p.memory_stats().busy_cycles, before + 32);
    }

    #[test]
    fn l2_writeback_to_resident_block_stays_on_chip() {
        let mut p = private();
        let a = Address::new(0x1000);
        p.access(c(0), a, false, Cycle::new(0));
        let busy = p.memory_stats().busy_cycles;
        p.writeback(c(0), a, Cycle::new(100));
        assert_eq!(p.memory_stats().busy_cycles, busy, "no bus traffic");
    }

    #[test]
    fn every_hit_costs_19_cycles() {
        let mut s = shared();
        let a = Address::new(0x2000);
        s.access(c(0), a, false, Cycle::new(0));
        let out = s.access(c(0), a, false, Cycle::new(400));
        assert_eq!(out.source, L3Source::RemoteHit);
        assert_eq!(out.data_ready.raw(), 419);
    }

    #[test]
    fn miss_uses_shared_first_chunk() {
        let mut s = shared();
        let out = s.access(c(0), Address::new(0x2000), false, Cycle::new(0));
        assert_eq!(out.data_ready.raw(), 260);
        assert_eq!(out.source, L3Source::Memory);
    }

    #[test]
    fn capacity_is_shared_between_cores() {
        let mut s = shared();
        let a = Address::new(0x2000);
        s.access(c(0), a, false, Cycle::new(0));
        // Core 1 hits the block core 0 fetched (same address space in
        // this raw test; the CMP layer would tag with ASIDs).
        let out = s.access(c(1), a, false, Cycle::new(100));
        assert_eq!(out.source, L3Source::RemoteHit);
    }

    #[test]
    fn pollution_is_possible() {
        // A neighbor streaming over a set evicts core 0's block: the
        // situation the adaptive scheme prevents.
        let cfg = MachineConfig::baseline();
        let mut s = shared();
        let sets = cfg.l3.shared.sets();
        let a = Address::new(0x0);
        s.access(c(0), a, false, Cycle::new(0));
        for i in 1..=16u64 {
            let conflicting = Address::new(i * sets * 64); // same set, new tags
            s.access(c(1), conflicting, false, Cycle::new(i));
        }
        let out = s.access(c(0), a, false, Cycle::new(10_000));
        assert_eq!(out.source, L3Source::Memory, "block was polluted away");
    }

    #[test]
    fn writeback_paths() {
        let mut s = shared();
        let a = Address::new(0x2000);
        s.access(c(0), a, false, Cycle::new(0));
        let busy = s.memory_stats().busy_cycles;
        s.writeback(c(0), a, Cycle::new(50));
        assert_eq!(s.memory_stats().busy_cycles, busy);
        s.writeback(c(0), Address::new(0xdead000), Cycle::new(60));
        assert_eq!(s.memory_stats().busy_cycles, busy + 32);
    }
}
