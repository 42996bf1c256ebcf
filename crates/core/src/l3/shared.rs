//! The shared last-level organization: one LRU cache for all cores.
//!
//! Flexible — any core may use the whole 4 MBytes — but every hit costs
//! the full 19 cycles and nothing protects a core's working set from
//! being displaced by its neighbors (the pollution the paper's adaptive
//! scheme controls).

use cachesim::cache::Cache;
use cpusim::l3iface::{L3Outcome, L3Source, LastLevel};
use memsim::{MainMemory, MemoryStats};
use simcore::config::MachineConfig;
use simcore::invariant::{Invariant, Violation};
use simcore::types::{Address, CoreId, Cycle};
use telemetry::{Event, NullSink, Sink};

/// A single shared, LRU-replaced last-level cache.
#[derive(Debug)]
pub struct SharedL3<S: Sink = NullSink> {
    cache: Cache,
    latency: u64,
    memory: MainMemory,
    sink: S,
}

impl SharedL3 {
    /// Creates the untraced shared organization from the machine's L3
    /// geometry.
    pub fn new(cfg: &MachineConfig) -> Self {
        SharedL3::with_sink(cfg, NullSink)
    }
}

impl<S: Sink> SharedL3<S> {
    /// Creates the shared organization emitting telemetry into `sink`.
    pub fn with_sink(cfg: &MachineConfig, sink: S) -> Self {
        SharedL3 {
            cache: Cache::new(cfg.l3.shared),
            latency: cfg.l3.shared.latency(),
            memory: MainMemory::new(cfg.memory, cfg.l3.shared.block_bytes()),
            sink,
        }
    }

    /// The underlying cache (for inspection in tests).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Declares the memory bus idle (warm/timed boundary).
    pub fn quiesce(&mut self, now: Cycle) {
        self.memory.quiesce(now);
    }

    /// Memory-channel statistics.
    pub fn memory_stats(&self) -> MemoryStats {
        self.memory.stats()
    }

    /// Resets statistics at the warm-up boundary.
    pub fn reset_stats(&mut self) {
        self.memory.reset_stats();
        self.cache.reset_stats();
    }

    /// Writes the cache contents and memory-bus state to a snapshot.
    pub fn save_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        self.cache.save_state(w);
        self.memory.save_state(w);
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError`] on geometry mismatch or
    /// decode failure.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        self.cache.load_state(r)?;
        self.memory.load_state(r)
    }
}

impl<S: Sink> Invariant for SharedL3<S> {
    fn component(&self) -> &'static str {
        "shared-l3"
    }

    fn audit(&self) -> Vec<Violation> {
        self.cache.audit()
    }
}

impl<S: Sink> LastLevel for SharedL3<S> {
    fn access(&mut self, core: CoreId, addr: Address, write: bool, now: Cycle) -> L3Outcome {
        if self.cache.access(addr, write, core).is_hit() {
            return L3Outcome {
                data_ready: now + self.latency,
                source: L3Source::RemoteHit,
            };
        }
        let resp = self.memory.request(now, false);
        if S::ENABLED {
            self.sink.emit(
                now,
                Event::MemoryFill {
                    core,
                    queue_delay: resp.queue_delay,
                },
            );
        }
        if let Some(ev) = self.cache.fill(addr, write, core) {
            if S::ENABLED {
                self.sink.emit(now, Event::Eviction { owner: ev.owner });
            }
            if ev.dirty {
                self.memory.writeback(now);
            }
        }
        L3Outcome {
            data_ready: resp.data_ready,
            source: L3Source::Memory,
        }
    }

    fn writeback(&mut self, core: CoreId, addr: Address, now: Cycle) {
        if self.cache.probe(addr) {
            self.cache.fill(addr, true, core);
        } else {
            self.memory.writeback(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SharedL3 {
        SharedL3::new(&MachineConfig::baseline())
    }

    fn c(i: u8) -> CoreId {
        CoreId::from_index(i)
    }

    #[test]
    fn every_hit_costs_19_cycles() {
        let mut s = sys();
        let a = Address::new(0x2000);
        s.access(c(0), a, false, Cycle::new(0));
        let out = s.access(c(0), a, false, Cycle::new(400));
        assert_eq!(out.source, L3Source::RemoteHit);
        assert_eq!(out.data_ready.raw(), 419);
    }

    #[test]
    fn miss_uses_shared_first_chunk() {
        let mut s = sys();
        let out = s.access(c(0), Address::new(0x2000), false, Cycle::new(0));
        assert_eq!(out.data_ready.raw(), 260);
        assert_eq!(out.source, L3Source::Memory);
    }

    #[test]
    fn capacity_is_shared_between_cores() {
        let mut s = sys();
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
        let mut s = SharedL3::new(&cfg);
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
        let mut s = sys();
        let a = Address::new(0x2000);
        s.access(c(0), a, false, Cycle::new(0));
        let busy = s.memory_stats().busy_cycles;
        s.writeback(c(0), a, Cycle::new(50));
        assert_eq!(s.memory_stats().busy_cycles, busy);
        s.writeback(c(0), Address::new(0xdead000), Cycle::new(60));
        assert_eq!(s.memory_stats().busy_cycles, busy + 32);
    }
}
