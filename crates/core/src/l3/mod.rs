//! The last-level cache organizations evaluated by the paper.
//!
//! All of them manage the same silicon — per-core slices that together
//! form the aggregate L3 capacity of Table 1 — and share the chip's one
//! memory channel, but differ in who may use which blocks:
//!
//! - *Private* and *shared* ([`Organization::Private`],
//!   [`Organization::Shared`]): plain LRU slices, either one per core
//!   (14-cycle local hits, 258-cycle memory) or one for everyone
//!   (19-cycle hits, 260-cycle memory).
//! - [`CooperativeL3`]: Chang & Sohi's scheme as described in §4.7 —
//!   private slices that spill evicted blocks into a random neighbor,
//!   with uncontrolled sharing ("random replacement").
//! - [`AdaptiveL3`]: the paper's contribution — private slices with a
//!   controlled shared partition, quota-driven replacement (Algorithm 1)
//!   and the sharing engine adjusting quotas online.
//!
//! [`Organization`] describes which to build; [`L3System`] is the only
//! way to build one. It owns the memory channel, hands it to the
//! organization on every access and writeback, and plugs into the cores
//! via [`cpusim::l3iface::LastLevel`].

mod adaptive;
mod cooperative;
mod plain;

pub use adaptive::{AdaptiveL3, AdaptiveStats, OccupancyRow};
pub use cooperative::{CooperativeL3, CooperativeStats};

use cpusim::l3iface::{L3Outcome, LastLevel};
use memsim::{MainMemory, MemoryStats};
use simcore::config::{CacheGeometry, MachineConfig};
use simcore::error::Result;
use simcore::invariant::{Invariant, Violation};
use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::types::{Address, CoreId, Cycle};
use telemetry::{Event, NullSink, Sink};

use crate::engine::AdaptiveParams;
use plain::PlainL3;

/// Which last-level organization to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Organization {
    /// Per-core private slices (Table 1: 1 MByte 4-way, 14 cycles).
    Private,
    /// Private slices with `factor` times the capacity — the "4 x size
    /// private" yardstick of Figures 7–9 (same timing model).
    PrivateScaled {
        /// Capacity multiplier per slice.
        factor: u64,
    },
    /// Private slices with an explicit geometry (used by the Figure 3
    /// blocks-per-set sweep).
    PrivateCustom {
        /// Slice geometry.
        geometry: CacheGeometry,
    },
    /// One shared LRU cache (Table 1: 4 MByte 16-way, 19 cycles).
    Shared,
    /// The paper's adaptive shared/private NUCA scheme.
    Adaptive(AdaptiveParams),
    /// Chang & Sohi's cooperative caching ("random replacement", §4.7).
    Cooperative {
        /// Seed for the random neighbor choice.
        seed: u64,
    },
}

impl Organization {
    /// The adaptive scheme with the paper's default parameters.
    pub fn adaptive() -> Self {
        Organization::Adaptive(AdaptiveParams::default())
    }

    /// A short label for tables ("private", "shared", "adaptive", ...).
    pub fn label(&self) -> &'static str {
        match self {
            Organization::Private => "private",
            Organization::PrivateScaled { .. } => "private-scaled",
            Organization::PrivateCustom { .. } => "private-custom",
            Organization::Shared => "shared",
            Organization::Adaptive(_) => "adaptive",
            Organization::Cooperative { .. } => "cooperative",
        }
    }
}

/// The chip's one memory channel: the off-chip bus every organization
/// fetches lines and writes dirty victims through, and the
/// [`Event::MemoryFill`] each line fetch emits.
#[derive(Debug)]
struct Memory<S: Sink> {
    bus: MainMemory,
    sink: S,
}

impl<S: Sink> Memory<S> {
    /// A channel for `geometry`'s lines.
    fn new(cfg: &MachineConfig, geometry: CacheGeometry, sink: S) -> Self {
        Memory {
            bus: MainMemory::new(cfg.memory, geometry.block_bytes()),
            sink,
        }
    }

    /// Fetches the line `core` missed on at `now` and returns when its
    /// first chunk arrives. `private_org` selects the 258-cycle first
    /// chunk of per-core slices, which skip the global lookup; every
    /// other organization pays 260 cycles.
    fn fetch(&mut self, core: CoreId, now: Cycle, private_org: bool) -> Cycle {
        let resp = self.bus.request(now, private_org);
        if S::ENABLED {
            self.sink.emit(
                now,
                Event::MemoryFill {
                    core,
                    queue_delay: resp.queue_delay,
                },
            );
        }
        resp.data_ready
    }

    /// Writes a dirty line back: it occupies the bus, nothing waits on it.
    fn writeback(&mut self, now: Cycle) {
        self.bus.writeback(now);
    }
}

/// The organization an [`L3System`] drives. One exists per chip, so
/// the size difference between variants is irrelevant.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Org<S: Sink> {
    /// Private or shared LRU slices.
    Plain(PlainL3<S>),
    /// The adaptive scheme.
    Adaptive(AdaptiveL3<S>),
    /// Cooperative caching.
    Cooperative(CooperativeL3<S>),
}

/// A built last-level cache system: the organization plus the main-memory
/// channel behind it.
///
/// Exactly one `L3System` exists per simulated chip; it is the only way
/// to build an organization and the only organization that implements
/// [`LastLevel`].
#[derive(Debug)]
pub struct L3System<S: Sink = NullSink> {
    org: Org<S>,
    memory: Memory<S>,
}

/// Accuracy summary of a set-sampled measurement window. No
/// organization is set-sampled, so no run produces one: the type stays
/// only because the benchmark's replay names
/// [`L3System::sampling_report`]; ROADMAP item 2(e) removes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingReport {
    /// The configured shift: `1/2^shift` of the sets are simulated.
    pub shift: u32,
    /// Number of sets simulated in full detail.
    pub sampled_sets: u64,
    /// Total last-level sets in the shared-geometry frame.
    pub total_sets: u64,
    /// Accesses that hit a sampled set (simulated fully).
    pub sampled_accesses: u64,
    /// Accesses charged the calibrated estimate.
    pub estimated_accesses: u64,
    /// Mean simulated latency over the window's sampled accesses.
    pub mean_latency: f64,
    /// SMARTS standard error of that mean.
    pub std_error: f64,
    /// Relative 95 % confidence half-width: `1.96 * std_error /
    /// mean_latency` (0 when no sampled accesses were observed).
    pub relative_error: f64,
}

impl L3System {
    /// Builds the untraced organization for the given machine.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if derived geometries are invalid
    /// (e.g. a scaled capacity that is not a power-of-two set count).
    pub fn build(org: Organization, cfg: &MachineConfig) -> Result<Self> {
        L3System::build_with_sink(org, cfg, NullSink)
    }
}

impl<S: Sink> L3System<S> {
    /// Builds the organization emitting telemetry into `sink`. The bus
    /// moves lines of the organization's own geometry.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if derived geometries are invalid
    /// (e.g. a scaled capacity that is not a power-of-two set count).
    pub fn build_with_sink(org: Organization, cfg: &MachineConfig, sink: S) -> Result<Self> {
        let l3 = &cfg.l3;
        let plain = |geometry, private| {
            let org = Org::Plain(PlainL3::new(cfg, geometry, private, sink.clone()));
            (org, geometry)
        };
        let (org, geometry) = match org {
            Organization::Private => plain(l3.private, true),
            Organization::PrivateScaled { factor } => {
                plain(l3.private.scaled_capacity(factor)?, true)
            }
            Organization::PrivateCustom { geometry } => plain(geometry, true),
            Organization::Shared => plain(l3.shared, false),
            Organization::Adaptive(params) => (
                Org::Adaptive(AdaptiveL3::new(cfg, params, sink.clone())),
                l3.shared,
            ),
            Organization::Cooperative { seed } => (
                Org::Cooperative(CooperativeL3::new(cfg, seed, sink.clone())),
                l3.private,
            ),
        };
        Ok(L3System {
            org,
            memory: Memory::new(cfg, geometry, sink),
        })
    }

    /// The adaptive instance, when this system is adaptive.
    pub fn as_adaptive(&self) -> Option<&AdaptiveL3<S>> {
        match &self.org {
            Org::Adaptive(a) => Some(a),
            _ => None,
        }
    }

    /// The cooperative instance, when this system is cooperative.
    pub fn as_cooperative(&self) -> Option<&CooperativeL3<S>> {
        match &self.org {
            Org::Cooperative(c) => Some(c),
            _ => None,
        }
    }

    /// Always `None`: no organization is set-sampled. Kept, with its
    /// signature, only because the benchmark's replay names it; ROADMAP
    /// item 2(e) removes it.
    pub fn sampling_report(&self) -> Option<SamplingReport> {
        None
    }

    /// Memory-channel statistics.
    pub fn memory_stats(&self) -> MemoryStats {
        self.memory.bus.stats()
    }

    /// Freezes or unfreezes adaptive-quota re-evaluation (no-op for
    /// non-adaptive organizations).
    pub fn set_adaptation_frozen(&mut self, frozen: bool) {
        if let Org::Adaptive(a) = &mut self.org {
            a.set_adaptation_frozen(frozen);
        }
    }

    /// Declares the memory bus idle as of `now` — call after functional
    /// warm-up so the timed phase starts uncongested.
    pub fn quiesce(&mut self, now: Cycle) {
        self.memory.bus.quiesce(now);
    }

    /// The snapshot discriminant of the organization: private 0, shared
    /// 1, adaptive 2, cooperative 3.
    fn tag(&self) -> u8 {
        match &self.org {
            Org::Plain(p) => u8::from(!p.is_private()),
            Org::Adaptive(_) => 2,
            Org::Cooperative(_) => 3,
        }
    }

    /// Writes the organization's full state to a snapshot, prefixed by a
    /// variant discriminant so a restore into a different organization
    /// fails loudly instead of mis-decoding, and followed by the bus.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.tag());
        match &self.org {
            Org::Plain(x) => x.save_state(w),
            Org::Adaptive(x) => x.save_state(w),
            Org::Cooperative(x) => x.save_state(w),
        }
        self.memory.bus.save_state(w);
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// freshly built system of the same organization and geometry.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] when the snapshot was taken from a
    /// different organization variant or geometry;
    /// [`SnapshotError::Corrupt`] when the restored structure fails its
    /// own [`Invariant::audit`] (a payload that decodes but that no run
    /// can produce); decode errors otherwise.
    pub fn load_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
    ) -> std::result::Result<(), SnapshotError> {
        let tag = r.get_u8()?;
        if tag > 3 {
            return Err(SnapshotError::Corrupt("unknown L3 organization tag"));
        }
        if tag != self.tag() {
            return Err(SnapshotError::Mismatch("L3 organization variant"));
        }
        match &mut self.org {
            Org::Plain(x) => x.load_state(r)?,
            Org::Adaptive(x) => x.load_state(r)?,
            Org::Cooperative(x) => x.load_state(r)?,
        }
        self.memory.bus.load_state(r)?;
        if self.audit().is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(
                "restored last-level state fails its audit",
            ))
        }
    }

    /// Resets the organization's and the bus's statistics at the warm-up
    /// boundary (cache contents and learned state are kept).
    pub fn reset_stats(&mut self) {
        self.memory.bus.reset_stats();
        match &mut self.org {
            Org::Plain(x) => x.reset_stats(),
            Org::Adaptive(x) => x.reset_stats(),
            Org::Cooperative(x) => x.reset_stats(),
        }
    }
}

impl<S: Sink> Invariant for L3System<S> {
    fn component(&self) -> &'static str {
        match &self.org {
            Org::Plain(x) => x.component(),
            Org::Adaptive(x) => x.component(),
            Org::Cooperative(x) => x.component(),
        }
    }

    fn audit(&self) -> Vec<Violation> {
        match &self.org {
            Org::Plain(x) => x.audit(),
            Org::Adaptive(x) => x.audit(),
            Org::Cooperative(x) => x.audit(),
        }
    }
}

impl<S: Sink> LastLevel for L3System<S> {
    fn access(&mut self, core: CoreId, addr: Address, write: bool, now: Cycle) -> L3Outcome {
        let memory = &mut self.memory;
        match &mut self.org {
            Org::Plain(x) => x.access(memory, core, addr, write, now),
            Org::Adaptive(x) => x.access(memory, core, addr, write, now),
            Org::Cooperative(x) => x.access(memory, core, addr, write, now),
        }
    }

    fn writeback(&mut self, core: CoreId, addr: Address, now: Cycle) {
        let memory = &mut self.memory;
        match &mut self.org {
            Org::Plain(x) => x.writeback(memory, core, addr, now),
            Org::Adaptive(x) => x.writeback(memory, addr, now),
            Org::Cooperative(x) => x.writeback(memory, addr, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_every_organization() {
        let cfg = MachineConfig::baseline();
        for org in [
            Organization::Private,
            Organization::PrivateScaled { factor: 4 },
            Organization::Shared,
            Organization::adaptive(),
            Organization::Cooperative { seed: 1 },
        ] {
            let sys = L3System::build(org, &cfg).unwrap();
            // Smoke: one access works and reaches memory the first time.
            let mut sys = sys;
            let out = sys.access(
                CoreId::from_index(0),
                Address::new(0x40_0000),
                false,
                Cycle::new(0),
            );
            assert!(
                out.data_ready.raw() >= 258,
                "{}: cold miss goes to memory",
                org.label()
            );
            assert_eq!(sys.memory_stats().requests, 1);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            Organization::Private.label(),
            Organization::Shared.label(),
            Organization::adaptive().label(),
            Organization::Cooperative { seed: 0 }.label(),
            Organization::PrivateScaled { factor: 4 }.label(),
        ];
        let mut uniq = labels.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), labels.len());
    }
}
