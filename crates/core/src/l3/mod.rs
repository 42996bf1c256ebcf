//! The last-level cache organizations evaluated by the paper.
//!
//! All four organizations manage the same silicon — per-core slices that
//! together form the aggregate L3 capacity of Table 1 — but differ in who
//! may use which blocks:
//!
//! - [`PrivateL3`]: each core owns its slice outright (14-cycle hits,
//!   258-cycle memory); no sharing, no pollution, no flexibility.
//! - [`SharedL3`]: one big LRU cache used by everyone (19-cycle hits);
//!   flexible but slower and unprotected against pollution.
//! - [`CooperativeL3`]: Chang & Sohi's scheme as described in §4.7 —
//!   private slices that spill evicted blocks into a random neighbor,
//!   with uncontrolled sharing ("random replacement").
//! - [`AdaptiveL3`]: the paper's contribution — private slices with a
//!   controlled shared partition, quota-driven replacement (Algorithm 1)
//!   and the sharing engine adjusting quotas online.
//!
//! [`Organization`] describes which to build; [`L3System`] is the built
//! instance that plugs into the cores via
//! [`cpusim::l3iface::LastLevel`].

mod adaptive;
mod cooperative;
mod private;
mod sampled;
mod shared;

pub use adaptive::{AdaptiveL3, AdaptiveStats, OccupancyRow};
pub use cooperative::{CooperativeL3, CooperativeStats};
pub use private::PrivateL3;
pub use sampled::{SampledL3, SamplingReport};
pub use shared::SharedL3;

use cpusim::l3iface::{L3Outcome, LastLevel};
use memsim::MemoryStats;
use simcore::config::{CacheGeometry, MachineConfig};
use simcore::error::Result;
use simcore::invariant::{Invariant, Violation};
use simcore::types::{Address, CoreId, Cycle};
use telemetry::{NullSink, Sink};

use crate::engine::AdaptiveParams;

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

/// A built last-level cache system: the organization plus the main-memory
/// channel behind it.
///
/// Exactly one `L3System` exists per simulated chip, so the size
/// difference between variants is irrelevant.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum L3System<S: Sink = NullSink> {
    /// Private slices.
    Private(PrivateL3<S>),
    /// One shared cache.
    Shared(SharedL3<S>),
    /// The adaptive scheme.
    Adaptive(AdaptiveL3<S>),
    /// Cooperative caching.
    Cooperative(CooperativeL3<S>),
    /// Any of the above behind the set-sampling estimator (built when
    /// [`simcore::config::L3Config::sample_shift`] is set).
    Sampled(SampledL3<S>),
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
    /// Builds the organization emitting telemetry into `sink`.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if derived geometries are invalid
    /// (e.g. a scaled capacity that is not a power-of-two set count).
    pub fn build_with_sink(org: Organization, cfg: &MachineConfig, sink: S) -> Result<Self> {
        let built = match org {
            Organization::Private => {
                L3System::Private(PrivateL3::with_sink(cfg, cfg.l3.private, sink))
            }
            Organization::PrivateScaled { factor } => {
                let geom = cfg.l3.private.scaled_capacity(factor)?;
                L3System::Private(PrivateL3::with_sink(cfg, geom, sink))
            }
            Organization::PrivateCustom { geometry } => {
                L3System::Private(PrivateL3::with_sink(cfg, geometry, sink))
            }
            Organization::Shared => L3System::Shared(SharedL3::with_sink(cfg, sink)),
            Organization::Adaptive(params) => {
                L3System::Adaptive(AdaptiveL3::with_sink(cfg, params, sink))
            }
            Organization::Cooperative { seed } => {
                L3System::Cooperative(CooperativeL3::with_sink(cfg, seed, sink))
            }
        };
        Ok(match cfg.l3.sample_shift {
            Some(shift) => L3System::Sampled(SampledL3::new(Box::new(built), cfg, shift)),
            None => built,
        })
    }

    /// The adaptive instance, when this system is adaptive (looking
    /// through the sampling wrapper if present).
    pub fn as_adaptive(&self) -> Option<&AdaptiveL3<S>> {
        match self {
            L3System::Adaptive(a) => Some(a),
            L3System::Sampled(s) => s.inner().as_adaptive(),
            _ => None,
        }
    }

    /// The cooperative instance, when this system is cooperative
    /// (looking through the sampling wrapper if present).
    pub fn as_cooperative(&self) -> Option<&CooperativeL3<S>> {
        match self {
            L3System::Cooperative(c) => Some(c),
            L3System::Sampled(s) => s.inner().as_cooperative(),
            _ => None,
        }
    }

    /// The set-sampling accuracy report, when sampling is active.
    pub fn sampling_report(&self) -> Option<SamplingReport> {
        match self {
            L3System::Sampled(s) => Some(s.report()),
            _ => None,
        }
    }

    /// Issues a real line fill on the organization's memory bus without
    /// touching any cache state, returning when the data would arrive.
    /// The set-sampling estimator charges one of these for every
    /// estimated access it attributes to memory, so bus occupancy and
    /// queueing stay fully modeled even though 15/16 of the sets are
    /// never simulated — without this, sampled runs of bus-bound mixes
    /// overestimate IPC by integer factors.
    pub(crate) fn phantom_memory_fill(&mut self, now: Cycle) -> Cycle {
        match self {
            L3System::Private(x) => x.memory_mut().request(now, true).data_ready,
            L3System::Shared(x) => x.memory_mut().request(now, false).data_ready,
            L3System::Adaptive(x) => x.memory_mut().request(now, false).data_ready,
            L3System::Cooperative(x) => x.memory_mut().request(now, false).data_ready,
            L3System::Sampled(x) => x.inner_mut().phantom_memory_fill(now),
        }
    }

    /// Memory-channel statistics.
    pub fn memory_stats(&self) -> MemoryStats {
        match self {
            L3System::Private(x) => x.memory_stats(),
            L3System::Shared(x) => x.memory_stats(),
            L3System::Adaptive(x) => x.memory_stats(),
            L3System::Cooperative(x) => x.memory_stats(),
            L3System::Sampled(x) => x.memory_stats(),
        }
    }

    /// Freezes or unfreezes adaptive-quota re-evaluation (no-op for
    /// non-adaptive organizations).
    pub fn set_adaptation_frozen(&mut self, frozen: bool) {
        match self {
            L3System::Adaptive(a) => a.set_adaptation_frozen(frozen),
            L3System::Sampled(s) => {
                // The warm phase's inflated queueing latencies must not
                // calibrate the estimator either.
                s.set_calibration_frozen(frozen);
                s.inner_mut().set_adaptation_frozen(frozen);
            }
            _ => {}
        }
    }

    /// Declares the memory bus idle as of `now` — call after functional
    /// warm-up so the timed phase starts uncongested.
    pub fn quiesce(&mut self, now: Cycle) {
        match self {
            L3System::Private(x) => x.quiesce(now),
            L3System::Shared(x) => x.quiesce(now),
            L3System::Adaptive(x) => x.quiesce(now),
            L3System::Cooperative(x) => x.quiesce(now),
            L3System::Sampled(x) => x.inner_mut().quiesce(now),
        }
    }

    /// Writes the organization's full state to a snapshot, prefixed by a
    /// variant discriminant so a restore into a different organization
    /// fails loudly instead of mis-decoding.
    pub fn save_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        match self {
            L3System::Private(x) => {
                w.put_u8(0);
                x.save_state(w);
            }
            L3System::Shared(x) => {
                w.put_u8(1);
                x.save_state(w);
            }
            L3System::Adaptive(x) => {
                w.put_u8(2);
                x.save_state(w);
            }
            L3System::Cooperative(x) => {
                w.put_u8(3);
                x.save_state(w);
            }
            L3System::Sampled(x) => {
                w.put_u8(4);
                x.save_state(w);
            }
        }
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// freshly built system of the same organization and geometry.
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError::Mismatch`] when the snapshot
    /// was taken from a different organization variant or geometry;
    /// [`simcore::snapshot::SnapshotError::Corrupt`] when the restored
    /// structure fails its own [`Invariant::audit`] (a payload that
    /// decodes but that no run can produce); decode errors otherwise.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> std::result::Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::SnapshotError;
        let tag = r.get_u8()?;
        match (tag, &mut *self) {
            (0, L3System::Private(x)) => x.load_state(r)?,
            (1, L3System::Shared(x)) => x.load_state(r)?,
            (2, L3System::Adaptive(x)) => x.load_state(r)?,
            (3, L3System::Cooperative(x)) => x.load_state(r)?,
            (4, L3System::Sampled(x)) => x.load_state(r)?,
            (0..=4, _) => return Err(SnapshotError::Mismatch("L3 organization variant")),
            _ => return Err(SnapshotError::Corrupt("unknown L3 organization tag")),
        }
        if self.audit().is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(
                "restored last-level state fails its audit",
            ))
        }
    }

    /// Resets memory statistics at the warm-up boundary.
    pub fn reset_stats(&mut self) {
        match self {
            L3System::Private(x) => x.reset_stats(),
            L3System::Shared(x) => x.reset_stats(),
            L3System::Adaptive(x) => x.reset_stats(),
            L3System::Cooperative(x) => x.reset_stats(),
            L3System::Sampled(x) => x.reset_stats(),
        }
    }
}

impl<S: Sink> Invariant for L3System<S> {
    fn component(&self) -> &'static str {
        match self {
            L3System::Private(x) => x.component(),
            L3System::Shared(x) => x.component(),
            L3System::Adaptive(x) => x.component(),
            L3System::Cooperative(x) => x.component(),
            L3System::Sampled(x) => x.component(),
        }
    }

    fn audit(&self) -> Vec<Violation> {
        match self {
            L3System::Private(x) => x.audit(),
            L3System::Shared(x) => x.audit(),
            L3System::Adaptive(x) => x.audit(),
            L3System::Cooperative(x) => x.audit(),
            L3System::Sampled(x) => x.audit(),
        }
    }
}

impl<S: Sink> LastLevel for L3System<S> {
    fn access(&mut self, core: CoreId, addr: Address, write: bool, now: Cycle) -> L3Outcome {
        match self {
            L3System::Private(x) => x.access(core, addr, write, now),
            L3System::Shared(x) => x.access(core, addr, write, now),
            L3System::Adaptive(x) => x.access(core, addr, write, now),
            L3System::Cooperative(x) => x.access(core, addr, write, now),
            L3System::Sampled(x) => x.access(core, addr, write, now),
        }
    }

    fn writeback(&mut self, core: CoreId, addr: Address, now: Cycle) {
        match self {
            L3System::Private(x) => x.writeback(core, addr, now),
            L3System::Shared(x) => x.writeback(core, addr, now),
            L3System::Adaptive(x) => x.writeback(core, addr, now),
            L3System::Cooperative(x) => x.writeback(core, addr, now),
            L3System::Sampled(x) => x.writeback(core, addr, now),
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
