//! The interface between a core's private hierarchy and the last-level
//! cache organization under study.
//!
//! The paper evaluates several last-level organizations (private, shared,
//! adaptive NUCA, cooperative). Cores are agnostic: they hand every L2
//! miss to a [`LastLevel`] implementation, which decides where the block
//! lives, what latency the requester pays and when main memory gets
//! involved. The organizations themselves live in the `nuca-core` crate.

use simcore::types::{Address, CoreId, Cycle};

/// Where a last-level request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L3Source {
    /// Hit in the requester's private partition / local slice
    /// (14 cycles in Table 1).
    LocalHit,
    /// Hit in the shared partition or a neighboring slice (19 cycles).
    RemoteHit,
    /// Miss — served by main memory.
    Memory,
}

/// Timing and provenance of one last-level access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3Outcome {
    /// Absolute cycle at which the requested data is available.
    pub data_ready: Cycle,
    /// Where the data came from.
    pub source: L3Source,
}

/// A last-level cache organization serving L2 misses from all cores.
///
/// Implementations update their own replacement/partitioning state and
/// call into the shared memory channel on misses. `addr` arrives already
/// tagged with the requester's address-space identifier, so distinct
/// programs never alias.
pub trait LastLevel {
    /// Serves an L2 miss by `core` for `addr` at time `now`.
    fn access(&mut self, core: CoreId, addr: Address, write: bool, now: Cycle) -> L3Outcome;

    /// Accepts a dirty block evicted from `core`'s L2.
    fn writeback(&mut self, core: CoreId, addr: Address, now: Cycle);
}

/// Worst-case deferred L3 ops from one warmed instruction: an I-side
/// access plus its L2-eviction writeback, and a D-side access plus its
/// L2-eviction writeback.
pub const OPS_PER_WARM_OP: usize = 4;

/// Capacity of an [`L3Batch::new`] batch — eight cores' worth of one
/// warm instruction each. A loop that drains whenever fewer than
/// [`OPS_PER_WARM_OP`] slots remain stays in bounds for any core count.
pub const BATCH_CAPACITY: usize = 32;

/// One deferred last-level request collected by the batched warm path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L3Op {
    /// An L2 miss (read or write-allocate) by `core`.
    Access {
        /// Requesting core.
        core: CoreId,
        /// Requested address (already ASID-tagged).
        addr: Address,
        /// Whether the access is a write.
        write: bool,
    },
    /// A dirty L2 victim handed down by `core`.
    Writeback {
        /// Evicting core.
        core: CoreId,
        /// Victim block address.
        addr: Address,
    },
}

/// A log of deferred L3 requests from warming cores.
///
/// The functional warm path discards L3 timing (only the outcome
/// *source* feeds per-core counters), so instead of calling into the
/// organization once per L2 miss interleaved with private-hierarchy
/// work, a core appends its requests here and the chip later drains
/// them through the organization. Entries are drained in exactly the
/// order they were pushed (each access followed by its dependent
/// writeback), so the organization's state evolution is bit-identical
/// to the one-at-a-time path; see `nuca_core::cmp` for the proof
/// obligations, including how a chip interleaves several cores' logs.
///
/// Storage is reserved up front — [`BATCH_CAPACITY`] for
/// [`new`](Self::new), any size for [`with_capacity`](Self::with_capacity)
/// and [`reserve`](Self::reserve) — and a caller that keeps within
/// [`remaining`](Self::remaining) never makes a push allocate (lint L7).
#[derive(Debug)]
pub struct L3Batch {
    ops: Vec<L3Op>,
    /// The reserved capacity [`remaining`](Self::remaining) counts
    /// against.
    capacity: usize,
}

impl Default for L3Batch {
    fn default() -> Self {
        L3Batch::new()
    }
}

impl L3Batch {
    /// Creates an empty batch with room for [`BATCH_CAPACITY`] ops.
    #[must_use]
    pub fn new() -> Self {
        L3Batch::with_capacity(BATCH_CAPACITY)
    }

    /// Creates an empty batch with room for `capacity` ops.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        L3Batch {
            ops: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Grows the reserved room to at least `capacity` ops. Allocates
    /// only when the batch has less room than that.
    pub fn reserve(&mut self, capacity: usize) {
        if capacity > self.capacity {
            self.ops.reserve(capacity - self.ops.len());
            self.capacity = capacity;
        }
    }

    /// Number of queued ops.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Remaining reserved room; drain before it drops below
    /// [`OPS_PER_WARM_OP`].
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.capacity.saturating_sub(self.ops.len())
    }

    /// The queued ops, in push order.
    #[inline]
    pub fn ops(&self) -> &[L3Op] {
        &self.ops
    }

    /// Clears the batch after a drain (the reserved room is kept).
    #[inline]
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    #[inline]
    fn push(&mut self, op: L3Op) {
        debug_assert!(self.ops.len() < self.capacity, "warm batch overflow");
        self.ops.push(op);
    }
}

/// Where a warming core sends its L3-bound requests: either straight
/// into the organization (outcome returned now) or into an [`L3Batch`]
/// (outcome delivered when the chip drains the batch).
pub trait WarmPort {
    /// Issues an L2 miss; `Some` when resolved immediately, `None` when
    /// queued for a later drain.
    fn access(&mut self, core: CoreId, addr: Address, write: bool, now: Cycle)
        -> Option<L3Outcome>;

    /// Hands down a dirty L2 victim.
    fn writeback(&mut self, core: CoreId, addr: Address, now: Cycle);
}

/// [`WarmPort`] adapter that forwards to a [`LastLevel`] immediately —
/// the one-at-a-time reference path.
pub struct DirectPort<'a> {
    /// The organization served directly.
    pub l3: &'a mut dyn LastLevel,
}

impl WarmPort for DirectPort<'_> {
    #[inline]
    fn access(
        &mut self,
        core: CoreId,
        addr: Address,
        write: bool,
        now: Cycle,
    ) -> Option<L3Outcome> {
        Some(self.l3.access(core, addr, write, now))
    }

    #[inline]
    fn writeback(&mut self, core: CoreId, addr: Address, now: Cycle) {
        self.l3.writeback(core, addr, now);
    }
}

impl WarmPort for L3Batch {
    #[inline]
    fn access(
        &mut self,
        core: CoreId,
        addr: Address,
        write: bool,
        _now: Cycle,
    ) -> Option<L3Outcome> {
        self.push(L3Op::Access { core, addr, write });
        None
    }

    #[inline]
    fn writeback(&mut self, core: CoreId, addr: Address, _now: Cycle) {
        self.push(L3Op::Writeback { core, addr });
    }
}

/// A fixed-latency, always-hit pseudo-L3 for unit tests and pipeline
/// micro-benchmarks.
///
/// # Example
///
/// ```
/// use cpusim::l3iface::{FixedLatencyL3, LastLevel, L3Source};
/// use simcore::types::{Address, CoreId, Cycle};
///
/// let mut l3 = FixedLatencyL3::new(19);
/// let out = l3.access(CoreId::from_index(0), Address::new(0x40), false, Cycle::new(10));
/// assert_eq!(out.data_ready, Cycle::new(29));
/// assert_eq!(out.source, L3Source::RemoteHit);
/// ```
#[derive(Debug, Clone)]
pub struct FixedLatencyL3 {
    latency: u64,
    accesses: u64,
    writebacks: u64,
}

impl FixedLatencyL3 {
    /// Creates an always-hit L3 with the given latency.
    pub fn new(latency: u64) -> Self {
        FixedLatencyL3 {
            latency,
            accesses: 0,
            writebacks: 0,
        }
    }

    /// Number of accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of write-backs absorbed.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }
}

impl LastLevel for FixedLatencyL3 {
    fn access(&mut self, _core: CoreId, _addr: Address, _write: bool, now: Cycle) -> L3Outcome {
        self.accesses += 1;
        L3Outcome {
            data_ready: now + self.latency,
            source: L3Source::RemoteHit,
        }
    }

    fn writeback(&mut self, _core: CoreId, _addr: Address, _now: Cycle) {
        self.writebacks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_preserves_push_order_and_clears() {
        let mut b = L3Batch::new();
        assert!(b.is_empty());
        let c0 = CoreId::from_index(0);
        let c1 = CoreId::from_index(1);
        assert!(b
            .access(c0, Address::new(0x40), false, Cycle::new(5))
            .is_none());
        b.writeback(c0, Address::new(0x80), Cycle::new(5));
        assert!(b
            .access(c1, Address::new(0xc0), true, Cycle::new(5))
            .is_none());
        assert_eq!(
            b.ops(),
            &[
                L3Op::Access {
                    core: c0,
                    addr: Address::new(0x40),
                    write: false
                },
                L3Op::Writeback {
                    core: c0,
                    addr: Address::new(0x80)
                },
                L3Op::Access {
                    core: c1,
                    addr: Address::new(0xc0),
                    write: true
                },
            ]
        );
        assert_eq!(b.remaining(), BATCH_CAPACITY - 3);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.remaining(), BATCH_CAPACITY);
    }

    #[test]
    fn reserve_grows_the_room_and_never_shrinks_it() {
        let mut b = L3Batch::with_capacity(4);
        b.writeback(CoreId::from_index(0), Address::new(0x40), Cycle::new(0));
        assert_eq!(b.remaining(), 3);
        b.reserve(64);
        assert_eq!(b.remaining(), 63);
        b.reserve(8);
        assert_eq!(b.remaining(), 63, "a smaller request keeps the room");
        assert_eq!(b.len(), 1, "reserving keeps the queued ops");
    }

    #[test]
    fn direct_port_forwards_and_returns_outcome() {
        let mut l3 = FixedLatencyL3::new(7);
        let mut port = DirectPort { l3: &mut l3 };
        let out = port
            .access(
                CoreId::from_index(0),
                Address::new(0x40),
                false,
                Cycle::new(3),
            )
            .expect("direct port resolves immediately");
        assert_eq!(out.data_ready.raw(), 10);
        port.writeback(CoreId::from_index(0), Address::new(0x80), Cycle::new(3));
        assert_eq!(l3.accesses(), 1);
        assert_eq!(l3.writebacks(), 1);
    }

    #[test]
    fn fixed_latency_counts_and_times() {
        let mut l3 = FixedLatencyL3::new(5);
        let c = CoreId::from_index(1);
        let out = l3.access(c, Address::new(0), true, Cycle::new(100));
        assert_eq!(out.data_ready.raw(), 105);
        l3.writeback(c, Address::new(0x40), Cycle::new(101));
        assert_eq!(l3.accesses(), 1);
        assert_eq!(l3.writebacks(), 1);
    }
}
