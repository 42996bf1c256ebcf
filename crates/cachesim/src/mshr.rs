//! Miss status holding registers for the non-blocking cache hierarchy.
//!
//! Table 1's cores use non-blocking caches: a miss does not stall the
//! pipeline; independent instructions keep executing while the fill is in
//! flight. [`MshrFile`] tracks outstanding fills per cache, merging
//! secondary misses to the same block onto the existing entry so a block
//! is never fetched twice concurrently.

use simcore::types::{BlockAddr, Cycle};

/// Outcome of [`MshrFile::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must start the fill.
    Allocated,
    /// The block already has an outstanding fill completing at the given
    /// cycle; this (secondary) miss merged onto it.
    Merged(Cycle),
    /// No free entry: the requester must stall and retry.
    Full,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    addr: BlockAddr,
    ready_at: Cycle,
}

/// A fixed-capacity miss status holding register file.
///
/// # Example
///
/// ```
/// use cachesim::mshr::{MshrFile, MshrOutcome};
/// use simcore::types::{BlockAddr, Cycle};
///
/// let mut mshrs = MshrFile::new(2);
/// let blk = BlockAddr::new(0x10);
/// assert_eq!(mshrs.request(blk, Cycle::new(100)), MshrOutcome::Allocated);
/// assert_eq!(mshrs.request(blk, Cycle::new(120)), MshrOutcome::Merged(Cycle::new(100)));
/// mshrs.expire(Cycle::new(100));
/// assert!(mshrs.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<Entry>,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one register");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of outstanding fills.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no fill is outstanding.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every register is occupied.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// The completion time of an outstanding fill for `addr`, if any.
    pub fn lookup(&self, addr: BlockAddr) -> Option<Cycle> {
        self.entries
            .iter()
            .find(|e| e.addr == addr)
            .map(|e| e.ready_at)
    }

    /// Registers a miss for `addr` whose fill completes at `ready_at`.
    ///
    /// Secondary misses merge (keeping the original completion time); a
    /// full file reports [`MshrOutcome::Full`] and allocates nothing.
    pub fn request(&mut self, addr: BlockAddr, ready_at: Cycle) -> MshrOutcome {
        if let Some(existing) = self.lookup(addr) {
            return MshrOutcome::Merged(existing);
        }
        if self.is_full() {
            return MshrOutcome::Full;
        }
        self.entries.push(Entry { addr, ready_at });
        MshrOutcome::Allocated
    }

    /// The earliest completion time among outstanding fills — the MSHR's
    /// contribution to the event horizon of the cycle-skipping run loop.
    /// `None` when no fill is outstanding.
    pub fn next_completion(&self) -> Option<Cycle> {
        self.entries.iter().map(|e| e.ready_at).min()
    }

    /// Releases the registers whose fills have completed by `now`.
    pub fn expire(&mut self, now: Cycle) {
        self.entries.retain(|e| e.ready_at > now);
    }

    /// Drops every outstanding fill without completing it — used when the
    /// time-sampling scheduler abandons pipeline timing at a window
    /// boundary (the blocks themselves were installed state-wise when the
    /// misses issued; only their completion times die here).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_and_drain() {
        let mut m = MshrFile::new(4);
        let a = BlockAddr::new(1);
        let b = BlockAddr::new(2);
        assert_eq!(m.request(a, Cycle::new(50)), MshrOutcome::Allocated);
        assert_eq!(m.request(b, Cycle::new(60)), MshrOutcome::Allocated);
        assert_eq!(
            m.request(a, Cycle::new(70)),
            MshrOutcome::Merged(Cycle::new(50))
        );
        assert_eq!(m.len(), 2);
        m.expire(Cycle::new(55));
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(a), None);
        assert_eq!(m.lookup(b), Some(Cycle::new(60)));
        m.expire(Cycle::new(100));
        assert!(m.is_empty());
    }

    #[test]
    fn full_file_rejects_new_allocations() {
        let mut m = MshrFile::new(1);
        assert_eq!(
            m.request(BlockAddr::new(1), Cycle::new(10)),
            MshrOutcome::Allocated
        );
        assert_eq!(
            m.request(BlockAddr::new(2), Cycle::new(10)),
            MshrOutcome::Full
        );
        // But merging onto the existing entry still works.
        assert_eq!(
            m.request(BlockAddr::new(1), Cycle::new(10)),
            MshrOutcome::Merged(Cycle::new(10))
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn clear_drops_fills() {
        let mut m = MshrFile::new(4);
        m.request(BlockAddr::new(1), Cycle::new(30));
        m.request(BlockAddr::new(2), Cycle::new(10));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.next_completion(), None);
        // The file is immediately reusable.
        assert_eq!(
            m.request(BlockAddr::new(1), Cycle::new(50)),
            MshrOutcome::Allocated
        );
    }

    #[test]
    fn next_completion_tracks_earliest_fill() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_completion(), None);
        m.request(BlockAddr::new(1), Cycle::new(30));
        m.request(BlockAddr::new(2), Cycle::new(10));
        assert_eq!(m.next_completion(), Some(Cycle::new(10)));
        m.expire(Cycle::new(10));
        assert_eq!(m.next_completion(), Some(Cycle::new(30)));
        m.expire(Cycle::new(9999));
        assert!(m.is_empty());
    }
}
