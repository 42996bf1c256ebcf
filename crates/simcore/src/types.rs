//! Strongly-typed identifiers and quantities used throughout the simulator.
//!
//! The newtypes here follow the C-NEWTYPE guideline: a byte [`Address`], a
//! cache-line [`BlockAddr`], a [`CoreId`] and a [`Cycle`] count are all
//! machine words at run time, but the compiler keeps them apart.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A byte address in the simulated (per-core, virtual) address space.
///
/// Addresses are 64-bit. The top byte is reserved for the address-space
/// identifier inserted by the CMP layer so that distinct programs running on
/// distinct cores never alias in shared cache structures (the paper runs
/// multiprogrammed workloads with disjoint address spaces).
///
/// # Example
///
/// ```
/// use simcore::types::Address;
/// let a = Address::new(0x1040);
/// assert_eq!(a.block(6).index_bits(0, 12), (0x1040 >> 6) & 0xfff);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw 64-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache-block address for a block of `2^offset_bits` bytes.
    #[inline]
    pub const fn block(self, offset_bits: u32) -> BlockAddr {
        BlockAddr(self.0 >> offset_bits)
    }

    /// Returns the virtual page number for 4-KiB pages.
    #[inline]
    pub const fn page(self) -> u64 {
        self.0 >> 12
    }

    /// Tags this address with an address-space identifier in the top byte.
    ///
    /// The CMP layer uses this to keep multiprogrammed address spaces
    /// disjoint inside shared structures. ASIDs above 255 are rejected by
    /// construction of [`CoreId`], which is the only ASID source.
    #[inline]
    pub const fn with_asid(self, asid: u8) -> Self {
        Address((self.0 & 0x00ff_ffff_ffff_ffff) | ((asid as u64) << 56))
    }

    /// Returns the address offset by `bytes`.
    #[inline]
    pub const fn offset(self, bytes: u64) -> Self {
        Address(self.0.wrapping_add(bytes))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

/// A cache-block (line) address: a byte address shifted right by the block
/// offset bits.
///
/// The same `BlockAddr` type is used for every cache level; the level's
/// geometry decides how it is split into set index and tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a raw block number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        BlockAddr(raw)
    }

    /// Returns the raw block number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Extracts `bits` set-index bits starting at bit `lo` of the block
    /// number.
    #[inline]
    pub const fn index_bits(self, lo: u32, bits: u32) -> u64 {
        (self.0 >> lo) & ((1u64 << bits) - 1)
    }

    /// Returns the tag for a cache with `index_bits` set-index bits
    /// (everything above the index).
    #[inline]
    pub const fn tag(self, index_bits: u32) -> u64 {
        self.0 >> index_bits
    }

    /// Reconstructs the byte address of the first byte in the block.
    #[inline]
    pub const fn first_byte(self, offset_bits: u32) -> Address {
        Address::new(self.0 << offset_bits)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(raw: u64) -> Self {
        BlockAddr(raw)
    }
}

/// Identifies one of the cores of the simulated chip multiprocessor.
///
/// A `CoreId` is always valid for the machine it was created for: the
/// constructor checks the index against the core count, so downstream code
/// can index per-core arrays without bounds anxieties.
///
/// # Example
///
/// ```
/// use simcore::types::CoreId;
/// assert!(CoreId::new(3, 4).is_some());
/// assert!(CoreId::new(4, 4).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u8);

impl CoreId {
    /// Creates a core identifier, or `None` if `index >= cores`.
    #[inline]
    pub fn new(index: usize, cores: usize) -> Option<Self> {
        if index < cores && cores <= 256 {
            Some(CoreId(index as u8))
        } else {
            None
        }
    }

    /// Creates a core identifier without a range check.
    ///
    /// Only intended for tests and for iteration helpers that already know
    /// the machine's core count.
    #[inline]
    pub const fn from_index(index: u8) -> Self {
        CoreId(index)
    }

    /// The zero-based index of this core.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The address-space identifier used to tag this core's addresses.
    #[inline]
    pub const fn asid(self) -> u8 {
        self.0
    }

    /// Iterates over all cores of a `cores`-way machine.
    pub fn all(cores: usize) -> impl Iterator<Item = CoreId> {
        (0..cores.min(256)).map(|i| CoreId(i as u8))
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A count of processor clock cycles.
///
/// `Cycle` supports the arithmetic needed for timestamping events
/// (`+ u64`, differences) while preventing accidental mixing with other
/// integer quantities such as instruction counts.
///
/// # Example
///
/// ```
/// use simcore::types::Cycle;
/// let t = Cycle::ZERO + 14;
/// assert_eq!((t + 5).since(t), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Cycle zero — the beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle timestamp from a raw count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Cycles elapsed since `earlier`, saturating at zero.
    #[inline]
    pub const fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of two timestamps.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_block_and_tag_round_trip() {
        let a = Address::new(0xdead_beef_cafe);
        let blk = a.block(6);
        assert_eq!(blk.raw(), 0xdead_beef_cafe >> 6);
        assert_eq!(blk.first_byte(6).raw(), (0xdead_beef_cafe >> 6) << 6);
    }

    #[test]
    fn address_asid_tagging_replaces_top_byte() {
        let a = Address::new(0xff00_0000_0000_1234).with_asid(3);
        assert_eq!(a.raw() >> 56, 3);
        assert_eq!(a.raw() & 0xffff, 0x1234);
    }

    #[test]
    fn index_bits_extract_expected_field() {
        let blk = BlockAddr::new(0b1011_0110);
        assert_eq!(blk.index_bits(1, 3), 0b011);
        assert_eq!(blk.tag(4), 0b1011);
    }

    #[test]
    fn core_id_validates_range() {
        assert_eq!(CoreId::new(0, 4).map(|c| c.index()), Some(0));
        assert_eq!(CoreId::new(3, 4).map(|c| c.index()), Some(3));
        assert!(CoreId::new(4, 4).is_none());
        assert_eq!(CoreId::all(4).count(), 4);
    }

    #[test]
    fn cycle_arithmetic_behaves() {
        let t = Cycle::new(100);
        assert_eq!((t + 30).since(t), 30);
        assert_eq!(t.since(t + 30), 0);
        assert_eq!((t + 7) - t, 7);
        assert_eq!(t.max(t + 1).raw(), 101);
    }

    #[test]
    fn page_number_uses_4k_pages() {
        assert_eq!(Address::new(0x3000).page(), 3);
        assert_eq!(Address::new(0x3fff).page(), 3);
        assert_eq!(Address::new(0x4000).page(), 4);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert!(!format!("{}", Address::new(0)).is_empty());
        assert!(!format!("{}", BlockAddr::new(0)).is_empty());
        assert!(!format!("{}", CoreId::from_index(0)).is_empty());
        assert!(!format!("{}", Cycle::ZERO).is_empty());
    }
}
