//! An explicit least-recently-used stack over small way indices.
//!
//! The paper's mechanisms observe LRU *positions* directly: a hit in the
//! LRU block increments the "loss" counter (Section 2.1), and Algorithm 1
//! walks the shared partition's stack from the LRU end. [`LruStack`] keeps
//! the recency order as an explicit sequence (MRU first) so those
//! operations are natural and O(ways), which is tiny for the 2–16-way
//! caches of Table 1.

/// A recency ordering over way indices, most-recently-used first.
///
/// The stack does not have to contain every way of a set: the adaptive
/// last-level cache keeps one stack per private partition and one for the
/// shared partition, and ways migrate between them.
///
/// # Example
///
/// ```
/// use cachesim::lru::LruStack;
/// let mut s = LruStack::new();
/// s.push_mru(0);
/// s.push_mru(1);          // order: 1, 0
/// assert_eq!(s.lru(), Some(0));
/// s.touch(0);             // order: 0, 1
/// assert_eq!(s.lru(), Some(1));
/// assert_eq!(s.pop_lru(), Some(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LruStack {
    /// Way indices, index 0 = MRU, last = LRU.
    order: Vec<u8>,
}

impl LruStack {
    /// Creates an empty stack.
    pub const fn new() -> Self {
        // An empty Vec does not allocate; growth happens during warm-up.
        LruStack { order: Vec::new() } // lint:allow(L7): construction only
    }

    /// Creates a stack pre-populated with ways `0..ways`, way 0 as MRU.
    pub fn with_ways(ways: usize) -> Self {
        LruStack {
            order: (0..ways as u8).collect(),
        }
    }

    /// Number of ways currently tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the stack tracks no ways.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The most recently used way, if any.
    #[inline]
    pub fn mru(&self) -> Option<u8> {
        self.order.first().copied()
    }

    /// The least recently used way, if any.
    #[inline]
    pub fn lru(&self) -> Option<u8> {
        self.order.last().copied()
    }

    /// Whether `way` is currently in the stack.
    pub fn contains(&self, way: u8) -> bool {
        self.order.contains(&way)
    }

    /// The position of `way` from the MRU end (0 = MRU), if present.
    pub fn position(&self, way: u8) -> Option<usize> {
        self.order.iter().position(|&w| w == way)
    }

    /// Whether `way` currently sits in the LRU position.
    pub fn is_lru(&self, way: u8) -> bool {
        self.lru() == Some(way)
    }

    /// Moves `way` to the MRU position; inserts it if absent.
    pub fn touch(&mut self, way: u8) {
        if let Some(pos) = self.position(way) {
            self.order[..=pos].rotate_right(1);
        } else {
            self.order.insert(0, way);
        }
    }

    /// Inserts `way` at the MRU position.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `way` is already present (a set must never
    /// track the same way twice).
    pub fn push_mru(&mut self, way: u8) {
        debug_assert!(!self.contains(way), "way {way} already tracked");
        self.order.insert(0, way);
    }

    /// Inserts `way` at the LRU position (used when demoting a block).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `way` is already present.
    pub fn push_lru(&mut self, way: u8) {
        debug_assert!(!self.contains(way), "way {way} already tracked");
        self.order.push(way);
    }

    /// Removes and returns the LRU way.
    pub fn pop_lru(&mut self) -> Option<u8> {
        self.order.pop()
    }

    /// Removes `way` from the stack; returns whether it was present.
    pub fn remove(&mut self, way: u8) -> bool {
        if let Some(pos) = self.position(way) {
            self.order.remove(pos);
            true
        } else {
            false
        }
    }

    /// Iterates from the LRU end towards the MRU end — the walk order of
    /// Algorithm 1.
    pub fn iter_from_lru(&self) -> impl Iterator<Item = u8> + '_ {
        self.order.iter().rev().copied()
    }

    /// Iterates from the MRU end towards the LRU end.
    pub fn iter_from_mru(&self) -> impl Iterator<Item = u8> + '_ {
        self.order.iter().copied()
    }

    /// The way at position `pos` from the MRU end.
    #[inline]
    pub fn at(&self, pos: usize) -> u8 {
        self.order[pos]
    }
}

/// Maximum associativity representable by [`PackedLru`]: 16 ways at
/// 4 bits per way fill one `u64`. [`simcore::config::CacheGeometry`]
/// accepts up to 32 ways; a set wider than this one is served by
/// [`Recency::Wide`].
pub const MAX_WAYS: usize = 16;

/// One copy of a way index in every nibble — multiplying a way by this
/// broadcasts it for the SWAR comparison in [`PackedLru::position`].
const NIBBLE_LO: u64 = 0x1111_1111_1111_1111;
/// The top bit of every nibble, where the zero-nibble detector below
/// leaves its per-nibble flag.
const NIBBLE_HI: u64 = 0x8888_8888_8888_8888;
/// Nibble `i` holds value `i`: the recency order of a freshly populated
/// set, way 0 as MRU.
const IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

/// A recency ordering packed into a single `u64` permutation word.
///
/// Same contract as [`LruStack`] — a sequence of distinct way indices,
/// MRU first — but stored as one nibble per position: nibble 0 (the low
/// 4 bits) is the MRU way, nibble `len-1` the LRU way. Every operation
/// is a handful of shifts and masks instead of a `Vec` walk, and the
/// whole set's recency state travels in one register. Unused nibbles
/// (`len..16`) are kept zero so derived `Eq`/`Hash` see a canonical
/// form.
///
/// The reference [`LruStack`] stays as the behavioural oracle: a
/// property test drives both with the same operation sequence and
/// asserts identical observations.
///
/// # Example
///
/// ```
/// use cachesim::lru::PackedLru;
/// let mut s = PackedLru::new();
/// s.push_mru(0);
/// s.push_mru(1);          // order: 1, 0
/// assert_eq!(s.lru(), Some(0));
/// s.touch(0);             // order: 0, 1
/// assert_eq!(s.lru(), Some(1));
/// assert_eq!(s.pop_lru(), Some(1));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedLru {
    /// Way indices, 4 bits each; nibble 0 = MRU, nibble `len-1` = LRU.
    bits: u64,
    /// Number of tracked ways (0..=16).
    len: u8,
}

impl PackedLru {
    /// Creates an empty stack.
    pub const fn new() -> Self {
        PackedLru { bits: 0, len: 0 }
    }

    /// Creates a stack pre-populated with ways `0..ways`, way 0 as MRU.
    ///
    /// # Panics
    ///
    /// Panics if `ways > MAX_WAYS`.
    pub fn with_ways(ways: usize) -> Self {
        assert!(ways <= MAX_WAYS, "PackedLru holds at most {MAX_WAYS} ways");
        PackedLru {
            bits: IDENTITY & Self::low_mask(ways),
            len: ways as u8,
        }
    }

    /// A mask covering the low `n` nibbles.
    #[inline]
    const fn low_mask(n: usize) -> u64 {
        if n >= 16 {
            u64::MAX
        } else {
            (1u64 << (4 * n)) - 1
        }
    }

    /// The way stored at position `pos` (0 = MRU).
    #[inline]
    fn nibble(&self, pos: usize) -> u8 {
        ((self.bits >> (4 * pos)) & 0xF) as u8
    }

    /// Number of ways currently tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the stack tracks no ways.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most recently used way, if any.
    #[inline]
    pub fn mru(&self) -> Option<u8> {
        (self.len > 0).then(|| self.nibble(0))
    }

    /// The least recently used way, if any.
    #[inline]
    pub fn lru(&self) -> Option<u8> {
        (self.len > 0).then(|| self.nibble(self.len as usize - 1))
    }

    /// Whether `way` is currently in the stack.
    #[inline]
    pub fn contains(&self, way: u8) -> bool {
        self.position(way).is_some()
    }

    /// The position of `way` from the MRU end (0 = MRU), if present.
    ///
    /// Single SWAR comparison: XOR with the broadcast way zeroes the
    /// matching nibble, and the classic zero-nibble detector
    /// (`(x - LO) & !x & HI`) flags it. Borrow propagation can only
    /// produce false flags *above* the lowest true zero nibble, so
    /// `trailing_zeros` — the lowest flag — is always exact; ways are
    /// distinct anyway, so at most one true match exists.
    #[inline]
    pub fn position(&self, way: u8) -> Option<usize> {
        debug_assert!(way < 16, "way {way} out of nibble range");
        let x = self.bits ^ (u64::from(way) * NIBBLE_LO);
        let hits = x.wrapping_sub(NIBBLE_LO) & !x & NIBBLE_HI & Self::low_mask(self.len as usize);
        (hits != 0).then(|| (hits.trailing_zeros() / 4) as usize)
    }

    /// Whether `way` currently sits in the LRU position.
    #[inline]
    pub fn is_lru(&self, way: u8) -> bool {
        self.lru() == Some(way)
    }

    /// Moves `way` to the MRU position; inserts it if absent.
    pub fn touch(&mut self, way: u8) {
        match self.position(way) {
            Some(pos) => {
                // Rotate nibbles 0..=pos one slot up and drop `way`
                // back into nibble 0.
                let window = Self::low_mask(pos + 1);
                let rotated = ((self.bits << 4) | u64::from(way)) & window;
                self.bits = (self.bits & !window) | rotated;
            }
            None => self.push_mru(way),
        }
    }

    /// Inserts `way` at the MRU position.
    ///
    /// # Panics
    ///
    /// Panics if the stack is full; in debug builds also if `way` is
    /// already present (a set must never track the same way twice).
    pub fn push_mru(&mut self, way: u8) {
        assert!((self.len as usize) < MAX_WAYS, "PackedLru full");
        debug_assert!(!self.contains(way), "way {way} already tracked");
        self.bits = (self.bits << 4) | u64::from(way);
        self.len += 1;
    }

    /// Inserts `way` at the LRU position (used when demoting a block).
    ///
    /// # Panics
    ///
    /// Panics if the stack is full; in debug builds also if `way` is
    /// already present.
    pub fn push_lru(&mut self, way: u8) {
        assert!((self.len as usize) < MAX_WAYS, "PackedLru full");
        debug_assert!(!self.contains(way), "way {way} already tracked");
        self.bits |= u64::from(way) << (4 * self.len);
        self.len += 1;
    }

    /// Removes and returns the LRU way.
    pub fn pop_lru(&mut self) -> Option<u8> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let shift = 4 * self.len as usize;
        let way = ((self.bits >> shift) & 0xF) as u8;
        self.bits &= !(0xF << shift);
        Some(way)
    }

    /// Removes `way` from the stack; returns whether it was present.
    pub fn remove(&mut self, way: u8) -> bool {
        let Some(pos) = self.position(way) else {
            return false;
        };
        let low = self.bits & Self::low_mask(pos);
        // Nibbles above `pos` slide down one slot; a shift of 64 (the
        // pos == 15 case, where nothing sits above) is UB, so guard it.
        let high = if pos + 1 >= 16 {
            0
        } else {
            self.bits >> (4 * (pos + 1))
        };
        self.bits = low | (high << (4 * pos));
        self.len -= 1;
        true
    }

    /// Iterates from the LRU end towards the MRU end — the walk order of
    /// Algorithm 1.
    pub fn iter_from_lru(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len as usize).rev().map(|p| self.nibble(p))
    }

    /// Iterates from the MRU end towards the LRU end.
    pub fn iter_from_mru(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len as usize).map(|p| self.nibble(p))
    }

    /// The way at position `pos` from the MRU end.
    #[inline]
    pub fn at(&self, pos: usize) -> u8 {
        debug_assert!(pos < self.len as usize);
        self.nibble(pos)
    }
}

/// The recency state of one cache set, packed when it fits.
///
/// Way indices are stored as nibbles in [`PackedLru`], so the single-word
/// form covers every configuration up to 16 ways — all of Table 1. Wider
/// robustness configurations (the 8-core chip's 32-way shared L3) fall
/// back to the reference [`LruStack`]. The variant is fixed at
/// construction by the set's associativity, so the branch in every
/// delegated call is perfectly predicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recency {
    /// Associativity ≤ 16: single `u64` permutation word.
    Packed(PackedLru),
    /// Associativity > 16: reference `Vec<u8>` stack.
    Wide(LruStack),
}

macro_rules! delegate {
    ($self:ident, $s:ident => $body:expr) => {
        match $self {
            Recency::Packed($s) => $body,
            Recency::Wide($s) => $body,
        }
    };
}

impl Recency {
    /// Creates an empty recency word for a set of `total_ways` ways.
    pub fn for_ways(total_ways: usize) -> Self {
        if total_ways <= MAX_WAYS {
            Recency::Packed(PackedLru::new())
        } else {
            Recency::Wide(LruStack::new())
        }
    }

    /// Number of ways currently tracked.
    #[inline]
    pub fn len(&self) -> usize {
        delegate!(self, s => s.len())
    }

    /// Whether the stack tracks no ways.
    #[inline]
    pub fn is_empty(&self) -> bool {
        delegate!(self, s => s.is_empty())
    }

    /// The most recently used way, if any.
    #[inline]
    pub fn mru(&self) -> Option<u8> {
        delegate!(self, s => s.mru())
    }

    /// The least recently used way, if any.
    #[inline]
    pub fn lru(&self) -> Option<u8> {
        delegate!(self, s => s.lru())
    }

    /// Whether `way` is currently in the stack.
    #[inline]
    pub fn contains(&self, way: u8) -> bool {
        delegate!(self, s => s.contains(way))
    }

    /// The position of `way` from the MRU end (0 = MRU), if present.
    #[inline]
    pub fn position(&self, way: u8) -> Option<usize> {
        delegate!(self, s => s.position(way))
    }

    /// Whether `way` currently sits in the LRU position.
    #[inline]
    pub fn is_lru(&self, way: u8) -> bool {
        delegate!(self, s => s.is_lru(way))
    }

    /// Moves `way` to the MRU position; inserts it if absent.
    #[inline]
    pub fn touch(&mut self, way: u8) {
        delegate!(self, s => s.touch(way))
    }

    /// Inserts `way` at the MRU position.
    #[inline]
    pub fn push_mru(&mut self, way: u8) {
        delegate!(self, s => s.push_mru(way))
    }

    /// Inserts `way` at the LRU position (used when demoting a block).
    #[inline]
    pub fn push_lru(&mut self, way: u8) {
        delegate!(self, s => s.push_lru(way))
    }

    /// Removes and returns the LRU way.
    #[inline]
    pub fn pop_lru(&mut self) -> Option<u8> {
        delegate!(self, s => s.pop_lru())
    }

    /// Removes `way` from the stack; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, way: u8) -> bool {
        delegate!(self, s => s.remove(way))
    }

    /// The way at position `pos` from the MRU end.
    #[inline]
    pub fn at(&self, pos: usize) -> u8 {
        delegate!(self, s => s.at(pos))
    }

    /// Iterates from the LRU end towards the MRU end — the walk order of
    /// Algorithm 1.
    pub fn iter_from_lru(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len()).rev().map(move |p| self.at(p))
    }

    /// Iterates from the MRU end towards the LRU end.
    pub fn iter_from_mru(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len()).map(move |p| self.at(p))
    }

    /// Writes the recency state to a snapshot (variant tag + payload).
    pub fn save_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        match self {
            Recency::Packed(p) => {
                w.put_u8(0);
                w.put_u64(p.bits);
                w.put_u8(p.len);
            }
            Recency::Wide(s) => {
                w.put_u8(1);
                w.put_u8_slice(&s.order);
            }
        }
    }

    /// Restores the recency state from a snapshot. The variant is fixed
    /// by the set's associativity at construction, so a snapshot written
    /// for the other variant is a structural mismatch, not data loss.
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError::Mismatch`] when the stored
    /// variant differs; decode errors otherwise.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::SnapshotError;
        let tag = r.get_u8()?;
        match (tag, &mut *self) {
            (0, Recency::Packed(p)) => {
                p.bits = r.get_u64()?;
                p.len = r.get_u8()?;
                if p.len as usize > MAX_WAYS {
                    return Err(SnapshotError::Corrupt("packed recency length > 16"));
                }
                Ok(())
            }
            (1, Recency::Wide(s)) => {
                s.order = r.get_u8_vec()?;
                Ok(())
            }
            (0 | 1, _) => Err(SnapshotError::Mismatch("recency variant")),
            _ => Err(SnapshotError::Corrupt("recency variant tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_ways_orders_zero_as_mru() {
        let s = LruStack::with_ways(4);
        assert_eq!(s.mru(), Some(0));
        assert_eq!(s.lru(), Some(3));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn touch_promotes_to_mru_preserving_others() {
        let mut s = LruStack::with_ways(4); // 0,1,2,3
        s.touch(2); // 2,0,1,3
        assert_eq!(s.iter_from_mru().collect::<Vec<_>>(), vec![2, 0, 1, 3]);
        s.touch(3); // 3,2,0,1
        assert_eq!(s.lru(), Some(1));
    }

    #[test]
    fn touch_inserts_missing_way() {
        let mut s = LruStack::new();
        s.touch(5);
        assert_eq!(s.mru(), Some(5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn push_and_pop_lru() {
        let mut s = LruStack::new();
        s.push_mru(1);
        s.push_lru(2);
        assert_eq!(s.iter_from_mru().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(s.pop_lru(), Some(2));
        assert_eq!(s.pop_lru(), Some(1));
        assert_eq!(s.pop_lru(), None);
    }

    #[test]
    fn remove_middle_way() {
        let mut s = LruStack::with_ways(3); // 0,1,2
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert_eq!(s.iter_from_mru().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn lru_walk_order_matches_algorithm_1() {
        let mut s = LruStack::with_ways(4);
        s.touch(3); // 3,0,1,2
        assert_eq!(s.iter_from_lru().collect::<Vec<_>>(), vec![2, 1, 0, 3]);
    }

    #[test]
    fn is_lru_and_position() {
        let s = LruStack::with_ways(2);
        assert!(s.is_lru(1));
        assert!(!s.is_lru(0));
        assert_eq!(s.position(0), Some(0));
        assert_eq!(s.position(7), None);
    }

    #[test]
    fn packed_mirrors_reference_on_basic_ops() {
        let mut p = PackedLru::with_ways(4);
        let mut r = LruStack::with_ways(4);
        for way in [2, 3, 2, 0, 1, 3] {
            p.touch(way);
            r.touch(way);
            assert_eq!(
                p.iter_from_mru().collect::<Vec<_>>(),
                r.iter_from_mru().collect::<Vec<_>>()
            );
            assert_eq!(p.mru(), r.mru());
            assert_eq!(p.lru(), r.lru());
        }
    }

    #[test]
    fn packed_position_finds_every_way_at_full_occupancy() {
        let mut p = PackedLru::with_ways(16);
        for way in 0..16u8 {
            assert_eq!(p.position(way), Some(way as usize));
        }
        p.touch(15); // 15,0,1,..,14
        assert_eq!(p.position(15), Some(0));
        assert_eq!(p.position(14), Some(15));
        assert_eq!(p.lru(), Some(14));
    }

    #[test]
    fn packed_position_ignores_zeroed_tail_nibbles() {
        // Unused nibbles are zero; way 0 must not be "found" there.
        let mut p = PackedLru::new();
        assert_eq!(p.position(0), None);
        p.push_mru(3);
        assert_eq!(p.position(0), None);
        p.push_lru(0);
        assert_eq!(p.position(0), Some(1));
    }

    #[test]
    fn packed_remove_at_every_position() {
        for victim in 0..16u8 {
            let mut p = PackedLru::with_ways(16);
            let mut r = LruStack::with_ways(16);
            assert!(p.remove(victim));
            assert!(r.remove(victim));
            assert!(!p.remove(victim));
            assert_eq!(
                p.iter_from_mru().collect::<Vec<_>>(),
                r.iter_from_mru().collect::<Vec<_>>()
            );
            assert_eq!(p.len(), 15);
        }
    }

    #[test]
    fn packed_pop_lru_drains_in_reference_order() {
        let mut p = PackedLru::with_ways(5);
        let mut r = LruStack::with_ways(5);
        p.touch(2);
        r.touch(2);
        while let Some(w) = r.pop_lru() {
            assert_eq!(p.pop_lru(), Some(w));
        }
        assert_eq!(p.pop_lru(), None);
        assert!(p.is_empty());
    }

    #[test]
    fn packed_canonical_form_supports_eq() {
        // Two routes to the same ordering compare equal (tail nibbles
        // stay zeroed through pop/remove).
        let mut a = PackedLru::with_ways(3); // 0,1,2
        a.pop_lru(); // 0,1
        let mut b = PackedLru::new();
        b.push_mru(1);
        b.push_mru(0); // 0,1
        assert_eq!(a, b);
        let mut c = PackedLru::with_ways(3);
        c.remove(2);
        assert_eq!(a, c);
    }

    #[test]
    fn packed_iter_from_lru_matches_algorithm_1_walk() {
        let mut s = PackedLru::with_ways(4);
        s.touch(3); // 3,0,1,2
        assert_eq!(s.iter_from_lru().collect::<Vec<_>>(), vec![2, 1, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn packed_push_beyond_sixteen_ways_panics() {
        let mut s = PackedLru::with_ways(16);
        s.pop_lru();
        s.push_mru(15);
        s.push_lru(0); // 17th way
    }

    #[test]
    fn recency_picks_variant_by_associativity() {
        assert!(matches!(Recency::for_ways(16), Recency::Packed(_)));
        assert!(matches!(Recency::for_ways(32), Recency::Wide(_)));
    }

    #[test]
    fn recency_wide_handles_way_indices_beyond_nibble_range() {
        let mut r = Recency::for_ways(32);
        for way in [31u8, 17, 4, 20] {
            r.push_mru(way);
        }
        assert_eq!(r.mru(), Some(20));
        assert_eq!(r.lru(), Some(31));
        assert_eq!(r.position(17), Some(2));
        r.touch(31);
        assert_eq!(r.iter_from_lru().collect::<Vec<_>>(), vec![17, 4, 20, 31]);
        assert!(r.remove(4));
        assert_eq!(r.pop_lru(), Some(17));
    }

    // -----------------------------------------------------------------
    // Packed word vs the reference model, under random op sequences.

    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// A hit (or a miss-fill when absent): promote to MRU.
        Touch(u8),
        /// A victim pick: pop the LRU way.
        Victim,
        /// Algorithm 1's demotion: drop from one stack...
        Remove(u8),
        /// ...and reinsert at the other stack's LRU end.
        Demote(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..16).prop_map(Op::Touch),
            Just(Op::Victim),
            (0u8..16).prop_map(Op::Remove),
            (0u8..16).prop_map(Op::Demote),
        ]
    }

    proptest! {
        /// Every observable of [`PackedLru`] — order, ends, positions,
        /// membership, canonical equality — matches a `Vec<u8>` reference
        /// model (front = MRU) across random touch/victim/demote
        /// sequences. [`LruStack`] runs alongside as a second witness so
        /// the packed word and the wide fallback can never drift apart.
        #[test]
        fn packed_lru_matches_reference_model(ops in proptest::collection::vec(op(), 0..300)) {
            let mut packed = PackedLru::new();
            let mut wide = LruStack::new();
            let mut model: Vec<u8> = Vec::new(); // front = MRU
            for op in ops {
                match op {
                    Op::Touch(w) => {
                        packed.touch(w);
                        wide.touch(w);
                        model.retain(|&x| x != w);
                        model.insert(0, w);
                    }
                    Op::Victim => {
                        let expect = model.pop();
                        prop_assert_eq!(packed.pop_lru(), expect);
                        prop_assert_eq!(wide.pop_lru(), expect);
                    }
                    Op::Remove(w) => {
                        let present = model.contains(&w);
                        prop_assert_eq!(packed.remove(w), present);
                        prop_assert_eq!(wide.remove(w), present);
                        model.retain(|&x| x != w);
                    }
                    Op::Demote(w) => {
                        if !model.contains(&w) {
                            packed.push_lru(w);
                            wide.push_lru(w);
                            model.push(w);
                        }
                    }
                }
                prop_assert_eq!(packed.iter_from_mru().collect::<Vec<_>>(), model.clone());
                prop_assert_eq!(packed.iter_from_lru().collect::<Vec<_>>(),
                                model.iter().rev().copied().collect::<Vec<_>>());
                prop_assert_eq!(packed.len(), model.len());
                prop_assert_eq!(packed.mru(), model.first().copied());
                prop_assert_eq!(packed.lru(), model.last().copied());
                for w in 0u8..16 {
                    prop_assert_eq!(packed.position(w), model.iter().position(|&x| x == w));
                    prop_assert_eq!(packed.contains(w), model.contains(&w));
                }
                // The packed word never drifts from the wide fallback.
                prop_assert_eq!(packed.iter_from_mru().collect::<Vec<_>>(),
                                wide.iter_from_mru().collect::<Vec<_>>());
                // Canonical form: equal histories yield equal words.
                let mut replay = PackedLru::new();
                for w in model.iter().rev() {
                    replay.push_mru(*w);
                }
                prop_assert_eq!(replay, packed);
            }
        }
    }
}
