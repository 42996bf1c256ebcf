//! The shadow-tag table of Figure 4(b) with the set sampling of §4.6.
//!
//! Each monitored set has one *shadow tag* register per core. When a block
//! is evicted from the last-level cache, its block address is stored in the
//! shadow tag of the core that fetched it. A later miss whose address
//! matches the requester's shadow tag would have been a hit had that core
//! owned one more block in the set — the *gain* estimator of the adaptive
//! scheme.
//!
//! Section 4.6 shows that monitoring only the 1/16 of sets with the lowest
//! index is sufficient ("the tags with the lowest index represent the whole
//! cache very well"); the LRU-hit counters are still collected in all sets
//! and the comparison normalizes the shadow counts by the sampling factor.

use simcore::rng::SimRng;
use simcore::types::{BlockAddr, CoreId};

use crate::percore::PerCore;

/// Which subset of sets carries shadow-tag registers.
///
/// The paper (§4.6, citing the authors' earlier HiPC 2006 work) finds
/// that "monitoring the sets with the lowest index works well and better
/// than randomly generated subsets or subsets based on prime numbers".
/// All three strategies are provided so that claim can be re-examined
/// (see the `ablations` benchmark binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetSampling {
    /// Monitor the `sets >> shift` sets with the lowest index (the
    /// paper's choice; `shift = 4` is the 1/16 configuration).
    LowestIndex {
        /// log2 of the sampling ratio.
        shift: u32,
    },
    /// Monitor `sets >> shift` sets chosen uniformly at random.
    Random {
        /// log2 of the sampling ratio.
        shift: u32,
        /// Seed for the subset choice.
        seed: u64,
    },
    /// Monitor sets whose index is a multiple of a prime stride chosen
    /// to give approximately `sets >> shift` monitored sets.
    PrimeStride {
        /// log2 of the sampling ratio.
        shift: u32,
    },
}

impl SetSampling {
    /// The full-coverage configuration.
    pub const ALL: SetSampling = SetSampling::LowestIndex { shift: 0 };

    /// log2 of the sampling ratio (`shift = 4` samples 1/16 of sets).
    pub fn shift(&self) -> u32 {
        match self {
            SetSampling::LowestIndex { shift }
            | SetSampling::Random { shift, .. }
            | SetSampling::PrimeStride { shift } => *shift,
        }
    }

    /// Computes the monitored-set membership for a cache of `sets` sets.
    /// Also used by the set-sampled *full* simulation (`SampledL3`), which
    /// generalizes this table's §4.6 sampling to the whole last-level
    /// cache.
    pub fn membership(&self, sets: usize) -> Vec<bool> {
        let target = (sets >> self.shift()).max(1);
        match *self {
            SetSampling::LowestIndex { .. } => (0..sets).map(|i| i < target).collect(),
            SetSampling::Random { seed, .. } => {
                let mut picks: Vec<usize> = (0..sets).collect();
                SimRng::seed_from(seed ^ 0x5e75).shuffle(&mut picks);
                let mut member = vec![false; sets];
                for &i in picks.iter().take(target) {
                    member[i] = true;
                }
                member
            }
            SetSampling::PrimeStride { .. } => {
                let stride = next_prime(sets / target);
                let mut member = vec![false; sets];
                let mut count = 0;
                let mut i = 0;
                while i < sets && count < target {
                    member[i] = true;
                    count += 1;
                    i += stride;
                }
                member
            }
        }
    }
}

fn next_prime(n: usize) -> usize {
    fn is_prime(x: usize) -> bool {
        if x < 2 {
            return false;
        }
        let mut d = 2;
        while d * d <= x {
            if x.is_multiple_of(d) {
                return false;
            }
            d += 1;
        }
        true
    }
    let mut p = n.max(2);
    while !is_prime(p) {
        p += 1;
    }
    p
}

/// Shadow-tag table: one evicted-tag register per (monitored set, core),
/// plus the per-core "hits in the shadow tags" counters of Figure 4(c).
///
/// # Example
///
/// ```
/// use cachesim::shadow::ShadowTags;
/// use simcore::types::{BlockAddr, CoreId};
///
/// let mut st = ShadowTags::new(4096, 4, 0); // monitor every set
/// let c1 = CoreId::from_index(1);
/// st.record_eviction(7, c1, BlockAddr::new(0xabc));
/// assert!(st.check_miss(7, c1, BlockAddr::new(0xabc)));
/// assert_eq!(st.hits(c1), 1);
/// assert!(!st.check_miss(7, c1, BlockAddr::new(0xdef)));
/// ```
#[derive(Debug, Clone)]
pub struct ShadowTags {
    cores: usize,
    monitored_sets: usize,
    /// Sampling factor: total sets / monitored sets.
    factor: u64,
    /// Compact register slot per set; `-1` = unmonitored.
    slot_of: Vec<i32>,
    /// `cores * monitored_sets` raw block addresses, core-major so one
    /// core's registers are contiguous; [`EMPTY_TAG`] = empty register.
    /// A flat `u64` array keeps the per-miss probe a single load and
    /// compare (no `Option` discriminant in the hot path).
    tags: Vec<u64>,
    hits: PerCore<u64>,
}

/// Sentinel for an empty shadow register. Block addresses are cache-line
/// addresses (physical address >> 6), so `u64::MAX` can never collide.
const EMPTY_TAG: u64 = u64::MAX;

impl ShadowTags {
    /// Creates a shadow-tag table for a cache with `sets` sets and `cores`
    /// cores, monitoring the `sets >> sample_shift` sets with the lowest
    /// index (`sample_shift = 4` is the paper's 1/16 configuration;
    /// `sample_shift = 0` monitors every set).
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `cores` is zero, or if the shift leaves no
    /// monitored sets.
    pub fn new(sets: usize, cores: usize, sample_shift: u32) -> Self {
        ShadowTags::with_sampling(
            sets,
            cores,
            SetSampling::LowestIndex {
                shift: sample_shift,
            },
        )
    }

    /// Creates a shadow-tag table with an explicit [`SetSampling`]
    /// strategy.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `cores` is zero, or if the sampling leaves no
    /// monitored sets.
    pub fn with_sampling(sets: usize, cores: usize, sampling: SetSampling) -> Self {
        assert!(sets > 0 && cores > 0, "shadow tags need sets and cores");
        let member = sampling.membership(sets);
        let mut slot_of = vec![-1i32; sets];
        let mut monitored_sets = 0usize;
        for (i, m) in member.iter().enumerate() {
            if *m {
                slot_of[i] = monitored_sets as i32;
                monitored_sets += 1;
            }
        }
        assert!(monitored_sets > 0, "sampling leaves no monitored sets");
        ShadowTags {
            cores,
            monitored_sets,
            factor: (sets / monitored_sets) as u64,
            slot_of,
            tags: vec![EMPTY_TAG; cores * monitored_sets],
            hits: PerCore::filled(cores, 0),
        }
    }

    /// Whether `set` is monitored (§4.6).
    #[inline]
    pub fn monitors(&self, set: usize) -> bool {
        self.slot_of[set] >= 0
    }

    /// Number of monitored sets.
    #[inline]
    pub fn monitored_sets(&self) -> usize {
        self.monitored_sets
    }

    /// The sampling factor used to normalize shadow-hit counts when they
    /// are compared against LRU-hit counts collected over all sets.
    #[inline]
    pub fn normalization_factor(&self) -> u64 {
        self.factor
    }

    #[inline]
    fn slot(&self, set: usize, core: CoreId) -> usize {
        core.index() * self.monitored_sets + self.slot_of[set] as usize
    }

    /// Records the tag of a block evicted on behalf of `owner` from `set`.
    /// Ignored for unmonitored sets.
    pub fn record_eviction(&mut self, set: usize, owner: CoreId, addr: BlockAddr) {
        if self.monitors(set) {
            let slot = self.slot(set, owner);
            self.tags[slot] = addr.raw();
        }
    }

    /// Called on a last-level miss by `requester` in `set` for `addr`.
    /// Returns `true` (and counts a shadow hit) when the shadow tag
    /// matches, i.e. one more block per set would have made this a hit.
    pub fn check_miss(&mut self, set: usize, requester: CoreId, addr: BlockAddr) -> bool {
        if !self.monitors(set) {
            return false;
        }
        let slot = self.slot(set, requester);
        if self.tags[slot] == addr.raw() {
            self.hits[requester] += 1;
            true
        } else {
            false
        }
    }

    /// Raw shadow-hit count for `core` since the last reset.
    #[inline]
    pub fn hits(&self, core: CoreId) -> u64 {
        self.hits[core]
    }

    /// Shadow-hit count scaled by the sampling factor, comparable against
    /// LRU-hit counts collected over all sets.
    #[inline]
    pub fn normalized_hits(&self, core: CoreId) -> u64 {
        self.hits[core] * self.factor
    }

    /// Resets the hit counters (tag registers persist across periods).
    pub fn reset_counters(&mut self) {
        for h in self.hits.iter_mut() {
            *h = 0;
        }
    }

    /// Storage cost in bits for the monitored registers, assuming `t`-bit
    /// tags (the `0.06 * s * p * t` term of §2.7).
    pub fn storage_bits(&self, tag_bits: u64) -> u64 {
        (self.monitored_sets * self.cores) as u64 * tag_bits
    }

    /// Writes the mutable state (registers, hit counters) to a snapshot.
    /// The membership map is derived from configuration and not written.
    pub fn save_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        w.put_u64_slice(&self.tags);
        w.put_usize(self.cores);
        for core in CoreId::all(self.cores) {
            w.put_u64(self.hits[core]);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError::Mismatch`] when register or
    /// core counts differ from this table's configuration.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::SnapshotError;
        let tags = r.get_u64_vec()?;
        if tags.len() != self.tags.len() {
            return Err(SnapshotError::Mismatch("shadow tag geometry"));
        }
        self.tags = tags;
        let cores = r.get_usize()?;
        if cores != self.cores {
            return Err(SnapshotError::Mismatch("shadow tag core count"));
        }
        for h in self.hits.iter_mut() {
            *h = r.get_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u8) -> CoreId {
        CoreId::from_index(i)
    }

    #[test]
    fn eviction_then_matching_miss_counts_hit() {
        let mut st = ShadowTags::new(64, 4, 0);
        st.record_eviction(3, c(2), BlockAddr::new(0x55));
        assert!(st.check_miss(3, c(2), BlockAddr::new(0x55)));
        assert_eq!(st.hits(c(2)), 1);
    }

    #[test]
    fn miss_on_other_core_register_does_not_count() {
        let mut st = ShadowTags::new(64, 4, 0);
        st.record_eviction(3, c(2), BlockAddr::new(0x55));
        assert!(!st.check_miss(3, c(1), BlockAddr::new(0x55)));
        assert_eq!(st.hits(c(1)), 0);
    }

    #[test]
    fn new_eviction_overwrites_register() {
        let mut st = ShadowTags::new(64, 2, 0);
        st.record_eviction(0, c(0), BlockAddr::new(1));
        st.record_eviction(0, c(0), BlockAddr::new(2));
        assert!(!st.check_miss(0, c(0), BlockAddr::new(1)));
        assert!(st.check_miss(0, c(0), BlockAddr::new(2)));
    }

    #[test]
    fn sampling_monitors_lowest_index_sets() {
        let st = ShadowTags::new(4096, 4, 4);
        assert_eq!(st.monitored_sets(), 256);
        assert!(st.monitors(0) && st.monitors(255));
        assert!(!st.monitors(256) && !st.monitors(4095));
        assert_eq!(st.normalization_factor(), 16);
    }

    #[test]
    fn unmonitored_sets_are_ignored() {
        let mut st = ShadowTags::new(64, 2, 2); // monitor 16 sets
        st.record_eviction(20, c(0), BlockAddr::new(9));
        assert!(!st.check_miss(20, c(0), BlockAddr::new(9)));
        assert_eq!(st.hits(c(0)), 0);
    }

    #[test]
    fn normalized_hits_scale_by_factor() {
        let mut st = ShadowTags::new(64, 2, 2);
        st.record_eviction(1, c(0), BlockAddr::new(9));
        st.check_miss(1, c(0), BlockAddr::new(9));
        assert_eq!(st.hits(c(0)), 1);
        assert_eq!(st.normalized_hits(c(0)), 4);
    }

    #[test]
    fn reset_clears_counters_not_tags() {
        let mut st = ShadowTags::new(64, 2, 0);
        st.record_eviction(0, c(0), BlockAddr::new(9));
        st.check_miss(0, c(0), BlockAddr::new(9));
        st.reset_counters();
        assert_eq!(st.hits(c(0)), 0);
        assert!(
            st.check_miss(0, c(0), BlockAddr::new(9)),
            "tag register persists"
        );
    }

    #[test]
    fn storage_cost_matches_formula() {
        // 6% of 4096 sets = 256 sets, 4 cores, 24-bit tags.
        let st = ShadowTags::new(4096, 4, 4);
        assert_eq!(st.storage_bits(24), 256 * 4 * 24);
    }

    #[test]
    fn excessive_shift_clamps_to_one_set() {
        let st = ShadowTags::new(8, 2, 4);
        assert_eq!(st.monitored_sets(), 1);
        assert!(st.monitors(0));
        assert!(!st.monitors(7));
    }

    #[test]
    fn random_sampling_monitors_expected_count() {
        let st = ShadowTags::with_sampling(64, 2, SetSampling::Random { shift: 2, seed: 9 });
        assert_eq!(st.monitored_sets(), 16);
        assert_eq!(st.normalization_factor(), 4);
        let monitored: Vec<usize> = (0..64).filter(|&i| st.monitors(i)).collect();
        assert_eq!(monitored.len(), 16);
        // Random sampling is not simply the lowest-index prefix.
        assert_ne!(monitored, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn prime_stride_sampling_uses_a_prime_step() {
        let st = ShadowTags::with_sampling(64, 2, SetSampling::PrimeStride { shift: 2 });
        let monitored: Vec<usize> = (0..64).filter(|&i| st.monitors(i)).collect();
        assert!(!monitored.is_empty());
        // Consecutive monitored sets differ by the same prime stride (5 for 64>>2=16 -> 64/16=4 -> next prime 5).
        for w in monitored.windows(2) {
            assert_eq!(w[1] - w[0], 5);
        }
    }

    #[test]
    fn check_miss_matches_a_register_model() {
        // One register per (monitored set, core): a miss is a shadow hit
        // exactly when the requester's register holds the address.
        use simcore::rng::SimRng;
        let mut st = ShadowTags::new(32, 4, 1);
        let mut model = vec![u64::MAX; 4 * 32];
        let mut rng = SimRng::seed_from(17);
        for _ in 0..5_000 {
            let set = rng.below(32) as usize;
            let core = rng.below(4) as u8;
            let a = BlockAddr::new(rng.below(1 << 16));
            if rng.chance(0.5) {
                st.record_eviction(set, c(core), a);
                if st.monitors(set) {
                    model[usize::from(core) * 32 + set] = a.raw();
                }
            } else {
                let expect = st.monitors(set) && model[usize::from(core) * 32 + set] == a.raw();
                assert_eq!(st.check_miss(set, c(core), a), expect);
            }
        }
    }

    #[test]
    fn sampled_strategies_still_count_hits() {
        for sampling in [
            SetSampling::LowestIndex { shift: 1 },
            SetSampling::Random { shift: 1, seed: 3 },
            SetSampling::PrimeStride { shift: 1 },
        ] {
            let mut st = ShadowTags::with_sampling(32, 2, sampling);
            let set = (0..32).find(|&i| st.monitors(i)).unwrap();
            st.record_eviction(set, CoreId::from_index(0), BlockAddr::new(42));
            assert!(st.check_miss(set, CoreId::from_index(0), BlockAddr::new(42)));
            assert_eq!(st.hits(CoreId::from_index(0)), 1);
        }
    }
}
