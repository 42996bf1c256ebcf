//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the simulator (workload generators, the
//! cooperative scheme's random neighbor choice, workload mixing) draws from
//! a [`SimRng`], a xoshiro256** generator seeded through SplitMix64. The
//! implementation is self-contained so results are bit-identical across
//! platforms and library versions — a requirement for a reproduction whose
//! experiment tables must be regenerable.

/// A deterministic xoshiro256** pseudo-random number generator.
///
/// # Example
///
/// ```
/// use simcore::rng::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let state = [next_sm(), next_sm(), next_sm(), next_sm()];
        SimRng { state }
    }

    /// Derives an independent child generator; used to give each core and
    /// each application its own stream from one experiment seed.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d);
        SimRng::seed_from(s)
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// A uniformly random integer in `[0, bound)` (Lemire's method).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a nonzero bound");
        // Widening-multiply rejection sampling; bias is < 2^-64 * bound and
        // corrected by the rejection loop.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniformly random integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range() requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// A uniform floating-point number in `[0, 1)` with 53 bits of
    /// precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks an index according to the given relative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weighted() requires positive weights"
        );
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= *w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Writes the generator state to a snapshot.
    pub fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        for s in self.state {
            w.put_u64(s);
        }
    }

    /// Restores the generator state from a snapshot.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from the reader.
    pub fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        for s in &mut self.state {
            *s = r.get_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut rng = SimRng::seed_from(3);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(11);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[rng.below(8) as usize] += 1;
        }
        for b in buckets {
            assert!(
                (8_000..12_000).contains(&b),
                "bucket count {b} far from 10000"
            );
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = SimRng::seed_from(13);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[rng.weighted(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 30_000.0;
        assert!((frac2 - 0.7).abs() < 0.05);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::seed_from(21);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
