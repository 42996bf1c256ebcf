//! Dependency distances by table lookup.
//!
//! A [`MicroOp`](crate::op::MicroOp) carries each dependency as a raw
//! draw, the 53 bits [`SimRng::next_f64`](simcore::rng::SimRng::next_f64)
//! scales. Its distance is the geometric variate [`ln_distance`]
//! computes, `1 + min(63, ⌊ln u / ln(1 − 1/dep_mean)⌋)` of the uniform
//! `u` the draw encodes. That expression is non-increasing in the draw:
//! the draw converts to `u` exactly, the clamp and `ln` keep order, and
//! dividing by the negative constant then truncating reverses it. So 63
//! thresholds fix it: `thresholds[k - 1]` is the least draw whose
//! distance is at most `k`, and a draw's distance is one plus the number
//! of thresholds above it.
//!
//! A [`DepTable`] finds the thresholds once, by bisection over
//! [`ln_distance`] itself, and files them into 256 buckets by the draw's
//! top 8 bits. A bucket gives the distance of its top draw, plus one for
//! a draw below the single threshold inside it; the few buckets holding
//! several thresholds count them instead. Either way the answer is the
//! expression's, bit for bit, and a lookup takes no logarithm.

use std::sync::{Arc, Mutex, PoisonError};

use crate::op::NO_DEP;

/// Bits in a dependency draw.
const DRAW_BITS: u32 = 53;
/// The largest draw.
const MAX_DRAW: u64 = (1 << DRAW_BITS) - 1;
/// A draw's bucket is its top 8 bits.
const BUCKET_SHIFT: u32 = DRAW_BITS - 8;
/// Buckets of draws; one more entry serves [`NO_DEP`].
const BUCKETS: usize = 1 << (DRAW_BITS - BUCKET_SHIFT);
/// The largest distance, and one more than the number of thresholds.
const CAP: u64 = 64;

/// The distance of dependency draw `draw` under a profile's `dep_mean`:
/// `1 + min(63, ⌊ln u / ln(1 − 1/dep_mean)⌋)` of `u = max(draw · 2^-53,
/// f64::MIN_POSITIVE)`, and 1 for every draw when `dep_mean <= 1`. The
/// expression [`DepTable`] reproduces; it runs only while a table is
/// built, and in tests as the oracle.
pub(crate) fn ln_distance(dep_mean: f64, draw: u64) -> u64 {
    let dep_p = 1.0 / dep_mean;
    if dep_p >= 1.0 {
        return 1;
    }
    let dep_ln = (1.0 - dep_p).ln();
    let u = (draw as f64 * (1.0 / (1u64 << 53) as f64)).max(f64::MIN_POSITIVE);
    1 + ((u.ln() / dep_ln) as u64).min(CAP - 1)
}

/// The draws sharing their top 8 bits.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    /// The single threshold inside the bucket, or 0 when there is none:
    /// draws below it are one further than the bucket's top draw.
    threshold: u64,
    /// The distance of the bucket's top draw (0 for the [`NO_DEP`] entry).
    top: u32,
    /// More than one threshold lies inside the bucket, so a lookup counts
    /// the thresholds instead.
    several: bool,
}

/// The dependency distances of one `dep_mean`, as an exact lookup table
/// (see the module documentation).
pub(crate) struct DepTable {
    /// `thresholds[k - 1]` is the least draw whose distance is at most `k`.
    thresholds: [u64; CAP as usize - 1],
    /// Indexed by the draw's top 8 bits; entry [`BUCKETS`] serves
    /// [`NO_DEP`].
    buckets: [Bucket; BUCKETS + 1],
}

impl std::fmt::Debug for DepTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepTable")
            .field("thresholds", &self.thresholds)
            .finish_non_exhaustive()
    }
}

/// The tables built so far, by `dep_mean.to_bits()`: the generators of
/// one profile share a table, so a process builds each at most once.
static TABLES: Mutex<Vec<(u64, Arc<DepTable>)>> = Mutex::new(Vec::new());

impl DepTable {
    /// The table for `dep_mean`, built on first use. `dep_mean` must be
    /// finite and at least 1, as [`AppProfile::validate`] requires.
    ///
    /// [`AppProfile::validate`]: crate::profile::AppProfile::validate
    pub(crate) fn shared(dep_mean: f64) -> Arc<DepTable> {
        let key = dep_mean.to_bits();
        // The list is complete after every push, so a panic elsewhere
        // cannot leave it half-written.
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, table)) = tables.iter().find(|(k, _)| *k == key) {
            return Arc::clone(table);
        }
        let table = Arc::new(DepTable::build(dep_mean));
        tables.push((key, Arc::clone(&table)));
        table
    }

    fn build(dep_mean: f64) -> DepTable {
        debug_assert!(dep_mean.is_finite() && dep_mean >= 1.0);
        let mut thresholds = [0; CAP as usize - 1];
        // Thresholds fall as `k` rises, so each bisection starts below
        // the previous threshold; the top draw has distance 1.
        let mut hi = MAX_DRAW;
        for (k, t) in (1..CAP).zip(&mut thresholds) {
            let mut lo = 0;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if ln_distance(dep_mean, mid) <= k {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            *t = hi;
        }
        let mut buckets = [Bucket::default(); BUCKETS + 1];
        for (b, bucket) in (0u64..).zip(&mut buckets[..BUCKETS]) {
            let (first, top) = (b << BUCKET_SHIFT, ((b + 1) << BUCKET_SHIFT) - 1);
            let mut inside = thresholds
                .iter()
                .copied()
                .filter(|t| (first + 1..=top).contains(t));
            *bucket = Bucket {
                threshold: inside.next().unwrap_or(0),
                top: count_above(&thresholds, top),
                several: inside.next().is_some(),
            };
        }
        DepTable {
            thresholds,
            buckets,
        }
    }

    /// The distance of `draw`, a dependency draw or [`NO_DEP`] (0).
    #[inline]
    pub(crate) fn distance(&self, draw: u64) -> u64 {
        let index = (draw >> BUCKET_SHIFT).min(BUCKETS as u64) as usize;
        let bucket = self.buckets[index];
        if bucket.several {
            return u64::from(count_above(&self.thresholds, draw));
        }
        u64::from(bucket.top) + u64::from(draw < bucket.threshold)
    }

    /// How many buckets hold several thresholds.
    #[cfg(test)]
    fn several_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| b.several).count()
    }
}

/// The distance of `draw` by counting the thresholds above it.
fn count_above(thresholds: &[u64], draw: u64) -> u32 {
    1 + thresholds.iter().map(|&t| u32::from(draw < t)).sum::<u32>()
}

// `NO_DEP` lands in the last entry, whose zero threshold and top give 0.
const _: () = assert!(NO_DEP >> BUCKET_SHIFT >= BUCKETS as u64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::profile::AppProfileBuilder;
    use crate::spec::SpecApp;
    use simcore::rng::SimRng;

    /// Custom `dep_mean`s: the all-ones profile, one barely above it
    /// (every threshold crowds into the lowest draws, many coincide), the
    /// SPEC range, and means whose thresholds crowd into the highest
    /// buckets (1000 reaches the cap of 64 on the lowest draws).
    const CUSTOM_MEANS: [f64; 9] = [1.0, 1.000_000_1, 1.5, 2.0, 8.0, 16.0, 32.0, 64.0, 1000.0];

    /// Each SPEC profile's count of buckets holding several thresholds,
    /// in [`SpecApp::ALL`] order. A draw lands in one with probability
    /// count / 256: the share of lookups that count thresholds.
    const SPEC_SEVERAL: [usize; 24] = [
        2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 3, 2, 2, 3, 2, 3, 3, 3, 2, 2,
    ];

    /// Every generator under test: the SPEC profiles, then the custom
    /// means.
    fn generators() -> Vec<(String, TraceGenerator)> {
        let spec = SpecApp::ALL.iter().map(|app| {
            let p = app.profile();
            (
                p.name.to_string(),
                TraceGenerator::new(p, SimRng::seed_from(1)),
            )
        });
        let custom = CUSTOM_MEANS.iter().map(|&mean| {
            let p = AppProfileBuilder::new("custom")
                .dep_mean(mean)
                .build()
                .unwrap();
            (
                format!("dep_mean {mean}"),
                TraceGenerator::new(&p, SimRng::seed_from(1)),
            )
        });
        spec.chain(custom).collect()
    }

    /// Compares `dep_distance` with the `ln` oracle on `around` draws
    /// either side of every threshold, the extreme draws, [`NO_DEP`] and
    /// `random` uniform draws.
    fn check_against_oracle(around: u64, random: usize) {
        for (name, g) in generators() {
            let mean = g.profile().dep_mean;
            let table = DepTable::shared(mean);
            let check = |draw: u64| {
                assert_eq!(
                    g.dep_distance(draw),
                    ln_distance(mean, draw),
                    "{name}: draw {draw:#x}"
                );
            };
            let mut thresholds = table.thresholds.to_vec();
            thresholds.dedup();
            for t in thresholds {
                let lo = t.saturating_sub(around);
                let hi = t.saturating_add(around).min(MAX_DRAW);
                (lo..=hi).for_each(check);
            }
            [0, 1, 2, MAX_DRAW].into_iter().for_each(check);
            assert_eq!(g.dep_distance(NO_DEP), 0, "{name}");
            let mut rng = SimRng::seed_from(mean.to_bits());
            (0..random).for_each(|_| check(rng.next_u64() >> 11));
        }
    }

    #[test]
    fn table_matches_the_ln_oracle() {
        check_against_oracle(4096, 100_000);
    }

    #[test]
    #[ignore = "10-20 s in release; CI runs it with --ignored"]
    fn table_matches_the_ln_oracle_widely() {
        check_against_oracle(1 << 16, 10_000_000);
    }

    #[test]
    fn spec_profiles_count_thresholds_in_few_buckets() {
        let several: Vec<usize> = SpecApp::ALL
            .iter()
            .map(|app| DepTable::shared(app.profile().dep_mean).several_buckets())
            .collect();
        assert_eq!(several, SPEC_SEVERAL);
    }

    #[test]
    fn tables_are_shared_per_mean() {
        let a = DepTable::shared(3.0);
        assert!(Arc::ptr_eq(&a, &DepTable::shared(3.0)));
        assert!(!Arc::ptr_eq(&a, &DepTable::shared(3.5)));
    }
}
