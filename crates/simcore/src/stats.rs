//! Hit/miss tallies and the summary statistics the paper reports.
//!
//! The paper evaluates schemes by the **harmonic mean** of per-core IPC
//! (Section 2.6 argues this is the right objective for multiprogrammed
//! CMPs, citing Smith), with the arithmetic mean reported alongside.
//! This module provides those reductions plus the hit/miss tally used by
//! the cache models.

use std::fmt;

/// Hit/miss bookkeeping for one cache (or one core's view of a cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitMiss {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl HitMiss {
    /// Creates zeroed hit/miss counters.
    pub const fn new() -> Self {
        HitMiss { hits: 0, misses: 0 }
    }

    /// Total accesses.
    #[inline]
    pub const fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: HitMiss) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

impl fmt::Display for HitMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.2}% miss)",
            self.hits,
            self.misses,
            self.miss_ratio() * 100.0
        )
    }
}

/// Harmonic mean of per-core IPC values (the paper's headline metric).
///
/// Returns zero for an empty slice; a zero element makes the mean zero,
/// mirroring that a stalled core dominates harmonic performance.
///
/// # Example
///
/// ```
/// use simcore::stats::harmonic_mean;
/// let hm = harmonic_mean(&[1.0, 1.0, 1.0, 0.5]);
/// assert!((hm - 0.8).abs() < 1e-12);
/// ```
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut denom = 0.0;
    for &v in values {
        if v <= 0.0 {
            return 0.0;
        }
        denom += 1.0 / v;
    }
    values.len() as f64 / denom
}

/// Arithmetic mean; zero for an empty slice.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; zero if any value is non-positive or
/// the slice is empty. Used when averaging speedup ratios across mixes.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut log_sum = 0.0;
    for &v in values {
        if v <= 0.0 {
            return 0.0;
        }
        log_sum += v.ln();
    }
    (log_sum / values.len() as f64).exp()
}

/// Relative speedup of `new` over `baseline` (1.0 = parity).
///
/// Returns zero when the baseline is non-positive (undefined speedup).
pub fn speedup(new: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        new / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_ratio_and_merge() {
        let mut a = HitMiss { hits: 3, misses: 1 };
        assert!((a.miss_ratio() - 0.25).abs() < 1e-12);
        a.merge(HitMiss { hits: 1, misses: 3 });
        assert_eq!(a.accesses(), 8);
        assert!((a.miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(HitMiss::new().miss_ratio(), 0.0);
    }

    #[test]
    fn harmonic_mean_matches_hand_computation() {
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 0.5]) - (2.0 / 3.0)).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert_eq!(harmonic_mean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn harmonic_le_geometric_le_arithmetic() {
        let v = [0.3, 1.1, 2.7, 0.9];
        let h = harmonic_mean(&v);
        let g = geometric_mean(&v);
        let a = arithmetic_mean(&v);
        assert!(h <= g + 1e-12 && g <= a + 1e-12);
    }

    #[test]
    fn speedup_handles_degenerate_baseline() {
        assert!((speedup(1.2, 1.0) - 1.2).abs() < 1e-12);
        assert_eq!(speedup(1.0, 0.0), 0.0);
    }
}
