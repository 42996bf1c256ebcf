//! The combined branch predictor and branch target buffer of Table 1.
//!
//! SimpleScalar's "comb" predictor: a 4K-entry bimodal table, a 2-level
//! (gshare-style) predictor with a 10-bit global history indexing a
//! 1K-entry pattern table, and a 4K-entry chooser that learns which
//! component to trust per branch. A 512-entry, 4-way BTB supplies targets;
//! a taken branch that misses in the BTB costs a misfetch even when the
//! direction was predicted correctly.

use simcore::config::BranchConfig;
use simcore::types::Address;

/// A 2-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sat2(u8);

impl Sat2 {
    const WEAK_TAKEN: Sat2 = Sat2(2);

    #[inline]
    fn predict(self) -> bool {
        self.0 >= 2
    }

    #[inline]
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// The combined (bimodal + 2-level + chooser) predictor with BTB.
///
/// # Example
///
/// ```
/// use cpusim::branch::BranchPredictor;
/// use simcore::config::BranchConfig;
/// use simcore::types::Address;
///
/// let mut bp = BranchPredictor::new(BranchConfig::default());
/// let pc = Address::new(0x400100);
/// // A heavily-biased branch is learned quickly.
/// for _ in 0..8 { bp.access(pc, true); }
/// assert!(bp.access(pc, true));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: BranchConfig,
    bimodal: Vec<Sat2>,
    level2: Vec<Sat2>,
    chooser: Vec<Sat2>,
    history: u32,
    history_mask: u32,
    /// BTB: `btb_entries / btb_assoc` sets of `btb_assoc` tags with LRU
    /// counters.
    btb: Vec<(u64, u64)>, // (tag, last_use)
    /// The BTB set count minus one (the count is a power of two).
    btb_set_mask: usize,
    btb_use: u64,
    predictions: u64,
    mispredictions: u64,
}

impl BranchPredictor {
    /// Creates a predictor with the given table sizes.
    ///
    /// # Panics
    ///
    /// Panics if any table size, or the BTB's set count, is zero or not a
    /// power of two where an index mask is required, or if the BTB does
    /// not divide into whole sets.
    pub fn new(cfg: BranchConfig) -> Self {
        assert!(
            cfg.bimodal_entries.is_power_of_two(),
            "bimodal table must be a power of two"
        );
        assert!(
            cfg.level2_entries.is_power_of_two(),
            "level-2 table must be a power of two"
        );
        assert!(
            cfg.chooser_entries.is_power_of_two(),
            "chooser table must be a power of two"
        );
        assert!(
            cfg.btb_assoc > 0 && cfg.btb_entries.is_multiple_of(cfg.btb_assoc),
            "BTB must divide into whole sets"
        );
        let btb_sets = cfg.btb_entries / cfg.btb_assoc;
        assert!(
            btb_sets.is_power_of_two(),
            "BTB set count must be a power of two"
        );
        BranchPredictor {
            bimodal: vec![Sat2::WEAK_TAKEN; cfg.bimodal_entries],
            level2: vec![Sat2::WEAK_TAKEN; cfg.level2_entries],
            chooser: vec![Sat2::WEAK_TAKEN; cfg.chooser_entries],
            history: 0,
            history_mask: (1u32 << cfg.history_bits) - 1,
            btb: vec![(u64::MAX, 0); cfg.btb_entries],
            btb_set_mask: btb_sets - 1,
            btb_use: 0,
            predictions: 0,
            mispredictions: 0,
            cfg,
        }
    }

    #[inline]
    fn bimodal_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.bimodal_entries - 1)
    }

    #[inline]
    fn level2_idx(&self, pc: u64) -> usize {
        (((pc >> 2) as u32 ^ self.history) as usize) & (self.cfg.level2_entries - 1)
    }

    #[inline]
    fn chooser_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.chooser_entries - 1)
    }

    /// Predicts the direction for `pc` without updating any state.
    pub fn predict(&self, pc: Address) -> bool {
        let pc = pc.raw();
        let bi = self.bimodal[self.bimodal_idx(pc)].predict();
        let l2 = self.level2[self.level2_idx(pc)].predict();
        if self.chooser[self.chooser_idx(pc)].predict() {
            l2
        } else {
            bi
        }
    }

    fn btb_lookup_update(&mut self, pc: u64, taken: bool) -> bool {
        let set = (pc >> 2) as usize & self.btb_set_mask;
        let base = set * self.cfg.btb_assoc;
        self.btb_use += 1;
        let ways = &mut self.btb[base..base + self.cfg.btb_assoc];
        if let Some(w) = ways.iter_mut().find(|(tag, _)| *tag == pc) {
            w.1 = self.btb_use;
            return true;
        }
        if taken {
            // Allocate on taken branches, LRU replacement (associativity is
            // validated nonzero at construction, so a victim always exists).
            if let Some(victim) = ways.iter_mut().min_by_key(|(_, last)| *last) {
                *victim = (pc, self.btb_use);
            }
        }
        false
    }

    /// Performs a full predict-and-update cycle for a resolved branch:
    /// consults the combined predictor and the BTB, then trains every
    /// component with the architected outcome. Returns `true` when the
    /// front end fetched correctly (right direction, and a known target
    /// for taken branches).
    pub fn access(&mut self, pc: Address, taken: bool) -> bool {
        let raw = pc.raw();
        let bi_idx = self.bimodal_idx(raw);
        let l2_idx = self.level2_idx(raw);
        let ch_idx = self.chooser_idx(raw);
        let bi = self.bimodal[bi_idx].predict();
        let l2 = self.level2[l2_idx].predict();
        let use_l2 = self.chooser[ch_idx].predict();
        let dir = if use_l2 { l2 } else { bi };

        let btb_hit = self.btb_lookup_update(raw, taken);
        let correct = dir == taken && (!taken || btb_hit);

        // Train direction tables.
        self.bimodal[bi_idx].update(taken);
        self.level2[l2_idx].update(taken);
        // Chooser trains toward the component that was right (only when
        // they disagree).
        if bi != l2 {
            self.chooser[ch_idx].update(l2 == taken);
        }
        self.history = ((self.history << 1) | taken as u32) & self.history_mask;

        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Number of predictions made since the last reset.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Number of mispredictions (wrong direction or missing target).
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Misprediction ratio in `[0, 1]`.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Clears statistics (learned state is kept).
    pub fn reset_stats(&mut self) {
        self.predictions = 0;
        self.mispredictions = 0;
    }

    /// Writes the learned tables, history, BTB and statistics to a
    /// snapshot.
    pub fn save_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        for table in [&self.bimodal, &self.level2, &self.chooser] {
            w.put_usize(table.len());
            for s in table {
                w.put_u8(s.0);
            }
        }
        w.put_u32(self.history);
        w.put_usize(self.btb.len());
        for &(tag, last) in &self.btb {
            w.put_u64(tag);
            w.put_u64(last);
        }
        w.put_u64(self.btb_use);
        w.put_u64(self.predictions);
        w.put_u64(self.mispredictions);
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError::Mismatch`] when any table
    /// size differs from this predictor's configuration;
    /// [`simcore::snapshot::SnapshotError::Corrupt`] for a saturating
    /// counter above 3 or a global history with bits above the history
    /// mask.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::SnapshotError;
        for table in [&mut self.bimodal, &mut self.level2, &mut self.chooser] {
            let n = r.get_usize()?;
            if n != table.len() {
                return Err(SnapshotError::Mismatch("branch predictor table size"));
            }
            for s in table.iter_mut() {
                let v = r.get_u8()?;
                if v > 3 {
                    return Err(SnapshotError::Corrupt("saturating counter > 3"));
                }
                *s = Sat2(v);
            }
        }
        self.history = r.get_u32()?;
        if self.history & !self.history_mask != 0 {
            return Err(SnapshotError::Corrupt("global history wider than its mask"));
        }
        let n = r.get_usize()?;
        if n != self.btb.len() {
            return Err(SnapshotError::Mismatch("BTB size"));
        }
        for e in &mut self.btb {
            e.0 = r.get_u64()?;
            e.1 = r.get_u64()?;
        }
        self.btb_use = r.get_u64()?;
        self.predictions = r.get_u64()?;
        self.mispredictions = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::SimRng;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(BranchConfig::default())
    }

    #[test]
    fn learns_strongly_biased_branch() {
        let mut p = bp();
        let pc = Address::new(0x400010);
        for _ in 0..10 {
            p.access(pc, true);
        }
        p.reset_stats();
        for _ in 0..100 {
            p.access(pc, true);
        }
        assert_eq!(p.mispredictions(), 0);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        // A strict alternation is invisible to bimodal but perfectly
        // predictable from 10 bits of history.
        let mut p = bp();
        let pc = Address::new(0x400020);
        let mut t = false;
        for _ in 0..2_000 {
            p.access(pc, t);
            t = !t;
        }
        p.reset_stats();
        for _ in 0..500 {
            p.access(pc, t);
            t = !t;
        }
        assert!(
            p.mispredict_ratio() < 0.05,
            "alternation should be learned, got {}",
            p.mispredict_ratio()
        );
    }

    #[test]
    fn random_branches_are_hard() {
        let mut p = bp();
        let mut rng = SimRng::seed_from(5);
        let pc = Address::new(0x400030);
        for _ in 0..2_000 {
            p.access(pc, rng.chance(0.5));
        }
        assert!(p.mispredict_ratio() > 0.3, "random branch must stay hard");
    }

    #[test]
    fn biased_pool_reaches_expected_accuracy() {
        // 90 %-biased branches should be predicted near 90 %.
        let mut p = bp();
        let mut rng = SimRng::seed_from(6);
        for _ in 0..50_000 {
            let b = rng.below(64);
            let pc = Address::new(0x400000 + b * 4);
            let bias = if b.is_multiple_of(2) { 0.9 } else { 0.1 };
            p.access(pc, rng.chance(bias));
        }
        let acc = 1.0 - p.mispredict_ratio();
        assert!((0.82..0.95).contains(&acc), "accuracy {acc}");
    }

    #[test]
    fn btb_miss_on_first_taken_branch() {
        let mut p = bp();
        let pc = Address::new(0x400040);
        // First encounter: even if direction guess is "taken" (weak
        // initial state), the target is unknown -> not correct.
        assert!(!p.access(pc, true));
        // Second encounter: learned.
        assert!(p.access(pc, true));
    }

    #[test]
    fn btb_capacity_conflicts_evict_lru() {
        let mut p = BranchPredictor::new(BranchConfig {
            btb_entries: 4,
            btb_assoc: 2,
            ..BranchConfig::default()
        });
        // Three taken branches mapping to the same 2-way set force an
        // eviction: sets = 2, so stride 2*4 bytes in (pc>>2) terms.
        let pcs: Vec<Address> = (0..3).map(|i| Address::new(0x1000 + i * 16)).collect();
        for &pc in &pcs {
            p.access(pc, true);
        }
        for &pc in &pcs {
            p.access(pc, true);
        }
        assert!(p.mispredictions() >= 4, "evictions force repeat misfetches");
    }

    #[test]
    #[should_panic(expected = "BTB set count must be a power of two")]
    fn btb_set_count_must_be_a_power_of_two() {
        // Three 2-way sets: the mask that indexes the BTB needs 2^k sets.
        BranchPredictor::new(BranchConfig {
            btb_entries: 6,
            btb_assoc: 2,
            ..BranchConfig::default()
        });
    }

    #[test]
    fn not_taken_branches_do_not_need_btb() {
        let mut p = bp();
        let pc = Address::new(0x400050);
        for _ in 0..10 {
            p.access(pc, false);
        }
        p.reset_stats();
        assert!(p.access(pc, false));
        assert_eq!(p.mispredictions(), 0);
    }

    #[test]
    fn stats_reset_keeps_learned_state() {
        let mut p = bp();
        let pc = Address::new(0x400060);
        for _ in 0..20 {
            p.access(pc, true);
        }
        p.reset_stats();
        assert_eq!(p.predictions(), 0);
        assert!(p.predict(pc), "learned direction survives reset");
    }

    #[test]
    fn load_state_refuses_history_wider_than_its_mask() {
        let mut p = bp();
        let mut rng = SimRng::seed_from(23);
        for i in 0..500u64 {
            p.access(Address::new(0x400000 + 4 * (i % 37)), rng.chance(0.6));
        }
        let encode = |history: u32| {
            let mut q = p.clone();
            q.history = history;
            let mut w = simcore::snapshot::SnapshotWriter::new();
            q.save_state(&mut w);
            w.finish()
        };
        let load = |bytes: &[u8]| {
            let mut r = simcore::snapshot::SnapshotReader::open(bytes).unwrap();
            bp().load_state(&mut r)
        };
        assert!(load(&encode(p.history)).is_ok(), "a live history loads");
        assert!(load(&encode(p.history_mask)).is_ok(), "all mask bits set");
        for stray in [p.history_mask + 1, u32::MAX, 1 << 31] {
            assert!(
                matches!(
                    load(&encode(stray)),
                    Err(simcore::snapshot::SnapshotError::Corrupt(_))
                ),
                "history {stray:#x} loaded"
            );
        }
    }
}
