//! Application profiles: the statistical description of one benchmark.
//!
//! A profile captures what the cache hierarchy and core pipeline observe
//! about a program. The key component for this paper is the memory
//! locality model: data references are split between an L1-resident
//! region, an L2-resident region, an L3 *hot* region (whose size in
//! blocks-per-set determines how many last-level ways the application can
//! profitably use — the quantity Figure 3 plots) and a *streaming* region
//! that produces compulsory misses no cache size can absorb.

use simcore::error::{ConfigError, Result};

/// How data references distribute over the locality regions.
///
/// The four fractions must sum to 1 (within floating-point tolerance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryMix {
    /// Fraction of data references to the L1-resident region.
    pub l1_resident: f64,
    /// Fraction to the L2-resident region.
    pub l2_resident: f64,
    /// Fraction to the L3 hot region.
    pub l3_hot: f64,
    /// Fraction to the streaming region (compulsory misses).
    pub streaming: f64,
}

impl MemoryMix {
    /// Validates that fractions are non-negative and sum to one.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] otherwise.
    pub fn validate(&self) -> Result<()> {
        let parts = [
            self.l1_resident,
            self.l2_resident,
            self.l3_hot,
            self.streaming,
        ];
        if parts.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err(ConfigError::new("memory mix fractions must be in [0, 1]"));
        }
        let sum: f64 = parts.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(ConfigError::new("memory mix fractions must sum to 1"));
        }
        Ok(())
    }
}

/// Sizes of the locality regions, in KiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionLayout {
    /// L1-resident region (comfortably under 64 KiB).
    pub l1_kb: u64,
    /// L2-resident region (under 256 KiB).
    pub l2_kb: u64,
    /// L3 hot region; `hot_kb / 256` is the demanded blocks-per-set for
    /// the baseline 4096-set, 64-byte-block last-level cache.
    pub hot_kb: u64,
    /// Streaming region walked sequentially with wrap-around.
    pub stream_kb: u64,
    /// Code footprint driving instruction fetch.
    pub code_kb: u64,
}

impl RegionLayout {
    /// The number of last-level blocks per set this profile's hot region
    /// demands, for a cache with `sets` sets of `block_bytes`-byte blocks.
    pub fn hot_blocks_per_set(&self, sets: u64, block_bytes: u64) -> f64 {
        (self.hot_kb * 1024) as f64 / (sets * block_bytes) as f64
    }

    /// Validates that every region is nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any region is zero-sized.
    pub fn validate(&self) -> Result<()> {
        if self.l1_kb == 0
            || self.l2_kb == 0
            || self.hot_kb == 0
            || self.stream_kb == 0
            || self.code_kb == 0
        {
            return Err(ConfigError::new("all locality regions must be nonzero"));
        }
        Ok(())
    }
}

/// The statistical description of one application.
///
/// Construct via [`AppProfileBuilder`]; the 24 SPEC2000-like instances
/// live in [`crate::spec`].
///
/// # Example
///
/// ```
/// use tracegen::profile::AppProfileBuilder;
/// let p = AppProfileBuilder::new("toy")
///     .loads(0.25)
///     .stores(0.10)
///     .branches(0.15)
///     .hot_kb(1024)
///     .build()
///     .unwrap();
/// assert_eq!(p.name, "toy");
/// assert!((p.load_frac - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Benchmark name (e.g. `"mcf"`).
    pub name: &'static str,
    /// Fraction of micro-ops that are loads.
    pub load_frac: f64,
    /// Fraction that are stores.
    pub store_frac: f64,
    /// Fraction that are conditional branches.
    pub branch_frac: f64,
    /// Of the remaining compute ops, the fraction executed on FP units.
    pub fp_frac: f64,
    /// Of compute ops, the fraction going to the (single) multiply units.
    pub mul_frac: f64,
    /// Mean producer–consumer distance in micro-ops (ILP knob).
    pub dep_mean: f64,
    /// Probability an op has a second source dependency.
    pub dep2_prob: f64,
    /// Fraction of *loads* redirected to the chip-wide read-shared
    /// region (parallel-workload mode; the paper's future work, §6).
    /// Zero — the default — reproduces the paper's multiprogrammed
    /// setting with fully disjoint address spaces.
    pub shared_read_frac: f64,
    /// Size of the read-shared region in KiB (meaningful only when
    /// `shared_read_frac > 0`).
    pub shared_kb: u64,
    /// Fraction of hot-region accesses that follow a cyclic sequential
    /// loop over the region (the rest use the recency draw). Looping is
    /// what gives real applications like `ammp`/`art` their cliff-shaped
    /// capacity curves: under LRU a loop gets no hits at all until the
    /// cache holds the whole loop.
    pub hot_loop: f64,
    /// Recency skew of hot-region accesses: reuse distance is drawn as
    /// `K * u^hot_skew` over the region's `K` blocks. `1.0` is uniform
    /// (flat stack-distance profile); larger values concentrate reuse on
    /// recently-touched blocks, producing the convex miss-vs-ways curves
    /// of the paper's Figure 3.
    pub hot_skew: f64,
    /// Long-run accuracy an ideal per-branch predictor could reach —
    /// each static branch follows its bias with this probability.
    pub branch_predictability: f64,
    /// Number of distinct static branches.
    pub branch_pool: usize,
    /// The memory mix.
    pub mix: MemoryMix,
    /// The region sizes.
    pub regions: RegionLayout,
}

impl AppProfile {
    /// Fraction of micro-ops that reference data memory.
    pub fn mem_frac(&self) -> f64 {
        self.load_frac + self.store_frac
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range fractions, a `dep_mean`
    /// or `hot_skew` that is not a finite number of at least 1, empty
    /// regions, or a shared region that would run into the ASID byte of
    /// a tagged address (`SHARED_BASE + shared_kb · 1024 > 2^56`).
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(ConfigError::new("profile name must be nonempty"));
        }
        let total = self.load_frac + self.store_frac + self.branch_frac;
        if !(0.0..1.0).contains(&total) {
            return Err(ConfigError::new(
                "load + store + branch fractions must leave room for compute ops",
            ));
        }
        for (what, v) in [
            ("load_frac", self.load_frac),
            ("store_frac", self.store_frac),
            ("branch_frac", self.branch_frac),
            ("fp_frac", self.fp_frac),
            ("mul_frac", self.mul_frac),
            ("dep2_prob", self.dep2_prob),
            ("branch_predictability", self.branch_predictability),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ConfigError::new(format!("{what} must be in [0, 1]")));
            }
        }
        // Written so that NaN fails too: the dependency table assumes a
        // finite mean of at least 1.
        if !(self.dep_mean.is_finite() && self.dep_mean >= 1.0) {
            return Err(ConfigError::new("dep_mean must be finite and at least 1"));
        }
        if !(0.0..=1.0).contains(&self.shared_read_frac) {
            return Err(ConfigError::new("shared_read_frac must be in [0, 1]"));
        }
        if self.shared_read_frac > 0.0 && self.shared_kb == 0 {
            return Err(ConfigError::new("shared region must be nonzero when used"));
        }
        let shared_end = self
            .shared_kb
            .checked_mul(1024)
            .and_then(|bytes| bytes.checked_add(crate::generator::SHARED_BASE));
        if shared_end.is_none_or(|end| end > 1 << 56) {
            return Err(ConfigError::new(
                "shared region must end below the ASID byte (2^56)",
            ));
        }
        if !(0.0..=1.0).contains(&self.hot_loop) {
            return Err(ConfigError::new("hot_loop must be in [0, 1]"));
        }
        if !(self.hot_skew.is_finite() && self.hot_skew >= 1.0) {
            return Err(ConfigError::new(
                "hot_skew must be finite and at least 1 (1 = uniform)",
            ));
        }
        if self.branch_pool == 0 {
            return Err(ConfigError::new("branch pool must be nonempty"));
        }
        self.mix.validate()?;
        self.regions.validate()
    }
}

/// Builder for [`AppProfile`] (C-BUILDER). Starts from a balanced
/// integer-code archetype and lets each knob be overridden.
#[derive(Debug, Clone)]
pub struct AppProfileBuilder {
    profile: AppProfile,
}

impl AppProfileBuilder {
    /// Starts a profile named `name` with moderate defaults.
    pub fn new(name: &'static str) -> Self {
        AppProfileBuilder {
            profile: AppProfile {
                name,
                load_frac: 0.24,
                store_frac: 0.10,
                branch_frac: 0.15,
                fp_frac: 0.0,
                mul_frac: 0.02,
                dep_mean: 3.0,
                dep2_prob: 0.4,
                shared_read_frac: 0.0,
                shared_kb: 1024,
                hot_loop: 0.0,
                hot_skew: 2.0,
                branch_predictability: 0.94,
                branch_pool: 256,
                mix: MemoryMix {
                    l1_resident: 0.70,
                    l2_resident: 0.20,
                    l3_hot: 0.08,
                    streaming: 0.02,
                },
                regions: RegionLayout {
                    l1_kb: 24,
                    l2_kb: 160,
                    hot_kb: 768,
                    stream_kb: 16 * 1024,
                    code_kb: 32,
                },
            },
        }
    }

    /// Sets the load fraction.
    pub fn loads(mut self, f: f64) -> Self {
        self.profile.load_frac = f;
        self
    }

    /// Sets the store fraction.
    pub fn stores(mut self, f: f64) -> Self {
        self.profile.store_frac = f;
        self
    }

    /// Sets the branch fraction.
    pub fn branches(mut self, f: f64) -> Self {
        self.profile.branch_frac = f;
        self
    }

    /// Sets the floating-point fraction of compute ops.
    pub fn fp(mut self, f: f64) -> Self {
        self.profile.fp_frac = f;
        self
    }

    /// Sets the multiply fraction of compute ops.
    pub fn mul_fraction(mut self, f: f64) -> Self {
        self.profile.mul_frac = f;
        self
    }

    /// Sets the mean dependency distance (larger = more ILP).
    pub fn dep_mean(mut self, d: f64) -> Self {
        self.profile.dep_mean = d;
        self
    }

    /// Sets the probability of a second source operand.
    pub fn dep2(mut self, p: f64) -> Self {
        self.profile.dep2_prob = p;
        self
    }

    /// Sets the hot-region recency skew (1.0 = uniform).
    pub fn hot_skew(mut self, beta: f64) -> Self {
        self.profile.hot_skew = beta;
        self
    }

    /// Sets the looping fraction of hot-region accesses.
    pub fn hot_loop(mut self, f: f64) -> Self {
        self.profile.hot_loop = f;
        self
    }

    /// Directs `f` of this application's loads at the chip-wide
    /// read-shared region (parallel-workload mode).
    pub fn shared_reads(mut self, f: f64, shared_kb: u64) -> Self {
        self.profile.shared_read_frac = f;
        self.profile.shared_kb = shared_kb;
        self
    }

    /// Sets branch predictability (ideal per-branch accuracy).
    pub fn predictability(mut self, p: f64) -> Self {
        self.profile.branch_predictability = p;
        self
    }

    /// Sets the number of static branches.
    pub fn branch_pool(mut self, n: usize) -> Self {
        self.profile.branch_pool = n;
        self
    }

    /// Sets the memory mix.
    pub fn mix(mut self, mix: MemoryMix) -> Self {
        self.profile.mix = mix;
        self
    }

    /// Sets the L1-resident region size in KiB.
    pub fn l1_kb(mut self, kb: u64) -> Self {
        self.profile.regions.l1_kb = kb;
        self
    }

    /// Sets the L2-resident region size in KiB.
    pub fn l2_kb(mut self, kb: u64) -> Self {
        self.profile.regions.l2_kb = kb;
        self
    }

    /// Sets the L3 hot region size in KiB.
    pub fn hot_kb(mut self, kb: u64) -> Self {
        self.profile.regions.hot_kb = kb;
        self
    }

    /// Sets the streaming region size in KiB.
    pub fn stream_kb(mut self, kb: u64) -> Self {
        self.profile.regions.stream_kb = kb;
        self
    }

    /// Sets the code footprint in KiB.
    pub fn code_kb(mut self, kb: u64) -> Self {
        self.profile.regions.code_kb = kb;
        self
    }

    /// Validates and returns the profile.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any knob is out of range.
    pub fn build(self) -> Result<AppProfile> {
        self.profile.validate()?;
        Ok(self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let p = AppProfileBuilder::new("x").build().unwrap();
        assert!(p.mem_frac() > 0.0);
        p.validate().unwrap();
    }

    #[test]
    fn mix_must_sum_to_one() {
        let bad = MemoryMix {
            l1_resident: 0.5,
            l2_resident: 0.5,
            l3_hot: 0.5,
            streaming: 0.0,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn hot_blocks_per_set_formula() {
        let r = RegionLayout {
            l1_kb: 16,
            l2_kb: 128,
            hot_kb: 1024, // 1 MiB over 4096 sets x 64 B = 4 blocks/set
            stream_kb: 1024,
            code_kb: 16,
        };
        assert!((r.hot_blocks_per_set(4096, 64) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn profile_rejects_non_finite_dep_mean_and_hot_skew() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let dep = AppProfileBuilder::new("x").dep_mean(bad).build();
            assert!(dep.is_err(), "dep_mean {bad} accepted");
            let skew = AppProfileBuilder::new("x").hot_skew(bad).build();
            assert!(skew.is_err(), "hot_skew {bad} accepted");
        }
    }

    #[test]
    fn profile_rejects_silly_fractions() {
        assert!(AppProfileBuilder::new("x")
            .loads(0.9)
            .stores(0.3)
            .build()
            .is_err());
        assert!(AppProfileBuilder::new("x")
            .predictability(1.5)
            .build()
            .is_err());
        assert!(AppProfileBuilder::new("x").dep_mean(0.0).build().is_err());
        assert!(AppProfileBuilder::new("").build().is_err());
    }

    #[test]
    fn regions_must_be_nonzero() {
        assert!(AppProfileBuilder::new("x").hot_kb(0).build().is_err());
    }
}
