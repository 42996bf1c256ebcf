//! The dynamic micro-op stream generator.
//!
//! A [`TraceGenerator`] turns an [`AppProfile`] into an endless,
//! deterministic instruction stream. The stream exercises every substrate
//! the real workloads would: program counters walk a code region (driving
//! the L1I cache and BTB), branches are drawn from a static pool with
//! per-branch biases (so the real combined predictor has something to
//! learn), data addresses follow the profile's hierarchical locality
//! model, and dependency distances bound the instruction-level
//! parallelism the out-of-order core can extract.

use std::sync::Arc;

use simcore::rng::SimRng;
use simcore::types::Address;

use crate::dep::DepTable;
use crate::op::{MicroOp, OpClass, NO_DEP};
use crate::profile::AppProfile;

/// Base virtual address of the code region.
pub const CODE_BASE: u64 = 0x0040_0000;
/// Base of the L1-resident data region.
pub const L1_BASE: u64 = 0x1000_0000;
/// Base of the L2-resident data region.
pub const L2_BASE: u64 = 0x2000_0000;
/// Base of the L3 hot data region.
pub const HOT_BASE: u64 = 0x3000_0000;
/// Base of the streaming data region.
pub const STREAM_BASE: u64 = 0x4000_0000;
/// Base of the chip-wide *read-shared* region (parallel-workload mode).
/// Addresses here are not tagged with a per-core ASID, so all cores
/// reference the same blocks.
pub const SHARED_BASE: u64 = 0x7000_0000;

/// Whether an address falls in the read-shared region.
#[inline]
pub const fn is_shared_address(addr: Address) -> bool {
    // Compare untagged bits: the region test must hold before and after
    // ASID tagging.
    (addr.raw() & 0x00ff_ffff_ffff_ffff) >= SHARED_BASE
}

/// `x % k` for `x < 2k`: one compare instead of a 64-bit division.
/// Callers uphold the bound; hot cursors advance by at most one stride
/// past their span per op, so this covers every wrap in the generator.
#[inline]
fn wrap_once(x: u64, k: u64) -> u64 {
    debug_assert!(x < 2 * k, "wrap_once bound violated: {x} >= 2 * {k}");
    if x >= k {
        x - k
    } else {
        x
    }
}

/// `(x + 1) % k` for `x < k`.
#[inline]
fn wrap_inc(x: u64, k: u64) -> u64 {
    wrap_once(x + 1, k)
}

/// The 53-bit threshold of probability `p`: `⌈p · 2^53⌉`, clamped to
/// `[0, 2^53]`. A 53-bit draw `u` (what [`SimRng::next_f64`] scales)
/// passes `u < threshold(p)` exactly when `next_f64() < p` on the same
/// draw: `next_f64` is `u · 2^-53` with no rounding (`u < 2^53` converts
/// exactly and the scale is a power of two), so the test is `u < p · 2^53`
/// over the reals, and for an integer `u` that is `u < ⌈p · 2^53⌉`. The
/// product and its ceiling are exact too; the saturating cast sends a
/// negative `p` (and NaN) to 0, and the clamp covers `p > 1`.
fn threshold(p: f64) -> u64 {
    ((p * (1u64 << 53) as f64).ceil() as u64).min(1 << 53)
}

/// Every probability [`TraceGenerator::next_op`] tests but the branch
/// biases, in the order of the generator's threshold fields: the
/// cumulative load, store and branch shares of the op class draw, the
/// cumulative L1, L2 and hot shares of the region draw, then the chances
/// of a looping hot access, a shared load, a multiply, an FP op and a
/// second source.
fn probabilities(p: &AppProfile) -> [f64; 11] {
    let t_store = p.load_frac + p.store_frac;
    let m_l2 = p.mix.l1_resident + p.mix.l2_resident;
    [
        p.load_frac,
        t_store,
        t_store + p.branch_frac,
        p.mix.l1_resident,
        m_l2,
        m_l2 + p.mix.l3_hot,
        p.hot_loop,
        p.shared_read_frac,
        p.mul_frac,
        p.fp_frac,
        p.dep2_prob,
    ]
}

/// The taken-probability of static branch `i`: each follows one dominant
/// direction with probability `branch_predictability`, and the dominant
/// directions alternate so the overall taken rate is near 50 %.
fn branch_bias(p: &AppProfile, i: usize) -> f64 {
    if i.is_multiple_of(2) {
        p.branch_predictability
    } else {
        1.0 - p.branch_predictability
    }
}

/// A deterministic generator of [`MicroOp`]s for one application.
///
/// # Example
///
/// ```
/// use tracegen::generator::TraceGenerator;
/// use tracegen::profile::AppProfileBuilder;
/// use simcore::rng::SimRng;
///
/// let profile = AppProfileBuilder::new("toy").build().unwrap();
/// let mut gen = TraceGenerator::new(&profile, SimRng::seed_from(7));
/// let ops: Vec<_> = (0..100).map(|_| gen.next_op()).collect();
/// assert_eq!(ops.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: AppProfile,
    rng: SimRng,
    /// Current byte offset within the code region.
    pc_offset: u64,
    /// Current byte offset within the streaming region.
    stream_offset: u64,
    /// Recency head of the hot region (block index); advances per hot
    /// access so "recent" blocks form a sliding window.
    hot_head: u64,
    /// Cursor of the cyclic sequential loop over the hot region.
    hot_loop_pos: u64,
    /// Recency head of the read-shared region (parallel mode).
    shared_head: u64,
    /// Taken-probability of each static branch, as its [`threshold`].
    branch_bias: Vec<u64>,
    /// `branch_bias.len() - 1` when the pool size is a power of two
    /// (every SPEC profile's 256), so a PC picks its branch with a mask;
    /// `None` for any other size, which divides.
    branch_mask: Option<usize>,
    ops_generated: u64,
    // The thresholds of every other probability `next_op` tests, in the
    // order `probabilities` lists them: cumulative class shares,
    // cumulative memory-region shares, then one chance each.
    t_load: u64,
    t_store: u64,
    t_branch: u64,
    m_l1: u64,
    m_l2: u64,
    m_hot: u64,
    t_hot_loop: u64,
    t_shared: u64,
    t_mul: u64,
    t_fp: u64,
    t_dep2: u64,
    dep_p: f64,
    /// The profile's dependency distances, shared by every generator of
    /// its `dep_mean`.
    dep: Arc<DepTable>,
    // Cached region extents (bytes / blocks), so the per-op path reads
    // flat fields instead of chasing the nested profile structs.
    code_bytes: u64,
    l1_span: u64,
    l2_span: u64,
    hot_blocks: u64,
    stream_span: u64,
}

impl TraceGenerator {
    /// Creates a generator for `profile` with its own random stream.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation (construct profiles through
    /// the builder to avoid this).
    #[allow(clippy::expect_used)] // documented panic: constructor precondition
    pub fn new(profile: &AppProfile, mut rng: SimRng) -> Self {
        profile
            .validate()
            .expect("generator requires a valid profile");
        let branch_bias: Vec<u64> = (0..profile.branch_pool)
            .map(|i| threshold(branch_bias(profile, i)))
            .collect();
        let [t_load, t_store, t_branch, m_l1, m_l2, m_hot, t_hot_loop, t_shared, t_mul, t_fp, t_dep2] =
            probabilities(profile).map(threshold);
        let stream_offset = rng.below(profile.regions.stream_kb * 1024) & !63;
        let hot_head = rng.below(profile.regions.hot_kb * 16); // blocks
        TraceGenerator {
            profile: profile.clone(), // lint:allow(L7): once per generator, construction only
            rng,
            pc_offset: 0,
            stream_offset,
            hot_head,
            hot_loop_pos: 0,
            shared_head: 0,
            branch_mask: branch_bias
                .len()
                .is_power_of_two()
                .then(|| branch_bias.len() - 1),
            branch_bias,
            ops_generated: 0,
            t_load,
            t_store,
            t_branch,
            m_l1,
            m_l2,
            m_hot,
            t_hot_loop,
            t_shared,
            t_mul,
            t_fp,
            t_dep2,
            dep_p: 1.0 / profile.dep_mean,
            dep: DepTable::shared(profile.dep_mean),
            code_bytes: profile.regions.code_kb * 1024,
            l1_span: profile.regions.l1_kb * 1024,
            l2_span: profile.regions.l2_kb * 1024,
            hot_blocks: profile.regions.hot_kb * 16,
            stream_span: profile.regions.stream_kb * 1024,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Number of micro-ops generated so far.
    pub fn ops_generated(&self) -> u64 {
        self.ops_generated
    }

    /// Emulates the paper's random fast-forward (0.5–1.5 billion
    /// instructions) without generating the skipped ops: the streaming
    /// cursor advances as it statistically would and the random stream is
    /// re-seeded deterministically from `instructions`.
    pub fn fast_forward(&mut self, instructions: u64) {
        let stream_bytes = self.profile.regions.stream_kb * 1024;
        let expected_stream_refs =
            (instructions as f64 * self.profile.mem_frac() * self.profile.mix.streaming) as u64;
        self.stream_offset = (self.stream_offset + expected_stream_refs * 64) % stream_bytes;
        self.rng = self.rng.fork(instructions);
    }

    /// Writes the mutable generator state (random stream and region
    /// cursors) to a snapshot. Profile-derived fields (thresholds,
    /// spans, branch biases) are reconstructed from the profile and are
    /// not encoded.
    pub fn save_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        self.rng.save_state(w);
        w.put_u64(self.pc_offset);
        w.put_u64(self.stream_offset);
        w.put_u64(self.hot_head);
        w.put_u64(self.hot_loop_pos);
        w.put_u64(self.shared_head);
        w.put_u64(self.ops_generated);
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// generator built from the same profile.
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError::Corrupt`] when a cursor is one
    /// no run can produce: a PC offset that is not 4-aligned or not below
    /// the code region, a stream offset that is not 64-aligned or not
    /// below the stream span, a hot cursor at or above the hot block
    /// count, or a shared head outside the shared region. Decode errors
    /// from the reader otherwise.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::SnapshotError;
        self.rng.load_state(r)?;
        let pc_offset = r.get_u64()?;
        let stream_offset = r.get_u64()?;
        let hot_head = r.get_u64()?;
        let hot_loop_pos = r.get_u64()?;
        let shared_head = r.get_u64()?;
        self.ops_generated = r.get_u64()?;
        if pc_offset % 4 != 0 || pc_offset >= self.code_bytes {
            return Err(SnapshotError::Corrupt("trace PC outside the code region"));
        }
        if stream_offset % 64 != 0 || stream_offset >= self.stream_span {
            return Err(SnapshotError::Corrupt(
                "stream cursor outside the stream region",
            ));
        }
        if hot_head >= self.hot_blocks || hot_loop_pos >= self.hot_blocks {
            return Err(SnapshotError::Corrupt("hot cursor outside the hot region"));
        }
        // A profile without a shared region keeps its head at 0.
        if shared_head >= (self.profile.shared_kb * 16).max(1) {
            return Err(SnapshotError::Corrupt(
                "shared head outside the shared region",
            ));
        }
        self.pc_offset = pc_offset;
        self.stream_offset = stream_offset;
        self.hot_head = hot_head;
        self.hot_loop_pos = hot_loop_pos;
        self.shared_head = shared_head;
        Ok(())
    }

    /// The 53 random bits [`SimRng::next_f64`] scales, to compare with a
    /// [`threshold`].
    #[inline]
    fn draw(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    #[inline]
    fn data_address(&mut self) -> Address {
        let r = self.draw();
        let raw = if r < self.m_l1 {
            L1_BASE + (self.rng.below(self.l1_span) & !7)
        } else if r < self.m_l2 {
            L2_BASE + (self.rng.below(self.l2_span) & !7)
        } else if r < self.m_hot {
            let k = self.hot_blocks; // 64-byte blocks
            let blk = if self.draw() < self.t_hot_loop {
                // Cyclic sequential loop: the access pattern that gives
                // LRU caches an all-or-nothing capacity cliff at K.
                // Cursors stay in [0, k), so wrap-around is a compare
                // instead of a 64-bit division (this path runs once per
                // hot access; the modulo was visible in profiles).
                self.hot_loop_pos = wrap_inc(self.hot_loop_pos, k);
                self.hot_loop_pos
            } else {
                // Recency draw: distance from the head drawn as
                // K * u^hot_skew, a convex stack-distance profile
                // (Figure 3 shapes) that still touches all K blocks.
                self.hot_head = wrap_inc(self.hot_head, k);
                let u = self.rng.next_f64();
                // `k * u^skew < k` mathematically, but the product can
                // round up to exactly `k`; the wrap keeps the cast in
                // range exactly like the old `% k` did.
                let d = wrap_once((k as f64 * u.powf(self.profile.hot_skew)) as u64, k);
                wrap_once(self.hot_head + k - d, k)
            };
            HOT_BASE + blk * 64 + (self.rng.below(8) * 8)
        } else {
            self.stream_offset = wrap_once(self.stream_offset + 64, self.stream_span);
            STREAM_BASE + self.stream_offset
        };
        Address::new(raw)
    }

    /// One raw dependency draw: the 53 bits [`SimRng::next_f64`] scales,
    /// or 0 without touching the RNG when every distance is 1
    /// (`dep_mean <= 1`).
    #[inline]
    fn dep_draw(&mut self) -> u64 {
        if self.dep_p >= 1.0 {
            return 0;
        }
        self.draw()
    }

    /// Resolves a dependency draw of this generator's [`MicroOp`]s into a
    /// distance in ops: 0 for [`NO_DEP`], else the geometric variate
    /// `1 + min(63, ⌊ln u / ln(1 − 1/dep_mean)⌋)` of the uniform `u` the
    /// draw encodes (1 for every draw when `dep_mean` is 1). A pure
    /// function of the draw and the profile, so the core calls it only
    /// for the ops it dispatches. It takes no logarithm: the profile's
    /// table, built once per `dep_mean` from that expression, answers in
    /// one bucket lookup and compare, exactly (see the `dep` module).
    #[inline]
    pub fn dep_distance(&self, draw: u64) -> u64 {
        self.dep.distance(draw)
    }

    /// Generates the next micro-op in program order.
    pub fn next_op(&mut self) -> MicroOp {
        let code_bytes = self.code_bytes;
        let pc = Address::new(CODE_BASE + self.pc_offset);
        let r = self.draw();

        let (class, addr, taken) = if r < self.t_load {
            // A profile without shared reads takes no draw for them.
            let addr = if self.t_shared > 0 && self.draw() < self.t_shared {
                // Read-only sharing: a recency draw over the common
                // region, so all threads touch the same hot blocks.
                let k = self.profile.shared_kb * 16;
                let u = self.rng.next_f64();
                let d = wrap_once((k as f64 * u.powf(self.profile.hot_skew)) as u64, k);
                let blk = wrap_once(self.shared_head + k - d, k);
                self.shared_head = wrap_inc(self.shared_head, k);
                Address::new(SHARED_BASE + blk * 64 + self.rng.below(8) * 8)
            } else {
                self.data_address()
            };
            (OpClass::Load, Some(addr), false)
        } else if r < self.t_store {
            (OpClass::Store, Some(self.data_address()), false)
        } else if r < self.t_branch {
            // Identify the static branch by its PC so the predictor can
            // learn it; the pool size bounds the number of distinct PCs.
            let pc = (self.pc_offset / 4) as usize;
            let idx = match self.branch_mask {
                Some(mask) => pc & mask,
                None => pc % self.branch_bias.len(),
            };
            let taken = self.draw() < self.branch_bias[idx];
            (OpClass::Branch, None, taken)
        } else {
            let class = if self.draw() < self.t_mul {
                if self.draw() < self.t_fp {
                    OpClass::FpMul
                } else {
                    OpClass::IntMul
                }
            } else if self.draw() < self.t_fp {
                OpClass::FpAlu
            } else {
                OpClass::IntAlu
            };
            (class, None, false)
        };

        let dep1 = self.dep_draw();
        let dep2 = if self.draw() < self.t_dep2 {
            self.dep_draw()
        } else {
            NO_DEP
        };

        // Advance the PC: sequential, except taken branches jump to a
        // random instruction-aligned target in the code region.
        if class == OpClass::Branch && taken {
            self.pc_offset = self.rng.below(code_bytes) & !3;
        } else {
            // The PC stays 4-aligned below `code_bytes` (a multiple of
            // 1024), so sequential advance wraps by compare, not modulo.
            self.pc_offset = wrap_once(self.pc_offset + 4, code_bytes);
        }

        self.ops_generated += 1;
        MicroOp {
            pc,
            class,
            addr,
            taken,
            dep1,
            dep2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AppProfileBuilder;

    fn generator(seed: u64) -> TraceGenerator {
        let p = AppProfileBuilder::new("t").build().unwrap();
        TraceGenerator::new(&p, SimRng::seed_from(seed))
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = generator(3);
        let mut b = generator(3);
        for _ in 0..500 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn stream_resumes_identically_from_a_mid_stream_snapshot() {
        // The time-sampling engine hands the same generator back and
        // forth between the detailed pipeline and the functional retire
        // path, and campaign forking restores it mid-stream: the op
        // sequence must depend only on (seed, ops_generated), never on
        // how the pulls were chunked or where a snapshot was taken.
        let mut reference = generator(11);
        let reference_ops: Vec<MicroOp> = (0..4_000).map(|_| reference.next_op()).collect();

        // Uneven pull chunks (1, 2, 3, ... ops at a time).
        let mut chunked = generator(11);
        let mut pulled = Vec::new();
        let mut chunk = 1;
        while pulled.len() < 4_000 {
            for _ in 0..chunk.min(4_000 - pulled.len()) {
                pulled.push(chunked.next_op());
            }
            chunk += 1;
        }
        assert_eq!(pulled, reference_ops);

        // Snapshot mid-stream, restore into a fresh generator, resume.
        let mut original = generator(11);
        for _ in 0..1_500 {
            original.next_op();
        }
        let mut w = simcore::snapshot::SnapshotWriter::new();
        original.save_state(&mut w);
        let bytes = w.finish();
        let p = AppProfileBuilder::new("t").build().unwrap();
        let mut resumed = TraceGenerator::new(&p, SimRng::seed_from(999));
        let mut r = simcore::snapshot::SnapshotReader::open(&bytes).unwrap();
        resumed.load_state(&mut r).unwrap();
        assert_eq!(resumed.ops_generated(), 1_500);
        for op in reference_ops.iter().skip(1_500) {
            assert_eq!(&resumed.next_op(), op);
        }
    }

    #[test]
    fn load_state_refuses_cursors_no_run_can_produce() {
        // Each case re-encodes a live generator's state with one cursor
        // bent out of range; the loader must refuse it rather than hand
        // the next `next_op` a PC, stream offset or head it cannot wrap.
        let p = AppProfileBuilder::new("t")
            .shared_reads(0.1, 64)
            .build()
            .unwrap();
        let mut live = TraceGenerator::new(&p, SimRng::seed_from(29));
        for _ in 0..2_000 {
            live.next_op();
        }
        // Cursor fields by position in the encoding: PC, stream, hot
        // head, hot loop, shared head.
        let encode = |field: usize, value: u64| {
            let mut g = live.clone();
            let cursor = match field {
                0 => &mut g.pc_offset,
                1 => &mut g.stream_offset,
                2 => &mut g.hot_head,
                3 => &mut g.hot_loop_pos,
                _ => &mut g.shared_head,
            };
            *cursor = value;
            let mut w = simcore::snapshot::SnapshotWriter::new();
            g.save_state(&mut w);
            w.finish()
        };
        let load = |bytes: &[u8]| {
            let mut fresh = TraceGenerator::new(&p, SimRng::seed_from(1));
            let mut r = simcore::snapshot::SnapshotReader::open(bytes).unwrap();
            fresh.load_state(&mut r)
        };
        assert!(
            load(&encode(0, live.pc_offset)).is_ok(),
            "a live state loads"
        );
        let (code, span, hot) = (live.code_bytes, live.stream_span, live.hot_blocks);
        let shared = p.shared_kb * 16;
        assert!(load(&encode(4, shared - 1)).is_ok(), "last shared block");
        let bends = [
            ("PC past the code", 0, 10 * code),
            ("PC at the code end", 0, code),
            ("unaligned PC", 0, 6),
            ("stream past its span", 1, span),
            ("unaligned stream", 1, 96),
            ("hot head", 2, hot),
            ("hot loop cursor", 3, hot + 5),
            ("shared head", 4, shared),
        ];
        for (what, field, value) in bends {
            assert!(
                matches!(
                    load(&encode(field, value)),
                    Err(simcore::snapshot::SnapshotError::Corrupt(_))
                ),
                "{what} loaded"
            );
        }
        // Without a shared region the head must stay at 0.
        let plain = AppProfileBuilder::new("t")
            .shared_reads(0.0, 0)
            .build()
            .unwrap();
        let mut g = TraceGenerator::new(&plain, SimRng::seed_from(3));
        g.shared_head = 1;
        let mut w = simcore::snapshot::SnapshotWriter::new();
        g.save_state(&mut w);
        let bytes = w.finish();
        let mut fresh = TraceGenerator::new(&plain, SimRng::seed_from(3));
        let mut r = simcore::snapshot::SnapshotReader::open(&bytes).unwrap();
        assert!(fresh.load_state(&mut r).is_err());
    }

    #[test]
    fn mix_fractions_are_respected() {
        let mut g = generator(5);
        let n = 200_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        for _ in 0..n {
            match g.next_op().class {
                OpClass::Load => loads += 1,
                OpClass::Store => stores += 1,
                OpClass::Branch => branches += 1,
                _ => {}
            }
        }
        let p = g.profile().clone();
        assert!((loads as f64 / n as f64 - p.load_frac).abs() < 0.01);
        assert!((stores as f64 / n as f64 - p.store_frac).abs() < 0.01);
        assert!((branches as f64 / n as f64 - p.branch_frac).abs() < 0.01);
    }

    #[test]
    fn memory_ops_carry_addresses_in_known_regions() {
        let mut g = generator(7);
        for _ in 0..20_000 {
            let op = g.next_op();
            if op.class.is_mem() {
                let a = op.addr.expect("mem ops carry addresses").raw();
                assert!(
                    (L1_BASE..L1_BASE + (1 << 26)).contains(&a)
                        || (L2_BASE..L2_BASE + (1 << 26)).contains(&a)
                        || (HOT_BASE..HOT_BASE + (1 << 28)).contains(&a)
                        || (STREAM_BASE..STREAM_BASE + (1 << 30)).contains(&a),
                    "address {a:#x} outside any region"
                );
            } else {
                assert!(op.addr.is_none());
            }
        }
    }

    #[test]
    fn stream_addresses_walk_sequentially() {
        let p = AppProfileBuilder::new("s")
            .mix(crate::profile::MemoryMix {
                l1_resident: 0.0,
                l2_resident: 0.0,
                l3_hot: 0.0,
                streaming: 1.0,
            })
            .build()
            .unwrap();
        let mut g = TraceGenerator::new(&p, SimRng::seed_from(1));
        let mut last: Option<u64> = None;
        let span = p.regions.stream_kb * 1024;
        for _ in 0..5_000 {
            let op = g.next_op();
            if let Some(a) = op.addr {
                let off = a.raw() - STREAM_BASE;
                if let Some(prev) = last {
                    assert_eq!(off, (prev + 64) % span);
                }
                last = Some(off);
            }
        }
    }

    #[test]
    fn pcs_stay_in_code_region_and_advance() {
        let mut g = generator(11);
        let code = g.profile().regions.code_kb * 1024;
        for _ in 0..10_000 {
            let op = g.next_op();
            let off = op.pc.raw() - CODE_BASE;
            assert!(off < code);
            assert_eq!(off % 4, 0);
        }
    }

    #[test]
    fn branch_outcomes_match_pool_bias_on_average() {
        let p = AppProfileBuilder::new("b")
            .branches(0.5)
            .loads(0.1)
            .stores(0.05)
            .predictability(0.9)
            .build()
            .unwrap();
        let mut g = TraceGenerator::new(&p, SimRng::seed_from(13));
        let mut taken = 0u64;
        let mut total = 0u64;
        for _ in 0..100_000 {
            let op = g.next_op();
            if op.class == OpClass::Branch {
                total += 1;
                taken += op.taken as u64;
            }
        }
        let rate = taken as f64 / total as f64;
        assert!(
            (0.3..0.7).contains(&rate),
            "taken rate {rate} should be near 0.5"
        );
    }

    #[test]
    fn dependencies_are_positive_and_bounded() {
        let mut g = generator(17);
        for _ in 0..10_000 {
            let op = g.next_op();
            assert!((1..=64).contains(&g.dep_distance(op.dep1)));
            assert!(g.dep_distance(op.dep2) <= 64);
        }
    }

    #[test]
    fn dependency_distances_have_the_profile_mean() {
        let p = AppProfileBuilder::new("d").dep_mean(4.0).build().unwrap();
        let mut g = TraceGenerator::new(&p, SimRng::seed_from(23));
        let n = 100_000;
        let sum: u64 = (0..n)
            .map(|_| {
                let op = g.next_op();
                g.dep_distance(op.dep1)
            })
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.02 * 4.0, "mean distance {mean}");
    }

    /// Checks `u < threshold(p)` against `next_f64() < p` for every
    /// probability a SPEC profile feeds the generator (its
    /// `probabilities` and both branch biases) and for edge values: at the
    /// draws 0, 1, T − 1, T, T + 1 and 2^53 − 1 around each threshold T,
    /// and on `random` uniform draws per profile, each tested against all
    /// of the profile's probabilities.
    fn check_thresholds(random: usize) {
        use crate::spec::SpecApp;
        const MAX: u64 = (1 << 53) - 1;
        let ulp = 1.0 / (1u64 << 53) as f64;
        // `SimRng::next_f64` of a draw whose 53 bits are `u`.
        let unit = |u: u64| u as f64 * ulp;
        let edges = vec![0.0, ulp, 0.5, 1.0 - ulp, 1.0, f64::MIN_POSITIVE / 3.0];
        assert!(edges[5] > 0.0 && !edges[5].is_normal(), "a subnormal edge");
        let spec = SpecApp::ALL.iter().map(|app| {
            let p = app.profile();
            let mut all = probabilities(p).to_vec();
            all.extend([branch_bias(p, 0), branch_bias(p, 1)]);
            (p.name, all)
        });
        for (name, probs) in spec.chain([("edges", edges)]) {
            let thresholds: Vec<u64> = probs.iter().map(|&p| threshold(p)).collect();
            for (&p, &t) in probs.iter().zip(&thresholds) {
                let near = [0, 1, t.saturating_sub(1), t, t + 1, MAX];
                for u in near.into_iter().filter(|&u| u <= MAX) {
                    assert_eq!(u < t, unit(u) < p, "{name}: p {p:e}, draw {u:#x}");
                }
            }
            let mut rng = SimRng::seed_from(thresholds.iter().fold(0, |h, &t| h ^ t));
            for _ in 0..random {
                let mut twin = rng.clone();
                let (u, x) = (rng.next_u64() >> 11, twin.next_f64());
                for (&p, &t) in probs.iter().zip(&thresholds) {
                    assert_eq!(u < t, x < p, "{name}: p {p:e}, draw {u:#x}");
                }
            }
        }
    }

    #[test]
    fn thresholds_give_the_verdicts_of_next_f64() {
        check_thresholds(100_000);
    }

    #[test]
    #[ignore = "several seconds in release; CI runs it with --ignored"]
    fn thresholds_give_the_verdicts_of_next_f64_widely() {
        check_thresholds(10_000_000);
    }

    /// FNV-1a over every field a consumer reads, dependencies resolved.
    fn fingerprint(g: &mut TraceGenerator, n: usize) -> u64 {
        let fnv = |mut h: u64, x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            h
        };
        let mut h = 0xcbf2_9ce4_8422_2325;
        for _ in 0..n {
            let op = g.next_op();
            h = fnv(h, op.pc.raw());
            h = fnv(h, op.class as u64);
            h = fnv(h, op.addr.map_or(u64::MAX, |a| a.raw()));
            h = fnv(h, u64::from(op.taken));
            h = fnv(h, g.dep_distance(op.dep1));
            h = fnv(h, g.dep_distance(op.dep2));
        }
        h
    }

    /// Every SPEC profile's fingerprint over 20,000 ops at seed 2007, in
    /// [`SpecApp::ALL`](crate::spec::SpecApp::ALL) order.
    const SPEC_FINGERPRINTS: [u64; 24] = [
        0xe804_601a_2168_4b9c,
        0xcaa4_f590_8a91_4f8b,
        0xb6dd_11f5_f0a8_fa0b,
        0x01c3_82d3_9e24_a470,
        0x417b_d17c_16f8_80a6,
        0x9b0b_1d4e_b865_1a96,
        0x43f2_5413_a5b8_0773,
        0x8d40_f6a8_ba58_de83,
        0x5e76_a612_b161_ccf9,
        0x130a_a870_c22e_5e03,
        0xeb87_25dc_b3b2_a646,
        0x532f_02c4_0a37_352e,
        0x329f_1fc6_16ba_3991,
        0x576d_e0a1_bc2c_4242,
        0x2ead_d301_cca3_b09f,
        0xef6e_61fc_5cf1_352c,
        0x89d7_7ad7_73f3_b401,
        0xbcfd_d7a2_cd92_1abf,
        0xda4b_ee7c_b282_a540,
        0xb4e3_c4ce_033a_130f,
        0x274d_b3b8_708c_71ac,
        0x7809_f5b0_1319_0734,
        0x1e32_25d9_3635_faaa,
        0x481a_a157_c61b_6111,
    ];

    /// Custom profiles that reach what the SPEC profiles do not, each with
    /// its seed and fingerprint over 20,000 ops.
    fn custom_cases() -> Vec<(AppProfile, u64, u64)> {
        let hot = |name, hot_loop| {
            AppProfileBuilder::new(name)
                .hot_loop(hot_loop)
                .mix(crate::profile::MemoryMix {
                    l1_resident: 0.2,
                    l2_resident: 0.1,
                    l3_hot: 0.6,
                    streaming: 0.1,
                })
                .build()
                .unwrap()
        };
        vec![
            // No draw for its distances, and half its ops have a second
            // source.
            (
                AppProfileBuilder::new("dep1")
                    .dep_mean(1.0)
                    .dep2(0.5)
                    .build()
                    .unwrap(),
                21,
                0x856f_d440_e44c_9fe2,
            ),
            // The shared-read path of parallel workloads.
            (
                AppProfileBuilder::new("shared")
                    .shared_reads(0.3, 64)
                    .build()
                    .unwrap(),
                2007,
                0x798d_82d3_83fb_5d71,
            ),
            // Hot accesses that never and always loop.
            (hot("loop0", 0.0), 2007, 0x2bba_9e1f_5166_8ad1),
            (hot("loop1", 1.0), 2007, 0xc322_1391_24f8_ca5f),
            // An odd pool: its last branch and its first share a bias.
            (
                AppProfileBuilder::new("pool7")
                    .branch_pool(7)
                    .branches(0.3)
                    .predictability(0.8)
                    .build()
                    .unwrap(),
                2007,
                0xa6b7_ed08_b9c1_7440,
            ),
        ]
    }

    #[test]
    fn op_streams_match_their_fingerprints() {
        use crate::spec::SpecApp;
        // Pins the decoded stream, distances included, so a change to the
        // order or number of RNG draws, or to any verdict taken on them,
        // shows up even where no simulated output covers it.
        let spec = SpecApp::ALL
            .iter()
            .zip(SPEC_FINGERPRINTS)
            .map(|(app, expected)| (app.profile().clone(), 2007, expected));
        let mcf = (SpecApp::Mcf.profile().clone(), 1971, 0xf17a_7a30_4bae_ecf5);
        for (p, seed, expected) in spec.chain([mcf]).chain(custom_cases()) {
            let mut g = TraceGenerator::new(&p, SimRng::seed_from(seed));
            let got = fingerprint(&mut g, 20_000);
            assert_eq!(got, expected, "{} at seed {seed}", p.name);
        }
    }

    #[test]
    fn fast_forward_changes_stream_deterministically() {
        let mut a = generator(19);
        let mut b = generator(19);
        a.fast_forward(1_000_000);
        b.fast_forward(1_000_000);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = generator(19);
        c.fast_forward(2_000_000);
        let same = (0..100).filter(|_| a.next_op() == c.next_op()).count();
        assert!(same < 100, "different forwards must diverge");
    }
}
