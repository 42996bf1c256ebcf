//! Property-based tests (proptest) of the core data structures and the
//! invariants listed in DESIGN.md §6.

use proptest::prelude::*;

use nuca_repro::cachesim::cache::Cache;
use nuca_repro::cachesim::lru::LruStack;
use nuca_repro::cpusim::l3iface::LastLevel;
use nuca_repro::nuca_core::engine::{AdaptiveParams, SharingEngine};
use nuca_repro::nuca_core::l3::{L3System, Organization};
use nuca_repro::simcore::config::{CacheGeometry, MachineConfigBuilder};
use nuca_repro::simcore::rng::SimRng;
use nuca_repro::simcore::stats::{arithmetic_mean, geometric_mean, harmonic_mean};
use nuca_repro::simcore::types::{Address, BlockAddr, CoreId, Cycle};

// ---------------------------------------------------------------------
// LRU stack vs a reference model.

#[derive(Debug, Clone)]
enum LruOp {
    Touch(u8),
    PushMru(u8),
    PopLru,
    Remove(u8),
}

fn lru_op() -> impl Strategy<Value = LruOp> {
    prop_oneof![
        (0u8..16).prop_map(LruOp::Touch),
        (0u8..16).prop_map(LruOp::PushMru),
        Just(LruOp::PopLru),
        (0u8..16).prop_map(LruOp::Remove),
    ]
}

proptest! {
    #[test]
    fn lru_stack_matches_reference_model(ops in proptest::collection::vec(lru_op(), 0..200)) {
        let mut stack = LruStack::new();
        let mut model: Vec<u8> = Vec::new(); // front = MRU
        for op in ops {
            match op {
                LruOp::Touch(w) => {
                    stack.touch(w);
                    model.retain(|&x| x != w);
                    model.insert(0, w);
                }
                LruOp::PushMru(w) => {
                    if !model.contains(&w) {
                        stack.push_mru(w);
                        model.insert(0, w);
                    }
                }
                LruOp::PopLru => {
                    prop_assert_eq!(stack.pop_lru(), model.pop());
                }
                LruOp::Remove(w) => {
                    let present = model.contains(&w);
                    prop_assert_eq!(stack.remove(w), present);
                    model.retain(|&x| x != w);
                }
            }
            prop_assert_eq!(stack.iter_from_mru().collect::<Vec<_>>(), model.clone());
            prop_assert_eq!(stack.lru(), model.last().copied());
            prop_assert_eq!(stack.mru(), model.first().copied());
        }
    }
}

// ---------------------------------------------------------------------
// Set-associative cache vs a reference LRU model.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn cache_matches_reference_lru(
        accesses in proptest::collection::vec((0u64..64, any::<bool>()), 1..400)
    ) {
        // 2 sets x 4 ways; addresses cover 64 blocks so conflicts abound.
        let geom = CacheGeometry::new(512, 4, 64, 1).unwrap();
        let mut cache = Cache::new(geom);
        let core = CoreId::from_index(0);
        // Reference: per-set vector of block numbers, front = MRU.
        let mut model: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for (blk, write) in accesses {
            let addr = Address::new(blk * 64);
            let set = (blk % 2) as usize;
            let hit = cache.access(addr, write, core).is_hit();
            let model_hit = model[set].contains(&blk);
            prop_assert_eq!(hit, model_hit, "block {} set {}", blk, set);
            if hit {
                model[set].retain(|&b| b != blk);
                model[set].insert(0, blk);
            } else {
                cache.fill(addr, write, core);
                model[set].insert(0, blk);
                model[set].truncate(4);
            }
            prop_assert!(cache.check_invariants());
        }
    }
}

// ---------------------------------------------------------------------
// Sharing engine: quota conservation under arbitrary event sequences.

#[derive(Debug, Clone)]
enum EngineOp {
    LruHit(u8),
    Evict(u8, u64),
    Miss(u8, u64),
}

fn engine_op() -> impl Strategy<Value = EngineOp> {
    prop_oneof![
        (0u8..4).prop_map(EngineOp::LruHit),
        (0u8..4, 0u64..64).prop_map(|(c, t)| EngineOp::Evict(c, t)),
        (0u8..4, 0u64..64).prop_map(|(c, t)| EngineOp::Miss(c, t)),
    ]
}

proptest! {
    #[test]
    fn engine_quotas_conserve_under_any_events(
        ops in proptest::collection::vec(engine_op(), 0..2000),
        period in 1u64..50,
    ) {
        let params = AdaptiveParams { reeval_period: period, ..AdaptiveParams::default() };
        let mut eng = SharingEngine::new(16, 4, 16, 4, params);
        for op in ops {
            match op {
                EngineOp::LruHit(c) => eng.record_lru_hit(CoreId::from_index(c)),
                EngineOp::Evict(c, t) => {
                    eng.record_eviction((t % 16) as usize, CoreId::from_index(c), BlockAddr::new(t))
                }
                EngineOp::Miss(c, t) => {
                    eng.observe_miss((t % 16) as usize, CoreId::from_index(c), BlockAddr::new(t));
                }
            }
            prop_assert!(eng.check_invariants());
        }
    }
}

// ---------------------------------------------------------------------
// Adaptive L3: structural invariants under random multiprogrammed
// access streams (DESIGN.md §6).

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn adaptive_l3_invariants_under_random_streams(seed in 0u64..1000, period in 10u64..500) {
        let cfg = MachineConfigBuilder::new()
            .l3_capacity(16 * 16 * 64) // 16 sets
            .build()
            .unwrap();
        let params = AdaptiveParams { reeval_period: period, ..AdaptiveParams::default() };
        let mut l3 = L3System::build(Organization::Adaptive(params), &cfg).unwrap();
        let mut rng = SimRng::seed_from(seed);
        for i in 0..4_000u64 {
            let core = CoreId::from_index(rng.below(4) as u8);
            let addr = Address::new(rng.below(1 << 13) * 64).with_asid(core.asid());
            l3.access(core, addr, rng.chance(0.3), Cycle::new(i * 7));
        }
        let adaptive = l3.as_adaptive().unwrap();
        prop_assert!(adaptive.check_invariants());
        let quotas = adaptive.quotas();
        prop_assert_eq!(quotas.iter().sum::<u32>(), 16);
    }
}

// ---------------------------------------------------------------------
// Unified Invariant audit: the structured audit (simcore::invariant)
// reports zero violations after EVERY step of a random multi-core trace,
// not just at the end — in particular across quota re-evaluation
// boundaries, where lazy repartitioning transiently relabels ways. The
// paper's production period is 2000 misses; tiny periods force many
// re-evaluations inside one short trace.

fn reeval_period() -> impl Strategy<Value = u64> {
    prop_oneof![
        5u64..40,      // many boundary crossings per trace
        Just(2000u64)  // the paper's default period
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn adaptive_l3_audit_is_clean_after_every_step(
        seed in 0u64..1000,
        period in reeval_period(),
    ) {
        use nuca_repro::simcore::invariant::Invariant;

        let cfg = MachineConfigBuilder::new()
            .l3_capacity(16 * 16 * 64) // 16 sets
            .build()
            .unwrap();
        let params = AdaptiveParams { reeval_period: period, ..AdaptiveParams::default() };
        let mut l3 = L3System::build(Organization::Adaptive(params), &cfg).unwrap();
        let mut rng = SimRng::seed_from(seed);
        for i in 0..1_500u64 {
            let core = CoreId::from_index(rng.below(4) as u8);
            let addr = Address::new(rng.below(1 << 13) * 64).with_asid(core.asid());
            l3.access(core, addr, rng.chance(0.3), Cycle::new(i * 7));
            let violations = l3.audit();
            prop_assert!(
                violations.is_empty(),
                "step {} (period {}): {:?}",
                i,
                period,
                violations
            );
        }
        // The bool wrapper and the structured audit must agree.
        prop_assert!(l3.as_adaptive().unwrap().check_invariants());
    }
}

// ---------------------------------------------------------------------
// Statistics: mean inequalities and determinism of the RNG.

proptest! {
    #[test]
    fn mean_inequality_chain(values in proptest::collection::vec(0.01f64..10.0, 1..20)) {
        let h = harmonic_mean(&values);
        let g = geometric_mean(&values);
        let a = arithmetic_mean(&values);
        prop_assert!(h <= g + 1e-9);
        prop_assert!(g <= a + 1e-9);
    }

    #[test]
    fn rng_below_is_always_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

// ---------------------------------------------------------------------
// Trace generators: every op stream is well-formed for any profile knobs.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn generated_streams_are_well_formed(
        seed in any::<u64>(),
        loads in 0.05f64..0.35,
        stores in 0.02f64..0.15,
        branches in 0.02f64..0.25,
        hot_kb in 64u64..2048,
        skew in 1.0f64..3.0,
        loop_frac in 0.0f64..1.0,
    ) {
        use nuca_repro::tracegen::profile::AppProfileBuilder;
        use nuca_repro::tracegen::TraceGenerator;
        let profile = AppProfileBuilder::new("prop")
            .loads(loads)
            .stores(stores)
            .branches(branches)
            .hot_kb(hot_kb)
            .hot_skew(skew)
            .hot_loop(loop_frac)
            .build()
            .unwrap();
        let mut gen = TraceGenerator::new(&profile, SimRng::seed_from(seed));
        for _ in 0..500 {
            let op = gen.next_op();
            prop_assert!(gen.dep_distance(op.dep1) >= 1);
            if op.class.is_mem() {
                prop_assert!(op.addr.is_some());
            } else {
                prop_assert!(op.addr.is_none());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Campaign snapshot/fork (DESIGN.md §9): functional warm-up, snapshot,
// restore into a fresh chip, timed run — bit-identical to warming and
// running straight through, across randomized organizations, latency
// points and workload mixes. This is the property that lets a campaign
// pay one warm-up per (machine, mix) and fork it across latency axes.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn snapshot_restore_run_equals_run_through(
        org_pick in 0u8..4,
        l2_latency in 9u64..12,
        l3_shared_latency in 14u64..17,
        neighbor_extra in 0u64..6,
        first_chunk_extra in 0u64..81,
        mix_seed in 1u64..1_000,
        seed in 1u64..1_000,
    ) {
        use nuca_repro::nuca_core::cmp::Cmp;
        use nuca_repro::nuca_core::l3::Organization;
        use nuca_repro::simcore::config::MachineConfig;
        use nuca_repro::tracegen::spec::SpecApp;
        use nuca_repro::tracegen::workload::WorkloadPool;

        let org = match org_pick {
            0 => Organization::Private,
            1 => Organization::Shared,
            2 => Organization::adaptive(),
            _ => Organization::Cooperative { seed: 7 },
        };
        let mut cfg = MachineConfig::baseline();
        cfg.l2 = cfg.l2.with_latency(l2_latency);
        cfg.l3.shared = cfg.l3.shared.with_latency(l3_shared_latency);
        cfg.l3.neighbor_latency = 19 + neighbor_extra;
        cfg.memory.first_chunk_private = 258 + first_chunk_extra;
        cfg.memory.first_chunk_shared = 260 + first_chunk_extra;
        let mix = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), 4, 1, mix_seed)
            .pop()
            .unwrap();

        let mut through = Cmp::new(&cfg, org, &mix, seed).unwrap();
        through.warm(4_000);
        let bytes = through.save_chip_state().unwrap();

        let mut forked = Cmp::new(&cfg, org, &mix, seed).unwrap();
        forked.load_chip_state(&bytes).unwrap();

        let finish = |cmp: &mut Cmp| {
            cmp.run(2_000);
            cmp.reset_stats();
            cmp.run(4_000);
            cmp.snapshot()
        };
        prop_assert_eq!(finish(&mut through), finish(&mut forked));
    }
}

// ---------------------------------------------------------------------
// Snapshot loader hardening: a payload that decodes must restore an
// audit-clean chip or be refused — never panic.

/// Byte offsets of the fields the loader proptest aims at, inside a
/// finished chip snapshot. The layout is derived from the configuration
/// and cross-checked against the snapshot's own length fields, so a
/// format change fails loudly instead of silently aiming elsewhere.
#[derive(Debug, Clone, Copy)]
struct L3Layout {
    /// First byte of the organization's section (its variant tag).
    start: usize,
    /// One past its last byte (the checksum trailer follows).
    end: usize,
    /// Owner ids of the first cache array, one byte per block.
    owners: (usize, usize),
    /// Valid masks of the first cache array, one `u32` per set.
    valid: (usize, usize),
    /// The first cache array's associativity.
    ways: u32,
    /// Recency records (10 bytes each: variant, permutation, length) of
    /// the first cache array, one per set.
    recency: (usize, usize),
    /// The adaptive engine's quotas (one `u32` per core), if any.
    quotas: Option<usize>,
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(le)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut le = [0u8; 4];
    le.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(le)
}

/// Byte offsets of core 0's trace cursor, predictor history and DTLB
/// entries inside a finished chip snapshot, derived the same way as
/// [`L3Layout`]: walked from the header through the snapshot's own
/// length fields and cross-checked against the configuration.
#[derive(Debug, Clone, Copy)]
struct Core0Layout {
    /// The five trace cursors (PC, stream, hot head, hot loop, shared
    /// head), one `u64` each.
    cursors: usize,
    /// The predictor's global history (`u32`).
    history: usize,
    /// The DTLB's entries, 16 bytes each (page, stamp), and their count.
    dtlb: (usize, usize),
    /// The DTLB's stamp counter (`u64`).
    dtlb_stamp: usize,
}

fn core0_layout(cfg: &nuca_repro::simcore::config::MachineConfig, bytes: &[u8]) -> Core0Layout {
    // Header (8), core count, clock and window start (8 each), core 0's
    // id (1), its generator's four-word RNG state (32).
    let cursors = 8 + 24 + 1 + 32;
    // Cursors, then the generator's op count.
    let mut at = cursors + 6 * 8;
    for entries in [
        cfg.branch.bimodal_entries,
        cfg.branch.level2_entries,
        cfg.branch.chooser_entries,
    ] {
        assert_eq!(read_u64(bytes, at), entries as u64, "predictor table size");
        at += 8 + entries;
    }
    let history = at;
    at += 4;
    assert_eq!(
        read_u64(bytes, at),
        cfg.branch.btb_entries as u64,
        "BTB size"
    );
    // BTB entries, then its use counter and the predictor's statistics.
    at += 8 + 16 * cfg.branch.btb_entries + 3 * 8;
    // The ITLB, then the DTLB: count, entries, stamp counter, statistics.
    let itlb = read_u64(bytes, at) as usize;
    assert!(itlb <= cfg.tlb.entries, "ITLB count");
    at += 8 + 16 * itlb + 3 * 8;
    let dtlb = read_u64(bytes, at) as usize;
    assert!((2..=cfg.tlb.entries).contains(&dtlb), "DTLB count {dtlb}");
    let dtlb_stamp = at + 8 + 16 * dtlb;
    Core0Layout {
        cursors,
        history,
        dtlb: (at + 8, dtlb),
        dtlb_stamp,
    }
}

fn l3_layout(
    cmp: &nuca_repro::nuca_core::cmp::Cmp,
    cfg: &nuca_repro::simcore::config::MachineConfig,
    bytes: &[u8],
) -> L3Layout {
    use nuca_repro::simcore::snapshot::SnapshotWriter;
    let mut w = SnapshotWriter::new();
    cmp.l3().save_state(&mut w);
    // Header (8 bytes) and trailer (8 bytes) frame both encodings.
    let section = w.finish().len() - 16;
    let end = bytes.len() - 8;
    let start = end - section;
    use nuca_repro::simcore::invariant::Invariant;
    let adaptive = cmp.l3().as_adaptive();
    // Private and cooperative organizations lead with core 0's slice.
    let geom = match cmp.l3().component() {
        "shared-l3" | "adaptive-l3" => cfg.l3.shared,
        _ => cfg.l3.private,
    };
    let (sets, ways) = (geom.sets() as usize, geom.total_ways() as usize);
    let blocks = sets * ways;
    // One cache array: tag count, tags, owner count, owners, valid and
    // dirty masks (each a length-prefixed u32 vector), recency count,
    // recency records.
    let cache = start + 1;
    let owners = cache + 8 + 8 * blocks + 8;
    let valid = owners + blocks + 8;
    let recency = owners + blocks + 2 * (8 + 4 * sets) + 8;
    assert_eq!(read_u64(bytes, owners - 8), blocks as u64, "owner count");
    assert_eq!(read_u64(bytes, valid - 8), sets as u64, "valid mask count");
    assert_eq!(read_u64(bytes, recency - 8), sets as u64, "recency count");
    assert_eq!(bytes[recency], 0, "packed recency variant");
    let quotas = adaptive.map(|a| {
        // Per core: private recency records, then occupancy counters.
        let cores = recency + 10 * sets;
        assert_eq!(read_u64(bytes, cores), cfg.cores as u64, "core count");
        let at = cores + 8 + cfg.cores * sets * (10 + 4);
        let stored: Vec<u32> = (0..cfg.cores)
            .map(|c| read_u32(bytes, at + 4 * c))
            .collect();
        assert_eq!(stored, a.quotas(), "quota offset");
        at
    });
    L3Layout {
        start,
        end,
        owners: (owners, blocks),
        valid: (valid, sets),
        ways: geom.total_ways(),
        recency: (recency, sets),
        quotas,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn snapshot_loader_restores_an_audit_clean_chip_or_refuses(
        org_pick in 0u8..4,
        target in 0u8..8,
        pos in any::<u64>(),
        value in any::<u64>(),
        width in 1usize..9,
    ) {
        use nuca_repro::nuca_core::cmp::Cmp;
        use nuca_repro::nuca_core::l3::Organization;
        use nuca_repro::simcore::config::MachineConfig;
        use nuca_repro::simcore::snapshot::fnv1a64;
        use nuca_repro::tracegen::spec::SpecApp;
        use nuca_repro::tracegen::workload::WorkloadPool;

        let org = match org_pick {
            0 => Organization::Private,
            1 => Organization::Shared,
            2 => Organization::adaptive(),
            _ => Organization::Cooperative { seed: 7 },
        };
        let cfg = MachineConfig::baseline();
        let mix = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), 4, 1, 5)
            .pop()
            .unwrap();
        let mut warm = Cmp::new(&cfg, org, &mix, 3).unwrap();
        warm.warm(3_000);
        let mut bytes = warm.save_chip_state().unwrap();
        let layout = l3_layout(&warm, &cfg, &bytes);
        let core0 = core0_layout(&cfg, &bytes);

        // Aim the mutation: anywhere in the organization's section, an
        // owner id (out of range), a quota, an LRU permutation, a valid
        // bit at or beyond the associativity, or in core 0 a trace
        // cursor no run can reach, a DTLB page listed twice or a stamp
        // above the counter, or a history bit above the history mask.
        let le = value.to_le_bytes();
        let (at, patch): (usize, Vec<u8>) = match (target, layout.quotas) {
            (1, _) => {
                let (base, n) = layout.owners;
                (base + (pos % n as u64) as usize, vec![4 + (value % 252) as u8])
            }
            (2, Some(base)) => {
                let at = base + 4 * (pos % cfg.cores as u64) as usize;
                (at, ((value % 40) as u32).to_le_bytes().to_vec())
            }
            (3, _) => {
                let (base, n) = layout.recency;
                (base + 10 * (pos % n as u64) as usize + 1, le[..width].to_vec())
            }
            (4, _) => {
                let (base, n) = layout.valid;
                let at = base + 4 * (pos % n as u64) as usize;
                let bit = layout.ways + (value % u64::from(32 - layout.ways)) as u32;
                (at, (read_u32(&bytes, at) | 1 << bit).to_le_bytes().to_vec())
            }
            (5, _) => {
                let field = (pos % 5) as usize;
                let at = core0.cursors + 8 * field;
                let bent = if field < 2 && value.is_multiple_of(2) {
                    // The PC and stream cursors keep an alignment.
                    read_u64(&bytes, at) + 1 + value % 3
                } else {
                    // Beyond every region of every profile.
                    (1 << 40) + (value >> 24)
                };
                (at, bent.to_le_bytes().to_vec())
            }
            (6, _) => {
                let (base, n) = core0.dtlb;
                let k = (pos % (n as u64 - 1)) as usize;
                if value.is_multiple_of(2) {
                    // Entry k + 1 repeats entry k's page.
                    let page = read_u64(&bytes, base + 16 * k);
                    (base + 16 * (k + 1), page.to_le_bytes().to_vec())
                } else {
                    let stamp = read_u64(&bytes, core0.dtlb_stamp) + 1 + value % 1_000;
                    (base + 16 * k + 8, stamp.to_le_bytes().to_vec())
                }
            }
            (7, _) => {
                let bits = cfg.branch.history_bits;
                let bit = bits + (value % u64::from(32 - bits)) as u32;
                let at = core0.history;
                (at, (read_u32(&bytes, at) | 1 << bit).to_le_bytes().to_vec())
            }
            _ => {
                let span = (layout.end - layout.start) as u64;
                (layout.start + (pos % span) as usize, le[..width].to_vec())
            }
        };
        let at_end = (at + patch.len()).min(layout.end);
        bytes[at..at_end].copy_from_slice(&patch[..at_end - at]);
        let trailer = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..trailer]);
        bytes[trailer..].copy_from_slice(&sum.to_le_bytes());

        let mut restored = Cmp::new(&cfg, org, &mix, 3).unwrap();
        if target >= 4 {
            // A stray valid bit would make `find` walk into another set's
            // tags; a bent cursor would leave its region on the next op;
            // a repeated DTLB page would shrink the TLB and a stamp above
            // the counter would tie with a later touch; a history bit
            // above the mask would steer a level-2 lookup no run makes.
            prop_assert!(
                restored.load_chip_state(&bytes).is_err(),
                "target {} loaded", target
            );
        } else if restored.load_chip_state(&bytes).is_ok() {
            prop_assert!(restored.audit().is_empty(), "loaded a chip that fails its audit");
            // A restored chip must also run.
            restored.run(2_000);
        }
    }
}

// ---------------------------------------------------------------------
// The chunked warm (DESIGN.md §8): core sides fanned out over host
// threads, L3 drained in the serial order — byte-identical to the
// one-at-a-time reference for any workload, length and thread count.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn fanned_out_warm_matches_the_reference_warm(
        org_pick in 0u8..4,
        width in 1usize..5,
        instructions in 0u64..40_000,
        seed in 1u64..1_000,
        spec_mix in any::<bool>(),
        knobs in proptest::collection::vec(
            (0.05f64..0.35, 0.0f64..0.5, 0.0f64..0.3, 64u64..4096, 0.0f64..0.2),
            4..5,
        ),
        forwards in proptest::collection::vec(0u64..2_000_000_000, 4..5),
    ) {
        use nuca_repro::nuca_core::cmp::Cmp;
        use nuca_repro::nuca_core::l3::Organization;
        use nuca_repro::simcore::config::MachineConfig;
        use nuca_repro::simcore::parallel::run_indexed;
        use nuca_repro::telemetry::NullSink;
        use nuca_repro::tracegen::profile::{AppProfile, AppProfileBuilder, MemoryMix};
        use nuca_repro::tracegen::spec::SpecApp;
        use nuca_repro::tracegen::workload::WorkloadPool;

        let org = match org_pick {
            0 => Organization::Private,
            1 => Organization::Shared,
            2 => Organization::adaptive(),
            _ => Organization::Cooperative { seed: 7 },
        };
        let cfg = MachineConfig::baseline();
        // Either a SPEC-like mix, or four custom profiles (some reading
        // a shared region) with arbitrary fast-forwards.
        let (profiles, forwards): (Vec<AppProfile>, Vec<u64>) = if spec_mix {
            let mix = WorkloadPool::random_mixes(&SpecApp::ALL, 4, 1, seed)
                .pop()
                .unwrap();
            (mix.profiles().into_iter().cloned().collect(), mix.forwards)
        } else {
            let profiles = knobs
                .iter()
                .map(|&(loads, hot, streaming, hot_kb, shared)| {
                    let rest = 1.0 - hot - streaming;
                    AppProfileBuilder::new("prop")
                        .loads(loads)
                        .mix(MemoryMix {
                            l1_resident: 0.7 * rest,
                            l2_resident: 0.3 * rest,
                            l3_hot: hot,
                            streaming,
                        })
                        .hot_kb(hot_kb)
                        .shared_reads(shared, 256)
                        .build()
                        .unwrap()
                })
                .collect();
            (profiles, forwards)
        };
        let build = || {
            Cmp::with_profiles_and_sink(&cfg, org, &profiles, &forwards, seed, NullSink).unwrap()
        };
        let mut reference = build();
        reference.warm_reference(instructions);
        let reference = reference.save_chip_state().unwrap();
        // The only cell of a `width`-job runner fans its warm out
        // `width` ways.
        let fanned = run_indexed(width, 1, |_| {
            let mut cmp = build();
            cmp.warm(instructions);
            cmp.save_chip_state().unwrap()
        });
        prop_assert!(fanned[0] == reference, "warm diverged at width {}", width);
    }
}

// ---------------------------------------------------------------------
// Time sampling: the functional-gap engine vs the warm reference, and
// window-boundary state integrity (DESIGN.md §8 "Time sampling").

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn functional_gap_engine_matches_the_warm_reference_state(
        org_pick in 0u8..2,
        cycles in 2_000u64..12_000,
        l2_latency in 9u64..12,
        first_chunk_extra in 0u64..81,
        mix_seed in 1u64..1_000,
        seed in 1u64..1_000,
    ) {
        use nuca_repro::nuca_core::cmp::Cmp;
        use nuca_repro::nuca_core::l3::Organization;
        use nuca_repro::simcore::config::MachineConfig;
        use nuca_repro::tracegen::spec::SpecApp;
        use nuca_repro::tracegen::workload::WorkloadPool;

        // Non-adaptive organizations: the only difference between the
        // warm path and a functional gap is the adaptation freeze, so
        // with no adaptation the two engines must produce bit-identical
        // chip state from bit-identical histories.
        let org = if org_pick == 0 { Organization::Private } else { Organization::Shared };
        let mix = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), 4, 1, mix_seed)
            .pop()
            .unwrap();
        let cfg = MachineConfig::baseline();

        let mut warmed = Cmp::new(&cfg, org, &mix, seed).unwrap();
        warmed.warm(cycles);
        let warm_bytes = warmed.save_chip_state().unwrap();

        let mut gapped = Cmp::new(&cfg, org, &mix, seed).unwrap();
        gapped.run_functional(cycles);
        let gap_bytes = gapped.save_chip_state().unwrap();
        prop_assert_eq!(&warm_bytes, &gap_bytes, "gap engine diverged from warm");

        // And the functional state is latency-insensitive: no timing
        // model runs in a gap, so latency knobs must not leak into it.
        let mut slow_cfg = cfg;
        slow_cfg.l2 = slow_cfg.l2.with_latency(l2_latency);
        slow_cfg.memory.first_chunk_private = 258 + first_chunk_extra;
        slow_cfg.memory.first_chunk_shared = 260 + first_chunk_extra;
        let mut slow = Cmp::new(&slow_cfg, org, &mix, seed).unwrap();
        slow.run_functional(cycles);
        prop_assert_eq!(
            &gap_bytes,
            &slow.save_chip_state().unwrap(),
            "functional gaps must be latency-insensitive"
        );
    }

    #[test]
    fn time_sampled_boundary_state_forks_deterministically(
        org_pick in 0u8..3,
        detail in 500u64..3_000,
        gap in 1_000u64..8_000,
        seed in 1u64..1_000,
    ) {
        use nuca_repro::nuca_core::cmp::Cmp;
        use nuca_repro::nuca_core::l3::Organization;
        use nuca_repro::simcore::config::MachineConfig;
        use nuca_repro::tracegen::spec::SpecApp;
        use nuca_repro::tracegen::workload::WorkloadPool;

        // Window boundaries leave the chip in a coherent, quiescent
        // state: a snapshot taken after a time-sampled run forks into a
        // fresh chip that continues exactly like the original.
        let org = match org_pick {
            0 => Organization::Private,
            1 => Organization::Shared,
            _ => Organization::adaptive(),
        };
        let cfg = MachineConfig::baseline();
        let mix = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), 4, 1, seed)
            .pop()
            .unwrap();
        let mut through = Cmp::new(&cfg, org, &mix, seed).unwrap();
        through.set_time_sample(detail, gap);
        through.warm(4_000);
        // A whole number of detail+gap periods ends the run on a window
        // boundary: the gap drained the pipelines, so the chip is
        // quiescent and snapshot-able right there (mid-window it is
        // not, by design — the detailed pipeline is in flight).
        through.run(2 * (detail + gap));
        prop_assert!(through.audit().is_empty());
        let bytes = through.save_chip_state().unwrap();

        let mut forked = Cmp::new(&cfg, org, &mix, seed).unwrap();
        forked.load_chip_state(&bytes).unwrap();
        forked.set_time_sample(detail, gap);

        let finish = |cmp: &mut Cmp| {
            cmp.reset_stats();
            cmp.run(8_000);
            cmp.snapshot()
        };
        prop_assert_eq!(finish(&mut through), finish(&mut forked));
    }
}

// ---------------------------------------------------------------------
// The fused TLB+L1 probe vs the sequential reference walk.

use nuca_repro::cpusim::fastpath::fused_hit;
use nuca_repro::cpusim::tlb::Tlb;
use nuca_repro::simcore::config::TlbConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn fused_probe_equals_sequential_walk_any_geometry(
        seed in any::<u64>(),
        entries in 1usize..24,
        assoc in 1u32..=32,
        sets_log in 0u32..3,
        addr_pages in 2u64..40,
    ) {
        // Covers both LRU representations: packed nibbles up to 16 ways
        // and the wide LruStack facade for 17–32 ways. The fused probe
        // (with reference fallback on a failed probe) and the plain
        // sequential TLB-then-L1 walk must produce the same verdicts and
        // leave bit-identical snapshots behind.
        let sets = 1u64 << sets_log;
        let geom = CacheGeometry::new(sets * u64::from(assoc) * 64, assoc, 64, 1).unwrap();
        let cfg = TlbConfig { entries, miss_penalty: 30 };
        let (mut ft, mut fc) = (Tlb::new(cfg), Cache::new(geom));
        let (mut rt, mut rc) = (Tlb::new(cfg), Cache::new(geom));
        let core = CoreId::from_index(0);
        let mut rng = SimRng::seed_from(seed);
        for i in 0..2_000u32 {
            let addr = Address::new(rng.below(addr_pages << 12) & !7);
            let write = rng.chance(0.3);
            let fused = fused_hit(&mut ft, &mut fc, addr, write);
            if !fused {
                ft.access(addr);
                if !fc.access(addr, write, core).is_hit() {
                    fc.fill(addr, write, core);
                }
            }
            let tlb_hit = rt.access(addr);
            let l1_hit = rc.access(addr, write, core).is_hit();
            if !l1_hit {
                rc.fill(addr, write, core);
            }
            prop_assert_eq!(fused, tlb_hit && l1_hit, "op {}", i);
        }
        prop_assert_eq!((ft.hits(), ft.misses()), (rt.hits(), rt.misses()));
        prop_assert_eq!(fc.stats(), rc.stats());
        let enc = |f: &dyn Fn(&mut nuca_repro::simcore::snapshot::SnapshotWriter)| {
            let mut w = nuca_repro::simcore::snapshot::SnapshotWriter::new();
            f(&mut w);
            w.finish()
        };
        prop_assert_eq!(enc(&|w| ft.save_state(w)), enc(&|w| rt.save_state(w)));
        prop_assert_eq!(enc(&|w| fc.save_state(w)), enc(&|w| rc.save_state(w)));
    }
}
