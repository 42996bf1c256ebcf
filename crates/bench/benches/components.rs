//! Micro-benchmarks of the simulator's hot components: how fast each
//! substrate runs, which bounds how much simulated time the figure
//! harness can afford.

// Bench harness: failing fast on setup errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cachesim::cache::Cache;
use cachesim::lru::{LruStack, PackedLru};
use cpusim::branch::BranchPredictor;
use cpusim::core::Core;
use cpusim::l3iface::{FixedLatencyL3, LastLevel};
use nuca_core::cmp::Cmp;
use nuca_core::engine::AdaptiveParams;
use nuca_core::l3::{AdaptiveL3, Organization};
use simcore::config::{BranchConfig, CacheGeometry, MachineConfig};
use simcore::rng::SimRng;
use simcore::types::{Address, CoreId, Cycle};
use tracegen::spec::SpecApp;
use tracegen::workload::Mix;
use tracegen::TraceGenerator;

fn bench_lru_stack(c: &mut Criterion) {
    c.bench_function("lru_stack_touch_16way", |b| {
        let mut s = LruStack::with_ways(16);
        let mut i = 0u8;
        b.iter(|| {
            i = (i + 7) % 16;
            s.touch(black_box(i));
        });
    });
    // The packed u64 permutation word against the Vec reference above:
    // same access pattern, so the two lines are directly comparable.
    c.bench_function("packed_lru_touch_16way", |b| {
        let mut s = PackedLru::with_ways(16);
        let mut i = 0u8;
        b.iter(|| {
            i = (i + 7) % 16;
            s.touch(black_box(i));
        });
    });
    c.bench_function("packed_lru_victim_walk_16way", |b| {
        let mut s = PackedLru::with_ways(16);
        b.iter(|| {
            let victim = s.pop_lru().unwrap();
            s.push_mru(black_box(victim));
            victim
        });
    });
}

fn bench_cache_access(c: &mut Criterion) {
    c.bench_function("l1d_access_hit", |b| {
        let geom = CacheGeometry::new(64 * 1024, 2, 64, 3).unwrap();
        let mut cache = Cache::new(geom);
        let core = CoreId::from_index(0);
        cache.fill(Address::new(0x1000), false, core);
        b.iter(|| cache.access(black_box(Address::new(0x1000)), false, core));
    });
    c.bench_function("l2_access_random_mix", |b| {
        let geom = CacheGeometry::new(256 * 1024, 4, 64, 9).unwrap();
        let mut cache = Cache::new(geom);
        let core = CoreId::from_index(0);
        let mut rng = SimRng::seed_from(1);
        b.iter(|| {
            let a = Address::new(rng.below(1 << 20));
            if !cache.access(a, false, core).is_hit() {
                cache.fill(a, false, core);
            }
        });
    });
}

fn bench_branch_predictor(c: &mut Criterion) {
    c.bench_function("combined_predictor_access", |b| {
        let mut bp = BranchPredictor::new(BranchConfig::default());
        let mut rng = SimRng::seed_from(2);
        b.iter(|| {
            let pc = Address::new(0x40_0000 + rng.below(256) * 4);
            bp.access(black_box(pc), rng.chance(0.7))
        });
    });
}

fn bench_trace_generator(c: &mut Criterion) {
    c.bench_function("tracegen_next_op", |b| {
        let mut gen = TraceGenerator::new(SpecApp::Gzip.profile(), SimRng::seed_from(3));
        b.iter(|| black_box(gen.next_op()));
    });
}

fn bench_adaptive_l3(c: &mut Criterion) {
    c.bench_function("adaptive_l3_access", |b| {
        let cfg = MachineConfig::baseline();
        let mut l3 = AdaptiveL3::new(&cfg, AdaptiveParams::default());
        let mut rng = SimRng::seed_from(4);
        let mut now = 0u64;
        b.iter(|| {
            now += 10;
            let core = CoreId::from_index(rng.below(4) as u8);
            let a = Address::new(rng.below(1 << 24)).with_asid(core.asid());
            l3.access(core, a, false, Cycle::new(now))
        });
    });
}

fn bench_adaptive_l3_evict_heavy(c: &mut Criterion) {
    // Pin the miss/eviction path: a prefilled cache fed a wide address
    // stream so almost every access runs owned_count + find_victim +
    // install. This is the path the incremental per-core occupancy
    // counters (`AdaptiveSet::owned`/`filled`) accelerate: before the
    // counters this measured 239 ns/iter (and adaptive_l3_access
    // 224 ns); with them, 189 ns (183 ns) on the same host — a ~21%
    // cut on the eviction path. The shadow probes below were already a
    // single compare (34/36 ns before and after); the flat tag array
    // removes the Option discriminant and halves the table footprint.
    c.bench_function("adaptive_l3_evict_heavy", |b| {
        let cfg = MachineConfig::baseline();
        let mut l3 = AdaptiveL3::new(&cfg, AdaptiveParams::default());
        let mut rng = SimRng::seed_from(7);
        let mut now = 0u64;
        // Fill every set so the steady state is eviction-per-miss.
        for _ in 0..300_000 {
            now += 10;
            let core = CoreId::from_index(rng.below(4) as u8);
            let a = Address::new(rng.below(1 << 30)).with_asid(core.asid());
            l3.access(core, a, false, Cycle::new(now));
        }
        b.iter(|| {
            now += 10;
            let core = CoreId::from_index(rng.below(4) as u8);
            let a = Address::new(rng.below(1 << 30)).with_asid(core.asid());
            l3.access(core, a, false, Cycle::new(now))
        });
    });
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // The zero-cost-when-off claim, measured. Both benches drive the
    // same eviction-heavy stream as `adaptive_l3_evict_heavy`; the
    // `_off` variant must sit within noise of that baseline (189 ns/iter
    // on the reference host) because `NullSink::ENABLED == false` lets
    // the compiler delete every emission site. The `_on` variant prices
    // a live `Recorder` ring: the paid cost when tracing is requested.
    fn drive<S: telemetry::Sink>(c: &mut Criterion, name: &str, sink: S) {
        c.bench_function(name, |b| {
            let cfg = MachineConfig::baseline();
            let mut l3 = AdaptiveL3::with_sink(&cfg, AdaptiveParams::default(), sink.clone());
            let mut rng = SimRng::seed_from(7);
            let mut now = 0u64;
            for _ in 0..300_000 {
                now += 10;
                let core = CoreId::from_index(rng.below(4) as u8);
                let a = Address::new(rng.below(1 << 30)).with_asid(core.asid());
                l3.access(core, a, false, Cycle::new(now));
            }
            b.iter(|| {
                now += 10;
                let core = CoreId::from_index(rng.below(4) as u8);
                let a = Address::new(rng.below(1 << 30)).with_asid(core.asid());
                l3.access(core, a, false, Cycle::new(now))
            });
        });
    }
    drive(c, "telemetry_overhead_off_null_sink", telemetry::NullSink);
    drive(
        c,
        "telemetry_overhead_on_recorder",
        telemetry::Recorder::with_capacity(telemetry::Recorder::DEFAULT_CAPACITY),
    );
}

fn bench_shadow_tags(c: &mut Criterion) {
    use cachesim::shadow::ShadowTags;
    use simcore::types::BlockAddr;
    // The per-miss shadow probe (§4.6): one register load + compare in
    // the flat per-core tag array, at the paper's 1/16 sampling.
    c.bench_function("shadow_probe_check_miss", |b| {
        let mut st = ShadowTags::new(4096, 4, 4);
        let mut rng = SimRng::seed_from(8);
        for set in 0..256usize {
            for core in 0..4u8 {
                st.record_eviction(set, CoreId::from_index(core), BlockAddr::new(set as u64));
            }
        }
        b.iter(|| {
            let set = rng.below(4096) as usize;
            let core = CoreId::from_index(rng.below(4) as u8);
            st.check_miss(black_box(set), core, BlockAddr::new(rng.below(512)))
        });
    });
    c.bench_function("shadow_record_eviction", |b| {
        let mut st = ShadowTags::new(4096, 4, 4);
        let mut rng = SimRng::seed_from(9);
        b.iter(|| {
            let set = rng.below(256) as usize;
            let core = CoreId::from_index(rng.below(4) as u8);
            st.record_eviction(black_box(set), core, BlockAddr::new(rng.below(1 << 20)));
        });
    });
}

fn bench_core_cycle(c: &mut Criterion) {
    c.bench_function("core_step_cycle", |b| {
        let cfg = MachineConfig::baseline();
        b.iter_batched(
            || {
                let gen = TraceGenerator::new(SpecApp::Gzip.profile(), SimRng::seed_from(5));
                (
                    Core::new(CoreId::from_index(0), &cfg, gen),
                    FixedLatencyL3::new(19),
                )
            },
            |(mut core, mut l3)| {
                for n in 0..1_000u64 {
                    core.step(Cycle::new(n), &mut l3);
                }
                core.committed()
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("core_warm_op", |b| {
        let cfg = MachineConfig::baseline();
        let gen = TraceGenerator::new(SpecApp::Gzip.profile(), SimRng::seed_from(6));
        let mut core = Core::new(CoreId::from_index(0), &cfg, gen);
        let mut l3 = FixedLatencyL3::new(19);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            core.warm_op(Cycle::new(now), &mut l3);
        });
    });
}

fn bench_l3_batch(c: &mut Criterion) {
    // The batched warm path against the one-access-at-a-time reference
    // on the same chip and instruction budget: the gap is what queueing
    // L3 requests per pacing round (instead of interleaving them with
    // private-hierarchy work) buys in locality. Results are bit-identical
    // (pinned by `batched_warm_matches_one_at_a_time`).
    let cfg = MachineConfig::baseline();
    let mix = Mix {
        apps: vec![SpecApp::Ammp, SpecApp::Mcf, SpecApp::Swim, SpecApp::Applu],
        forwards: vec![0; 4],
    };
    for (name, batched) in [
        ("l3_batch_access_batched", true),
        ("l3_batch_access_reference", false),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || Cmp::new(&cfg, Organization::Shared, &mix, 42).unwrap(),
                |mut cmp| {
                    if batched {
                        cmp.warm(3_000);
                    } else {
                        cmp.warm_reference(3_000);
                    }
                    cmp.now()
                },
                BatchSize::SmallInput,
            );
        });
    }
}

fn bench_cycle_skip(c: &mut Criterion) {
    // The event-driven run loop against the reference stepping loop on
    // the same warmed chip: the gap between these two lines is exactly
    // what the skip fast path buys on stall-heavy windows.
    let cfg = MachineConfig::baseline();
    let mix = Mix {
        apps: vec![SpecApp::Ammp, SpecApp::Mcf, SpecApp::Swim, SpecApp::Applu],
        forwards: vec![0; 4],
    };
    for (name, skip) in [
        ("cmp_run_window_skip", true),
        ("cmp_run_window_step", false),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut cmp = Cmp::new(&cfg, Organization::Shared, &mix, 42).unwrap();
                    cmp.set_cycle_skip(skip);
                    cmp.warm(2_000);
                    cmp
                },
                |mut cmp| {
                    cmp.run(20_000);
                    cmp.now()
                },
                BatchSize::SmallInput,
            );
        });
    }
}

fn bench_functional_window(c: &mut Criterion) {
    // The functional-warming gap engine against the detailed run loop
    // on the same warmed chip and the same 20k-cycle window: the gap
    // between `functional_window` and `cmp_run_window_skip` (above) is
    // what each cycle of time-sampling gap buys over detailed
    // simulation.
    let cfg = MachineConfig::baseline();
    let mix = Mix {
        apps: vec![SpecApp::Ammp, SpecApp::Mcf, SpecApp::Swim, SpecApp::Applu],
        forwards: vec![0; 4],
    };
    c.bench_function("functional_window", |b| {
        b.iter_batched(
            || {
                let mut cmp = Cmp::new(&cfg, Organization::Shared, &mix, 42).unwrap();
                cmp.warm(2_000);
                cmp
            },
            |mut cmp| {
                cmp.run_functional(20_000);
                cmp.now()
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_fast_path(c: &mut Criterion) {
    use cpusim::fastpath::fused_hit;
    use cpusim::tlb::Tlb;
    use simcore::config::TlbConfig;

    // The fused TLB+L1 probe on a resident line: the cost of the whole
    // common-case hit check, directly comparable to `l1d_access_hit`
    // (which pays the L1 lookup alone).
    c.bench_function("fused_probe_hit", |b| {
        let mut tlb = Tlb::new(TlbConfig::default());
        let geom = CacheGeometry::new(64 * 1024, 2, 64, 3).unwrap();
        let mut l1 = Cache::new(geom);
        let addr = Address::new(0x1000);
        tlb.access(addr);
        l1.fill(addr, false, CoreId::from_index(0));
        b.iter(|| fused_hit(black_box(&mut tlb), black_box(&mut l1), addr, false));
    });
    // The detailed stepping loop with and without the hit fast path on
    // the same warmed chip: the gap between these two lines is what the
    // fused probe + memos + issue hint buy on hit-heavy windows.
    let cfg = MachineConfig::baseline();
    let mix = Mix {
        apps: vec![SpecApp::Ammp, SpecApp::Mcf, SpecApp::Swim, SpecApp::Applu],
        forwards: vec![0; 4],
    };
    for (name, fast) in [("core_step_hit_fast", true), ("core_step_hit_slow", false)] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut cmp = Cmp::new(&cfg, Organization::Shared, &mix, 42).unwrap();
                    cmp.set_cycle_skip(false);
                    cmp.set_fast_path(fast);
                    cmp.warm(2_000);
                    cmp
                },
                |mut cmp| {
                    cmp.run(20_000);
                    cmp.now()
                },
                BatchSize::SmallInput,
            );
        });
    }
}

criterion_group!(
    benches,
    bench_lru_stack,
    bench_cache_access,
    bench_branch_predictor,
    bench_trace_generator,
    bench_adaptive_l3,
    bench_adaptive_l3_evict_heavy,
    bench_telemetry_overhead,
    bench_shadow_tags,
    bench_core_cycle,
    bench_l3_batch,
    bench_cycle_skip,
    bench_functional_window,
    bench_fast_path
);
criterion_main!(benches);
