//! Tests of the parallel-workload extension (the paper's future work):
//! read-shared regions across address spaces.

use nuca_repro::cachesim::shadow::SetSampling;
use nuca_repro::nuca_core::cmp::Cmp;
use nuca_repro::nuca_core::engine::AdaptiveParams;
use nuca_repro::nuca_core::experiment::{build_chip, measure, run_profiles, ExperimentConfig};
use nuca_repro::nuca_core::l3::Organization;
use nuca_repro::simcore::config::MachineConfig;
use nuca_repro::simcore::rng::SimRng;
use nuca_repro::simcore::types::Address;
use nuca_repro::telemetry::NullSink;
use nuca_repro::tracegen::generator::{is_shared_address, SHARED_BASE};
use nuca_repro::tracegen::spec::SpecApp;
use nuca_repro::tracegen::workload::parallel_workload;
use nuca_repro::tracegen::{OpClass, TraceGenerator};

#[test]
fn shared_addresses_are_recognized_before_and_after_tagging() {
    let a = Address::new(SHARED_BASE + 0x40);
    assert!(is_shared_address(a));
    assert!(is_shared_address(a.with_asid(3)));
    assert!(!is_shared_address(Address::new(0x3000_0000).with_asid(3)));
}

#[test]
fn parallel_profiles_emit_shared_loads() {
    let (profiles, _) = parallel_workload(SpecApp::Galgel, 4, 0.5, 1024, 3);
    let mut gen = TraceGenerator::new(&profiles[0], SimRng::seed_from(3));
    let mut shared_loads = 0;
    let mut loads = 0;
    for _ in 0..50_000 {
        let op = gen.next_op();
        if op.class == OpClass::Load {
            loads += 1;
            if is_shared_address(op.addr.unwrap()) {
                shared_loads += 1;
            }
        }
    }
    let frac = shared_loads as f64 / loads as f64;
    assert!((0.45..0.55).contains(&frac), "shared-load fraction {frac}");
}

#[test]
fn zero_shared_fraction_reproduces_multiprogrammed_mode() {
    // The extension must not perturb the paper's setting.
    let profile = SpecApp::Gzip.profile().clone();
    assert_eq!(profile.shared_read_frac, 0.0);
    let mut gen = TraceGenerator::new(&profile, SimRng::seed_from(5));
    for _ in 0..20_000 {
        if let Some(a) = gen.next_op().addr {
            assert!(!is_shared_address(a));
        }
    }
}

#[test]
fn sharing_organizations_deduplicate_the_shared_region() {
    let machine = MachineConfig::baseline();
    let (profiles, forwards) = parallel_workload(SpecApp::Galgel, 4, 0.4, 1024, 7);

    let run = |org: Organization| {
        let mut cmp =
            Cmp::with_profiles_and_sink(&machine, org, &profiles, &forwards, 7, NullSink).unwrap();
        cmp.warm(400_000);
        cmp.run(100_000);
        cmp.reset_stats();
        cmp.run(150_000);
        cmp.snapshot()
    };

    let private = run(Organization::Private);
    let adaptive = run(Organization::adaptive());

    // Private slices replicate the shared region (4 copies -> more
    // misses); the adaptive organization serves neighbors remotely.
    let adaptive_remote: u64 = adaptive
        .per_core
        .iter()
        .map(|(_, s)| s.l3_remote_hits)
        .sum();
    assert!(adaptive_remote > 0, "cross-core hits must happen");
    assert!(
        adaptive
            .per_core
            .iter()
            .map(|(_, s)| s.l3_misses)
            .sum::<u64>()
            < private
                .per_core
                .iter()
                .map(|(_, s)| s.l3_misses)
                .sum::<u64>(),
        "deduplication must reduce misses"
    );
    assert!(
        adaptive.hmean_ipc > private.hmean_ipc,
        "the paper's hypothesis: the scheme helps parallel workloads too \
         (adaptive {:.4} vs private {:.4})",
        adaptive.hmean_ipc,
        private.hmean_ipc
    );
}

#[test]
fn adaptive_invariants_hold_with_shared_blocks() {
    let machine = MachineConfig::baseline();
    let (profiles, forwards) = parallel_workload(SpecApp::Twolf, 4, 0.5, 512, 13);
    let org = Organization::adaptive();
    let mut cmp =
        Cmp::with_profiles_and_sink(&machine, org, &profiles, &forwards, 13, NullSink).unwrap();
    cmp.warm(300_000);
    cmp.run(100_000);
    assert!(cmp.l3().as_adaptive().unwrap().check_invariants());
}

#[test]
fn parallel_cells_honor_both_samplers() {
    // A parallel-workload cell goes through the same chip builder as a
    // mix, so both samplers reach it: the adaptive engine's shadow tags
    // in 1/16 of the sets (§4.6) and the experiment's time sampling,
    // which reports. No organization is set-sampled, so `sampling` is
    // always `None`.
    let machine = MachineConfig::baseline();
    let (profiles, forwards) = parallel_workload(SpecApp::Galgel, 4, 0.4, 1024, 7);
    let org = Organization::Adaptive(AdaptiveParams {
        shadow_sampling: SetSampling::LowestIndex { shift: 4 },
        ..AdaptiveParams::default()
    });
    let exp = ExperimentConfig {
        warm_instructions: 100_000,
        warmup_cycles: 5_000,
        measure_cycles: 40_000,
        seed: 7,
        ..ExperimentConfig::default()
    }
    .with_time_sample(Some((2_000, 6_000)));
    let (result, trace) = run_profiles(&machine, org, &profiles, &forwards, &exp).unwrap();
    assert!(trace.is_none(), "no collector installed");
    assert_eq!(result.sampling, None);
    let ts = result.time_sampling.expect("time-sampling report");
    assert_eq!((ts.detail, ts.gap), (2_000, 6_000));
    assert!(ts.windows >= 2);
    let mut cmp = build_chip(&machine, org, &profiles, &forwards, &exp, NullSink).unwrap();
    assert_eq!(
        measure(&mut cmp, &exp),
        result,
        "run_profiles measures the chip build_chip makes"
    );
    let engine = cmp.l3().as_adaptive().expect("adaptive").engine();
    let sets = machine.l3.shared.sets() as usize;
    assert!(engine.monitors_set(0) && !engine.monitors_set(sets / 16));
}
