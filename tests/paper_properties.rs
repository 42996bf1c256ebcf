//! Paper-shape assertions: the qualitative results of the evaluation
//! section must hold in this reproduction (moderate scale, so these are
//! slower than unit tests but still minutes, not hours).

use nuca_repro::nuca_core::cost::CostModel;
use nuca_repro::nuca_core::experiment::{run_mix, sensitivity_sweep, ExperimentConfig};
use nuca_repro::nuca_core::l3::Organization;
use nuca_repro::simcore::config::MachineConfig;
use nuca_repro::tracegen::spec::SpecApp;
use nuca_repro::tracegen::workload::{Mix, WorkloadPool};

/// Mid-sized experiment: large enough for stable orderings.
fn exp() -> ExperimentConfig {
    ExperimentConfig {
        warm_instructions: 1_200_000,
        warmup_cycles: 500_000,
        measure_cycles: 600_000,
        seed: 2007,
        jobs: 1,
        cycle_skip: true,
        fast_path: true,
        time_sample: None,
    }
}

#[test]
fn figure3_mcf_is_flat_and_gzip_saturates() {
    let machine = MachineConfig::baseline();
    let e = exp();
    let mcf = sensitivity_sweep(&machine, SpecApp::Mcf, &[1, 4, 16], &e).unwrap();
    // mcf: one block per set suffices; extra ways change little.
    let flat = mcf[2].misses as f64 / mcf[0].misses as f64;
    assert!(flat > 0.85, "mcf must be insensitive, got ratio {flat}");

    let gzip = sensitivity_sweep(&machine, SpecApp::Gzip, &[1, 4, 16], &e).unwrap();
    let drop_at_4 = gzip[1].misses as f64 / gzip[0].misses as f64;
    let tail = gzip[2].misses as f64 / gzip[1].misses as f64;
    assert!(
        drop_at_4 < 0.8,
        "gzip gains most of its hits by 4 ways ({drop_at_4})"
    );
    assert!(tail > 0.5, "gzip is mostly satisfied at 4 ways ({tail})");
}

#[test]
fn figure3_ammp_keeps_improving_past_four_ways() {
    let machine = MachineConfig::baseline();
    let pts = sensitivity_sweep(&machine, SpecApp::Ammp, &[4, 16], &exp()).unwrap();
    assert!(
        (pts[1].misses as f64) < 0.8 * pts[0].misses as f64,
        "ammp: 16 ways must clearly beat 4 ({} vs {})",
        pts[1].misses,
        pts[0].misses
    );
}

#[test]
fn figure7_precondition_big_cache_apps_gain_from_4x_private() {
    // The paper: ammp, art, twolf and vpr benefit from a 4x-larger
    // private cache; mcf does not.
    let machine = MachineConfig::baseline();
    let e = exp();
    for (app, wants_capacity) in [
        (SpecApp::Ammp, true),
        (SpecApp::Art, true),
        (SpecApp::Mcf, false),
    ] {
        let mix = WorkloadPool::homogeneous(app, 4, e.seed);
        let small = run_mix(&machine, Organization::Private, &mix, &e).unwrap();
        let large = run_mix(
            &machine,
            Organization::PrivateScaled { factor: 4 },
            &mix,
            &e,
        )
        .unwrap();
        let ratio = large.result.per_core[0].1.ipc() / small.result.per_core[0].1.ipc();
        if wants_capacity {
            assert!(
                ratio > 1.5,
                "{app}: 4x private must help a lot, got {ratio:.2}"
            );
        } else {
            assert!(
                ratio < 1.4,
                "{app}: 4x private must not help much, got {ratio:.2}"
            );
        }
    }
}

#[test]
fn adaptive_funds_the_cache_hungry_core() {
    // One hungry app among light partners: the sharing engine must move
    // blocks/set toward it (the core of the paper's contribution).
    let machine = MachineConfig::baseline();
    let mix = Mix {
        apps: vec![
            SpecApp::Ammp,
            SpecApp::Crafty,
            SpecApp::Eon,
            SpecApp::Wupwise,
        ],
        forwards: vec![700_000_000; 4],
    };
    let r = run_mix(&machine, Organization::adaptive(), &mix, &exp()).unwrap();
    let quotas = r.result.quotas.expect("adaptive quotas");
    assert!(
        quotas[0] >= 6,
        "ammp should accumulate quota, got {quotas:?}"
    );

    // And that funding must translate into performance vs private slices.
    let p = run_mix(&machine, Organization::Private, &mix, &exp()).unwrap();
    assert!(
        r.result.ipc[0] > p.result.ipc[0] * 1.05,
        "ammp must speed up: adaptive {:.4} vs private {:.4}",
        r.result.ipc[0],
        p.result.ipc[0]
    );
    assert!(
        r.result.hmean_ipc > p.result.hmean_ipc,
        "harmonic mean must improve: {:.4} vs {:.4}",
        r.result.hmean_ipc,
        p.result.hmean_ipc
    );
}

#[test]
fn adaptive_beats_cooperative_on_memory_intensive_mixes() {
    // Figure 11's headline: controlled sharing beats uncontrolled
    // random-replacement spilling when all cores compete.
    let machine = MachineConfig::baseline();
    let e = exp();
    let mixes = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), 4, 3, e.seed);
    let mut adaptive_total = 0.0;
    let mut coop_total = 0.0;
    for mix in &mixes {
        adaptive_total += run_mix(&machine, Organization::adaptive(), mix, &e)
            .unwrap()
            .result
            .hmean_ipc;
        coop_total += run_mix(
            &machine,
            Organization::Cooperative { seed: e.seed },
            mix,
            &e,
        )
        .unwrap()
        .result
        .hmean_ipc;
    }
    assert!(
        adaptive_total > coop_total,
        "adaptive {adaptive_total:.4} must beat cooperative {coop_total:.4}"
    );
}

#[test]
fn section_2_7_storage_cost_is_152_kbits() {
    let cost = CostModel::for_machine(&MachineConfig::baseline());
    assert_eq!(cost.total_kbits().round() as u64, 152);
    assert!((cost.shadow_fraction() - 0.16).abs() < 0.01);
    assert!((cost.core_id_fraction() - 0.84).abs() < 0.01);
    let overhead = cost.overhead_fraction(4 * 1024 * 1024);
    assert!(overhead < 0.006, "overhead {overhead} must stay ~0.5%");
}

#[test]
fn figure5_threshold_examples() {
    // Spot-check two apps per class at figure scale rather than running
    // all 24 (the fig5 binary covers the full set).
    use nuca_repro::nuca_core::experiment::classify;
    let machine = MachineConfig::baseline();
    let rows = classify(&machine, &exp()).unwrap();
    let lookup = |app: SpecApp| rows.iter().find(|r| r.app == app).unwrap();
    assert!(lookup(SpecApp::Gzip).intensive);
    assert!(lookup(SpecApp::Art).intensive);
    assert!(!lookup(SpecApp::Crafty).intensive);
    assert!(!lookup(SpecApp::Eon).intensive);
}
