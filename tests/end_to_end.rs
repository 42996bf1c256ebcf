//! End-to-end integration tests spanning every crate: trace generation →
//! out-of-order cores → last-level organizations → contended memory,
//! driven through the experiment harness.

// Test-harness helpers may panic freely; clippy's in-tests exemption only
// covers #[test] fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_repro::cachesim::shadow::SetSampling;
use nuca_repro::nuca_core::cmp::Cmp;
use nuca_repro::nuca_core::engine::AdaptiveParams;
use nuca_repro::nuca_core::experiment::{
    build_chip, compare_schemes, measure, run_mix, run_mix_traced, ExperimentConfig,
};
use nuca_repro::nuca_core::l3::Organization;
use nuca_repro::simcore::config::MachineConfig;
use nuca_repro::telemetry::export::render_jsonl;
use nuca_repro::telemetry::NullSink;
use nuca_repro::tracegen::spec::SpecApp;
use nuca_repro::tracegen::workload::{Mix, WorkloadPool};

fn exp() -> ExperimentConfig {
    ExperimentConfig::quick()
}

fn mixed() -> Mix {
    Mix {
        apps: vec![SpecApp::Ammp, SpecApp::Gzip, SpecApp::Crafty, SpecApp::Mcf],
        forwards: vec![600_000_000, 700_000_000, 800_000_000, 900_000_000],
    }
}

#[test]
fn every_organization_completes_a_mixed_workload() {
    let machine = MachineConfig::baseline();
    for org in [
        Organization::Private,
        Organization::PrivateScaled { factor: 4 },
        Organization::Shared,
        Organization::adaptive(),
        Organization::Cooperative { seed: 1 },
    ] {
        let r = run_mix(&machine, org, &mixed(), &exp()).unwrap();
        assert_eq!(r.result.per_core.len(), 4, "{}", org.label());
        for (app, s) in &r.result.per_core {
            assert!(s.committed > 0, "{}/{app} made no progress", org.label());
            assert!(s.ipc() > 0.0 && s.ipc() <= 4.0);
        }
        assert!(r.result.hmean_ipc <= r.result.amean_ipc + 1e-9);
        assert!(r.result.memory.requests > 0, "memory saw traffic");
    }
}

#[test]
fn experiments_are_deterministic() {
    let machine = MachineConfig::baseline();
    let a = run_mix(&machine, Organization::adaptive(), &mixed(), &exp()).unwrap();
    let b = run_mix(&machine, Organization::adaptive(), &mixed(), &exp()).unwrap();
    assert_eq!(a.result.per_core, b.result.per_core);
    assert_eq!(a.result.quotas, b.result.quotas);
}

#[test]
fn seed_changes_the_outcome() {
    let machine = MachineConfig::baseline();
    let mut e2 = exp();
    e2.seed += 1;
    let a = run_mix(&machine, Organization::adaptive(), &mixed(), &exp()).unwrap();
    let b = run_mix(&machine, Organization::adaptive(), &mixed(), &e2).unwrap();
    assert_ne!(
        a.result.per_core[0].1.committed,
        b.result.per_core[0].1.committed
    );
}

#[test]
fn schemes_share_identical_workloads() {
    let machine = MachineConfig::baseline();
    let rs = compare_schemes(
        &machine,
        &[
            Organization::Private,
            Organization::Shared,
            Organization::adaptive(),
        ],
        &mixed(),
        &exp(),
    )
    .unwrap();
    for pair in rs.windows(2) {
        assert_eq!(pair[0].mix, pair[1].mix);
        for i in 0..4 {
            assert_eq!(pair[0].result.per_core[i].0, pair[1].result.per_core[i].0);
        }
    }
}

#[test]
fn adaptive_quota_conservation_holds_throughout_a_run() {
    let machine = MachineConfig::baseline();
    let mix = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), 4, 1, 5)
        .pop()
        .unwrap();
    let mut cmp = Cmp::new(&machine, Organization::adaptive(), &mix, 5).unwrap();
    cmp.warm(200_000);
    for _ in 0..20 {
        cmp.run(10_000);
        let quotas = cmp.l3().as_adaptive().unwrap().quotas();
        assert_eq!(quotas.iter().sum::<u32>(), 16, "quota conservation");
        assert!(quotas.iter().all(|&q| (1..=13).contains(&q)));
    }
}

#[test]
fn adaptive_structure_invariants_survive_a_full_run() {
    let machine = MachineConfig::baseline();
    let mut cmp = Cmp::new(&machine, Organization::adaptive(), &mixed(), 9).unwrap();
    cmp.warm(300_000);
    cmp.run(100_000);
    assert!(cmp.l3().as_adaptive().unwrap().check_invariants());
}

#[test]
fn private_org_isolates_cores_but_adaptive_shares() {
    // Under private slices, a light app's L3 stats are independent of its
    // neighbors' appetite; under the adaptive scheme the hungry neighbor
    // borrows capacity (visible as shared-partition hits).
    let machine = MachineConfig::baseline();
    let r = run_mix(&machine, Organization::adaptive(), &mixed(), &exp()).unwrap();
    let total_remote: u64 = r
        .result
        .per_core
        .iter()
        .map(|(_, s)| s.l3_remote_hits)
        .sum();
    assert!(
        total_remote > 0,
        "adaptive scheme produced shared-partition hits"
    );
    let p = run_mix(&machine, Organization::Private, &mixed(), &exp()).unwrap();
    let private_remote: u64 = p
        .result
        .per_core
        .iter()
        .map(|(_, s)| s.l3_remote_hits)
        .sum();
    assert_eq!(private_remote, 0, "private slices never hit remotely");
}

#[test]
fn cooperative_spills_show_up_as_remote_hits() {
    let machine = MachineConfig::baseline();
    let r = run_mix(
        &machine,
        Organization::Cooperative { seed: 3 },
        &mixed(),
        &exp(),
    )
    .unwrap();
    let remote: u64 = r
        .result
        .per_core
        .iter()
        .map(|(_, s)| s.l3_remote_hits)
        .sum();
    assert!(remote > 0, "spilled blocks were found in neighbor slices");
}

#[test]
fn technology_scaled_machine_runs_and_slows_memory() {
    let machine = MachineConfig::baseline();
    let scaled = machine.technology_scaled();
    let base = run_mix(&machine, Organization::Private, &mixed(), &exp()).unwrap();
    let slow = run_mix(&scaled, Organization::Private, &mixed(), &exp()).unwrap();
    // Same workload, slower memory: every core is no faster.
    for i in 0..4 {
        assert!(
            slow.result.ipc[i] <= base.result.ipc[i] * 1.02 + 1e-9,
            "core {i}: scaled {:.4} vs base {:.4}",
            slow.result.ipc[i],
            base.result.ipc[i]
        );
    }
}

#[test]
fn eight_megabyte_l3_reduces_misses() {
    let machine = MachineConfig::baseline();
    let big = machine.with_l3_scale(2).unwrap();
    let mix = Mix {
        apps: vec![SpecApp::Ammp, SpecApp::Art, SpecApp::Twolf, SpecApp::Vpr],
        forwards: vec![700_000_000; 4],
    };
    let small = run_mix(&machine, Organization::Private, &mix, &exp()).unwrap();
    let large = run_mix(&big, Organization::Private, &mix, &exp()).unwrap();
    assert!(
        large.result.total_l3_misses() < small.result.total_l3_misses(),
        "denser cache must miss less for cache-hungry mixes"
    );
}

#[test]
fn time_sampling_composes_with_set_sampling() {
    // The two sampling dimensions are orthogonal: a run can estimate
    // over time (detailed windows) while the adaptive engine estimates
    // its gains over space (shadow tags in 1/16 of the sets, §4.6). The
    // time-sampling report must be consistent, the shadow table must
    // keep its sampled membership, and the composition must stay
    // deterministic.
    let machine = MachineConfig::baseline();
    let org = Organization::Adaptive(AdaptiveParams {
        shadow_sampling: SetSampling::LowestIndex { shift: 4 },
        ..AdaptiveParams::default()
    });
    let exp = exp().with_time_sample(Some((3_000, 9_000)));
    let mix = mixed();
    let run = || {
        let mut cmp = build_chip(
            &machine,
            org,
            &mix.profiles(),
            &mix.forwards,
            &exp,
            NullSink,
        )
        .unwrap();
        let result = measure(&mut cmp, &exp);
        (cmp, result)
    };
    let (cmp, a) = run();
    let ts = a.time_sampling.expect("time-sampling report");
    assert_eq!(a.sampling, None, "no organization is set-sampled");
    assert_eq!((ts.detail, ts.gap), (3_000, 9_000));
    assert!(ts.windows >= 2, "the quick window fits several periods");
    assert_eq!(
        ts.detailed_cycles + ts.functional_cycles,
        exp.measure_cycles
    );
    assert!(ts.mean_window_hmean_ipc > 0.0);
    assert!(a.hmean_ipc > 0.0 && a.hmean_ipc <= 4.0);
    let engine = cmp.l3().as_adaptive().expect("adaptive").engine();
    let sets = machine.l3.shared.sets() as usize;
    assert!(engine.monitors_set(0) && engine.monitors_set(sets / 16 - 1));
    assert!(!engine.monitors_set(sets / 16) && !engine.monitors_set(sets - 1));
    // Estimated IPC comes from detailed cycles only: what the windows
    // committed is a strict subset of the raw counter, which also
    // counts functional retires.
    for (i, (_, s)) in a.per_core.iter().enumerate() {
        let detailed_committed = a.ipc[i] * ts.detailed_cycles as f64;
        assert!(detailed_committed > 0.0);
        assert!(detailed_committed < s.committed as f64);
    }
    let (_, b) = run();
    assert_eq!(a, b, "composition must stay deterministic");
}

#[test]
fn no_run_carries_a_set_sampling_report() {
    // Set-sampled simulation is gone; `CmpResult::sampling` stays only
    // as a field the benchmark's replay names, and is `None` for every
    // organization, at full detail and time-sampled.
    let machine = MachineConfig::baseline();
    let quick = ExperimentConfig {
        warm_instructions: 60_000,
        warmup_cycles: 5_000,
        measure_cycles: 30_000,
        ..exp()
    };
    for org in [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
        Organization::Cooperative { seed: 1 },
    ] {
        for time_sample in [None, Some((2_000, 6_000))] {
            let exp = quick.with_time_sample(time_sample);
            let r = run_mix(&machine, org, &mixed(), &exp).unwrap();
            assert_eq!(r.result.sampling, None, "{} {time_sample:?}", org.label());
            assert_eq!(
                r.result.time_sampling.is_some(),
                time_sample.is_some(),
                "{} {time_sample:?}",
                org.label()
            );
        }
    }
}

/// One exactness switch: an execution policy that must leave every
/// output of a run byte-identical to the default.
struct Variant {
    /// The nuca-sim flags that select it.
    flags: &'static [&'static str],
    /// The same switch on the library surface.
    exp: fn(ExperimentConfig) -> ExperimentConfig,
}

/// Checks that `v` is invisible end to end: for every organization kind,
/// the measured window, the byte-rendered telemetry stream, the
/// scheme-comparison rows every figure consumes and the CLI report all
/// match the default run exactly — and that `v.flags` parse to `v.exp`.
fn assert_invisible_end_to_end(v: &Variant) {
    use nuca_repro::cli::{parse_args, render, run};
    let machine = MachineConfig::baseline();
    let orgs = [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
        Organization::Cooperative { seed: 1 },
    ];
    let to_args = |extra: &[&str]| -> Vec<String> {
        [
            "--org",
            "adaptive",
            "--apps",
            "ammp,gzip,crafty,mcf",
            "--warm",
            "200000",
            "--warmup",
            "10000",
            "--measure",
            "60000",
        ]
        .iter()
        .chain(extra)
        .map(|s| s.to_string())
        .collect()
    };
    let traced = |org, exp: &ExperimentConfig| {
        let (run, trace) = run_mix_traced(&machine, org, &mixed(), exp, 4096).unwrap();
        (run.result, render_jsonl(std::slice::from_ref(&trace)))
    };
    let name = v.flags.join(" ");
    let cfg = (v.exp)(exp());

    for org in orgs {
        let (ref_result, ref_trace) = traced(org, &exp());
        let (result, trace) = traced(org, &cfg);
        assert_eq!(result, ref_result, "{name}: {} window", org.label());
        assert_eq!(trace, ref_trace, "{name}: {} telemetry JSONL", org.label());
    }

    let reference_rows = compare_schemes(&machine, &orgs, &mixed(), &exp()).unwrap();
    let rows = compare_schemes(&machine, &orgs, &mixed(), &cfg).unwrap();
    assert_eq!(rows, reference_rows, "{name}: scheme-comparison rows");

    let reference_req = parse_args(&to_args(&[])).unwrap();
    let reference_cli = run(&reference_req).unwrap();
    let req = parse_args(&to_args(v.flags)).unwrap();
    assert_eq!(
        req.exp,
        (v.exp)(reference_req.exp),
        "{name}: the flags select the library switch"
    );
    let cli = run(&req).unwrap();
    assert_eq!(
        render(&req, "adaptive", &cli),
        render(&reference_req, "adaptive", &reference_cli),
        "{name}: rendered CLI report"
    );
    assert_eq!(cli, reference_cli, "{name}: CLI result");
}

#[test]
fn cycle_skip_is_invisible_end_to_end() {
    // Event skip jumps over idle cycles; the reference stepping loop
    // walks every one of them.
    assert_invisible_end_to_end(&Variant {
        flags: &["--no-skip"],
        exp: |e| e.with_cycle_skip(false),
    });
}

#[test]
fn no_fast_path_is_invisible_end_to_end() {
    // The fused TLB+L1 probe/walk, way/page memos and pipeline
    // bookkeeping bypass are pure search-order optimizations.
    assert_invisible_end_to_end(&Variant {
        flags: &["--no-fast-path"],
        exp: |e| e.with_fast_path(false),
    });
}

#[test]
fn no_skip_and_no_fast_path_together_are_invisible_end_to_end() {
    // Both accelerators off at once: the reference stepping loop over
    // the reference walks.
    assert_invisible_end_to_end(&Variant {
        flags: &["--no-skip", "--no-fast-path"],
        exp: |e| e.with_cycle_skip(false).with_fast_path(false),
    });
}

#[test]
fn time_sample_zero_gap_is_byte_identical_end_to_end() {
    // A `D:0` schedule never leaves the detailed path, so it also
    // reports no time-sampling estimate (the default run has none).
    assert_invisible_end_to_end(&Variant {
        flags: &["--time-sample", "5000:0"],
        exp: |e| e.with_time_sample(Some((5_000, 0))),
    });
}

/// One cell of [`every_organization_matches_its_fingerprints`]: a label,
/// the organization, whether it is time-sampled `10000:40000`, and the
/// FNV-1a hashes of its window's `Debug` rendering and of its recorded
/// run's JSONL.
type Fingerprint = (&'static str, Organization, bool, u64, u64);

#[test]
fn every_organization_matches_its_fingerprints() {
    // Pins each organization's exact outputs on one intensive mix: the
    // measured window (bus statistics and per-core L3 counters included)
    // and the event stream of a recorded run of the same cell, whose
    // order the organization and the memory channel share. The hashes
    // were taken before the organizations shared one memory channel.
    use nuca_repro::simcore::snapshot::fnv1a64;
    use nuca_repro::telemetry::Recorder;
    let machine = MachineConfig::baseline();
    let mix = Mix {
        apps: vec![SpecApp::Gzip, SpecApp::Twolf, SpecApp::Art, SpecApp::Mcf],
        forwards: vec![600_000_000, 700_000_000, 800_000_000, 900_000_000],
    };
    let exact = ExperimentConfig {
        warm_instructions: 200_000,
        warmup_cycles: 50_000,
        measure_cycles: 150_000,
        ..exp()
    };
    // A short re-evaluation period, so the window holds repartitions.
    let adaptive = Organization::Adaptive(AdaptiveParams {
        reeval_period: 250,
        ..AdaptiveParams::default()
    });
    let cells: [Fingerprint; 6] = [
        (
            "private",
            Organization::Private,
            false,
            0x63404ee0d032d2a8,
            0xb209faf301ca2d90,
        ),
        (
            "private4x",
            Organization::PrivateScaled { factor: 4 },
            false,
            0x8baef5bed60eb032,
            0xecb7337a5ad75342,
        ),
        (
            "shared",
            Organization::Shared,
            false,
            0xfa6184a95f5b1d7c,
            0xa2d583a7ece05cc4,
        ),
        (
            "adaptive",
            adaptive,
            false,
            0xf1942e57ec8ed82b,
            0x1f4e679e051c5bf9,
        ),
        (
            "cooperative",
            Organization::Cooperative { seed: 1 },
            false,
            0x74592411a43cc12e,
            0x8694ae2c16aecd7e,
        ),
        (
            "adaptive-ts",
            adaptive,
            true,
            0xc419d8851c263ad7,
            0x8911ad3c99678998,
        ),
    ];
    let mut got = Vec::new();
    for (name, org, sampled, _, _) in cells {
        let exp = exact.with_time_sample(sampled.then_some((10_000, 40_000)));
        let window = run_mix(&machine, org, &mix, &exp).unwrap().result;
        let (traced, trace) =
            run_mix_traced(&machine, org, &mix, &exp, Recorder::DEFAULT_CAPACITY).unwrap();
        assert_eq!(traced.result, window, "{name}: tracing is invisible");
        let count = |kind: &str| {
            trace
                .counts
                .iter()
                .find(|(k, _)| *k == kind)
                .map_or(0, |&(_, n)| n)
        };
        match name {
            "adaptive" | "adaptive-ts" => {
                assert!(count("repartition") > 0, "{name} repartitions");
            }
            "cooperative" => assert!(count("spill") > 0, "cooperative spills"),
            _ => {}
        }
        got.push((
            name,
            org,
            sampled,
            fnv1a64(format!("{window:?}").as_bytes()),
            fnv1a64(render_jsonl(std::slice::from_ref(&trace)).as_bytes()),
        ));
    }
    assert_eq!(got, cells, "window and trace fingerprints");
}
