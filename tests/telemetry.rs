//! Integration tests of the telemetry subsystem: the recorded event
//! stream must be a faithful account of what the sharing engine did.
//!
//! Two properties anchor everything (ISSUE/PR 3):
//!
//! 1. **Conservation** — every `Repartition` event carries a quota
//!    vector summing to the machine's total ways: the engine only ever
//!    moves quota, never creates or destroys it.
//! 2. **Replay** — applying the Repartition stream to the initial quota
//!    vector reproduces `SharingEngine::quotas()` at end of run,
//!    bit-for-bit, for any `--jobs` count.
//!
//! Both are checked the way `trace-view --check-schema` checks a trace
//! file: the trace is rendered to JSONL and `validate_jsonl` replays it,
//! demanding a conserved quota sum at every repartition and bit-equality
//! with every carried vector, every epoch snapshot and the summary's
//! final quotas, which each test takes from the engine.

use proptest::prelude::*;

use nuca_repro::cpusim::l3iface::LastLevel;
use nuca_repro::nuca_core::engine::AdaptiveParams;
use nuca_repro::nuca_core::experiment::{initial_quotas, run_mix_traced, ExperimentConfig};
use nuca_repro::nuca_core::l3::{L3System, Organization};
use nuca_repro::simcore::config::MachineConfig;
use nuca_repro::simcore::error::ConfigError;
use nuca_repro::simcore::rng::SimRng;
use nuca_repro::simcore::types::{Address, CoreId, Cycle};
use nuca_repro::telemetry::export::{render_jsonl, validate_jsonl, JsonlReport};
use nuca_repro::telemetry::{EventKind, Recorder, Trace, TraceMeta};
use nuca_repro::tracegen::spec::SpecApp;
use nuca_repro::tracegen::workload::WorkloadPool;

/// Validates `trace` as a rendered JSONL document (schema and replay).
fn replay(trace: &Trace) -> Result<JsonlReport, Vec<String>> {
    validate_jsonl(&render_jsonl(std::slice::from_ref(trace)))
}

/// Hammers a recorded adaptive L3 with `accesses` random accesses using
/// a short re-evaluation period so repartitions actually happen, then
/// returns the recorder and the final engine quotas.
fn hammer_adaptive(
    seed: u64,
    accesses: u64,
    span: u64,
) -> Result<(Recorder, Vec<u32>, u64), ConfigError> {
    let cfg = MachineConfig::baseline();
    let params = AdaptiveParams {
        reeval_period: 50,
        ..AdaptiveParams::default()
    };
    let recorder = Recorder::with_capacity(4096);
    let org = Organization::Adaptive(params);
    let mut l3 = L3System::build_with_sink(org, &cfg, recorder.clone())?;
    let mut rng = SimRng::seed_from(seed);
    for i in 0..accesses {
        // Skewed traffic: core 0 touches a wide range (many misses),
        // the others reuse small ranges — exactly the imbalance the
        // engine exists to arbitrate.
        let core = CoreId::from_index((rng.next_u64() % 4) as u8);
        let range = if core.index() == 0 {
            span
        } else {
            span / 8 + 1
        };
        let addr = Address::new((rng.next_u64() % range) * 64);
        let write = rng.next_u64().is_multiple_of(4);
        let _ = l3.access(core, addr, write, Cycle::new(i));
    }
    let total = u64::from(cfg.l3.shared.total_ways());
    let quotas = l3.as_adaptive().map(|a| a.quotas()).unwrap_or_default();
    Ok((recorder, quotas, total))
}

#[test]
fn repartitions_conserve_quota_and_replay_to_engine_state() {
    let (recorder, final_quotas, total) = hammer_adaptive(7, 60_000, 1 << 22).unwrap();
    let meta = TraceMeta {
        org: "adaptive".into(),
        cores: 4,
        ring_capacity: 4096,
        initial_quotas: vec![4; 4],
    };
    let trace = recorder.finish(meta, final_quotas.clone());
    assert!(
        trace
            .events
            .iter()
            .any(|r| r.event.kind() == EventKind::Repartition),
        "workload was imbalanced enough to repartition"
    );
    let report = replay(&trace).expect("quota sum conserved, stream replays to engine state");
    assert!(report.repartitions > 0);
    assert_eq!(trace.final_quotas, final_quotas);
    let sum: u64 = final_quotas.iter().map(|&q| u64::from(q)).sum();
    assert_eq!(sum, total);
}

#[test]
fn epoch_snapshots_match_the_repartition_trajectory() {
    let (recorder, final_quotas, _) = hammer_adaptive(11, 40_000, 1 << 21).unwrap();
    let meta = TraceMeta {
        org: "adaptive".into(),
        cores: 4,
        ring_capacity: 4096,
        initial_quotas: vec![4; 4],
    };
    let trace = recorder.finish(meta, final_quotas);
    // At every Epoch event the carried quota vector must equal the state
    // replayed from the Repartitions so far.
    replay(&trace).expect("every epoch snapshot matches the replayed state");
    let epochs = trace
        .events
        .iter()
        .filter(|r| r.event.kind() == EventKind::Epoch)
        .count();
    assert!(epochs > 0, "run crossed at least one epoch boundary");
}

#[test]
fn run_mix_traced_replays_to_final_engine_quotas() {
    let machine = MachineConfig::baseline();
    let exp = ExperimentConfig::quick();
    let mix = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), machine.cores, 1, exp.seed)
        .pop()
        .unwrap();
    let org = Organization::adaptive();
    let (result, trace) = run_mix_traced(&machine, org, &mix, &exp, 8192).unwrap();
    assert_eq!(trace.meta.initial_quotas, initial_quotas(&machine, org));
    replay(&trace).expect("the traced cell replays to its final quotas");
    assert_eq!(Some(&trace.final_quotas), result.result.quotas.as_ref());
    // The same request must trace identically when repeated (the
    // determinism the trace-smoke CI job checks across --jobs values).
    let (_, again) = run_mix_traced(&machine, org, &mix, &exp, 8192).unwrap();
    assert_eq!(trace, again);
}

#[test]
fn disabled_sink_changes_no_results() {
    use nuca_repro::nuca_core::experiment::run_mix;
    let machine = MachineConfig::baseline();
    let exp = ExperimentConfig::quick();
    let mix = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), machine.cores, 1, exp.seed)
        .pop()
        .unwrap();
    let org = Organization::adaptive();
    let untraced = run_mix(&machine, org, &mix, &exp).unwrap();
    let (traced, _) = run_mix_traced(&machine, org, &mix, &exp, 1024).unwrap();
    assert_eq!(
        untraced.result, traced.result,
        "recording must not perturb the simulation"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn quota_trajectory_replays_for_arbitrary_seeds(
        seed in 0u64..1_000_000,
        accesses in 10_000u64..40_000,
    ) {
        let (recorder, final_quotas, total) = hammer_adaptive(seed, accesses, 1 << 21).unwrap();
        let meta = TraceMeta {
            org: "adaptive".into(),
            cores: 4,
            ring_capacity: 4096,
            initial_quotas: vec![4; 4],
        };
        let trace = recorder.finish(meta, final_quotas.clone());
        replay(&trace).map_err(|errs| TestCaseError::fail(errs.join("; ")))?;
        prop_assert_eq!(&trace.final_quotas, &final_quotas);
        // Sum of the final vector is the machine total, too.
        let sum: u64 = trace.final_quotas.iter().map(|&q| u64::from(q)).sum();
        prop_assert_eq!(sum, total);
    }
}

/// The ring may drop high-frequency events, but never structural ones:
/// replay stays exact under heavy ring pressure.
#[test]
fn replay_survives_ring_pressure() {
    let cfg = MachineConfig::baseline();
    let params = AdaptiveParams {
        reeval_period: 50,
        ..AdaptiveParams::default()
    };
    let recorder = Recorder::with_capacity(16); // tiny ring: most events drop
    let org = Organization::Adaptive(params);
    let mut l3 = L3System::build_with_sink(org, &cfg, recorder.clone()).unwrap();
    let mut rng = SimRng::seed_from(3);
    for i in 0..50_000u64 {
        let core = CoreId::from_index((rng.next_u64() % 4) as u8);
        let range = if core.index() == 0 { 1 << 22 } else { 1 << 14 };
        let addr = Address::new((rng.next_u64() % range) * 64);
        let _ = l3.access(core, addr, false, Cycle::new(i));
    }
    let final_quotas = l3.as_adaptive().unwrap().quotas();
    let trace = recorder.finish(
        TraceMeta {
            org: "adaptive".into(),
            cores: 4,
            ring_capacity: 16,
            initial_quotas: vec![4; 4],
        },
        final_quotas.clone(),
    );
    assert!(trace.dropped > 0, "the tiny ring must actually drop");
    replay(&trace).expect("structural events survive the ring");
    assert_eq!(trace.final_quotas, final_quotas);
}
