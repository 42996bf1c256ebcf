//! End-to-end benchmarks of every simulating figure driver at a heavily
//! reduced scale, so `cargo bench` exercises each of their code paths
//! and reports how long one downscaled experiment takes. Figures 6–12
//! are left out: they render campaign manifests and simulate nothing.
//! Full-fidelity runs are the `fig*` binaries and `run_figures.sh` (see
//! EXPERIMENTS.md).

// Bench harness: failing fast on setup errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use nuca_bench::figures;
use nuca_core::cost::CostModel;
use nuca_core::experiment::ExperimentConfig;
use simcore::config::MachineConfig;

fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        warm_instructions: 60_000,
        warmup_cycles: 10_000,
        measure_cycles: 40_000,
        seed: 2007,
        jobs: 1,
        cycle_skip: true,
        fast_path: true,
        sample_shift: None,
        time_sample: None,
    }
}

fn bench_figures(c: &mut Criterion) {
    let machine = MachineConfig::baseline();
    let mut g = c.benchmark_group("figures");
    // Each iteration is a full (downscaled) experiment; keep the
    // measurement budget tight so `cargo bench` stays in minutes.
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));

    g.bench_function("table1_cost_model", |b| {
        b.iter(|| {
            let cost = CostModel::for_machine(&machine);
            black_box(cost.total_bits())
        })
    });
    g.bench_function("fig3_one_point", |b| {
        let exp = tiny();
        b.iter(|| {
            nuca_core::experiment::sensitivity_sweep(
                &machine,
                tracegen::spec::SpecApp::Gzip,
                &[4],
                &exp,
            )
            .unwrap()
        })
    });
    g.bench_function("fig5_one_app", |b| {
        let exp = tiny();
        b.iter(|| {
            let mix = tracegen::workload::WorkloadPool::homogeneous(
                tracegen::spec::SpecApp::Crafty,
                1,
                exp.seed,
            );
            let single = simcore::config::MachineConfigBuilder::new()
                .cores(1)
                .l3_capacity(machine.l3.private.size_bytes())
                .build()
                .unwrap();
            nuca_core::experiment::run_mix(
                &single,
                nuca_core::l3::Organization::Private,
                &mix,
                &exp,
            )
            .unwrap()
        })
    });
    g.bench_function("shadow_sampling_one_mix", |b| {
        let exp = tiny();
        b.iter(|| figures::shadow_sampling(&machine, &exp, 1).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
