//! Determinism regression tests.
//!
//! The work-stealing runner in `simcore::parallel` must be pure
//! execution policy: the same experiment grid run with `--jobs 1` and
//! `--jobs 4` has to produce bit-identical results, because every
//! simulation cell carries its own RNG and no state is shared between
//! cells. These tests pin that contract at two levels — the raw
//! `run_cells` grid API and a campaign manifest with the figure rendered
//! from it — and pin that the manifest cells Figures 6–12 render are
//! bit-equal to `run_mix` on the same machine, organization, mix and
//! windows, so the campaign engine is the figures' one simulation path.

// Test harness: failing fast on setup errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use campaign::grid::{machine_for, organization_for};
use campaign::manifest::Manifest;
use campaign::runner::{done_line, run_campaign, RunOptions};
use campaign::spec::CampaignSpec;
use nuca_bench::figures::{fig10, fig11, fig6, fig7, fig8, render_fig6};
use nuca_core::experiment::{run_cells, run_mix, ExperimentConfig, SimCell};
use nuca_core::l3::Organization;
use simcore::config::MachineConfig;
use tracegen::spec::SpecApp;
use tracegen::workload::WorkloadPool;

/// Every organization a mix-grid figure reads, at a scale small enough
/// for a debug-build test; the axes left out default to the baseline.
const TINY_SPEC: &str = r#"
[campaign]
name = "tiny-five-org"
seed = 2007
warm = 40_000
warmup = 8_000
measure = 25_000
mixes = 2
pool = "intensive"

[axes]
organization = ["private", "private4x", "shared", "adaptive", "cooperative"]
"#;

fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        warm_instructions: 40_000,
        warmup_cycles: 8_000,
        measure_cycles: 25_000,
        seed: 2007,
        jobs: 1,
        cycle_skip: true,
        fast_path: true,
        sample_shift: None,
        time_sample: None,
    }
}

#[test]
fn run_cells_is_bit_identical_across_job_counts() {
    let machine = MachineConfig::baseline();
    let exp = tiny();
    let mixes = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), machine.cores, 3, exp.seed);
    let orgs = [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
    ];
    let cells: Vec<SimCell<'_>> = mixes
        .iter()
        .flat_map(|mix| {
            orgs.iter().map(|&org| SimCell {
                machine: &machine,
                org,
                mix,
            })
        })
        .collect();

    let serial = run_cells(&cells, &exp.with_jobs(1)).unwrap();
    let parallel = run_cells(&cells, &exp.with_jobs(4)).unwrap();
    assert_eq!(
        serial, parallel,
        "run_cells with jobs=4 must reproduce jobs=1 exactly"
    );

    // And an oversubscribed pool (more workers than cells) as the edge.
    let oversubscribed = run_cells(&cells, &exp.with_jobs(64)).unwrap();
    assert_eq!(serial, oversubscribed);
}

/// Runs `spec` through the campaign engine on `jobs` workers and
/// returns the manifest's bytes and its read-back cells.
fn run_spec(spec: &CampaignSpec, jobs: usize, name: &str) -> (Vec<u8>, Manifest) {
    let out = std::env::temp_dir().join(format!(
        "nuca-bench-determinism-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let opts = RunOptions {
        jobs,
        out: out.clone(),
        ..RunOptions::default()
    };
    run_campaign(spec, &opts, &mut |_| {}).unwrap();
    let bytes = std::fs::read(&out).unwrap();
    let _ = std::fs::remove_file(&out);
    let manifest = Manifest::parse(name, std::str::from_utf8(&bytes).unwrap()).unwrap();
    (bytes, manifest)
}

/// The manifest `spec` would write if every cell ran through `run_mix`
/// instead of the campaign engine's forked warm states.
fn run_mix_manifest(spec: &CampaignSpec, name: &str) -> Manifest {
    let exp = ExperimentConfig {
        warm_instructions: spec.warm_instructions,
        warmup_cycles: spec.warmup_cycles,
        measure_cycles: spec.measure_cycles,
        seed: spec.seed,
        ..ExperimentConfig::default()
    };
    let mut text = String::new();
    for cell in spec.cells() {
        let machine = machine_for(&cell).unwrap();
        let mix = &spec.mixes_for(cell.mix_seed, machine.cores)[cell.mix_index];
        let org = organization_for(&cell, spec.seed);
        let r = run_mix(&machine, org, mix, &exp).unwrap();
        text.push_str(&done_line(&cell, &mix.label(), &r.result));
        text.push('\n');
    }
    Manifest::parse(name, &text).unwrap()
}

#[test]
fn campaign_manifest_and_figure_6_are_identical_across_job_counts() {
    let spec = CampaignSpec::parse(TINY_SPEC).unwrap();
    let (serial, serial_cells) = run_spec(&spec, 1, "jobs1");
    let (parallel, parallel_cells) = run_spec(&spec, 4, "jobs4");
    assert_eq!(
        serial, parallel,
        "the manifest must not depend on the job count"
    );
    assert_eq!(
        render_fig6(&fig6(&serial_cells).unwrap()),
        render_fig6(&fig6(&parallel_cells).unwrap())
    );
}

#[test]
fn figures_read_cells_bit_equal_to_run_mix() {
    // Figure 10 compares the baseline machine with the technology-scaled
    // one, so the tiny grid runs on both.
    let base = CampaignSpec::parse(TINY_SPEC).unwrap();
    let scaled = CampaignSpec::parse(&format!(
        "{TINY_SPEC}l2_latency = [11]\nl3_latency = [\"16/24\"]\nmem_latency = [\"330/338\"]\n"
    ))
    .unwrap();
    let [(base_c, base_r), (scaled_c, scaled_r)] = [("base", &base), ("scaled", &scaled)]
        .map(|(name, spec)| (run_spec(spec, 2, name).1, run_mix_manifest(spec, name)));
    for (spec, campaign, reference) in [(&base, &base_c, &base_r), (&scaled, &scaled_c, &scaled_r)]
    {
        for &org in &spec.axes.organization {
            for i in 0..spec.mixes {
                assert_eq!(
                    campaign.cell(org, i).unwrap(),
                    reference.cell(org, i).unwrap(),
                    "{} on mix {i}",
                    org.name()
                );
            }
        }
    }
    // Each figure reads only cells checked above; its projection of the
    // campaign manifest must equal its projection of run_mix's cells.
    let render = |m: &Manifest| {
        format!(
            "{:?}{:?}{:?}{:?}",
            fig6(m).unwrap(),
            fig7(m).unwrap(),
            fig8(m).unwrap(),
            fig11(m).unwrap()
        )
    };
    assert_eq!(render(&base_c), render(&base_r));
    assert_eq!(
        format!("{:?}", fig10(&base_c, &scaled_c).unwrap()),
        format!("{:?}", fig10(&base_r, &scaled_r).unwrap())
    );
}
