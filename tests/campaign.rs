//! Integration tests of the campaign engine against the *committed*
//! spec files: every spec under `specs/` must parse and render to a
//! fixed point, the specs Figures 6–12 are rendered from must describe
//! the paper's pools and machines, and the smoke spec must honor the
//! engine's byte-level contracts (shard merge ≡ serial, kill + resume ≡
//! uninterrupted) end to end through the public API the
//! `nuca-sim campaign` subcommand drives.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use nuca_repro::campaign::grid::machine_for;
use nuca_repro::campaign::runner::{run_campaign, Event, RunOptions};
use nuca_repro::campaign::spec::{CampaignSpec, PoolKind};
use nuca_repro::campaign::{driver, manifest};
use nuca_repro::simcore::config::MachineConfig;

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("specs")
}

fn committed_specs() -> Vec<(String, String)> {
    let mut specs: Vec<(String, String)> = fs::read_dir(specs_dir())
        .expect("specs/ directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read_to_string(&p).expect("readable spec"))
        })
        .collect();
    specs.sort();
    specs
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nuca-campaign-it-{}-{name}", std::process::id()))
}

fn smoke_spec() -> CampaignSpec {
    let text = fs::read_to_string(specs_dir().join("smoke.toml")).expect("smoke spec");
    CampaignSpec::parse(&text).expect("smoke spec parses")
}

fn run_to(spec: &CampaignSpec, opts: RunOptions) -> nuca_repro::campaign::runner::Report {
    let _ = fs::remove_file(&opts.out);
    run_campaign(spec, &opts, &mut |_| {}).expect("campaign runs")
}

#[test]
fn every_committed_spec_parses_and_renders_to_a_fixed_point() {
    let specs = committed_specs();
    let names: Vec<&str> = specs.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "fig10.toml",
            "fig8.toml",
            "fig9.toml",
            "paper.toml",
            "smoke.toml",
            "sweep.toml"
        ],
        "the committed spec set"
    );
    for (name, text) in specs {
        let spec = CampaignSpec::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!spec.cells().is_empty(), "{name}: empty grid");
        // render() is the canonical form: parsing it back must
        // reproduce both the spec and the rendering byte-for-byte.
        let canon = spec.render();
        let reparsed = CampaignSpec::parse(&canon).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec, reparsed, "{name}: render round-trip drifted");
        assert_eq!(canon, reparsed.render(), "{name}: render not a fixed point");
    }
}

#[test]
fn figure_specs_pin_their_pool_and_machine() {
    let baseline = MachineConfig::baseline();
    let figure_specs = [
        ("paper.toml", PoolKind::Intensive, baseline),
        ("fig8.toml", PoolKind::All, baseline),
        (
            "fig9.toml",
            PoolKind::Intensive,
            baseline.with_l3_scale(2).unwrap(),
        ),
        (
            "fig10.toml",
            PoolKind::Intensive,
            baseline.technology_scaled(),
        ),
    ];
    for (name, pool, machine) in figure_specs {
        let text = fs::read_to_string(specs_dir().join(name)).expect("figure spec");
        let spec = CampaignSpec::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.pool, pool, "{name}: mix pool");
        for cell in spec.cells() {
            assert_eq!(
                machine_for(&cell).unwrap(),
                machine,
                "{name}: cell {} machine",
                cell.index
            );
        }
    }
}

#[test]
fn smoke_spec_shards_merge_and_resume_byte_identically() {
    let spec = smoke_spec();

    // Uninterrupted single-process reference manifest.
    let serial_out = tmp("serial.jsonl");
    let report = run_to(
        &spec,
        RunOptions {
            jobs: 2,
            out: serial_out.clone(),
            ..RunOptions::default()
        },
    );
    assert_eq!(report.ran, 4, "smoke spec is a 4-cell grid");
    let serial = fs::read(&serial_out).expect("serial manifest");

    // Two shards, run independently, merged: same bytes.
    let shard_out = [tmp("s1.jsonl"), tmp("s2.jsonl")];
    for (k, out) in shard_out.iter().enumerate() {
        run_to(
            &spec,
            RunOptions {
                jobs: 2,
                shard: (k as u32 + 1, 2),
                out: out.clone(),
                ..RunOptions::default()
            },
        );
    }
    let merged = manifest::merge(&shard_out).expect("merge");
    assert_eq!(merged.into_bytes(), serial, "shard merge diverged");

    // Kill shard 1 after one appended line, resume it, and the manifest
    // must match the uninterrupted shard byte-for-byte.
    let killed_out = tmp("s1-killed.jsonl");
    let mut killed_events = Vec::new();
    let _ = fs::remove_file(&killed_out);
    let killed = run_campaign(
        &spec,
        &RunOptions {
            jobs: 2,
            shard: (1, 2),
            fail_after: Some(1),
            out: killed_out.clone(),
            ..RunOptions::default()
        },
        &mut |e| killed_events.push(e.clone()),
    )
    .expect("killed invocation still reports");
    assert!(killed.killed);
    assert!(killed_events
        .iter()
        .any(|e| matches!(e, Event::Killed { appended: 1 })));

    let resumed = run_campaign(
        &spec,
        &RunOptions {
            jobs: 2,
            shard: (1, 2),
            resume: true,
            out: killed_out.clone(),
            ..RunOptions::default()
        },
        &mut |_| {},
    )
    .expect("resume");
    assert!(!resumed.killed);
    assert_eq!(resumed.skipped, 1, "resume skips the completed cell");
    assert_eq!(
        fs::read(&killed_out).expect("resumed manifest"),
        fs::read(&shard_out[0]).expect("uninterrupted shard"),
        "kill + resume diverged from the uninterrupted shard"
    );

    // The merge subcommand (what CI's campaign-smoke job calls) agrees.
    let merged2_out = tmp("merged2.jsonl");
    let (mut printed, mut errors) = (Vec::new(), Vec::new());
    let code = driver::run(
        &[
            "merge".to_string(),
            merged2_out.to_string_lossy().into_owned(),
            killed_out.to_string_lossy().into_owned(),
            shard_out[1].to_string_lossy().into_owned(),
        ],
        &mut |line| printed.push(line.to_string()),
        &mut |line| errors.push(line.to_string()),
    );
    assert_eq!(code, 0, "merge subcommand failed: {printed:?} {errors:?}");
    assert_eq!(
        fs::read(&merged2_out).expect("merged manifest"),
        serial,
        "driver merge diverged from the serial manifest"
    );

    for p in [serial_out, killed_out, merged2_out]
        .into_iter()
        .chain(shard_out)
    {
        let _ = fs::remove_file(p);
    }
}
