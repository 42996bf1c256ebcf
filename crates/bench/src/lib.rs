//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! Each figure has a driver function in [`figures`] returning structured
//! results and a binary (`fig3`, `fig5`, …, `fig12`, `table1`,
//! `shadow_sampling`, `cost_model`, plus the ablations) that prints the
//! same rows/series the paper plots.
//!
//! Figures 6–12 are rendered, never simulated: their binaries take the
//! paths of the campaign manifests that `nuca-sim campaign` writes for
//! `specs/paper.toml`, `fig8.toml`, `fig9.toml` and `fig10.toml` (see
//! [`render_manifests`]), so the specs alone fix their windows, mixes
//! and machines. The other binaries simulate, as described below. The
//! `perf` binary scores set and time sampling against the exact run on
//! a fixed matrix; host speed is measured by the separate `nucabench`
//! package, not here.
//!
//! # Scaling
//!
//! The paper simulates 200 M cycles per experiment on a farm; the
//! defaults here run each figure in minutes on a laptop. Two environment
//! variables trade fidelity for wall-clock time in the simulating
//! binaries:
//!
//! - `NUCA_BENCH_SCALE` — percentage applied to every simulation phase
//!   (default 100; e.g. `25` runs quarter-length windows).
//! - `NUCA_BENCH_MIXES` — number of random 4-app mixes per figure
//!   (default 10).
//!
//! Every simulating binary reads its command line with [`parse_args`]:
//! the five run-policy flags of `nuca-sim` (`--jobs N`, `--no-skip`,
//! `--no-fast-path`, `--sample-sets K`, `--time-sample D:G`, parsed by
//! [`ExperimentConfig::parse_flag`]) plus `--trace <path>` and
//! `--metrics-out <path>`, which export the telemetry of every
//! simulation cell (see [`trace_out`] and README.md §Observability).
//! Anything else exits 2 before a cell runs. Independent cells run on
//! worker threads (see `simcore::parallel`; `--jobs 0`, the default, is
//! one per core), and results are bit-identical for every jobs value.

pub mod figures;
pub mod report;
pub mod trace_out;

use std::path::Path;

use campaign::manifest::Manifest;
use campaign::CampaignError;
use nuca_core::experiment::{self, ExperimentConfig};
use simcore::config::MachineConfig;
use trace_out::TelemetryArgs;

/// Renders one of Figures 6–12 for its binary: reads the `N` manifest
/// paths on the command line and renders them with `render`.
///
/// # Errors
///
/// The exit status and message the binary reports: 2 and `usage` for
/// anything but exactly `N` paths, a flag included; 1 and the error for
/// a manifest that cannot be read, is malformed or truncated, or lacks a
/// cell the figure needs.
pub fn render_manifests<const N: usize>(
    usage: &str,
    render: impl FnOnce(&[Manifest; N]) -> Result<String, CampaignError>,
) -> Result<String, (u8, String)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths = match <[String; N]>::try_from(args) {
        Ok(paths) if !paths.iter().any(|p| p.starts_with('-')) => paths,
        _ => return Err((2, format!("usage: {usage}"))),
    };
    paths
        .iter()
        .map(|p| Manifest::read(Path::new(p)))
        .collect::<Result<Vec<_>, _>>()
        .and_then(|manifests| {
            render(
                manifests
                    .as_slice()
                    .try_into()
                    .map_err(|_| CampaignError::Manifest(format!("expected {N} manifests")))?,
            )
        })
        .map_err(|e| (1, e.to_string()))
}

/// The experiment a simulating binary runs before its flags: the
/// default windows scaled by `NUCA_BENCH_SCALE`, on one worker per
/// available core.
pub fn experiment_config() -> ExperimentConfig {
    let base = ExperimentConfig::default().with_jobs(0);
    match std::env::var("NUCA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        Some(pct) if pct > 0 && pct != 100 => base.scaled(pct, 100),
        _ => base,
    }
}

/// Parses a simulating binary's arguments: the five run-policy flags
/// (see [`ExperimentConfig::parse_flag`]) on top of
/// [`experiment_config`], plus `--trace` and `--metrics-out`. Each
/// valued flag takes `--flag V` or `--flag=V`.
///
/// # Errors
///
/// A message for an unknown argument, a missing or malformed value, or
/// a `--sample-sets` shift that leaves the baseline machine no sampled
/// set — the binary exits 2 with it before anything simulates.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(ExperimentConfig, TelemetryArgs), String> {
    let mut exp = experiment_config();
    let mut tele = TelemetryArgs::default();
    let mut it = experiment::flag_args(args);
    while let Some(arg) = it.next() {
        if !exp.parse_flag(&arg, &mut it)? && !tele.parse_flag(&arg, &mut it)? {
            return Err(format!("unknown argument {arg}\n{SIMULATION_USAGE}"));
        }
    }
    if let Some(shift) = exp.sample_shift {
        let mut machine = MachineConfig::baseline();
        machine.l3.sample_shift = Some(shift);
        machine
            .validate()
            .map_err(|e| format!("--sample-sets {shift}: {e}"))?;
    }
    Ok((exp, tele))
}

/// The flags [`parse_args`] accepts.
const SIMULATION_USAGE: &str = "flags: [--jobs N] [--no-skip] [--no-fast-path] \
[--sample-sets K] [--time-sample D:G] [--trace PATH] [--metrics-out PATH]";

/// Reads the per-figure mix count honoring `NUCA_BENCH_MIXES`.
pub fn mix_count() -> usize {
    std::env::var("NUCA_BENCH_MIXES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .unwrap_or(10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_full_scale() {
        // The env var is not set under `cargo test`.
        let exp = experiment_config();
        assert!(exp.measure_cycles >= 1_000_000);
        assert!(mix_count() >= 1);
    }

    #[test]
    fn simulation_flags_parse_strictly() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        let (exp, tele) = parse(&[
            "--jobs=2",
            "--time-sample",
            "1000:4000",
            "--sample-sets",
            "4",
            "--trace",
            "t.jsonl",
        ])
        .unwrap();
        let want = experiment_config()
            .with_jobs(2)
            .with_sample_sets(Some(4))
            .with_time_sample(Some((1_000, 4_000)));
        assert_eq!(exp, want);
        assert!(tele.trace.is_some() && tele.metrics_out.is_none());
        for bad in [
            &["--time-sampel", "1000:4000"][..],
            &["--sample-sets", "40"],
            &["--trace"],
            &["fig.jsonl"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
