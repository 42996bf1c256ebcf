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
//! and machines. The other binaries simulate, as described below, and
//! the Criterion benches exercise their drivers at reduced scale.
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
//! Independent simulation cells run on worker threads (see
//! `simcore::parallel`); every simulating binary accepts `--jobs N` on
//! its command line (or `NUCA_BENCH_JOBS=N`; `0` = one per core, the
//! default). Results are bit-identical for every jobs value.
//!
//! Every simulating binary also accepts `--trace <path>` and
//! `--metrics-out <path>` (or the `TRACE` / `METRICS_OUT` environment
//! variables) to export the telemetry of every simulation cell — see
//! [`trace_out`] and README.md §Observability.

pub mod figures;
pub mod json;
pub mod report;
pub mod trace_out;

use std::path::Path;

use campaign::manifest::Manifest;
use campaign::CampaignError;
use nuca_core::experiment::ExperimentConfig;

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

/// Reads the experiment configuration honoring `NUCA_BENCH_SCALE` and
/// the `--jobs` flag / `NUCA_BENCH_JOBS` variable.
pub fn experiment_config() -> ExperimentConfig {
    let base = ExperimentConfig::default();
    let base = match std::env::var("NUCA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        Some(pct) if pct > 0 && pct != 100 => base.scaled(pct, 100),
        _ => base,
    };
    base.with_jobs(jobs())
        .with_fast_path(fast_path())
        .with_sample_sets(sample_sets())
        .with_time_sample(time_sample())
}

/// Worker-thread count for simulation grids: `--jobs N` on the command
/// line beats `NUCA_BENCH_JOBS`, which beats "auto" (`0`, one worker
/// per available core). Every simulating figure binary shares this
/// parsing, so the whole harness is driven the same way.
pub fn jobs() -> usize {
    let mut argv = std::env::args().skip(1);
    let mut requested = None;
    while let Some(arg) = argv.next() {
        if arg == "--jobs" {
            requested = argv.next().and_then(|v| v.parse::<usize>().ok());
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            requested = v.parse::<usize>().ok();
        }
    }
    let requested = requested.or_else(|| {
        std::env::var("NUCA_BENCH_JOBS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
    });
    simcore::parallel::resolve_jobs(requested.unwrap_or(0))
}

/// Whether the exact core-side hit fast path is enabled:
/// `--no-fast-path` on the command line or `NUCA_BENCH_FAST_PATH=0`
/// turns it off, forcing the reference TLB/L1 walks and full trace
/// decode. Results are bit-identical either way (the CI
/// exactness-differential job enforces it); the escape hatch mirrors
/// `--no-skip`. Shared by every simulating figure binary, like [`jobs`].
pub fn fast_path() -> bool {
    if std::env::args().skip(1).any(|arg| arg == "--no-fast-path") {
        return false;
    }
    !matches!(
        std::env::var("NUCA_BENCH_FAST_PATH").ok().as_deref(),
        Some("0") | Some("off") | Some("false")
    )
}

/// Set-sampling shift for simulation grids: `--sample-sets K` on the
/// command line beats `NUCA_BENCH_SAMPLE_SETS`; absent both, sampling is
/// off and every set is simulated. Shared by every simulating figure
/// binary, like [`jobs`].
pub fn sample_sets() -> Option<u32> {
    let mut argv = std::env::args().skip(1);
    let mut requested = None;
    while let Some(arg) = argv.next() {
        if arg == "--sample-sets" {
            requested = argv.next().and_then(|v| v.parse::<u32>().ok());
        } else if let Some(v) = arg.strip_prefix("--sample-sets=") {
            requested = v.parse::<u32>().ok();
        }
    }
    requested.or_else(|| {
        std::env::var("NUCA_BENCH_SAMPLE_SETS")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
    })
}

/// Time-sampling schedule for simulation grids: `--time-sample D:G` on
/// the command line (D detailed cycles alternating with G functionally
/// warmed cycles) beats `NUCA_BENCH_TIME_SAMPLE`; absent both, every
/// cycle is simulated in detail. A zero gap (`D:0`) is byte-identical
/// to no time sampling. Shared by every simulating figure binary, like
/// [`jobs`] and [`sample_sets`]. Malformed schedules — including `0:G`,
/// which has no detailed cycles to measure IPC from — are ignored like
/// any other malformed bench flag, leaving the run at full detail.
pub fn time_sample() -> Option<(u64, u64)> {
    fn parse(v: &str) -> Option<(u64, u64)> {
        let (d, g) = v.split_once(':')?;
        let d = d.trim().parse::<u64>().ok()?;
        let g = g.trim().parse::<u64>().ok()?;
        if d == 0 && g > 0 {
            return None;
        }
        Some((d, g))
    }
    let mut argv = std::env::args().skip(1);
    let mut requested = None;
    while let Some(arg) = argv.next() {
        if arg == "--time-sample" {
            requested = argv.next().as_deref().and_then(parse);
        } else if let Some(v) = arg.strip_prefix("--time-sample=") {
            requested = parse(v);
        }
    }
    requested.or_else(|| {
        std::env::var("NUCA_BENCH_TIME_SAMPLE")
            .ok()
            .as_deref()
            .and_then(parse)
    })
}

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
}
