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
//! `perf` binary scores time sampling against the exact run on a fixed
//! matrix; host speed is measured by the separate `nucabench`
//! package, not here.
//!
//! # Scaling
//!
//! The paper simulates 200 M cycles per experiment on a farm; the
//! defaults here run each figure in minutes on a laptop. Two environment
//! variables trade fidelity for wall-clock time in the simulating
//! binaries:
//!
//! - `NUCA_BENCH_SCALE` — whole percentage applied to every simulation
//!   phase (default 100; e.g. `25` runs quarter-length windows).
//! - `NUCA_BENCH_MIXES` — number of random 4-app mixes per figure
//!   (default 10).
//!
//! Every simulating binary reads its command line and both variables
//! with [`parse_args`]: the four run-policy flags of `nuca-sim`
//! (`--jobs N`, `--no-skip`, `--no-fast-path`, `--time-sample D:G`,
//! parsed by [`ExperimentConfig::parse_flag`]) plus `--trace <path>`
//! and `--metrics-out <path>`, which export the telemetry of every
//! simulation cell (see [`trace_out`] and README.md §Observability).
//! Anything else, or a variable set to a value it cannot use, exits 2
//! before a cell runs. Independent cells run on
//! worker threads (see `simcore::parallel`; `--jobs 0`, the default, is
//! one per core), and results are bit-identical for every jobs value.

pub mod figures;
pub mod report;
pub mod trace_out;

use std::path::Path;

use campaign::manifest::Manifest;
use campaign::CampaignError;
use nuca_core::experiment::{self, ExperimentConfig};
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

/// A simulating binary's parsed command line and environment.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    /// The default experiment scaled by `NUCA_BENCH_SCALE`, on one
    /// worker per available core, with the run-policy flags applied.
    pub exp: ExperimentConfig,
    /// Random 4-app mixes per figure (`NUCA_BENCH_MIXES`).
    pub mixes: usize,
    /// Where to export telemetry.
    pub tele: TelemetryArgs,
}

/// Parses a simulating binary's arguments and its two environment
/// variables (see [`SimArgs::parse`]).
///
/// # Errors
///
/// The message the binary exits 2 with before anything simulates.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<SimArgs, String> {
    let env = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    SimArgs::parse(
        args,
        env("NUCA_BENCH_SCALE").as_deref(),
        env("NUCA_BENCH_MIXES").as_deref(),
    )
}

impl SimArgs {
    /// Parses the four run-policy flags (see
    /// [`ExperimentConfig::parse_flag`]) and `--trace`/`--metrics-out`,
    /// each valued flag as `--flag V` or `--flag=V`, on top of the
    /// `scale` and `mixes` settings (`None` when the variable is unset:
    /// 100 % and 10 mixes).
    ///
    /// # Errors
    ///
    /// A message for an unknown argument, a missing or malformed value,
    /// or a scale or mix count the binaries cannot use.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        scale: Option<&str>,
        mixes: Option<&str>,
    ) -> Result<Self, String> {
        let mut exp = scaled_experiment(scale)?;
        let mut tele = TelemetryArgs::default();
        let mut it = experiment::flag_args(args);
        while let Some(arg) = it.next() {
            if !exp.parse_flag(&arg, &mut it)? && !tele.parse_flag(&arg, &mut it)? {
                return Err(format!("unknown argument {arg}\n{SIMULATION_USAGE}"));
            }
        }
        Ok(SimArgs {
            exp,
            mixes: mix_count(mixes)?,
            tele,
        })
    }
}

/// The flags [`SimArgs::parse`] accepts.
const SIMULATION_USAGE: &str = "flags: [--jobs N] [--no-skip] [--no-fast-path] \
[--time-sample D:G] [--trace PATH] [--metrics-out PATH]";

/// The default experiment on one worker per available core, every phase
/// scaled to `scale` percent: a whole number above 0 that scales no
/// phase past `u64`.
fn scaled_experiment(scale: Option<&str>) -> Result<ExperimentConfig, String> {
    let base = ExperimentConfig::default().with_jobs(0);
    let Some(v) = scale else {
        return Ok(base);
    };
    let pct = v
        .trim()
        .parse::<u64>()
        .ok()
        .filter(|&p| p > 0)
        .ok_or_else(|| {
            format!("NUCA_BENCH_SCALE={v}: want a whole percentage above 0, such as 25")
        })?;
    let phases = [
        base.warm_instructions,
        base.warmup_cycles,
        base.measure_cycles,
    ];
    if phases.iter().any(|n| n.checked_mul(pct).is_none()) {
        return Err(format!("NUCA_BENCH_SCALE={v}: scales the run past 64 bits"));
    }
    Ok(base.scaled(pct, 100))
}

/// The per-figure mix count: `mixes`, a whole number above 0, or 10.
fn mix_count(mixes: Option<&str>) -> Result<usize, String> {
    let Some(v) = mixes else {
        return Ok(10);
    };
    v.trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("NUCA_BENCH_MIXES={v}: want a mix count above 0, such as 2"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], scale: Option<&str>, mixes: Option<&str>) -> Result<SimArgs, String> {
        SimArgs::parse(args.iter().map(|a| a.to_string()), scale, mixes)
    }

    #[test]
    fn unset_environment_is_full_scale_and_ten_mixes() {
        let args = parse(&[], None, None).unwrap();
        assert_eq!(args.exp, ExperimentConfig::default().with_jobs(0));
        assert_eq!(args.mixes, 10);
    }

    #[test]
    fn scale_and_mixes_are_whole_numbers_above_zero() {
        let args = parse(&[], Some("25"), Some("2")).unwrap();
        assert_eq!(
            args.exp,
            ExperimentConfig::default().with_jobs(0).scaled(25, 100)
        );
        assert_eq!(args.mixes, 2);
        assert_eq!(
            parse(&[], Some("100"), None).unwrap().exp,
            parse(&[], None, None).unwrap().exp
        );
        // The largest scale whose every phase fits, and the next one up.
        let max = u64::MAX / ExperimentConfig::default().warm_instructions;
        assert!(parse(&[], Some(&max.to_string()), None).is_ok());
        for (scale, message) in [
            ("25%", "whole percentage"),
            ("ten", "whole percentage"),
            ("0", "whole percentage"),
            ("", "whole percentage"),
            ("-5", "whole percentage"),
            (&(max + 1).to_string(), "past 64 bits"),
            ("18446744073709551616", "whole percentage"),
        ] {
            match parse(&[], Some(scale), None) {
                Err(e) => assert!(
                    e.contains(message) && e.contains("NUCA_BENCH_SCALE"),
                    "{scale:?}: {e}"
                ),
                Ok(args) => panic!("scale {scale:?} must be refused, got {:?}", args.exp),
            }
        }
        for mixes in ["ten", "0", "2.5", ""] {
            match parse(&[], None, Some(mixes)) {
                Err(e) => assert!(e.contains("NUCA_BENCH_MIXES"), "{mixes:?}: {e}"),
                Ok(args) => panic!("mixes {mixes:?} must be refused, got {}", args.mixes),
            }
        }
    }

    #[test]
    fn simulation_flags_parse_strictly() {
        let args = parse(
            &[
                "--jobs=2",
                "--time-sample",
                "1000:4000",
                "--trace",
                "t.jsonl",
            ],
            None,
            None,
        )
        .unwrap();
        let want = ExperimentConfig::default()
            .with_jobs(2)
            .with_time_sample(Some((1_000, 4_000)));
        assert_eq!(args.exp, want);
        assert!(args.tele.trace.is_some() && args.tele.metrics_out.is_none());
        for bad in [
            &["--time-sampel", "1000:4000"][..],
            &["--sample-sets", "4"],
            &["--trace"],
            &["fig.jsonl"],
        ] {
            assert!(parse(bad, None, None).is_err(), "{bad:?} must be rejected");
        }
    }
}
