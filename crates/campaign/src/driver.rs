//! The `nuca-sim campaign` command line: argument parsing, progress
//! printing and exit-status mapping.
//!
//! The binary stays a thin shell — it hands this module the argument
//! slice after the `campaign` word and two print callbacks, one for
//! output and one for error lines, and maps the returned code to
//! `std::process::exit`. Keeping the driver here (and print-free except
//! through the callbacks) keeps the whole subsystem inside the
//! deterministic-lint wall: no clocks, no `std::env`, no direct stdout
//! or stderr.
//!
//! ```text
//! nuca-sim campaign <spec.toml> [--out PATH] [--shard K/N] [--resume]
//!                   [--jobs N] [--time-sample D:G]
//!                   [--fail-after N]
//! nuca-sim campaign merge <merged.jsonl> <shard.jsonl>...
//! ```
//!
//! Exit codes: `0` success, `1` a runtime failure (a manifest, snapshot
//! or file-system error: an existing manifest without `--resume`, a
//! corrupt merge input, an unwritable output), `2` usage/configuration
//! error (a bad flag, spec or shard; a bad command line is followed by
//! the usage text), `3` the run was cut short by `--fail-after` (the
//! kill-injection test hook). Error lines and the usage after an error
//! go through the error callback; nothing else does.

use std::path::PathBuf;

use nuca_core::experiment;

use crate::manifest;
use crate::runner::{run_campaign, Event, Report, RunOptions};
use crate::spec::{CampaignSpec, TsPair};
use crate::CampaignError;

/// Exit code for a run `--fail-after` cut short.
pub const EXIT_KILLED: i32 = 3;
/// Exit code for usage and configuration errors.
pub const EXIT_USAGE: i32 = 2;
/// Exit code for manifest, snapshot and file-system failures.
pub const EXIT_FAILURE: i32 = 1;

/// One-line usage summary, printed on argument errors.
pub const USAGE: &str = "usage: nuca-sim campaign <spec.toml> [--out PATH] [--shard K/N] \
[--resume] [--jobs N] [--time-sample D:G] [--fail-after N]\n   or: \
nuca-sim campaign merge <merged.jsonl> <shard.jsonl>...";

/// Runs the `campaign` subcommand. `args` is everything after the
/// `campaign` word; every line of output goes through `print` and every
/// error line (with the usage text after an argument error) through
/// `eprint`.
pub fn run(args: &[String], print: &mut dyn FnMut(&str), eprint: &mut dyn FnMut(&str)) -> i32 {
    match args.first().map(String::as_str) {
        None => {
            eprint(USAGE);
            EXIT_USAGE
        }
        Some("merge") => match merge_command(&args[1..]) {
            Ok(summary) => {
                print(&summary);
                0
            }
            Err(e) => {
                eprint(&format!("campaign merge: {e}"));
                let code = exit_code(&e);
                // Only merge's argument checks raise configuration errors.
                if code == EXIT_USAGE {
                    eprint(USAGE);
                }
                code
            }
        },
        Some(_) => campaign_command(args, print, eprint),
    }
}

/// The exit code of `e`: [`EXIT_USAGE`] for a bad spec or configuration,
/// [`EXIT_FAILURE`] for a manifest, snapshot or file-system failure.
fn exit_code(e: &CampaignError) -> i32 {
    match e {
        CampaignError::Spec(_) | CampaignError::Config(_) => EXIT_USAGE,
        CampaignError::Io(_) | CampaignError::Manifest(_) | CampaignError::Snapshot(_) => {
            EXIT_FAILURE
        }
    }
}

/// `campaign merge <out> <in...>`: merge shard manifests into one file.
fn merge_command(args: &[String]) -> Result<String, CampaignError> {
    let (out, inputs) = args.split_first().ok_or_else(|| {
        CampaignError::Config("merge needs an output path and at least one input".to_string())
    })?;
    if inputs.is_empty() {
        return Err(CampaignError::Config(
            "merge needs at least one input manifest".to_string(),
        ));
    }
    let paths: Vec<PathBuf> = inputs.iter().map(PathBuf::from).collect();
    let merged = manifest::merge(&paths)?;
    let lines = merged.lines().count();
    std::fs::write(out, &merged).map_err(|e| CampaignError::Io(format!("{out}: {e}")))?;
    Ok(format!(
        "merged {} manifests into {out}: {lines} cells",
        paths.len()
    ))
}

/// Parsed form of the non-merge command line.
struct Parsed {
    spec_path: String,
    opts: RunOptions,
    time_override: Option<TsPair>,
}

fn parse_args(args: &[String]) -> Result<Parsed, CampaignError> {
    let mut parsed = Parsed {
        spec_path: String::new(),
        opts: RunOptions::default(),
        time_override: None,
    };
    let mut it = experiment::flag_args(args.iter().cloned());
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--out" => {
                let out = experiment::flag_value(flag, it.next());
                parsed.opts.out = PathBuf::from(out.map_err(CampaignError::Config)?);
            }
            "--shard" => {
                let shard = experiment::parse_value(flag, &mut it, |v| {
                    v.split_once('/')
                        .and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)))
                        .ok_or_else(|| "want K/N, e.g. 1/4".to_string())
                });
                parsed.opts.shard = shard.map_err(CampaignError::Config)?;
            }
            "--resume" => parsed.opts.resume = true,
            "--jobs" => {
                let jobs = experiment::parse_value(flag, &mut it, experiment::parse_jobs);
                parsed.opts.jobs = jobs.map_err(CampaignError::Config)?;
            }
            "--fail-after" => {
                let n = experiment::parse_value(flag, &mut it, |v| {
                    v.parse().map_err(|_| "not a number".to_string())
                });
                parsed.opts.fail_after = Some(n.map_err(CampaignError::Config)?);
            }
            "--time-sample" => {
                let pair = experiment::parse_value(flag, &mut it, experiment::parse_time_sample);
                let (detail, gap) = pair.map_err(CampaignError::Config)?;
                parsed.time_override = Some(TsPair { detail, gap });
            }
            _ if arg.starts_with("--") => {
                return Err(CampaignError::Config(format!("unknown flag {arg}")));
            }
            _ if parsed.spec_path.is_empty() => parsed.spec_path = arg.clone(),
            _ => {
                return Err(CampaignError::Config(format!(
                    "unexpected argument {arg} (spec is {})",
                    parsed.spec_path
                )));
            }
        }
    }
    if parsed.spec_path.is_empty() {
        return Err(CampaignError::Config("no spec file given".to_string()));
    }
    Ok(parsed)
}

/// `campaign <spec.toml> ...`: parse, run, narrate, map the exit code.
fn campaign_command(
    args: &[String],
    print: &mut dyn FnMut(&str),
    eprint: &mut dyn FnMut(&str),
) -> i32 {
    let parsed = match parse_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprint(&format!("campaign: {e}"));
            eprint(USAGE);
            return EXIT_USAGE;
        }
    };
    // An unreadable or invalid spec is a bad argument, not a failure of
    // the run.
    let text = match std::fs::read_to_string(&parsed.spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprint(&format!("campaign: {}: {e}", parsed.spec_path));
            return EXIT_USAGE;
        }
    };
    let mut spec = match CampaignSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprint(&format!("campaign: {}: {e}", parsed.spec_path));
            return EXIT_USAGE;
        }
    };
    if let Some(pair) = parsed.time_override {
        spec.axes.time_sample = vec![pair];
    }
    let (k, n) = parsed.opts.shard;
    print(&format!(
        "campaign {}: spec {}, shard {k}/{n}, out {}",
        spec.name,
        parsed.spec_path,
        parsed.opts.out.display()
    ));
    let mut narrate = |e: &Event| match *e {
        Event::Start {
            cells,
            shard_cells,
            pruned,
        } => print(&format!(
            "  grid: {cells} cells, this shard owns {shard_cells}, screening pruned {pruned}"
        )),
        Event::Resumed { skipped } => {
            print(&format!("  resume: {skipped} cells already in manifest"));
        }
        Event::Warmed { cells_sharing } => {
            print(&format!(
                "  warm state ready ({cells_sharing} cells fork it)"
            ));
        }
        Event::CellDone { cell, hmean_ipc } => {
            print(&format!("  cell {cell} done hmean_ipc={hmean_ipc:.4}"));
        }
        Event::CellPruned { cell, dominated_by } => {
            print(&format!(
                "  cell {cell} pruned (dominated by {dominated_by})"
            ));
        }
        Event::Killed { appended } => {
            print(&format!("  killed after {appended} lines (--fail-after)"));
        }
    };
    match run_campaign(&spec, &parsed.opts, &mut narrate) {
        Ok(report) => {
            print(&summary(&report));
            if report.killed {
                EXIT_KILLED
            } else {
                0
            }
        }
        Err(e) => {
            eprint(&format!("campaign: {e}"));
            exit_code(&e)
        }
    }
}

fn summary(r: &Report) -> String {
    format!(
        "campaign {}: ran {}, pruned {}, skipped {}, warm-ups {} (forked {})",
        if r.killed { "killed" } else { "done" },
        r.ran,
        r.pruned,
        r.skipped,
        r.warm_groups,
        r.ran.saturating_sub(r.warm_groups)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Runs the driver, returning its code and every line it printed:
    /// output lines first, then error lines.
    fn collect(args: &[&str]) -> (i32, Vec<String>) {
        let (code, mut out, err) = collect_split(args);
        out.extend(err);
        (code, out)
    }

    /// Runs the driver, returning its code, output lines and error lines.
    fn collect_split(args: &[&str]) -> (i32, Vec<String>, Vec<String>) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run(
            &strings(args),
            &mut |line| out.push(line.to_string()),
            &mut |line| err.push(line.to_string()),
        );
        (code, out, err)
    }

    #[test]
    fn usage_errors_exit_2_with_usage_text() {
        let (code, out) = collect(&[]);
        assert_eq!(code, EXIT_USAGE);
        assert!(out.join("\n").contains("usage:"));
        let (code, out) = collect(&["spec.toml", "--bogus"]);
        assert_eq!(code, EXIT_USAGE);
        assert!(out.join("\n").contains("unknown flag --bogus"));
        let (code, out) = collect(&["spec.toml", "--shard", "4"]);
        assert_eq!(code, EXIT_USAGE);
        assert!(out.join("\n").contains("want K/N"));
        let (code, out) = collect(&["/nonexistent/spec.toml"]);
        assert_eq!(code, EXIT_USAGE);
        assert!(out.join("\n").contains("/nonexistent/spec.toml"));
    }

    #[test]
    fn flags_parse_into_run_options() {
        let parsed = parse_args(&strings(&[
            "s.toml",
            "--out",
            "m.jsonl",
            "--shard",
            "2/4",
            "--resume",
            "--jobs",
            "3",
            "--fail-after",
            "7",
            "--time-sample",
            "10000:40000",
        ]))
        .unwrap();
        assert_eq!(parsed.spec_path, "s.toml");
        assert_eq!(parsed.opts.out, PathBuf::from("m.jsonl"));
        assert_eq!(parsed.opts.shard, (2, 4));
        assert!(parsed.opts.resume);
        assert_eq!(parsed.opts.jobs, 3);
        assert_eq!(parsed.opts.fail_after, Some(7));
        let pair = parsed.time_override.unwrap();
        assert_eq!((pair.detail, pair.gap), (10_000, 40_000));
    }

    #[test]
    fn time_sample_override_rejects_empty_windows() {
        let err = match parse_args(&strings(&["s.toml", "--time-sample", "0:500"])) {
            Err(e) => e,
            Ok(_) => panic!("0:500 must be rejected"),
        };
        assert!(err.to_string().contains("detail must be > 0"));
        let err = match parse_args(&strings(&["s.toml", "--time-sample", "10000/40000"])) {
            Err(e) => e,
            Ok(_) => panic!("10000/40000 must be rejected"),
        };
        assert!(err.to_string().contains("detail:gap"));
    }

    #[test]
    fn merge_subcommand_writes_the_merged_manifest() {
        let dir = std::env::temp_dir();
        let a = dir.join(format!("nuca-driver-a-{}.jsonl", std::process::id()));
        let b = dir.join(format!("nuca-driver-b-{}.jsonl", std::process::id()));
        let out = dir.join(format!("nuca-driver-m-{}.jsonl", std::process::id()));
        std::fs::write(&a, "{\"cell\":1}\n").unwrap();
        std::fs::write(&b, "{\"cell\":0}\n").unwrap();
        let (code, lines) = collect(&[
            "merge",
            out.to_str().unwrap(),
            a.to_str().unwrap(),
            b.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{lines:?}");
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            "{\"cell\":0}\n{\"cell\":1}\n"
        );
        assert!(lines.join("\n").contains("2 cells"));
        let (code, _) = collect(&["merge", out.to_str().unwrap()]);
        assert_eq!(code, EXIT_USAGE);
        for p in [&a, &b, &out] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn corrupt_merge_input_exits_1_on_the_error_stream_only() {
        let dir = std::env::temp_dir();
        let deep = dir.join(format!("nuca-driver-deep-{}.jsonl", std::process::id()));
        let out = dir.join(format!("nuca-driver-deep-m-{}.jsonl", std::process::id()));
        std::fs::write(&deep, format!("{}\n", "[".repeat(50_000))).unwrap();
        let (code, printed, errors) =
            collect_split(&["merge", out.to_str().unwrap(), deep.to_str().unwrap()]);
        assert_eq!(code, EXIT_FAILURE, "{errors:?}");
        assert!(printed.is_empty(), "{printed:?}");
        let errors = errors.join("\n");
        assert!(errors.contains("manifest error"), "{errors}");
        assert!(!errors.contains("usage:"), "{errors}");
        for p in [&deep, &out] {
            let _ = std::fs::remove_file(p);
        }
    }
}
