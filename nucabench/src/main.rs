//! `nucabench` — the repository benchmark.
//!
//! ```text
//! nucabench --workload <intensive|light|sampled> [--seed N] [--seconds S] [--trace 0|1]
//! nucabench --write-expected        # print the expected outputs of the default seed
//! ```
//!
//! Prints every metric by name with its unit, then one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! output check failed and 2 on a usage error.

use std::process::ExitCode;

use nucabench::bench;
use nucabench::cell::{run_cmp, signature};
use nucabench::expected::{render, Kind};
use nucabench::workload::{Workload, DEFAULT_SEED};
use simcore::config::MachineConfig;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("nucabench: {msg}");
    eprintln!(
        "usage: nucabench --workload <intensive|light|sampled> [--seed N] [--seconds S] \
         [--trace 0|1] | --write-expected"
    );
    ExitCode::from(2)
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Intensive,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Prints the expected-outputs file for the default seed: every cell's
/// exact signature, plus the sampled estimates of `sampled`.
fn write_expected() -> ExitCode {
    let machine = MachineConfig::baseline();
    for workload in Workload::ALL {
        let mut kinds = vec![(Kind::Exact, workload.exact_config(DEFAULT_SEED))];
        if workload.is_sampled() {
            kinds.push((Kind::Sampled, workload.timed_config(DEFAULT_SEED)));
        }
        for cell in workload.cells(&machine, DEFAULT_SEED) {
            for (kind, exp) in &kinds {
                match run_cmp(&machine, &cell, exp) {
                    Ok(run) if run.audit_clean => {
                        println!(
                            "{}",
                            render(workload, *kind, &cell.id(), &signature(&run.result))
                        );
                    }
                    Ok(_) => {
                        eprintln!("nucabench: {} audit failed", cell.id());
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("nucabench: {}: {e}", cell.id());
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--write-expected") {
        return write_expected();
    }
    let args = match parse(argv) {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    let report = if args.trace {
        bench::traced(args.workload, args.seed)
    } else {
        bench::timed(args.workload, args.seed, args.seconds)
    };
    print!("{}", report.render_text());
    println!("{}", report.render_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
