//! `nuca-sim` — run one NUCA CMP simulation from the command line.
//!
//! See `nuca-sim --help` for usage.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("campaign") {
        let code = campaign::driver::run(&args[1..], &mut |line| println!("{line}"), &mut |line| {
            eprintln!("{line}")
        });
        return ExitCode::from(code.clamp(0, 255) as u8);
    }
    let request = match nuca_repro::cli::parse_args(&args) {
        Ok(r) => r,
        Err(e) if e.is_help() => {
            print!("{e}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            // A usage error, like a bad flag to any other front end.
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match nuca_repro::cli::run_all(&request) {
        Ok(results) => {
            for (i, (label, result)) in results.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                print!("{}", nuca_repro::cli::render(&request, label, result));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
