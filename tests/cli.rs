//! The `nuca-sim` binary's exit statuses and output streams: help is
//! output (stdout, status 0), an argument error is a message on stderr
//! with status 2.

// Test harness: failing fast on setup errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::{Command, Output};

fn nuca_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nuca-sim"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = nuca_sim(&[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert_eq!(stdout, nuca_repro::cli::USAGE, "{flag}");
        assert!(out.stderr.is_empty(), "{flag}: {:?}", out.stderr);
    }
}

#[test]
fn unknown_flag_exits_2_on_stderr() {
    let out = nuca_sim(&["--org", "adaptive", "--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument: --bogus"), "{stderr}");
    assert!(out.stdout.is_empty());
}
