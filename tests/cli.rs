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

#[test]
fn sample_sets_is_an_unknown_argument() {
    // Set-sampled simulation is gone, at the simulator and at its
    // campaign subcommand alike.
    let out = nuca_sim(&[
        "--org",
        "adaptive",
        "--apps",
        "gzip,gzip,gzip,gzip",
        "--sample-sets",
        "4",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown argument: --sample-sets"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());

    let out = nuca_sim(&["campaign", "specs/smoke.toml", "--sample-sets", "4"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --sample-sets"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn a_window_that_overflows_the_clock_exits_2() {
    // 10 + 10 + (2^64 - 1) wraps: the run would measure nothing and
    // still report a full window.
    let out = nuca_sim(&[
        "--org",
        "private",
        "--apps",
        "gzip,gzip,gzip,gzip",
        "--warm",
        "10",
        "--warmup",
        "10",
        "--measure",
        "18446744073709551615",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("run window"), "{stderr}");
    assert!(out.stdout.is_empty());
}
