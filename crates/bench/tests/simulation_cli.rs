//! The simulating figure binaries parse their whole command line before
//! they simulate: a misspelt flag or a malformed value is a message and
//! exit status 2, never a silent full-detail run and never a panic.

// Test harness: failing fast on setup errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Output;

fn run(bin: &str, args: &[&str]) -> Output {
    std::process::Command::new(bin).args(args).output().unwrap()
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        !stderr.is_empty() && !stderr.contains("panicked"),
        "{bin} {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed a figure");
}

#[test]
fn bad_run_policy_flags_exit_2_before_simulating() {
    for args in [
        &["--time-sample", "0:4000"][..],
        &["--time-sample", "1000:x"],
        &["--sample-sets", "-4"],
        &["--sample-sets", "40"],
        &["--jobs", "many"],
        &["--time-sampel", "1000:4000"],
        &["--trace"],
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_fig5"), args);
    }
    assert_usage_error(env!("CARGO_BIN_EXE_parallel"), &["--jobs=many"]);
}

#[test]
fn table_binaries_take_only_the_telemetry_flags() {
    for bin in [
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_cost_model"),
    ] {
        assert_usage_error(bin, &["--jobs", "2"]);
        assert!(run(bin, &[]).status.success(), "{bin} runs bare");
    }
}
