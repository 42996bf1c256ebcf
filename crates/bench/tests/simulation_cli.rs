//! The simulating figure binaries parse their whole command line and
//! their environment before they simulate: a misspelt flag, a malformed
//! value or an unusable `NUCA_BENCH_*` setting is a message and exit
//! status 2, never a silent full-detail run and never a panic.

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
        &["--jobs", "many"],
        &["--time-sampel", "1000:4000"],
        &["--trace"],
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_fig5"), args);
    }
    assert_usage_error(env!("CARGO_BIN_EXE_parallel"), &["--jobs=many"]);
}

#[test]
fn sample_sets_is_an_unknown_argument() {
    // Set-sampled simulation is gone: its flags are misspellings now.
    for bin in [env!("CARGO_BIN_EXE_fig5"), env!("CARGO_BIN_EXE_perf")] {
        let out = run(bin, &["--sample-sets", "4"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.contains("unknown argument"), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} ran");
    }
    assert_usage_error(env!("CARGO_BIN_EXE_perf"), &["--max-sample-error", "12"]);
}

#[test]
fn unusable_scale_and_mix_settings_exit_2_before_simulating() {
    // The parsing itself is unit-tested in the library; this checks that
    // the binaries refuse before they simulate.
    for (var, value) in [("NUCA_BENCH_SCALE", "25%"), ("NUCA_BENCH_MIXES", "0")] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_shadow_sampling"))
            .env(var, value)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(stderr.contains(var), "{var}={value}: {stderr}");
        assert!(out.stdout.is_empty(), "{var}={value} ran");
    }
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
