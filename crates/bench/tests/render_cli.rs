//! The binaries that render Figures 6–12 take manifest paths and nothing
//! else, and turn every bad input into a message and a non-zero exit
//! status, never a panic.

// Test harness: failing fast on setup errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Output;

/// One mix under the three organizations Figure 6 reads.
const FIG6_MANIFEST: &str = concat!(
    r#"{"status":"done","org":"private","mix_index":0,"mix":"gzip+mcf","hmean_ipc":0.4,"amean_ipc":0.45,"ipc":[0.6,0.3]}"#,
    "\n",
    r#"{"status":"done","org":"shared","mix_index":0,"mix":"gzip+mcf","hmean_ipc":0.3,"amean_ipc":0.35,"ipc":[0.4,0.3]}"#,
    "\n",
    r#"{"status":"done","org":"adaptive","mix_index":0,"mix":"gzip+mcf","hmean_ipc":0.5,"amean_ipc":0.5,"ipc":[0.5,0.5],"quotas":[9,7]}"#,
    "\n",
);

fn fig6(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_fig6"))
        .args(args)
        .output()
        .unwrap()
}

fn write(name: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(format!("nuca-render-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn fig6_renders_a_complete_manifest() {
    let path = write("complete.jsonl", FIG6_MANIFEST);
    let out = fig6(&[&path]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "== Figure 6 — harmonic-mean IPC per experiment, sorted by adaptive/private ==
     mix  private  shared  adaptive  adp/priv  quotas  
-------------------------------------------------------
gzip+mcf   0.4000  0.3000    0.5000    +25.0%  [9, 7]  

adaptive vs private: harmonic +25.0% / arithmetic +11.1%   (paper: +21% / +13%)
adaptive vs shared : harmonic +66.7% / arithmetic +42.9%   (paper: +2% / +5%)
"
    );
}

#[test]
fn bad_arguments_and_manifests_exit_non_zero_without_panicking() {
    let complete = write("ok.jsonl", FIG6_MANIFEST);
    let truncated = write("truncated.jsonl", FIG6_MANIFEST.trim_end());
    let incomplete = write(
        "incomplete.jsonl",
        &FIG6_MANIFEST.lines().take(2).collect::<Vec<_>>().join("\n"),
    );
    let absent = format!("{complete}.absent");
    let cases: [(&[&str], i32); 6] = [
        (&[], 2),
        (&["--jobs", "2"], 2),
        (&[&complete, &complete], 2),
        (&[&absent], 1),
        (&[&truncated], 1),
        (&[&incomplete], 1),
    ];
    for (args, code) in cases {
        let out = fig6(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(
            !stderr.is_empty() && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a figure");
    }
}

#[test]
fn deeply_nested_manifest_is_an_error_not_a_stack_overflow() {
    let deep = write("deep.jsonl", &format!("{}\n", "[".repeat(50_000)));
    let out = fig6(&[&deep]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("manifest error"), "{stderr}");
    assert!(
        !stderr.contains("overflow") && !stderr.contains("panicked"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}
