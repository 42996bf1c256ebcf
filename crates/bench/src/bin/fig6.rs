//! Figure 6: harmonic mean of IPC per experiment (LLC-intensive mixes),
//! rendered from the `specs/paper.toml` campaign manifest.

use std::process::ExitCode;

use nuca_bench::figures::{fig6, render_fig6};

fn main() -> ExitCode {
    let rendered = nuca_bench::render_manifests("fig6 <paper.jsonl>", |[paper]| {
        Ok(render_fig6(&fig6(paper)?))
    });
    match rendered {
        Ok(text) => print!("{text}"),
        Err((status, message)) => {
            eprintln!("{message}");
            return ExitCode::from(status);
        }
    }
    ExitCode::SUCCESS
}
