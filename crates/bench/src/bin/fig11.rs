//! Figure 11: the adaptive scheme vs cooperative caching, intensive
//! mixes, rendered from the `specs/paper.toml` campaign manifest.

use std::process::ExitCode;

use nuca_bench::figures::{fig11, render_vs_cooperative};

fn main() -> ExitCode {
    let rendered = nuca_bench::render_manifests("fig11 <paper.jsonl>", |[paper]| {
        Ok(render_vs_cooperative(
            "Figure 11 — adaptive vs \"random replacement\" (Chang & Sohi), intensive mixes",
            "adaptive generally better",
            &fig11(paper)?,
        ))
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
