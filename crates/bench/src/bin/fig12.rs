//! Figure 12: adaptive vs cooperative caching over all applications —
//! the Figure 11 table rendered from the `specs/fig8.toml` campaign
//! manifest.

use std::process::ExitCode;

use nuca_bench::figures::{fig11, render_vs_cooperative};

fn main() -> ExitCode {
    let rendered = nuca_bench::render_manifests("fig12 <fig8.jsonl>", |[all]| {
        Ok(render_vs_cooperative(
            "Figure 12 — adaptive vs \"random replacement\", mixes from all applications",
            "advantage shrinks vs Figure 11",
            &fig11(all)?,
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
