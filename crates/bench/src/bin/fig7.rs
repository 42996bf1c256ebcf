//! Figure 7: per-application speedup for the LLC-intensive applications,
//! rendered from the `specs/paper.toml` campaign manifest.

use std::process::ExitCode;

use nuca_bench::figures::{fig7, render_per_app};

fn main() -> ExitCode {
    let rendered = nuca_bench::render_manifests("fig7 <paper.jsonl>", |[paper]| {
        Ok(render_per_app(
            "Figure 7 — adaptive speedup per intensive application",
            "Paper shape: ammp/art/twolf/vpr lose to the 4x-larger private cache\n\
             (they want more capacity) but beat plain private caches.\n",
            &fig7(paper)?,
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
