//! Figure 10: the impact of technology scaling, rendered from the
//! `specs/paper.toml` (baseline) and `specs/fig10.toml` (scaled)
//! campaign manifests.

use std::process::ExitCode;

use nuca_bench::figures::{fig10, render_fig10};

fn main() -> ExitCode {
    let rendered =
        nuca_bench::render_manifests("fig10 <paper.jsonl> <fig10.jsonl>", |[paper, scaled]| {
            Ok(render_fig10(&fig10(paper, scaled)?))
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
