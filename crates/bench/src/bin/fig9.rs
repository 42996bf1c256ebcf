//! Figure 9: the per-application comparison with an 8-MByte L3 — the
//! Figure 7 table rendered from the `specs/fig9.toml` campaign manifest.

use std::process::ExitCode;

use nuca_bench::figures::{fig7, render_per_app};

fn main() -> ExitCode {
    let rendered = nuca_bench::render_manifests("fig9 <fig9.jsonl>", |[big]| {
        Ok(render_per_app(
            "Figure 9 — 8-MByte L3 (2 MB/core slices, same timing model)",
            "Paper shape: with ample capacity the adaptive scheme's constraints\n\
             stop paying off and can slightly degrade performance.\n",
            &fig7(big)?,
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
