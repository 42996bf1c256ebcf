//! Figure 8: speedup vs private caches for all applications, rendered
//! from the `specs/fig8.toml` campaign manifest.

use std::process::ExitCode;

use nuca_bench::figures::{fig8, render_fig8};

fn main() -> ExitCode {
    let rendered =
        nuca_bench::render_manifests("fig8 <fig8.jsonl>", |[all]| Ok(render_fig8(&fig8(all)?)));
    match rendered {
        Ok(text) => print!("{text}"),
        Err((status, message)) => {
            eprintln!("{message}");
            return ExitCode::from(status);
        }
    }
    ExitCode::SUCCESS
}
