//! Section 4.6: shadow tags in only 1/16 of the sets.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::figures::shadow_sampling;
use nuca_bench::report::{f4, Table};
use simcore::config::MachineConfig;

fn main() {
    let (exp, tele) = nuca_bench::parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("shadow_sampling: {e}");
        std::process::exit(2)
    });
    tele.install();
    let machine = MachineConfig::baseline();
    let r = shadow_sampling(&machine, &exp, nuca_bench::mix_count()).expect("4.6 experiment");
    let mut t = Table::new(
        "Section 4.6 — full shadow coverage vs 1/16 lowest-index sets",
        &["metric", "full", "1/16 sampled", "delta"],
    );
    t.row(&[
        "arithmetic IPC",
        &f4(r.full_amean),
        &f4(r.sampled_amean),
        &format!("{:+.2}%", r.amean_delta() * 100.0),
    ]);
    t.row(&[
        "harmonic IPC",
        &f4(r.full_hmean),
        &f4(r.sampled_hmean),
        &format!("{:+.2}%", r.hmean_delta() * 100.0),
    ]);
    t.print();
    println!("\nPaper: +0.1% average / -0.1% harmonic — sampling is essentially free.");

    tele.export("shadow_sampling").expect("telemetry export");
}
