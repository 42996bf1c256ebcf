//! Figure 5: classification of applications by last-level intensity.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::figures::fig5;
use nuca_bench::report::{f3, Table};
use simcore::config::MachineConfig;

fn main() {
    let nuca_bench::SimArgs { exp, tele, .. } = nuca_bench::parse_args(std::env::args().skip(1))
        .unwrap_or_else(|e| {
            eprintln!("fig5: {e}");
            std::process::exit(2)
        });
    tele.install();
    let machine = MachineConfig::baseline();
    let mut rows = fig5(&machine, &exp).expect("figure 5 experiment");
    rows.sort_by(|a, b| {
        b.accesses_per_kilocycle
            .partial_cmp(&a.accesses_per_kilocycle)
            .unwrap()
    });
    let mut t = Table::new(
        "Figure 5 — L3 accesses per 1000 cycles (intensive if > 9)",
        &["app", "acc/kcycle", "IPC", "class", "paper class"],
    );
    for r in &rows {
        t.row(&[
            r.app.name(),
            &f3(r.accesses_per_kilocycle),
            &f3(r.ipc),
            if r.intensive { "intensive" } else { "-" },
            if r.app.is_llc_intensive() {
                "intensive"
            } else {
                "-"
            },
        ]);
    }
    t.print();
    let mismatches = rows
        .iter()
        .filter(|r| r.intensive != r.app.is_llc_intensive())
        .count();
    println!("\nclassification mismatches vs expected: {mismatches}");

    tele.export("fig5").expect("telemetry export");
}
