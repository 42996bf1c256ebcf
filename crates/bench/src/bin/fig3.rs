//! Figure 3: number of misses as a function of blocks per set.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nuca_bench::figures::{fig3, FIG3_WAYS};
use nuca_bench::report::Table;
use simcore::config::MachineConfig;

fn main() {
    let (exp, tele) = nuca_bench::parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("fig3: {e}");
        std::process::exit(2)
    });
    tele.install();
    let machine = MachineConfig::baseline();
    let series = fig3(&machine, &exp).expect("figure 3 experiment");
    let mut headers = vec!["app".to_string()];
    headers.extend(FIG3_WAYS.iter().map(|w| format!("{w} blk/set")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Figure 3 — misses vs blocks per set (fixed set count)",
        &headers_ref,
    );
    for s in &series {
        let mut row = vec![s.app.name().to_string()];
        row.extend(s.points.iter().map(|p| p.misses.to_string()));
        t.row_owned(row);
    }
    t.print();
    println!();
    println!("Paper shape check: mcf flat after 1 block/set; gzip needs ~4; ammp keeps improving.");

    tele.export("fig3").expect("telemetry export");
}
