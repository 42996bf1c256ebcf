//! Section 2.7: implementation cost of the adaptive scheme.

// Figure-harness binary: failing fast on export errors is intended.
#![allow(clippy::expect_used)]

use nuca_bench::report::Table;
use nuca_bench::trace_out::TelemetryArgs;
use nuca_core::cost::CostModel;
use simcore::config::MachineConfig;

fn main() {
    let tele = TelemetryArgs::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("cost_model: {e}");
        std::process::exit(2)
    });
    tele.install();
    let machine = MachineConfig::baseline();
    let c = CostModel::for_machine(&machine);
    let mut t = Table::new(
        "Section 2.7 — storage overhead",
        &["component", "bits", "share"],
    );
    t.row(&[
        "shadow tags (1/16 of sets)",
        &c.shadow_tag_bits().to_string(),
        &format!("{:.0}%", c.shadow_fraction() * 100.0),
    ]);
    t.row(&[
        "core IDs (2 bits/block)",
        &c.core_id_bits().to_string(),
        &format!("{:.0}%", c.core_id_fraction() * 100.0),
    ]);
    t.row(&[
        "counters & quota registers",
        &c.counter_total_bits().to_string(),
        "<1%",
    ]);
    t.row(&["total", &c.total_bits().to_string(), ""]);
    t.print();
    println!();
    println!("total = {:.1} Kbits (paper: 152 Kbits)", c.total_kbits());
    println!(
        "overhead vs 4-MByte L3 data storage: {:.2}% (paper: ~0.5%)",
        c.overhead_fraction(machine.l3.shared.size_bytes()) * 100.0
    );

    tele.export("cost_model").expect("telemetry export");
}
