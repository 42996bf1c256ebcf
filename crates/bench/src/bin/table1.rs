//! Prints Table 1: the baseline machine configuration.

// Figure-harness binary: failing fast on export errors is intended.
#![allow(clippy::expect_used)]

use nuca_bench::report::Table;
use nuca_bench::trace_out::TelemetryArgs;
use simcore::config::MachineConfig;

fn main() {
    let tele = TelemetryArgs::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("table1: {e}");
        std::process::exit(2)
    });
    tele.install();
    let m = MachineConfig::baseline();
    let mut t = Table::new("Table 1 — baseline configuration", &["parameter", "value"]);
    t.row(&[
        "Register update unit size",
        &format!("{} instructions", m.pipeline.ruu_size),
    ]);
    t.row(&[
        "Load/store queue",
        &format!("{} instructions", m.pipeline.lsq_size),
    ]);
    t.row(&[
        "Fetch queue size",
        &format!("{} instructions", m.pipeline.fetch_queue),
    ]);
    t.row(&[
        "Fetch/decode/issue/commit width",
        &format!("{} instructions/cycle", m.pipeline.width),
    ]);
    t.row(&[
        "Functional units",
        &format!(
            "{} INT ALUs, {} FP ALUs, {} INT mul/div, {} FP mul/div",
            m.pipeline.int_alus, m.pipeline.fp_alus, m.pipeline.int_mul, m.pipeline.fp_mul
        ),
    ]);
    t.row(&[
        "Branch predictor",
        &format!(
            "combined, bimodal {}K, 2-level {}K x {}-bit history, {}K chooser",
            m.branch.bimodal_entries / 1024,
            m.branch.level2_entries / 1024,
            m.branch.history_bits,
            m.branch.chooser_entries / 1024
        ),
    ]);
    t.row(&[
        "Branch target buffer",
        &format!("{}-entry, {}-way", m.branch.btb_entries, m.branch.btb_assoc),
    ]);
    t.row(&[
        "Mispredict penalty",
        &format!("{} cycles", m.pipeline.mispredict_penalty),
    ]);
    t.row(&["L1 I-cache", &format!("{}", m.l1i)]);
    t.row(&["L1 D-cache", &format!("{}", m.l1d)]);
    t.row(&["L2 cache", &format!("{}", m.l2)]);
    t.row(&["Shared L3", &format!("{}", m.l3.shared)]);
    t.row(&[
        "Private L3 slice",
        &format!(
            "{} ({}-cycle neighbor)",
            m.l3.private, m.l3.neighbor_latency
        ),
    ]);
    t.row(&[
        "Main memory",
        &format!(
            "{}/{} cycles first chunk (shared/private org), {} cycles inter-chunk, {} B chunks",
            m.memory.first_chunk_shared,
            m.memory.first_chunk_private,
            m.memory.inter_chunk,
            m.memory.chunk_bytes
        ),
    ]);
    t.row(&[
        "I/D TLB",
        &format!(
            "{}-entry fully associative, {}-cycle miss penalty",
            m.tlb.entries, m.tlb.miss_penalty
        ),
    ]);
    t.row(&["Processor cores", &format!("{} independent cores", m.cores)]);
    t.print();

    tele.export("table1").expect("telemetry export");
}
