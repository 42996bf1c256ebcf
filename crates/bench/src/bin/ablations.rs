//! Ablations over the adaptive scheme's design choices (DESIGN.md §5):
//! re-evaluation period, initial private/shared split, Algorithm 1 vs
//! plain LRU victim selection, and shadow sampling ratio.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use cachesim::shadow::SetSampling;
use nuca_bench::figures::ablate;
use nuca_bench::report::{pct, Table};
use nuca_core::engine::AdaptiveParams;
use simcore::config::MachineConfig;

fn main() {
    let nuca_bench::SimArgs { exp, mixes, tele } = nuca_bench::parse_args(std::env::args().skip(1))
        .unwrap_or_else(|e| {
            eprintln!("ablations: {e}");
            std::process::exit(2)
        });
    tele.install();
    let machine = MachineConfig::baseline();
    let n = mixes.min(6);

    let periods: Vec<(String, u64)> = [500u64, 2000, 8000, 32000]
        .into_iter()
        .map(|p| (p.to_string(), p))
        .collect();
    let rows = ablate(&machine, &exp, n, &periods, |&p| AdaptiveParams {
        reeval_period: p,
        ..AdaptiveParams::default()
    })
    .expect("period ablation");
    let mut t = Table::new(
        "Ablation — re-evaluation period (paper: 2000 misses)",
        &["period", "hmean speedup vs private", "total L3 misses"],
    );
    for r in &rows {
        t.row(&[&r.value, &pct(r.hmean_speedup), &r.total_misses.to_string()]);
    }
    t.print();
    println!();

    let reserves: Vec<(String, u32)> = [0u32, 1, 2]
        .into_iter()
        .map(|g| (format!("{}% private start", 100 - g * 25), g))
        .collect();
    let rows = ablate(&machine, &exp, n, &reserves, |&g| AdaptiveParams {
        shared_reserve: g,
        ..AdaptiveParams::default()
    })
    .expect("reserve ablation");
    let mut t = Table::new(
        "Ablation — initial private/shared split (paper: 75%/25%)",
        &["split", "hmean speedup vs private", "total L3 misses"],
    );
    for r in &rows {
        t.row(&[&r.value, &pct(r.hmean_speedup), &r.total_misses.to_string()]);
    }
    t.print();
    println!();

    let victim: Vec<(String, bool)> = vec![
        ("Algorithm 1".to_string(), true),
        ("plain LRU".to_string(), false),
    ];
    let rows = ablate(&machine, &exp, n, &victim, |&alg| AdaptiveParams {
        use_algorithm1: alg,
        ..AdaptiveParams::default()
    })
    .expect("victim ablation");
    let mut t = Table::new(
        "Ablation — shared-partition victim policy",
        &["policy", "hmean speedup vs private", "total L3 misses"],
    );
    for r in &rows {
        t.row(&[&r.value, &pct(r.hmean_speedup), &r.total_misses.to_string()]);
    }
    t.print();
    println!();

    // §4.6: lowest-index vs random vs prime-stride shadow-set subsets.
    let strategies: Vec<(String, SetSampling)> = vec![
        ("full coverage".into(), SetSampling::ALL),
        (
            "lowest-index 1/16".into(),
            SetSampling::LowestIndex { shift: 4 },
        ),
        (
            "random 1/16".into(),
            SetSampling::Random {
                shift: 4,
                seed: 2007,
            },
        ),
        (
            "prime-stride 1/16".into(),
            SetSampling::PrimeStride { shift: 4 },
        ),
    ];
    let rows = ablate(&machine, &exp, n, &strategies, |&sampling| AdaptiveParams {
        shadow_sampling: sampling,
        ..AdaptiveParams::default()
    })
    .expect("sampling ablation");
    let mut t = Table::new(
        "Ablation — shadow-tag set sampling (paper §4.6: lowest index wins)",
        &["strategy", "hmean speedup vs private", "total L3 misses"],
    );
    for r in &rows {
        t.row(&[&r.value, &pct(r.hmean_speedup), &r.total_misses.to_string()]);
    }
    t.print();

    tele.export("ablations").expect("telemetry export");
}
