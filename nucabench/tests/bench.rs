//! The benchmark's own tests: the traced driver reproduces `Cmp`, metric
//! names are well formed and match `BENCHMARK.json`, the committed
//! expected outputs cover every cell, and work counters repeat exactly.

use nuca_core::experiment::ExperimentConfig;
use nuca_core::l3::Organization;
use nucabench::bench::metric_names;
use nucabench::cell::{run_cmp, run_replay, signature, signature_hmean};
use nucabench::expected::{self, Kind};
use nucabench::workload::{deal_mixes, Cell, Workload, DEFAULT_SEED};
use simcore::config::MachineConfig;
use tracegen::spec::SpecApp;

/// A cell small enough for an unoptimized build.
fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        warm_instructions: 4_000,
        warmup_cycles: 2_000,
        measure_cycles: 6_000,
        seed: 7,
        ..ExperimentConfig::quick()
    }
}

fn tiny_cell(org: Organization) -> Cell {
    let machine = MachineConfig::baseline();
    let mut cell = Workload::Intensive.cells(&machine, 7).remove(0);
    cell.org = org;
    cell
}

#[test]
fn traced_driver_equals_cmp_on_every_organization() {
    let machine = MachineConfig::baseline();
    for org in [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
        Organization::Cooperative { seed: 3 },
    ] {
        let cell = tiny_cell(org);
        let cmp = run_cmp(&machine, &cell, &tiny()).expect("Cmp runs");
        let replay = run_replay(&machine, &cell, &tiny()).expect("replay runs");
        assert_eq!(cmp.result, replay.result, "{}", org.label());
        assert!(cmp.audit_clean && replay.audit_clean, "{}", org.label());
        assert!(replay.trace.steps > 0 && replay.trace.warm.l3.total_calls() > 0);
    }
}

#[test]
fn work_counters_repeat_exactly() {
    let machine = MachineConfig::baseline();
    let cell = tiny_cell(Organization::adaptive());
    let a = run_replay(&machine, &cell, &tiny()).expect("replay runs");
    let b = run_replay(&machine, &cell, &tiny()).expect("replay runs");
    let counts = |r: &nucabench::cell::ReplayRun| {
        (
            r.trace.steps,
            r.trace.cycles_skipped,
            r.trace.warm.l3.calls,
            r.trace.detailed.l3.calls,
            r.fast_hits,
            r.epochs,
            r.repartitions,
        )
    };
    assert_eq!(counts(&a), counts(&b));
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    for traced in [false, true] {
        let names = metric_names(traced);
        for (name, unit) in &names {
            assert!(well_formed(name), "bad metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
        }
        let mut sorted: Vec<_> = names.iter().map(|(n, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }
}

/// The `"name"` and `"unit"` values listed under `key` in
/// `BENCHMARK.json` (a flat scan; the file is small and regular).
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, f: &str| -> Option<String> {
        let at = entry.find(&format!("\"{f}\""))?;
        let rest = &entry[at + f.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

#[test]
fn report_carries_every_metric_benchmark_json_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
        let want = listed(&json, key);
        assert!(!want.is_empty(), "{key} is empty");
        let have: Vec<(String, String)> = metric_names(traced)
            .into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let mut want_sorted = want.clone();
        want_sorted.sort();
        let mut have_sorted = have.clone();
        have_sorted.sort();
        assert_eq!(want_sorted, have_sorted, "{key} differs from the report");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn committed_outputs_cover_every_default_seed_cell() {
    let machine = MachineConfig::baseline();
    for w in Workload::ALL {
        assert!(expected::has_outputs(DEFAULT_SEED, w));
        assert!(!expected::has_outputs(DEFAULT_SEED + 1, w));
        for cell in w.cells(&machine, DEFAULT_SEED) {
            let exact = expected::lookup(DEFAULT_SEED, w, Kind::Exact, &cell.id())
                .unwrap_or_else(|| panic!("{} {} not committed", w.name(), cell.id()));
            assert!(signature_hmean(exact).is_some_and(|h| h > 0.0));
            let sampled = expected::lookup(DEFAULT_SEED, w, Kind::Sampled, &cell.id());
            assert_eq!(sampled.is_some(), w.is_sampled());
        }
    }
}

#[test]
fn signatures_round_trip_hmean_bits() {
    let machine = MachineConfig::baseline();
    let run = run_cmp(&machine, &tiny_cell(Organization::adaptive()), &tiny()).expect("runs");
    let sig = signature(&run.result);
    assert_eq!(
        signature_hmean(&sig).map(f64::to_bits),
        Some(run.result.hmean_ipc.to_bits())
    );
    assert!(sig.contains(" quotas="));
}

#[test]
fn mixes_are_balanced_and_seeded() {
    let pool = SpecApp::intensive_pool();
    let a = deal_mixes(&pool, 4, 4, 11);
    assert_eq!(a, deal_mixes(&pool, 4, 4, 11));
    assert_ne!(a, deal_mixes(&pool, 4, 4, 12));
    let mut apps: Vec<SpecApp> = a.iter().flat_map(|m| m.apps.clone()).collect();
    apps.sort();
    let mut want = pool.clone();
    want.sort();
    assert_eq!(apps, want, "every intensive app appears exactly once");
    let light = Workload::Light.pool();
    assert_eq!(light.len(), 8);
    let b = deal_mixes(&light, 4, 4, 11);
    for app in &light {
        let n = b.iter().flat_map(|m| &m.apps).filter(|x| *x == app).count();
        assert_eq!(n, 2, "{app} appears twice");
    }
}
