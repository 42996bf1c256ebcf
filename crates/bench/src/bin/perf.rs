//! `nuca-bench perf` — scores time sampling against the exact run and
//! gates its error. The matrix is fixed: intensive-pool mixes x
//! private/shared/adaptive, 4 mixes at 1/5 of the default windows, or 2
//! at quick windows with `--quick`.
//!
//! ```text
//! perf [--quick] [--time-sample D:G] [--max-time-sample-error PCT]
//!      [--out FILE]
//! ```
//!
//! Two passes run serially: exact and time-sampled (D detailed cycles,
//! then G functionally warmed; default 10000:40000). The sampled pass
//! reports its speedup over the exact pass and its worst and mean
//! harmonic-mean-IPC error against it, and exits 1 if the worst exceeds
//! the `--max-time-sample-error` budget. The exact pass's chips also
//! fill `attribution`: per organization, hits and modeled demand cycles
//! (count x configured latency) per level, and the side-channel
//! `fast_path`, `core_steps` and `drain_visits` counters. The JSON
//! (schema v9) goes to stdout and, with `--out`, to FILE. Any other flag, or a missing or malformed value, exits 2 before
//! anything runs. Wall-clock numbers are informational: `nucabench`
//! measures speed.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Instant;

use cpusim::{CoreStats, FastPathStats};
use nuca_core::cmp::CmpResult;
use nuca_core::experiment::{
    build_chip, flag_args, flag_value, measure, parse_time_sample, parse_value, run_cells,
    ExperimentConfig, SimCell,
};
use nuca_core::l3::Organization;
use simcore::config::MachineConfig;
use telemetry::json::Json;
use telemetry::NullSink;
use tracegen::spec::SpecApp;
use tracegen::workload::WorkloadPool;

struct Args {
    quick: bool,
    time_sample: (u64, u64),
    max_time_sample_error: Option<f64>,
    out: Option<String>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        time_sample: (10_000, 40_000),
        max_time_sample_error: None,
        out: None,
    };
    let mut it = flag_args(argv);
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--quick" => args.quick = true,
            "--time-sample" => args.time_sample = parse_value(flag, &mut it, parse_time_sample)?,
            "--max-time-sample-error" => {
                args.max_time_sample_error = Some(parse_value(flag, &mut it, pct)?);
            }
            "--out" => args.out = Some(flag_value(flag, it.next())?),
            other => return Err(format!("unknown argument {other} (see the module docs)")),
        }
    }
    Ok(args)
}

/// An error budget in percent: finite and non-negative, so its gate can
/// fail.
fn pct(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(p) if p.is_finite() && p >= 0.0 => Ok(p),
        _ => Err("wants a percentage such as 12".to_string()),
    }
}

/// A JSON object of `fields`, in order.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON object of numbers.
fn numbers<'a>(fields: impl IntoIterator<Item = (&'a str, f64)>) -> Json {
    object(fields.into_iter().map(|(k, v)| (k, Json::num(v))))
}

/// One cell of the exact pass: its measured window and its chip's
/// side-channel work counters.
struct ExactCell {
    result: CmpResult,
    fast: FastPathStats,
    core_steps: u64,
    drain_visits: u64,
}

/// One organization's `attribution` block over its exact cells.
fn attribution(m: &MachineConfig, cells: &[ExactCell]) -> Json {
    let stats = || cells.iter().flat_map(|c| &c.result.per_core);
    let sum = |f: fn(&CoreStats) -> u64| stats().map(|(_, s)| f(s)).sum::<u64>();
    let committed = sum(|s| s.committed);
    let l1i_acc = sum(|s| s.l1i.hits + s.l1i.misses);
    let l1d_acc = sum(|s| s.l1d.hits + s.l1d.misses);
    let l2_acc = sum(|s| s.l2.hits + s.l2.misses);
    let local = sum(|s| s.l3_local_hits);
    let remote = sum(|s| s.l3_remote_hits);
    let memory = sum(|s| s.l3_misses);
    let cycles = [
        ("core", committed),
        ("l1", l1i_acc * m.l1i.latency() + l1d_acc * m.l1d.latency()),
        ("l2", l2_acc * m.l2.latency()),
        ("l3_local", local * m.l3.private.latency()),
        ("l3_remote", remote * m.l3.shared.latency()),
        ("memory", memory * m.memory.first_chunk_shared),
    ];
    let total = cycles.iter().map(|c| c.1).sum::<u64>().max(1) as f64;
    let mut fast = FastPathStats::default();
    cells.iter().for_each(|c| fast.absorb(c.fast));
    let hits = [
        ("committed", committed),
        ("l1", sum(|s| s.l1i.hits + s.l1d.hits)),
        ("l1_accesses", l1i_acc + l1d_acc),
        ("l2", sum(|s| s.l2.hits)),
        ("l3_local", local),
        ("l3_remote", remote),
        ("memory", memory),
    ];
    let counts = |c: &[(&'static str, u64)]| numbers(c.iter().map(|&(k, n)| (k, n as f64)));
    object([
        ("hits", counts(&hits)),
        ("modeled_cycles", counts(&cycles)),
        ("share", numbers(cycles.map(|(k, c)| (k, c as f64 / total)))),
        (
            "fast_path",
            numbers([
                ("data_fast_hits", fast.data_fast_hits as f64),
                ("data_slow", fast.data_slow as f64),
                ("inst_fast_hits", fast.inst_fast_hits as f64),
                ("inst_slow", fast.inst_slow as f64),
                ("fast_fraction", fast.fast_fraction()),
            ]),
        ),
        (
            "core_steps",
            Json::num(cells.iter().map(|c| c.core_steps).sum::<u64>() as f64),
        ),
        (
            "drain_visits",
            Json::num(cells.iter().map(|c| c.drain_visits).sum::<u64>() as f64),
        ),
    ])
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        std::process::exit(2);
    });
    let machine = MachineConfig::baseline();
    let (n_mixes, exp) = if args.quick {
        (2, ExperimentConfig::quick())
    } else {
        (4, ExperimentConfig::default().scaled(20, 100))
    };
    let exp = exp.with_jobs(1);
    let orgs = [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
    ];
    let pool = SpecApp::intensive_pool();
    let mixes = WorkloadPool::random_mixes(&pool, machine.cores, n_mixes, exp.seed);
    // Org-major, so each organization's cells are one slice.
    let cells: Vec<SimCell<'_>> = orgs
        .iter()
        .flat_map(|&org| mixes.iter().map(move |mix| (org, mix)))
        .map(|(org, mix)| SimCell {
            machine: &machine,
            org,
            mix,
        })
        .collect();
    let n = cells.len() as f64;
    let cycles_per_cell = (exp.warmup_cycles + exp.measure_cycles) as f64;
    let rate = |wall: f64| {
        let wall_nz = wall.max(1e-9);
        [
            ("wall_seconds", wall),
            ("cells_per_second", n / wall_nz),
            ("sim_cycles_per_second", n * cycles_per_cell / wall_nz),
        ]
    };

    // The exact pass builds its chips itself, not through `run_cells`,
    // so their side-channel counters can be read after the measurement.
    let t = Instant::now();
    let exact: Vec<ExactCell> = cells
        .iter()
        .map(|c| {
            let (profiles, forwards) = (c.mix.profiles(), &c.mix.forwards);
            let mut cmp = build_chip(c.machine, c.org, &profiles, forwards, &exp, NullSink)
                .expect("exact cell builds");
            let result = measure(&mut cmp, &exp);
            ExactCell {
                result,
                fast: cmp.fast_path_stats(),
                core_steps: cmp.core_steps(),
                drain_visits: cmp.drain_visits(),
            }
        })
        .collect();
    let exact_wall = t.elapsed().as_secs_f64();
    eprintln!("perf: {} cells, exact {exact_wall:.2}s", cells.len());

    // The time-sampled pass, scored cell by cell against the exact pass.
    // It cuts the up-front warm to 5/8: the gap engine keeps warming
    // through the whole run, so the full budget would hide the time
    // sampling saves. (At the schedule's 1/5 duty cycle the megabyte
    // working sets stay visibly cold and the worst-cell error
    // quintuples.) The gated error prices the residual cold bias.
    let (detail, gap) = args.time_sample;
    let pass = exp
        .with_time_sample(Some(args.time_sample))
        .scaled_warm(5, 8);
    let t = Instant::now();
    let results = run_cells(&cells, &pass).unwrap_or_else(|e| panic!("time-sampled pass: {e}"));
    let wall = t.elapsed().as_secs_f64();
    let errors: Vec<f64> = exact
        .iter()
        .map(|e| e.result.hmean_ipc)
        .zip(results.iter().map(|s| s.result.hmean_ipc))
        .filter(|&(e, _)| e > 0.0)
        .map(|(e, s)| ((s - e) / e).abs())
        .collect();
    let max = errors.iter().fold(0.0f64, |m, &e| m.max(e));
    let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    let speedup = exact_wall / wall.max(1e-9);
    let (max_pct, mean_pct) = (max * 100.0, mean * 100.0);
    let what = format!("time-sampled ({detail}:{gap})");
    eprintln!(
        "perf: {what} {wall:.2}s ({speedup:.2}x vs exact), \
         hmean-IPC error max {max_pct:.2}% mean {mean_pct:.2}%"
    );
    let failed = args.max_time_sample_error.is_some_and(|limit| {
        let over = max_pct > limit;
        let verdict = if over { "FAIL — exceeds" } else { "within" };
        eprintln!("perf: {what} error {verdict} the {limit}% budget");
        over
    });
    let time_sampling = numbers(
        [("detail", detail as f64), ("gap", gap as f64)]
            .into_iter()
            .chain(rate(wall))
            .chain([
                ("speedup_vs_exact", speedup),
                ("max_rel_error_hmean_ipc", max),
                ("mean_rel_error_hmean_ipc", mean),
            ]),
    );

    let labels = orgs.iter().map(|o| Json::str(o.label())).collect();
    let workload = object([
        ("mixes", Json::num(n_mixes as f64)),
        ("organizations", Json::Arr(labels)),
        ("cells", Json::num(n)),
        ("warm_instructions", Json::num(exp.warm_instructions as f64)),
        ("warmup_cycles", Json::num(exp.warmup_cycles as f64)),
        ("measure_cycles", Json::num(exp.measure_cycles as f64)),
        ("seed", Json::num(exp.seed as f64)),
    ]);
    let slices = orgs.iter().zip(exact.chunks(n_mixes));
    let text = object([
        ("schema_version", Json::num(9.0)),
        ("bench", Json::str("nuca-bench perf")),
        ("quick", Json::Bool(args.quick)),
        ("workload", workload),
        ("exact", numbers(rate(exact_wall))),
        ("time_sampling", time_sampling),
        (
            "attribution",
            object(slices.map(|(o, s)| (o.label(), attribution(&machine, s)))),
        ),
    ])
    .render();
    print!("{text}");
    if let Some(path) = &args.out {
        std::fs::write(path, &text).expect("write perf JSON");
        eprintln!("perf: wrote {path}");
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_defaults_and_the_ci_invocation() {
        let d = parse(&[]).unwrap();
        assert!(!d.quick);
        assert_eq!(d.time_sample, (10_000, 40_000));
        assert!(d.out.is_none() && d.max_time_sample_error.is_none());
        let a = parse(&[
            "--quick",
            "--time-sample=10000:40000",
            "--max-time-sample-error",
            "10",
            "--out",
            "perf.json",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.time_sample, (10_000, 40_000));
        assert_eq!(a.max_time_sample_error, Some(10.0));
        assert_eq!(a.out.as_deref(), Some("perf.json"));
    }

    #[test]
    fn rejects_missing_and_malformed_values_instead_of_defaulting() {
        for argv in [
            &["--max-time-sample-error", "12%"][..],
            &["--max-time-sample-error", "ten"],
            &["--max-time-sample-error", "NaN"],
            &["--max-time-sample-error", "-1"],
            &["--max-time-sample-error"],
            &["--out"],
            &["--out", "--quick"],
            &["--time-sample", "0:10"],
            &["--bogus"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} must be rejected");
        }
    }

    #[test]
    fn rejects_the_timing_flags_nucabench_replaced() {
        for argv in [
            &["--repeat", "2"][..],
            &["--jobs", "2"],
            &["--jobs=2"],
            &["--no-skip"],
            &["--no-fast-path"],
            &["--check-schema", "BENCH_baseline.json"],
            &["--check-regression", "BENCH_baseline.json"],
        ] {
            let err = parse(argv).err().unwrap_or_default();
            assert!(err.contains("unknown argument"), "{argv:?}: {err}");
        }
    }
}
