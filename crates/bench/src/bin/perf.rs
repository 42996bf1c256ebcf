//! `nuca-bench perf` — times a fixed workload matrix serially and in
//! parallel, and records the machine-readable baseline
//! (`BENCH_baseline.json`) that later PRs compare against.
//!
//! ```text
//! cargo run --release -p nuca-bench --bin perf             # full matrix, writes repo-root baseline
//! cargo run --release -p nuca-bench --bin perf -- --quick  # CI smoke matrix
//!     --jobs <N>            parallel pass thread count (0 = auto)  [default: auto]
//!     --repeat <N>          run the serial pass N times and report the
//!                           median wall-clock (guards --check-regression
//!                           against one-off host noise)      [default: 1]
//!     --no-skip             run with event-driven cycle skipping disabled
//!     --no-fast-path        run with the exact core-side hit fast path
//!                           disabled (the control semantics; the
//!                           fast_path_control section then compares
//!                           slow against slow)
//!     --sample-sets <K>     set-sampling shift for the accuracy pass   [default: 4]
//!     --max-sample-error <PCT>
//!                           fail if the sampled pass's worst hmean-IPC
//!                           error vs the full serial pass exceeds PCT %
//!     --time-sample <D:G>   time-sampling schedule for the time-sampled
//!                           accuracy pass: D detailed cycles alternating
//!                           with G functionally warmed cycles
//!                                                        [default: 10000:40000]
//!     --max-time-sample-error <PCT>
//!                           fail if the time-sampled pass's worst
//!                           hmean-IPC error vs the full serial pass
//!                           exceeds PCT %
//!     --out <FILE>          where to write the JSON (- = stdout only)
//!     --check-schema <FILE> fail if FILE's JSON schema differs from this run's
//!     --check-regression <FILE>
//!                           fail if this run's serial sim_cycles_per_second
//!                           is more than 15% below FILE's
//! ```
//!
//! A flag's missing or malformed value exits 2 with a message; it never
//! falls back to the default, so no gate can switch itself off.
//!
//! The matrix is fixed (intensive-pool mixes x private/shared/adaptive)
//! so numbers are comparable across commits; wall-clock values move
//! with the host, the schema must not. The serial pass is the reference
//! semantics: the run also verifies the parallel pass produced
//! bit-identical results and records that as `"deterministic"`.
//!
//! Schema v2 extends v1 with a per-organization breakdown of
//! the serial pass and a `sampling` section: the same matrix re-run
//! under `--sample-sets`, reporting its throughput and its worst/mean
//! harmonic-mean-IPC error against the full serial pass. Accuracy gates
//! CI the same way speed does — `--max-sample-error` is the error
//! analogue of `--check-regression`.
//!
//! Schema v3 adds `serial.repeats` and
//! `serial.winning_repeat`: with `--repeat N` the serial pass runs N
//! times and the published wall-clock (and per-organization breakdown)
//! is the run with the median total wall — `winning_repeat` records
//! which one (1-based) so a baseline file says where its numbers came
//! from. Simulation results are bit-identical across repeats (that is
//! asserted); only wall-clock varies.
//!
//! Schema v4 adds a `time_sampling` section: the same
//! matrix re-run under `--time-sample D:G` (SMARTS-style detailed
//! windows alternating with functional-warming gaps), reporting its
//! throughput, speedup and worst/mean harmonic-mean-IPC error against
//! the full serial pass. `--max-time-sample-error` gates that error the
//! same way `--max-sample-error` gates set sampling.
//!
//! Schema v5 adds:
//!
//! - a `fast_path_control` section — the serial matrix re-run with the
//!   exact core-side hit fast path disabled (`--no-fast-path`), the
//!   same-host same-run control the fast path's speedup claim is
//!   measured against. Results are asserted bit-identical to the serial
//!   pass (the exactness contract) and `speedup_vs_control` is the
//!   honest serial-rate ratio. Both passes honor `--repeat`.
//! - an `attribution` block — per-organization hit counts and modeled
//!   demand cycles per level (core vs L1 vs L2 vs L3-local/remote vs
//!   memory, using the configured latencies), plus the fast-path
//!   hit-rate counters from an instrumented cell, so the next perf PR
//!   knows where the remaining bound is.
//! - a per-organization regression gate: `--check-regression` now also
//!   compares `serial.per_organization.<org>.sim_cycles_per_second`
//!   when the reference carries it, so a single-organization regression
//!   cannot hide inside a flat whole-matrix aggregate.
//!
//! Schema v6 (this file) adds `attribution.<org>.core_steps`: the
//! instrumented cell's `Cmp::core_steps()`, the exact number of
//! `Core::step` calls its warm-up and measured windows made. It is the
//! host-independent work count behind the detailed loop's wall time.

// Figure-harness binary: failing fast on experiment errors is intended.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Instant;

use nuca_bench::json::Json;
use nuca_core::experiment::{
    build_chip, flag_args, flag_value, measure, parse_jobs, parse_sample_sets, parse_time_sample,
    parse_value, run_cells, ExperimentConfig, MixResult, SimCell,
};
use nuca_core::l3::Organization;
use simcore::config::MachineConfig;
use telemetry::NullSink;
use tracegen::spec::SpecApp;
use tracegen::workload::WorkloadPool;

struct Args {
    quick: bool,
    jobs: usize,
    repeat: usize,
    cycle_skip: bool,
    fast_path: bool,
    sample_shift: u32,
    max_sample_error: Option<f64>,
    time_sample: (u64, u64),
    max_time_sample_error: Option<f64>,
    out: Option<String>,
    check_schema: Option<String>,
    check_regression: Option<String>,
}

/// Parses perf's arguments (program name excluded). A flag's missing or
/// malformed value is an error, never a fallback to its default: a gate
/// such as `--max-sample-error` or `--check-regression` would otherwise
/// switch itself off, and a bare `--out` would overwrite the committed
/// baseline.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        jobs: 0,
        repeat: 1,
        cycle_skip: true,
        fast_path: true,
        sample_shift: 4,
        max_sample_error: None,
        time_sample: (10_000, 40_000),
        max_time_sample_error: None,
        out: None,
        check_schema: None,
        check_regression: None,
    };
    let mut it = flag_args(argv);
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--quick" => args.quick = true,
            "--no-skip" => args.cycle_skip = false,
            "--no-fast-path" => args.fast_path = false,
            "--jobs" => args.jobs = parse_value(flag, &mut it, parse_jobs)?,
            "--repeat" => {
                args.repeat = parse_value(flag, &mut it, |v| match v.parse() {
                    Ok(n) if n > 0 => Ok(n),
                    _ => Err("wants a positive count".to_string()),
                })?;
            }
            "--sample-sets" => args.sample_shift = parse_value(flag, &mut it, parse_sample_sets)?,
            "--max-sample-error" => {
                args.max_sample_error = Some(parse_value(flag, &mut it, percent)?)
            }
            "--time-sample" => args.time_sample = parse_value(flag, &mut it, parse_time_sample)?,
            "--max-time-sample-error" => {
                args.max_time_sample_error = Some(parse_value(flag, &mut it, percent)?);
            }
            "--out" => args.out = Some(flag_value(flag, it.next())?),
            "--check-schema" => args.check_schema = Some(flag_value(flag, it.next())?),
            "--check-regression" => args.check_regression = Some(flag_value(flag, it.next())?),
            other => return Err(format!("unknown argument {other} (see the module docs)")),
        }
    }
    Ok(args)
}

/// An error budget in percent: finite and non-negative, so the gate it
/// arms can fail.
fn percent(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(pct) if pct.is_finite() && pct >= 0.0 => Ok(pct),
        _ => Err("wants a percentage such as 12".to_string()),
    }
}

fn default_out_path() -> std::path::PathBuf {
    // crates/bench -> repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json")
}

fn pass(label: &str, n: u64) -> Json {
    Json::Obj(vec![(label.to_string(), Json::num(n as f64))])
}

/// Worst and mean relative harmonic-mean-IPC error of `sampled` against
/// the reference `full` results (cell-aligned).
fn sampling_error(full: &[MixResult], sampled: &[MixResult]) -> (f64, f64) {
    let mut max_err = 0.0f64;
    let mut sum_err = 0.0f64;
    let mut n = 0usize;
    for (f, s) in full.iter().zip(sampled) {
        if f.result.hmean_ipc > 0.0 {
            let e = ((s.result.hmean_ipc - f.result.hmean_ipc) / f.result.hmean_ipc).abs();
            max_err = max_err.max(e);
            sum_err += e;
            n += 1;
        }
    }
    (max_err, if n > 0 { sum_err / n as f64 } else { 0.0 })
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
    let exp = exp
        .with_cycle_skip(args.cycle_skip)
        .with_fast_path(args.fast_path);
    let jobs = simcore::parallel::resolve_jobs(args.jobs);
    let orgs = [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
    ];
    let mixes =
        WorkloadPool::random_mixes(&SpecApp::intensive_pool(), machine.cores, n_mixes, exp.seed);
    // Org-major cell order so the serial pass can time each
    // organization's slice contiguously; the parallel pass runs the same
    // list, so the determinism comparison is order-for-order.
    let machine_ref = &machine;
    let cells: Vec<SimCell<'_>> = orgs
        .iter()
        .flat_map(|&org| {
            mixes.iter().map(move |mix| SimCell {
                machine: machine_ref,
                org,
                mix,
            })
        })
        .collect();
    let sim_cycles_per_cell = exp.warmup_cycles + exp.measure_cycles;
    let total_sim_cycles = sim_cycles_per_cell * cells.len() as u64;
    let org_sim_cycles = sim_cycles_per_cell * mixes.len() as u64;

    eprintln!(
        "perf: {} cells ({} mixes x {} orgs), {} sim-cycles each, jobs={jobs}",
        cells.len(),
        mixes.len(),
        orgs.len(),
        sim_cycles_per_cell
    );

    // Serial pass, timed one organization slice at a time so the report
    // can break sim-cycles/s down per organization (the three last-level
    // designs stress very different code paths). With --repeat N the
    // whole pass runs N times and the median-wall run's numbers are
    // published: results are bit-identical across repeats, wall-clock is
    // not, and one descheduled repeat must not poison the baseline that
    // --check-regression compares against.
    let serial_exp = exp.with_jobs(1);
    let serial_pass = |pass_exp: &ExperimentConfig, what: &str| {
        let mut results: Vec<MixResult> = Vec::with_capacity(cells.len());
        let mut per_org: Vec<(String, Json)> = Vec::new();
        let mut wall_total = 0.0f64;
        for (i, org) in orgs.iter().enumerate() {
            let slice = &cells[i * mixes.len()..(i + 1) * mixes.len()];
            let t = Instant::now();
            results.extend(run_cells(slice, pass_exp).unwrap_or_else(|e| {
                panic!("{what} pass runs: {e}");
            }));
            let wall = t.elapsed().as_secs_f64();
            wall_total += wall;
            per_org.push((
                org.label().to_string(),
                Json::Obj(vec![
                    ("wall_seconds".into(), Json::num(wall)),
                    (
                        "sim_cycles_per_second".into(),
                        Json::num(org_sim_cycles as f64 / wall.max(1e-9)),
                    ),
                ]),
            ));
        }
        (results, wall_total, per_org)
    };
    type SerialRepeat = (Vec<MixResult>, f64, Vec<(String, Json)>);
    // Median by wall-clock (lower middle for even N — deterministic).
    let median_of = |mut repeats: Vec<SerialRepeat>| {
        for r in &repeats[1..] {
            assert_eq!(
                r.0, repeats[0].0,
                "serial repeats must be bit-identical; only wall-clock may vary"
            );
        }
        let mut order: Vec<usize> = (0..repeats.len()).collect();
        order.sort_by(|&a, &b| repeats[a].1.total_cmp(&repeats[b].1));
        let winner = order[(order.len() - 1) / 2];
        (repeats.swap_remove(winner), winner)
    };
    // Fast-path control: the identical serial matrix with the exact
    // core-side hit fast path disabled — the same-host same-run control
    // the fast path's speedup is measured against, under the same
    // --repeat median discipline. The exactness contract is asserted,
    // not assumed: the control must reproduce the serial results bit for
    // bit.
    //
    // The two variants are *interleaved* repeat by repeat, alternating
    // which goes first within each pair. Back-to-back blocks (all serial
    // repeats, then all control repeats) measured a 15 % difference on
    // this harness with bit-identical binaries in both blocks — whatever
    // runs first is systematically slower (frequency ramp / scheduler
    // drift), which is larger than the effect under test. Alternation
    // cancels monotone drift from the pair medians.
    let control_exp = serial_exp.with_fast_path(false);
    let mut repeats: Vec<SerialRepeat> = Vec::with_capacity(args.repeat);
    let mut control_repeats: Vec<SerialRepeat> = Vec::with_capacity(args.repeat);
    for r in 0..args.repeat {
        if r % 2 == 0 {
            repeats.push(serial_pass(&serial_exp, "serial"));
            control_repeats.push(serial_pass(&control_exp, "fast-path control"));
        } else {
            control_repeats.push(serial_pass(&control_exp, "fast-path control"));
            repeats.push(serial_pass(&serial_exp, "serial"));
        }
    }
    let ((serial, serial_wall, per_org), winning_repeat) = median_of(repeats);
    let ((control, control_wall, _), _) = median_of(control_repeats);
    let control_identical = control == serial;
    let fast_path_speedup = control_wall / serial_wall.max(1e-9);

    let parallel_exp = exp.with_jobs(jobs);
    let t1 = Instant::now();
    let parallel = run_cells(&cells, &parallel_exp).expect("parallel pass runs");
    let parallel_wall = t1.elapsed().as_secs_f64();

    // Sampled pass: the same matrix with only 1/2^shift of the L3 sets
    // simulated, compared cell-for-cell against the full serial results.
    let sampled_exp = serial_exp.with_sample_sets(Some(args.sample_shift));
    let t2 = Instant::now();
    let sampled = run_cells(&cells, &sampled_exp).expect("sampled pass runs");
    let sampled_wall = t2.elapsed().as_secs_f64();
    let (max_err, mean_err) = sampling_error(&serial, &sampled);

    // Time-sampled pass: the same matrix with detailed windows
    // alternating with functional-warming gaps, compared cell-for-cell
    // against the full serial results — same accuracy methodology as
    // the set-sampled pass, different sampling dimension. The explicit
    // fast-forward is cut to 5/8: the gap engine keeps warming state
    // through the whole run, so part of the up-front warm budget is
    // redundant here, and charging it all anyway would hide wall-clock
    // time sampling exists to save. (Scaling all the way down to the
    // schedule's 1/5 duty cycle leaves the megabyte working sets
    // visibly cold — the measured worst-cell error quintuples from ~5%
    // to ~26% — while 5/8 keeps it under the CI budget.) The accuracy
    // cost of the smaller budget is priced into the gated error numbers
    // below, not swept under the rug.
    let (ts_detail, ts_gap) = args.time_sample;
    let ts_exp = serial_exp
        .with_time_sample(Some(args.time_sample))
        .scaled_warm(5, 8);
    let t3 = Instant::now();
    let time_sampled = run_cells(&cells, &ts_exp).expect("time-sampled pass runs");
    let ts_wall = t3.elapsed().as_secs_f64();
    let (ts_max_err, ts_mean_err) = sampling_error(&serial, &time_sampled);

    // Per-level attribution: where the simulated demand goes under each
    // organization, as raw hit counts from the measured windows and as
    // modeled demand cycles (count x configured latency), so the next
    // perf PR knows whether the bound is the core, a cache level or
    // memory. The fast-path hit-rate counters come from one instrumented
    // cell per organization (the first mix; counters are a side channel,
    // the cell's results are bit-identical to the serial pass's).
    let attribution: Vec<(String, Json)> = orgs
        .iter()
        .enumerate()
        .map(|(i, &org)| {
            let slice = &serial[i * mixes.len()..(i + 1) * mixes.len()];
            let mut committed = 0u64;
            let mut l1_hits = 0u64;
            let mut l1_accesses = 0u64;
            let mut l2_hits = 0u64;
            let mut l2_accesses = 0u64;
            let mut l3_local = 0u64;
            let mut l3_remote = 0u64;
            let mut mem = 0u64;
            let mut l1_cycles = 0u64;
            for r in slice {
                for (_, s) in &r.result.per_core {
                    committed += s.committed;
                    l1_hits += s.l1i.hits + s.l1d.hits;
                    let l1i_acc = s.l1i.hits + s.l1i.misses;
                    let l1d_acc = s.l1d.hits + s.l1d.misses;
                    l1_accesses += l1i_acc + l1d_acc;
                    l1_cycles += l1i_acc * machine.l1i.latency() + l1d_acc * machine.l1d.latency();
                    l2_hits += s.l2.hits;
                    l2_accesses += s.l2.hits + s.l2.misses;
                    l3_local += s.l3_local_hits;
                    l3_remote += s.l3_remote_hits;
                    mem += s.l3_misses;
                }
            }
            let cycles = [
                ("core", committed),
                ("l1", l1_cycles),
                ("l2", l2_accesses * machine.l2.latency()),
                ("l3_local", l3_local * machine.l3.private.latency()),
                ("l3_remote", l3_remote * machine.l3.shared.latency()),
                ("memory", mem * machine.memory.first_chunk_shared),
            ];
            let total: u64 = cycles.iter().map(|&(_, c)| c).sum();
            let modeled: Vec<(String, Json)> = cycles
                .iter()
                .map(|&(level, c)| (level.to_string(), Json::num(c as f64)))
                .collect();
            let shares: Vec<(String, Json)> = cycles
                .iter()
                .map(|&(level, c)| {
                    (
                        level.to_string(),
                        Json::num(c as f64 / (total.max(1)) as f64),
                    )
                })
                .collect();
            let mix = &mixes[0];
            let mut cmp = build_chip(
                &machine,
                org,
                &mix.profiles(),
                &mix.forwards,
                &serial_exp,
                NullSink,
            )
            .expect("instrumented cell builds");
            measure(&mut cmp, &serial_exp);
            let fast = cmp.fast_path_stats();
            let core_steps = cmp.core_steps();
            (
                org.label().to_string(),
                Json::Obj(vec![
                    (
                        "hits".into(),
                        Json::Obj(vec![
                            ("committed".into(), Json::num(committed as f64)),
                            ("l1".into(), Json::num(l1_hits as f64)),
                            ("l1_accesses".into(), Json::num(l1_accesses as f64)),
                            ("l2".into(), Json::num(l2_hits as f64)),
                            ("l3_local".into(), Json::num(l3_local as f64)),
                            ("l3_remote".into(), Json::num(l3_remote as f64)),
                            ("memory".into(), Json::num(mem as f64)),
                        ]),
                    ),
                    ("modeled_cycles".into(), Json::Obj(modeled)),
                    ("share".into(), Json::Obj(shares)),
                    (
                        "fast_path".into(),
                        Json::Obj(vec![
                            (
                                "data_fast_hits".into(),
                                Json::num(fast.data_fast_hits as f64),
                            ),
                            ("data_slow".into(), Json::num(fast.data_slow as f64)),
                            (
                                "inst_fast_hits".into(),
                                Json::num(fast.inst_fast_hits as f64),
                            ),
                            ("inst_slow".into(), Json::num(fast.inst_slow as f64)),
                            ("fast_fraction".into(), Json::num(fast.fast_fraction())),
                        ]),
                    ),
                    ("core_steps".into(), Json::num(core_steps as f64)),
                ]),
            )
        })
        .collect();

    let deterministic = serial == parallel;
    let host_cores = simcore::parallel::default_jobs();
    // On a one-core host the "parallel" pass is the serial pass with
    // extra scheduling overhead; publishing its ratio as a speedup would
    // be noise dressed up as data. The key stays (schema is shape, not
    // values) but the value is honest.
    let speedup = serial_wall / parallel_wall.max(1e-9);
    let (speedup_json, note) = if host_cores == 1 {
        (
            Json::Null,
            "single-core host: the parallel pass cannot overlap work, so no speedup is reported",
        )
    } else {
        (
            Json::num(speedup),
            "speedup compares the serial pass against the multi-threaded pass on this host",
        )
    };

    let rate = |wall: f64| {
        vec![
            ("wall_seconds".to_string(), Json::num(wall)),
            (
                "cells_per_second".to_string(),
                Json::num(cells.len() as f64 / wall.max(1e-9)),
            ),
            (
                "sim_cycles_per_second".to_string(),
                Json::num(total_sim_cycles as f64 / wall.max(1e-9)),
            ),
        ]
    };
    let mut serial_json = rate(serial_wall);
    serial_json.push(("repeats".into(), Json::num(args.repeat as f64)));
    serial_json.push((
        "winning_repeat".into(),
        Json::num((winning_repeat + 1) as f64),
    ));
    serial_json.push(("per_organization".into(), Json::Obj(per_org.clone())));
    let mut sampling_json = rate(sampled_wall);
    sampling_json.insert(0, ("shift".into(), Json::num(args.sample_shift as f64)));
    sampling_json.push((
        "speedup_vs_serial".into(),
        Json::num(serial_wall / sampled_wall.max(1e-9)),
    ));
    sampling_json.push(("max_rel_error_hmean_ipc".into(), Json::num(max_err)));
    sampling_json.push(("mean_rel_error_hmean_ipc".into(), Json::num(mean_err)));
    let mut time_sampling_json = rate(ts_wall);
    time_sampling_json.insert(0, ("gap".into(), Json::num(ts_gap as f64)));
    time_sampling_json.insert(0, ("detail".into(), Json::num(ts_detail as f64)));
    time_sampling_json.push((
        "speedup_vs_serial".into(),
        Json::num(serial_wall / ts_wall.max(1e-9)),
    ));
    time_sampling_json.push(("max_rel_error_hmean_ipc".into(), Json::num(ts_max_err)));
    time_sampling_json.push(("mean_rel_error_hmean_ipc".into(), Json::num(ts_mean_err)));
    let fast_path_control_json = vec![
        ("wall_seconds".to_string(), Json::num(control_wall)),
        (
            "sim_cycles_per_second".to_string(),
            Json::num(total_sim_cycles as f64 / control_wall.max(1e-9)),
        ),
        (
            "speedup_vs_control".to_string(),
            Json::num(fast_path_speedup),
        ),
        ("identical".to_string(), Json::Bool(control_identical)),
    ];
    let doc = Json::Obj(vec![
        ("schema_version".into(), Json::num(6.0)),
        ("bench".into(), Json::str("nuca-bench perf")),
        ("quick".into(), Json::Bool(args.quick)),
        (
            "workload".into(),
            Json::Obj(vec![
                ("mixes".into(), Json::num(mixes.len() as f64)),
                (
                    "organizations".into(),
                    Json::Arr(orgs.iter().map(|o| Json::str(o.label())).collect()),
                ),
                ("cells".into(), Json::num(cells.len() as f64)),
                (
                    "warm_instructions".into(),
                    Json::num(exp.warm_instructions as f64),
                ),
                ("warmup_cycles".into(), Json::num(exp.warmup_cycles as f64)),
                (
                    "measure_cycles".into(),
                    Json::num(exp.measure_cycles as f64),
                ),
                ("seed".into(), Json::num(exp.seed as f64)),
            ]),
        ),
        ("host".into(), pass("cores", host_cores as u64)),
        ("jobs".into(), Json::num(jobs as f64)),
        ("cycle_skip".into(), Json::Bool(args.cycle_skip)),
        ("fast_path".into(), Json::Bool(args.fast_path)),
        ("serial".into(), Json::Obj(serial_json)),
        (
            "fast_path_control".into(),
            Json::Obj(fast_path_control_json),
        ),
        ("parallel".into(), Json::Obj(rate(parallel_wall))),
        ("speedup".into(), speedup_json),
        ("sampling".into(), Json::Obj(sampling_json)),
        ("time_sampling".into(), Json::Obj(time_sampling_json)),
        ("attribution".into(), Json::Obj(attribution)),
        ("note".into(), Json::str(note)),
        ("deterministic".into(), Json::Bool(deterministic)),
    ]);

    let text = doc.render();
    print!("{text}");
    let speedup_text = if host_cores == 1 {
        "n/a (single-core host)".to_string()
    } else {
        format!("{speedup:.2}x")
    };
    eprintln!(
        "perf: serial {serial_wall:.2}s (median of {}, repeat {} won), parallel \
         {parallel_wall:.2}s (jobs={jobs}), speedup {speedup_text}, \
         deterministic={deterministic}",
        args.repeat,
        winning_repeat + 1
    );
    eprintln!(
        "perf: sampled (shift {}) {sampled_wall:.2}s ({:.2}x vs serial), \
         hmean-IPC error max {:.2}% mean {:.2}%",
        args.sample_shift,
        serial_wall / sampled_wall.max(1e-9),
        max_err * 100.0,
        mean_err * 100.0
    );
    eprintln!(
        "perf: time-sampled ({ts_detail}:{ts_gap}) {ts_wall:.2}s ({:.2}x vs serial), \
         hmean-IPC error max {:.2}% mean {:.2}%",
        serial_wall / ts_wall.max(1e-9),
        ts_max_err * 100.0,
        ts_mean_err * 100.0
    );

    eprintln!(
        "perf: fast-path control {control_wall:.2}s, fast path {fast_path_speedup:.2}x \
         vs control, identical={control_identical}"
    );

    let mut failed = false;
    if !deterministic {
        eprintln!("perf: FAIL — parallel results differ from serial results");
        failed = true;
    }
    if !control_identical {
        eprintln!("perf: FAIL — --no-fast-path control results differ from serial results");
        failed = true;
    }

    if let Some(limit_pct) = args.max_sample_error {
        if max_err * 100.0 > limit_pct {
            eprintln!(
                "perf: FAIL — sampled pass error {:.2}% exceeds the {limit_pct}% budget",
                max_err * 100.0
            );
            failed = true;
        } else {
            eprintln!(
                "perf: sampled pass error {:.2}% within the {limit_pct}% budget",
                max_err * 100.0
            );
        }
    }

    if let Some(limit_pct) = args.max_time_sample_error {
        if ts_max_err * 100.0 > limit_pct {
            eprintln!(
                "perf: FAIL — time-sampled pass error {:.2}% exceeds the {limit_pct}% budget",
                ts_max_err * 100.0
            );
            failed = true;
        } else {
            eprintln!(
                "perf: time-sampled pass error {:.2}% within the {limit_pct}% budget",
                ts_max_err * 100.0
            );
        }
    }

    if let Some(reference) = &args.check_schema {
        let ref_text = std::fs::read_to_string(reference).unwrap_or_else(|e| {
            eprintln!("perf: cannot read schema reference {reference}: {e}");
            std::process::exit(2);
        });
        let ref_doc = Json::parse(&ref_text).unwrap_or_else(|e| {
            eprintln!("perf: schema reference {reference} is not valid JSON: {e}");
            std::process::exit(2);
        });
        let (ours, theirs) = (doc.schema(), ref_doc.schema());
        if ours == theirs {
            eprintln!("perf: schema matches {reference} ({} paths)", ours.len());
        } else {
            for missing in theirs.iter().filter(|p| !ours.contains(p)) {
                eprintln!("perf: schema path removed: {missing}");
            }
            for added in ours.iter().filter(|p| !theirs.contains(p)) {
                eprintln!("perf: schema path added: {added}");
            }
            eprintln!("perf: FAIL — JSON schema differs from {reference}");
            failed = true;
        }
    }

    if let Some(reference) = &args.check_regression {
        let ref_text = std::fs::read_to_string(reference).unwrap_or_else(|e| {
            eprintln!("perf: cannot read regression reference {reference}: {e}");
            std::process::exit(2);
        });
        let ref_doc = Json::parse(&ref_text).unwrap_or_else(|e| {
            eprintln!("perf: regression reference {reference} is not valid JSON: {e}");
            std::process::exit(2);
        });
        let ref_rate = ref_doc
            .get("serial")
            .and_then(|s| s.get("sim_cycles_per_second"))
            .and_then(|v| match v {
                Json::Num(n) => Some(*n),
                _ => None,
            })
            .unwrap_or_else(|| {
                eprintln!("perf: {reference} has no serial.sim_cycles_per_second");
                std::process::exit(2);
            });
        let our_rate = total_sim_cycles as f64 / serial_wall.max(1e-9);
        let ratio = our_rate / ref_rate.max(1e-9);
        // 15% grace absorbs host-to-host and run-to-run wall-clock noise;
        // a real hot-path regression (dropping the skip loop, re-growing
        // per-step allocation) blows well past it.
        if ratio < 0.85 {
            eprintln!(
                "perf: FAIL — serial throughput regressed: {our_rate:.0} vs \
                 {ref_rate:.0} sim-cycles/s in {reference} ({ratio:.2}x, floor 0.85x)"
            );
            failed = true;
        } else {
            eprintln!(
                "perf: serial throughput {our_rate:.0} vs {ref_rate:.0} sim-cycles/s \
                 in {reference} ({ratio:.2}x) — within the 15% regression budget"
            );
        }
        // Per-organization gate with the same floor: a single-org
        // regression must not hide inside a flat aggregate. References
        // from schema < 5 carry no per-organization rates; those skip
        // gracefully (the whole-matrix gate above still applies).
        for (label, org_json) in &per_org {
            let our_org_rate = org_json
                .get("sim_cycles_per_second")
                .and_then(|v| match v {
                    Json::Num(n) => Some(*n),
                    _ => None,
                })
                .unwrap_or(0.0);
            let ref_org_rate = ref_doc
                .get("serial")
                .and_then(|s| s.get("per_organization"))
                .and_then(|p| p.get(label))
                .and_then(|o| o.get("sim_cycles_per_second"))
                .and_then(|v| match v {
                    Json::Num(n) => Some(*n),
                    _ => None,
                });
            match ref_org_rate {
                Some(ref_org_rate) if ref_org_rate > 0.0 => {
                    let ratio = our_org_rate / ref_org_rate;
                    if ratio < 0.85 {
                        eprintln!(
                            "perf: FAIL — {label} serial throughput regressed: \
                             {our_org_rate:.0} vs {ref_org_rate:.0} sim-cycles/s in \
                             {reference} ({ratio:.2}x, floor 0.85x)"
                        );
                        failed = true;
                    } else {
                        eprintln!(
                            "perf: {label} serial throughput {our_org_rate:.0} vs \
                             {ref_org_rate:.0} sim-cycles/s ({ratio:.2}x) — within budget"
                        );
                    }
                }
                _ => eprintln!(
                    "perf: {reference} has no per-organization rate for {label}; \
                     skipping the per-org gate for it"
                ),
            }
        }
    }

    match args.out.as_deref() {
        Some("-") => {}
        Some(path) => {
            std::fs::write(path, &text).expect("write baseline JSON");
            eprintln!("perf: wrote {path}");
        }
        None => {
            let path = default_out_path();
            std::fs::write(&path, &text).expect("write baseline JSON");
            eprintln!("perf: wrote {}", path.display());
        }
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
    fn parses_defaults_and_the_ci_invocations() {
        let d = parse(&[]).unwrap();
        assert_eq!((d.jobs, d.repeat, d.sample_shift), (0, 1, 4));
        assert_eq!(d.time_sample, (10_000, 40_000));
        assert!(d.out.is_none() && d.max_sample_error.is_none());
        let a = parse(&[
            "--quick",
            "--sample-sets",
            "2",
            "--max-sample-error",
            "12",
            "--repeat",
            "2",
            "--jobs=3",
            "--out",
            "-",
            "--check-regression",
            "BENCH_quick_baseline.json",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!((a.jobs, a.repeat, a.sample_shift), (3, 2, 2));
        assert_eq!(a.max_sample_error, Some(12.0));
        assert_eq!(a.out.as_deref(), Some("-"));
        assert_eq!(
            a.check_regression.as_deref(),
            Some("BENCH_quick_baseline.json")
        );
        let t = parse(&[
            "--time-sample",
            "10000:40000",
            "--max-time-sample-error",
            "10",
        ])
        .unwrap();
        assert_eq!(t.time_sample, (10_000, 40_000));
        assert_eq!(t.max_time_sample_error, Some(10.0));
    }

    #[test]
    fn rejects_missing_and_malformed_values_instead_of_defaulting() {
        for argv in [
            &["--max-sample-error", "12%"][..],
            &["--max-time-sample-error", "ten"],
            &["--max-sample-error", "NaN"],
            &["--max-sample-error", "-1"],
            &["--max-sample-error"],
            &["--check-regression"],
            &["--check-schema"],
            &["--out"],
            &["--out", "--quick"],
            &["--sample-sets", "four"],
            &["--repeat", "x"],
            &["--repeat", "0"],
            &["--jobs", "-1"],
            &["--jobs=many"],
            &["--time-sample", "0:10"],
            &["--bogus"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} must be rejected");
        }
    }
}
