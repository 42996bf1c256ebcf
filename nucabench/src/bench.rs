//! The two kinds of run: the untraced timed run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer ones.

use std::time::{Duration, Instant};

use nuca_core::cmp::CmpResult;
use nuca_core::experiment::ExperimentConfig;
use simcore::config::MachineConfig;

use crate::cell::{build_cmp, run_cmp, run_replay, signature, signature_hmean, Phases};
use crate::expected::{self, Kind};
use crate::layers;
use crate::probe::{HostProbe, NOMINAL_S};
use crate::replay::Trace;
use crate::report::Report;
use crate::workload::{Cell, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// How many times a run sets up the whole workload to time `setup_s`.
const SETUP_REPEATS: usize = 7;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The factor that turns host seconds measured between two probe
/// readings into nominal-speed seconds.
fn speed(before: f64, after: f64) -> f64 {
    ratio(2.0 * NOMINAL_S, before + after)
}

/// Median over [`SETUP_REPEATS`] of dealing the mixes and building every
/// cell's chip, in normalized seconds. The chips stay alive until the
/// repetition's clock stops, so their release is not timed.
fn setup_seconds(
    workload: Workload,
    machine: &MachineConfig,
    exp: &ExperimentConfig,
    probe: &mut HostProbe,
) -> f64 {
    let mut before = probe.measure();
    let samples = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            let chips: Vec<_> = workload
                .cells(machine, exp.seed)
                .iter()
                .filter_map(|c| build_cmp(machine, c, exp).ok())
                .collect();
            let elapsed = secs(t.elapsed());
            drop(chips);
            let after = probe.measure();
            let seconds = elapsed * speed(before, after);
            before = after;
            seconds
        })
        .collect();
    median(samples)
}

/// The process's peak resident set in MiB, from `/proc/self/status`.
fn read_peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn header(report: &mut Report, workload: Workload, seed: u64, mode: &str) {
    let kind = if seed == DEFAULT_SEED {
        "default seed, committed outputs"
    } else if seed == HELD_OUT_SEED {
        "held-out seed"
    } else {
        "seed without committed outputs"
    };
    report.notes.push(format!(
        "nucabench {mode} workload={} seed={seed} ({kind})",
        workload.name()
    ));
}

/// The exact signature every cell must reproduce: committed for the
/// default seed, otherwise computed now by the traced driver (an
/// independent rebuild of each chip from public parts), outside any
/// timed section.
fn exact_references(
    workload: Workload,
    machine: &MachineConfig,
    cells: &[Cell],
    seed: u64,
    report: &mut Report,
) -> Vec<Option<String>> {
    let exact = workload.exact_config(seed);
    cells
        .iter()
        .map(|cell| {
            if let Some(sig) = expected::lookup(seed, workload, Kind::Exact, &cell.id()) {
                return Some(sig.to_string());
            }
            if expected::has_outputs(seed, workload) {
                report.fail(format!("{}: no committed exact output", cell.id()));
                return None;
            }
            match run_replay(machine, cell, &exact) {
                Ok(r) if r.audit_clean => Some(signature(&r.result)),
                Ok(_) => {
                    report.fail(format!("{}: reference audit failed", cell.id()));
                    None
                }
                Err(e) => {
                    report.fail(format!("{}: reference errored: {e}", cell.id()));
                    None
                }
            }
        })
        .collect()
}

/// On a seed without committed outputs, re-runs the default seed's first
/// adaptive cell and checks it against the committed file, so that a
/// change to simulated behaviour fails every run, not only default-seed
/// runs.
fn canary(workload: Workload, machine: &MachineConfig, seed: u64, report: &mut Report) {
    if expected::has_outputs(seed, workload) {
        return;
    }
    let cells = workload.cells(machine, DEFAULT_SEED);
    let Some(cell) = cells.iter().find(|c| c.org.label() == "adaptive") else {
        return;
    };
    let kind = if workload.is_sampled() {
        Kind::Sampled
    } else {
        Kind::Exact
    };
    report.attempted += 1;
    let want = expected::lookup(DEFAULT_SEED, workload, kind, &cell.id());
    let got = run_cmp(machine, cell, &workload.timed_config(DEFAULT_SEED))
        .ok()
        .filter(|r| r.audit_clean)
        .map(|r| signature(&r.result));
    if want.is_none() || got.as_deref() != want {
        report.fail(format!(
            "canary {} (seed {DEFAULT_SEED}) differs from the committed output",
            cell.id()
        ));
    }
}

/// Relative hmean-IPC error of `result` against a reference signature.
fn hmean_error(result: &CmpResult, reference: Option<&str>) -> Option<f64> {
    let want = signature_hmean(reference?)?;
    Some(ratio((result.hmean_ipc - want).abs(), want))
}

/// The untraced run: repeats the workload's cells in a closed loop, one
/// at a time, for `seconds`, checking every cell's outputs, and reports
/// the end-to-end metrics.
pub fn timed(workload: Workload, seed: u64, seconds: f64) -> Report {
    let machine = MachineConfig::baseline();
    let exp = workload.timed_config(seed);
    let mut report = Report::default();
    header(&mut report, workload, seed, "timed");

    let mut probe = HostProbe::new();
    let setup_s = setup_seconds(workload, &machine, &exp, &mut probe);
    let cells = workload.cells(&machine, seed);
    let references = exact_references(workload, &machine, &cells, seed, &mut report);
    canary(workload, &machine, seed, &mut report);

    // What a repeat of each cell must print: the exact reference, or for
    // `sampled` the committed estimate (default seed) or else the cell's
    // first estimate in this run.
    let mut expect: Vec<Option<String>> = cells
        .iter()
        .zip(&references)
        .map(|(cell, reference)| {
            if workload.is_sampled() {
                expected::lookup(seed, workload, Kind::Sampled, &cell.id()).map(str::to_string)
            } else {
                reference.clone()
            }
        })
        .collect();

    let mut samples: Vec<Vec<Phases>> = vec![Vec::new(); cells.len()];
    let mut speeds = Vec::new();
    let mut worst_error = 0.0f64;
    let start = Instant::now();
    let mut before = probe.measure();
    let budget = Duration::from_secs_f64(seconds);
    let mut passes = 0;
    'passes: loop {
        for (i, cell) in cells.iter().enumerate() {
            if passes > 0 && start.elapsed() >= budget {
                break 'passes;
            }
            report.attempted += 1;
            let run = run_cmp(&machine, cell, &exp);
            let after = probe.measure();
            let k = speed(before, after);
            before = after;
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    report.fail(format!("{}: errored: {e}", cell.id()));
                    continue;
                }
            };
            speeds.push(k);
            samples[i].push(run.phases.scaled(k));
            let sig = signature(&run.result);
            if expect[i].is_none()
                && workload.is_sampled()
                && !expected::has_outputs(seed, workload)
            {
                expect[i] = Some(sig.clone());
            }
            match hmean_error(&run.result, references[i].as_deref()) {
                Some(e) => worst_error = worst_error.max(e),
                None => worst_error = 1.0,
            }
            if !run.audit_clean {
                report.fail(format!("{}: L3 audit failed", cell.id()));
            } else if expect[i].as_deref() != Some(sig.as_str()) {
                report.fail(format!(
                    "{}: output {sig} differs from expected {}",
                    cell.id(),
                    expect[i].as_deref().unwrap_or("(none)")
                ));
            }
        }
        passes += 1;
        if start.elapsed() >= budget {
            break;
        }
    }

    // Per cell and per phase, the fastest normalized repeat, summed over
    // cells. The probe corrects for the host's slow regime only in part;
    // the minimum over repeats spread across the run discards what it
    // misses, and summing per-cell minima keeps a cell repeated more
    // often (the head of a partial last pass) from weighing more.
    let fastest = |f: fn(&Phases) -> Duration| -> f64 {
        samples
            .iter()
            .filter_map(|s| s.iter().map(|p| secs(f(p))).min_by(f64::total_cmp))
            .sum()
    };
    let timed_cells = samples.iter().filter(|s| !s.is_empty()).count() as f64;
    let total_s = fastest(|p| p.total);
    let detailed_s = fastest(|p| p.detailed);
    let warm_s = fastest(|p| p.warm);
    let cycles = timed_cells * (exp.warmup_cycles + exp.measure_cycles) as f64;
    let insts = timed_cells * (machine.cores as u64 * exp.warm_instructions) as f64;

    report.notes.push(format!(
        "passes={passes} cells={} timed_s={:.2} host_speed_median={:.3}",
        cells.len(),
        secs(start.elapsed()),
        median(speeds)
    ));
    let peak_rss_mb = read_peak_rss_mb().unwrap_or_else(|| {
        report.fail("peak RSS unavailable (/proc/self/status)".to_string());
        0.0
    });
    let failed_frac = ratio(report.failed as f64, report.attempted as f64);
    report.notes.push(format!(
        "cells_failed_frac={failed_frac} hmean_ipc_err_max_pct={}",
        100.0 * worst_error
    ));
    EndToEnd {
        cells_per_s: ratio(timed_cells, total_s),
        detailed_cycles_per_s: ratio(cycles, detailed_s),
        warm_insts_per_s: ratio(insts, warm_s),
        setup_s,
        peak_rss_mb,
        cells_ok_frac: 1.0 - failed_frac,
        hmean_ipc_accuracy_min_pct: 100.0 * (1.0 - worst_error),
    }
    .emit(&mut report);
    report.correct = report.failed == 0 && report.attempted > 0;
    report
}

/// The end-to-end metrics of a timed run.
#[derive(Debug, Default)]
struct EndToEnd {
    cells_per_s: f64,
    detailed_cycles_per_s: f64,
    warm_insts_per_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    /// `1 - cells_failed_frac`: never 0, so a relative bound applies.
    cells_ok_frac: f64,
    /// `100 - hmean_ipc_err_max_pct`, for the same reason.
    hmean_ipc_accuracy_min_pct: f64,
}

impl EndToEnd {
    fn emit(&self, report: &mut Report) {
        report.push("cells_per_s", self.cells_per_s, "cells/s");
        report.push(
            "detailed_cycles_per_s",
            self.detailed_cycles_per_s,
            "cycles/s",
        );
        report.push("warm_insts_per_s", self.warm_insts_per_s, "insts/s");
        report.push("setup_s", self.setup_s, "s");
        report.push("peak_rss_mb", self.peak_rss_mb, "MB");
        report.push("cells_ok_frac", self.cells_ok_frac, "ratio");
        report.push(
            "hmean_ipc_accuracy_min_pct",
            self.hmean_ipc_accuracy_min_pct,
            "%",
        );
    }
}

/// The names and units a timed (`traced == false`) or traced run
/// reports, in report order.
pub fn metric_names(traced: bool) -> Vec<(&'static str, &'static str)> {
    let mut report = Report::default();
    if traced {
        let rate = layers::LoopRate {
            ns_per_op: 0.0,
            ops: 0,
        };
        emit_layers(&mut report, &Totals::default(), rate, rate, rate);
    } else {
        EndToEnd::default().emit(&mut report);
    }
    report.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

/// Per-workload sums over the cells of a traced run.
#[derive(Debug, Default)]
struct Totals {
    cmp: Phases,
    exact_cmp: Phases,
    trace: Trace,
    committed: u64,
    fast_hits: u64,
    fast_total: u64,
    l1d: (u64, u64),
    l2: (u64, u64),
    epochs: u64,
    repartitions: u64,
    mem_requests: u64,
    mem_queue: u64,
    mem_busy: u64,
    mem_cycles: u64,
    ts_windows: u64,
    ts_detailed: u64,
    ts_functional: u64,
    ts_ci95: Vec<f64>,
    gain: Vec<f64>,
}

impl Totals {
    fn absorb_result(&mut self, r: &CmpResult) {
        for (_, s) in &r.per_core {
            self.committed += s.committed;
            self.l1d = (self.l1d.0 + s.l1d.hits, self.l1d.1 + s.l1d.accesses());
            self.l2 = (self.l2.0 + s.l2.hits, self.l2.1 + s.l2.accesses());
        }
        self.mem_requests += r.memory.requests;
        self.mem_queue += r.memory.total_queue_delay;
        self.mem_busy += r.memory.busy_cycles;
        self.mem_cycles += r.per_core.first().map_or(0, |(_, s)| s.cycles);
    }
}

/// The traced run: every cell once through `Cmp` (phase times) and once
/// through the traced driver (layer spans and counters), checked equal
/// bit for bit; `sampled` adds its time-sampled pass. Then the
/// standalone layer loops. Reports the per-layer metrics.
pub fn traced(workload: Workload, seed: u64) -> Report {
    let machine = MachineConfig::baseline();
    let exact = workload.exact_config(seed);
    let timed = workload.timed_config(seed);
    let mut report = Report::default();
    header(&mut report, workload, seed, "traced");

    let cells = workload.cells(&machine, seed);
    let mut t = Totals::default();
    let mut private_hmean: Option<f64> = None;
    for cell in &cells {
        report.attempted += 1;
        let (cmp_run, replay) = match (
            run_cmp(&machine, cell, &exact),
            run_replay(&machine, cell, &exact),
        ) {
            (Ok(c), Ok(r)) => (c, r),
            (Err(e), _) | (_, Err(e)) => {
                report.fail(format!("{}: errored: {e}", cell.id()));
                continue;
            }
        };
        let sig = signature(&cmp_run.result);
        let committed = expected::lookup(seed, workload, Kind::Exact, &cell.id());
        if cmp_run.result != replay.result {
            report.fail(format!(
                "{}: traced driver {} differs from Cmp {sig}",
                cell.id(),
                signature(&replay.result)
            ));
        } else if !(cmp_run.audit_clean && replay.audit_clean) {
            report.fail(format!("{}: L3 audit failed", cell.id()));
        } else if expected::has_outputs(seed, workload) && committed != Some(sig.as_str()) {
            report.fail(format!(
                "{}: {sig} differs from the committed output",
                cell.id()
            ));
        }
        t.exact_cmp.absorb(&cmp_run.phases);
        t.trace.absorb(&replay.trace);
        t.fast_hits += replay.fast_hits;
        t.fast_total += replay.fast_total;
        t.epochs += replay.epochs;
        t.repartitions += replay.repartitions;
        t.absorb_result(&replay.result);
        match cell.org.label() {
            "private" => private_hmean = Some(replay.result.hmean_ipc),
            "adaptive" => {
                if let Some(p) = private_hmean {
                    t.gain.push(ratio(replay.result.hmean_ipc, p) - 1.0);
                }
            }
            _ => {}
        }

        if workload.is_sampled() {
            report.attempted += 1;
            match run_cmp(&machine, cell, &timed) {
                Ok(run) => {
                    let sig = signature(&run.result);
                    let want = expected::lookup(seed, workload, Kind::Sampled, &cell.id());
                    if !run.audit_clean {
                        report.fail(format!("{}: sampled L3 audit failed", cell.id()));
                    } else if expected::has_outputs(seed, workload) && want != Some(sig.as_str()) {
                        report.fail(format!("{}: sampled {sig} differs", cell.id()));
                    }
                    if let Some(ts) = run.result.time_sampling {
                        t.ts_windows += ts.windows;
                        t.ts_detailed += ts.detailed_cycles;
                        t.ts_functional += ts.functional_cycles;
                        t.ts_ci95.push(ts.relative_ci95);
                    }
                    t.cmp.absorb(&run.phases);
                }
                Err(e) => report.fail(format!("{}: sampled errored: {e}", cell.id())),
            }
        } else {
            t.cmp.absorb(&cmp_run.phases);
        }
    }

    let mixes: Vec<_> = cells
        .iter()
        .filter(|c| c.org.label() == "private")
        .map(|c| c.mix.clone())
        .collect();
    let gen = layers::tracegen(&mixes, seed);
    let cache = layers::cachesim(&machine, &mixes, seed);
    let mem = layers::memsim(&machine, seed);
    emit_layers(&mut report, &t, gen, cache, mem);
    report.correct = report.failed == 0 && report.attempted > 0;
    report
}

fn emit_layers(
    report: &mut Report,
    t: &Totals,
    gen: layers::LoopRate,
    cache: layers::LoopRate,
    mem: layers::LoopRate,
) {
    let tr = &t.trace;
    let cell_s = secs(t.cmp.total);
    report.push("cmp.setup_s", secs(t.cmp.setup), "s");
    report.push("cmp.warm_s", secs(t.cmp.warm), "s");
    report.push("cmp.detailed_s", secs(t.cmp.detailed), "s");
    report.push("cmp.warm_share", ratio(secs(t.cmp.warm), cell_s), "ratio");

    let core_s = tr.detailed.core_ns as f64 * 1e-9;
    report.push("cpusim.self_s", core_s, "s");
    report.push("cpusim.warm_self_s", tr.warm.core_ns as f64 * 1e-9, "s");
    report.count("cpusim.steps", tr.steps);
    report.count("cpusim.cycles_skipped", tr.cycles_skipped);
    report.push(
        "cpusim.skip_ratio",
        ratio(tr.cycles_skipped as f64, tr.detailed_cycles as f64),
        "ratio",
    );
    report.push(
        "cpusim.ns_per_step",
        ratio(tr.detailed.core_ns as f64, tr.steps as f64),
        "ns",
    );
    report.count("cpusim.committed", t.committed);
    report.count("cpusim.fast_hits", t.fast_hits);
    report.push(
        "cpusim.fast_fraction",
        ratio(t.fast_hits as f64, t.fast_total as f64),
        "ratio",
    );

    report.push("tracegen.ns_per_op", gen.ns_per_op, "ns");
    report.count("tracegen.ops", gen.ops);
    report.push("cachesim.ns_per_access", cache.ns_per_op, "ns");
    report.push(
        "cachesim.l1d_hit_ratio",
        ratio(t.l1d.0 as f64, t.l1d.1 as f64),
        "ratio",
    );
    report.push(
        "cachesim.l2_hit_ratio",
        ratio(t.l2.0 as f64, t.l2.1 as f64),
        "ratio",
    );

    let mut l3 = tr.warm.l3;
    l3.absorb(&tr.detailed.l3);
    report.count("l3.calls", l3.total_calls());
    report.push("l3.self_s", tr.detailed.l3.total_ns() as f64 * 1e-9, "s");
    report.push("l3.warm_self_s", tr.warm.l3.total_ns() as f64 * 1e-9, "s");
    let per = |b: usize| ratio(l3.nanos[b] as f64, l3.calls[b] as f64);
    report.push("l3.ns_per_local_hit", per(0), "ns");
    report.push("l3.ns_per_remote_hit", per(1), "ns");
    report.push("l3.ns_per_miss", per(2), "ns");
    report.push("l3.ns_per_writeback", per(3), "ns");
    report.count("l3.local_hits", l3.calls[0]);
    report.count("l3.remote_hits", l3.calls[1]);
    report.count("l3.misses", l3.calls[2]);
    report.count("l3.writebacks", l3.calls[3]);
    let gain = ratio(t.gain.iter().sum::<f64>(), t.gain.len() as f64);
    report.push("l3.adaptive_gain_pct", 100.0 * gain, "%");

    report.count("engine.epochs", t.epochs);
    report.count("engine.repartitions", t.repartitions);
    report.push(
        "engine.repartitions_per_epoch",
        ratio(t.repartitions as f64, t.epochs as f64),
        "ratio",
    );

    report.count("memsim.requests", t.mem_requests);
    report.push(
        "memsim.queue_delay_mean_cycles",
        ratio(t.mem_queue as f64, t.mem_requests as f64),
        "cycles",
    );
    report.push(
        "memsim.bus_utilization",
        ratio(t.mem_busy as f64, t.mem_cycles as f64),
        "ratio",
    );
    report.push("memsim.ns_per_request", mem.ns_per_op, "ns");

    let ts_total = (t.ts_detailed + t.ts_functional) as f64;
    report.count("cmp.ts_windows", t.ts_windows);
    report.push(
        "cmp.ts_detailed_share",
        if ts_total > 0.0 {
            t.ts_detailed as f64 / ts_total
        } else {
            1.0
        },
        "ratio",
    );
    report.push(
        "cmp.ts_ci95_rel",
        ratio(t.ts_ci95.iter().sum::<f64>(), t.ts_ci95.len() as f64),
        "ratio",
    );

    let traced_s = secs(tr.warm_wall + tr.detailed_wall);
    let untraced_s = secs(t.exact_cmp.warm + t.exact_cmp.detailed);
    report.push(
        "trace.overhead_pct",
        100.0 * ratio(traced_s - untraced_s, untraced_s),
        "%",
    );
    report.push(
        "trace.coverage",
        ratio(secs(tr.attributed()), traced_s),
        "ratio",
    );
}
