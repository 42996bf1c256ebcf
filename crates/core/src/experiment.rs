//! The evaluation harness: runs the paper's experiments end to end.
//!
//! Section 3's methodology — four randomly picked applications, random
//! fast-forward, warm-up, a fixed measured window — is captured by
//! [`ExperimentConfig`] and [`run_mix`]. On top of that sit the
//! per-figure drivers [`classify`] (Figure 5) and [`sensitivity_sweep`]
//! (Figure 3), and [`compare_schemes`], which runs one mix under several
//! organizations. Figures 6–12 are grids of such cells that the campaign
//! engine runs from `specs/` and `nuca-bench` renders from its
//! manifests.
//!
//! The run policy has one path. Every front end (`nuca-sim`, its
//! `campaign` subcommand, `perf` and the simulating figure binaries)
//! parses `--jobs`, `--sample-sets` and `--time-sample` with
//! [`parse_jobs`], [`parse_sample_sets`] and [`parse_time_sample`];
//! `nuca-sim` and the figure binaries match all five run-policy flags
//! with [`ExperimentConfig::parse_flag`]. Every simulating caller builds
//! its chip with [`build_chip`], the one place that applies an
//! [`ExperimentConfig`] to a [`Cmp`].

use std::borrow::Borrow;

use simcore::config::{CacheGeometry, MachineConfig, MachineConfigBuilder};
use simcore::error::Result;
use telemetry::{collector, NullSink, Recorder, Sink, Trace, TraceMeta};
use tracegen::profile::AppProfile;
use tracegen::spec::SpecApp;
use tracegen::workload::{Mix, WorkloadPool};

use crate::cmp::{Cmp, CmpResult};
use crate::l3::Organization;

/// How long to warm up and measure each experiment.
///
/// The paper fast-forwards 0.5–1.5 G instructions and measures 200 M
/// cycles on a simulation farm; the defaults here are scaled down to
/// laptop time while keeping the relative orderings stable. Both knobs
/// are public so benches can sweep them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Instructions per core warmed *functionally* (state updates without
    /// pipeline timing) before the timed phase — the cheap equivalent of
    /// the paper's fast-forward, enough to populate megabyte working
    /// sets.
    pub warm_instructions: u64,
    /// Timed cycles simulated before statistics reset (settles the
    /// pipeline, bus and MSHR state).
    pub warmup_cycles: u64,
    /// Cycles measured after warm-up.
    pub measure_cycles: u64,
    /// Master seed (workload construction and per-core streams).
    pub seed: u64,
    /// Host threads a run may use: cells first, then each cell's warm
    /// (see [`run_cells`] and [`Cmp::warm`]). Each cell runs on a worker
    /// and fans its warm out over that worker's share of `jobs`. `1`
    /// runs everything serially; results are bit-identical for every
    /// value because each cell is self-contained and the warm drains in
    /// the serial order. This is an execution policy, not part of the
    /// experiment's identity.
    pub jobs: usize,
    /// Whether [`Cmp::run`] may use the event-driven cycle-skipping fast
    /// path. Like `jobs`, an execution policy: results are bit-identical
    /// either way (enforced by the differential tests and the CI
    /// exactness-differential job); `false` is the `--no-skip` escape hatch
    /// that keeps the reference stepping loop alive.
    pub cycle_skip: bool,
    /// Whether cores may use the exact hit fast path (fused TLB+L1
    /// probe/walk, memos, pipeline bookkeeping bypass). Another
    /// execution policy: results are bit-identical
    /// either way (enforced by the differential tests and the CI
    /// exactness-differential job); `false` is the `--no-fast-path`
    /// escape hatch that keeps the reference walks alive.
    pub fast_path: bool,
    /// Set-sampled simulation: `Some(k)` simulates `1/2^k` of the
    /// last-level sets in full detail and charges the rest a calibrated
    /// latency estimate (see [`crate::l3::SampledL3`]). Unlike `jobs`
    /// and `cycle_skip` this *is* part of the experiment's identity —
    /// results are estimates with the confidence bounds carried in
    /// [`CmpResult::sampling`]. `None` simulates every set.
    pub sample_shift: Option<u32>,
    /// Time-sampled simulation: `Some((detail, gap))` alternates
    /// `detail` detailed cycles with `gap` functionally warmed cycles
    /// (see [`Cmp::set_time_sample`]). Part of the experiment's identity
    /// like `sample_shift`; the accuracy summary lands in
    /// [`CmpResult::time_sampling`]. `None` (or a zero gap) simulates
    /// every cycle in detail.
    pub time_sample: Option<(u64, u64)>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            warm_instructions: 3_000_000,
            warmup_cycles: 1_000_000,
            measure_cycles: 1_500_000,
            seed: 2007,
            jobs: 1,
            cycle_skip: true,
            fast_path: true,
            sample_shift: None,
            time_sample: None,
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests.
    pub fn quick() -> Self {
        ExperimentConfig {
            warm_instructions: 400_000,
            warmup_cycles: 20_000,
            measure_cycles: 150_000,
            ..ExperimentConfig::default()
        }
    }

    /// Scales every phase by `num/den` (used by benches to trade
    /// precision for wall-clock time via the command line).
    #[must_use]
    pub fn scaled(&self, num: u64, den: u64) -> Self {
        ExperimentConfig {
            warm_instructions: (self.warm_instructions * num / den).max(1),
            warmup_cycles: (self.warmup_cycles * num / den).max(1),
            measure_cycles: (self.measure_cycles * num / den).max(1),
            ..*self
        }
    }

    /// Same experiment with only the functional fast-forward scaled by
    /// `num/den` (floored at one instruction, timed phases untouched).
    /// The time-sampled perf pass runs with a reduced warm budget:
    /// functional gaps keep warming cache state all the way through a
    /// sampled run, so part of the up-front warm budget is redundant
    /// there — and charging it anyway would hide exactly the wall-clock
    /// the method exists to save. Any residual cold-state bias shows up
    /// in the measured (and gated) hmean-IPC error.
    #[must_use]
    pub fn scaled_warm(&self, num: u64, den: u64) -> Self {
        ExperimentConfig {
            warm_instructions: (self.warm_instructions * num / den.max(1)).max(1),
            ..*self
        }
    }

    /// Same experiment, executed on `jobs` worker threads (`0` = one
    /// per available core).
    #[must_use]
    pub fn with_jobs(&self, jobs: usize) -> Self {
        ExperimentConfig {
            jobs: simcore::parallel::resolve_jobs(jobs),
            ..*self
        }
    }

    /// Same experiment with the event-driven cycle-skipping fast path
    /// enabled or disabled.
    #[must_use]
    pub fn with_cycle_skip(&self, enabled: bool) -> Self {
        ExperimentConfig {
            cycle_skip: enabled,
            ..*self
        }
    }

    /// Same experiment with the exact core-side hit fast path enabled or
    /// disabled.
    #[must_use]
    pub fn with_fast_path(&self, enabled: bool) -> Self {
        ExperimentConfig {
            fast_path: enabled,
            ..*self
        }
    }

    /// Same experiment with set-sampled simulation: only `1/2^shift` of
    /// the last-level sets are simulated in full detail (`None` turns
    /// sampling off).
    #[must_use]
    pub fn with_sample_sets(&self, shift: Option<u32>) -> Self {
        ExperimentConfig {
            sample_shift: shift,
            ..*self
        }
    }

    /// Same experiment with time-sampled simulation: alternate `detail`
    /// detailed cycles with `gap` functionally warmed cycles (`None`
    /// turns time sampling off).
    #[must_use]
    pub fn with_time_sample(&self, pair: Option<(u64, u64)>) -> Self {
        ExperimentConfig {
            time_sample: pair,
            ..*self
        }
    }

    /// Applies `flag` when it is one of the five run-policy flags —
    /// `--jobs N`, `--no-skip`, `--no-fast-path`, `--sample-sets K`,
    /// `--time-sample D:G` — taking its value from `args`. Returns
    /// whether it matched, so a front end can try its own flags next.
    /// `nuca-sim` and the simulating figure binaries parse these flags
    /// only here.
    ///
    /// # Errors
    ///
    /// A message naming the flag when its value is missing or malformed.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> std::result::Result<bool, String> {
        match flag {
            "--no-skip" => self.cycle_skip = false,
            "--no-fast-path" => self.fast_path = false,
            "--jobs" => {
                self.jobs = simcore::parallel::resolve_jobs(parse_value(flag, args, parse_jobs)?)
            }
            "--sample-sets" => {
                self.sample_shift = Some(parse_value(flag, args, parse_sample_sets)?)
            }
            "--time-sample" => self.time_sample = Some(parse_value(flag, args, parse_time_sample)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Splits every `--flag=value` argument into `--flag` and `value`, so
/// each front end accepts both spellings of a valued flag.
pub fn flag_args(args: impl IntoIterator<Item = String>) -> impl Iterator<Item = String> {
    args.into_iter().flat_map(|arg| match arg.split_once('=') {
        Some((flag, value)) if flag.starts_with("--") => vec![flag.to_string(), value.to_string()],
        _ => vec![arg],
    })
}

/// The value after `flag`: present, non-empty and not another flag
/// (`"{flag} needs a value"` otherwise).
pub fn flag_value(flag: &str, next: Option<String>) -> std::result::Result<String, String> {
    next.filter(|v| !v.is_empty() && !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Reads `flag`'s value from `args` (see [`flag_value`]) and parses
/// it with `parse`, prefixing any error with the flag and the value.
pub fn parse_value<T>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
    parse: fn(&str) -> std::result::Result<T, String>,
) -> std::result::Result<T, String> {
    let v = flag_value(flag, args.next())?;
    parse(&v).map_err(|e| format!("{flag} {v}: {e}"))
}

fn count(v: &str) -> Option<u64> {
    v.trim().replace('_', "").parse().ok()
}

/// Parses a `--jobs` value: a worker count, `0` meaning one per
/// available core; anything else is an error message.
pub fn parse_jobs(v: &str) -> std::result::Result<usize, String> {
    count(v)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| "want a worker count (0 = one per available core)".to_string())
}

/// Parses a `--sample-sets` value: the set-sampling shift `K`
/// (simulate `1/2^K` of the last-level sets). A shift beyond 32 bits
/// is an error, never truncated.
pub fn parse_sample_sets(v: &str) -> std::result::Result<u32, String> {
    let k = count(v).ok_or_else(|| "want a set-sampling shift such as 4".to_string())?;
    u32::try_from(k).map_err(|_| "out of range (a shift fits in 32 bits)".to_string())
}

/// Parses a `--time-sample` value (also the campaign `time_sample`
/// axis spelling): `detail:gap` cycle counts. A malformed pair, or a
/// gap > 0 with no detailed window, is an error.
pub fn parse_time_sample(v: &str) -> std::result::Result<(u64, u64), String> {
    let (detail, gap) = v
        .split_once(':')
        .and_then(|(d, g)| Some((count(d)?, count(g)?)))
        .ok_or_else(|| "want detail:gap cycle counts such as 10000:40000".to_string())?;
    check_time_sample(detail, gap)?;
    Ok((detail, gap))
}

/// The rule every time-sampling schedule obeys: a non-zero gap needs a
/// non-zero detailed window, or there would be no detailed cycles to
/// measure IPC from. A zero gap is full detail, whatever the window.
pub(crate) fn check_time_sample(detail: u64, gap: u64) -> std::result::Result<(), String> {
    if detail == 0 && gap > 0 {
        return Err(
            "detail must be > 0 when gap > 0 (no detailed cycles to measure IPC from)".to_string(),
        );
    }
    Ok(())
}

/// Result of running one mix under one organization.
#[derive(Debug, Clone, PartialEq)]
pub struct MixResult {
    /// Which applications ran.
    pub mix: Mix,
    /// Organization label.
    pub organization: &'static str,
    /// The measured window.
    pub result: CmpResult,
    /// The recorded event trace, when a [`collector`] was active (or the
    /// cell ran through [`run_mix_traced`]); `None` on untraced runs.
    pub trace: Option<Trace>,
}

/// The quota vector an adaptive organization starts from (empty for
/// non-adaptive organizations): `local_assoc` blocks per set per core
/// (the paper's 75 % private + guaranteed shared block split).
pub fn initial_quotas(machine: &MachineConfig, org: Organization) -> Vec<u32> {
    match org {
        Organization::Adaptive(_) => {
            vec![machine.l3.private.total_ways(); machine.cores]
        }
        _ => Vec::new(),
    }
}

/// Builds the chip for one cell under `exp`: copies
/// [`ExperimentConfig::sample_shift`] into the machine (so the last
/// level gets the set-sampling estimator), constructs the chip over
/// `profiles` (one per core, each fast-forwarded by `forwards`) and
/// applies the execution policy — cycle skipping, the hit fast path
/// and the time-sampling schedule. This is the one site that turns an
/// [`ExperimentConfig`] into a configured [`Cmp`].
///
/// # Errors
///
/// Returns a configuration error if the sampled machine is invalid, the
/// workload does not match its core count, or the organization cannot
/// be built.
pub fn build_chip<S: Sink, P: Borrow<AppProfile>>(
    machine: &MachineConfig,
    org: Organization,
    profiles: &[P],
    forwards: &[u64],
    exp: &ExperimentConfig,
    sink: S,
) -> Result<Cmp<S>> {
    let mut machine = *machine;
    if exp.sample_shift.is_some() {
        machine.l3.sample_shift = exp.sample_shift;
        machine.validate()?;
    }
    let mut cmp = Cmp::with_profiles_and_sink(&machine, org, profiles, forwards, exp.seed, sink)?;
    cmp.set_cycle_skip(exp.cycle_skip);
    cmp.set_fast_path(exp.fast_path);
    if let Some((detail, gap)) = exp.time_sample {
        cmp.set_time_sample(detail, gap);
    }
    Ok(cmp)
}

/// Section 3's run protocol on a chip from [`build_chip`]: functional
/// warm, timed warm-up, statistics reset, measured window.
pub fn measure<S: Sink>(cmp: &mut Cmp<S>, exp: &ExperimentConfig) -> CmpResult {
    cmp.warm(exp.warm_instructions);
    cmp.run(exp.warmup_cycles);
    cmp.reset_stats();
    cmp.run(exp.measure_cycles);
    cmp.snapshot()
}

/// Runs one cell of arbitrary per-core profiles (parallel workloads as
/// well as mixes). When a [`collector`] is installed the run records
/// telemetry into a ring of the collector's capacity and returns the
/// finished [`Trace`]; otherwise the untraced ([`NullSink`]) build runs.
///
/// # Errors
///
/// Propagates configuration errors from [`build_chip`].
pub fn run_profiles<P: Borrow<AppProfile>>(
    machine: &MachineConfig,
    org: Organization,
    profiles: &[P],
    forwards: &[u64],
    exp: &ExperimentConfig,
) -> Result<(CmpResult, Option<Trace>)> {
    match collector::capacity() {
        Some(capacity) => run_recorded(machine, org, profiles, forwards, exp, capacity)
            .map(|(result, trace)| (result, Some(trace))),
        None => {
            let mut cmp = build_chip(machine, org, profiles, forwards, exp, NullSink)?;
            Ok((measure(&mut cmp, exp), None))
        }
    }
}

/// [`run_profiles`] into a recording sink of ring capacity `capacity`.
fn run_recorded<P: Borrow<AppProfile>>(
    machine: &MachineConfig,
    org: Organization,
    profiles: &[P],
    forwards: &[u64],
    exp: &ExperimentConfig,
    capacity: usize,
) -> Result<(CmpResult, Trace)> {
    let recorder = Recorder::with_capacity(capacity);
    let mut cmp = build_chip(machine, org, profiles, forwards, exp, recorder.clone())?;
    let result = measure(&mut cmp, exp);
    let meta = TraceMeta {
        org: org.label().to_string(),
        cores: machine.cores,
        ring_capacity: capacity,
        initial_quotas: initial_quotas(machine, org),
    };
    let trace = recorder.finish(meta, result.quotas.clone().unwrap_or_default());
    Ok((result, trace))
}

/// Runs one mix under one organization: warm-up, reset, measure. When a
/// [`collector`] is installed the run records telemetry into a ring of
/// the collector's capacity and carries the finished [`Trace`] in
/// [`MixResult::trace`]; otherwise the untraced ([`NullSink`]) build
/// runs.
///
/// # Errors
///
/// Propagates configuration errors from [`build_chip`].
pub fn run_mix(
    machine: &MachineConfig,
    org: Organization,
    mix: &Mix,
    exp: &ExperimentConfig,
) -> Result<MixResult> {
    let (result, trace) = run_profiles(machine, org, &mix.profiles(), &mix.forwards, exp)?;
    Ok(MixResult {
        mix: mix.clone(),
        organization: org.label(),
        result,
        trace,
    })
}

/// Runs one mix with a recording sink of ring capacity `capacity`,
/// independent of any process-wide collector, and returns the plain-data
/// trace alongside the result.
///
/// # Errors
///
/// Propagates configuration errors from [`build_chip`].
pub fn run_mix_traced(
    machine: &MachineConfig,
    org: Organization,
    mix: &Mix,
    exp: &ExperimentConfig,
    capacity: usize,
) -> Result<(MixResult, Trace)> {
    let (result, trace) =
        run_recorded(machine, org, &mix.profiles(), &mix.forwards, exp, capacity)?;
    Ok((
        MixResult {
            mix: mix.clone(),
            organization: org.label(),
            result,
            trace: None,
        },
        trace,
    ))
}

/// One independent cell of an experiment grid: a machine, an
/// organization and a mix. Cells share nothing mutable, which is what
/// makes [`run_cells`] deterministic under any thread count.
#[derive(Debug, Clone, Copy)]
pub struct SimCell<'a> {
    /// Machine to simulate (cells may use different machines, e.g. the
    /// base and technology-scaled configurations of Figure 10).
    pub machine: &'a MachineConfig,
    /// Last-level organization.
    pub org: Organization,
    /// Workload mix.
    pub mix: &'a Mix,
}

/// Runs every cell of a grid — on `exp.jobs` worker threads via
/// [`simcore::parallel::run_indexed`] — and returns the results in cell
/// order. Output is bit-identical for every `jobs` value.
///
/// # Errors
///
/// Propagates the first (in cell order) configuration error from
/// [`Cmp::new`].
pub fn run_cells(cells: &[SimCell<'_>], exp: &ExperimentConfig) -> Result<Vec<MixResult>> {
    let results: Result<Vec<MixResult>> =
        simcore::parallel::map_slice(exp.jobs, cells, |c| run_mix(c.machine, c.org, c.mix, exp))
            .into_iter()
            .collect();
    let mut results = results?;
    // Hand traces to the collector *after* the parallel map joined, in
    // cell order, so the collected stream is identical for every `jobs`
    // value.
    for r in &mut results {
        if let Some(trace) = r.trace.take() {
            collector::submit(trace);
        }
    }
    Ok(results)
}

/// Runs the same mix under several organizations (the Figure 6–12
/// pattern). Results are in the same order as `orgs`.
///
/// # Errors
///
/// Propagates configuration errors from [`Cmp::new`].
pub fn compare_schemes(
    machine: &MachineConfig,
    orgs: &[Organization],
    mix: &Mix,
    exp: &ExperimentConfig,
) -> Result<Vec<MixResult>> {
    let cells: Vec<SimCell<'_>> = orgs
        .iter()
        .map(|&org| SimCell { machine, org, mix })
        .collect();
    run_cells(&cells, exp)
}

/// One row of the Figure 5 classification.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// The application.
    pub app: SpecApp,
    /// Measured last-level accesses per thousand cycles.
    pub accesses_per_kilocycle: f64,
    /// Measured IPC (private organization).
    pub ipc: f64,
    /// Whether it crosses the paper's nine-per-thousand threshold.
    pub intensive: bool,
}

/// Figure 5: classifies every application by last-level intensity,
/// running each alone (replicated on all cores) over private slices.
///
/// # Errors
///
/// Propagates configuration errors from [`Cmp::new`].
/// Derives a single-core machine with one private slice of the original
/// machine's per-core L3 — the paper characterizes applications
/// individually (Figures 3 and 5), without neighbors contending for the
/// off-chip bus.
fn characterization_machine(machine: &MachineConfig) -> Result<MachineConfig> {
    MachineConfigBuilder::new()
        .cores(1)
        .pipeline(machine.pipeline)
        .branch(machine.branch)
        .tlb(machine.tlb)
        .memory(machine.memory)
        .l2_size(machine.l2.size_bytes())
        .l3_capacity(machine.l3.private.size_bytes())
        .l3_private_latency(machine.l3.private.latency())
        .l3_shared_latency(machine.l3.shared.latency())
        .l3_neighbor_latency(machine.l3.neighbor_latency)
        .build()
}

pub fn classify(machine: &MachineConfig, exp: &ExperimentConfig) -> Result<Vec<Classification>> {
    let single = characterization_machine(machine)?;
    let mixes: Vec<Mix> = SpecApp::ALL
        .into_iter()
        .map(|app| WorkloadPool::homogeneous(app, single.cores, exp.seed))
        .collect();
    let cells: Vec<SimCell<'_>> = mixes
        .iter()
        .map(|mix| SimCell {
            machine: &single,
            org: Organization::Private,
            mix,
        })
        .collect();
    let results = run_cells(&cells, exp)?;
    Ok(SpecApp::ALL
        .into_iter()
        .zip(&results)
        .map(|(app, r)| {
            let stats = r.result.per_core[0].1;
            let apkc = stats.l3_accesses_per_kilocycle();
            Classification {
                app,
                accesses_per_kilocycle: apkc,
                ipc: stats.ipc(),
                intensive: apkc > 9.0,
            }
        })
        .collect())
}

/// One point of the Figure 3 sensitivity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityPoint {
    /// Blocks per set (associativity with the set count fixed).
    pub blocks_per_set: u32,
    /// Last-level misses observed in the measured window (core 0).
    pub misses: u64,
    /// Last-level accesses in the window (core 0).
    pub accesses: u64,
}

/// Figure 3: misses as a function of blocks per set, with the set count
/// fixed at the baseline's 4096. Each point runs `app` alone over private
/// slices of the requested associativity.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sensitivity_sweep(
    machine: &MachineConfig,
    app: SpecApp,
    ways: &[u32],
    exp: &ExperimentConfig,
) -> Result<Vec<SensitivityPoint>> {
    let mut rows = sensitivity_grid(machine, &[app], ways, exp)?;
    Ok(rows.pop().unwrap_or_default())
}

/// The full Figure 3 grid — every `(app, ways)` pair is one independent
/// cell, so the whole figure parallelizes as a single flat work list
/// instead of one serial sweep per application. Returns one row of
/// points per app, in `apps` order.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sensitivity_grid(
    machine: &MachineConfig,
    apps: &[SpecApp],
    ways: &[u32],
    exp: &ExperimentConfig,
) -> Result<Vec<Vec<SensitivityPoint>>> {
    let single = characterization_machine(machine)?;
    let sets = machine.l3.private.sets();
    let block = machine.l3.private.block_bytes();
    let latency = machine.l3.private.latency();
    let orgs: Vec<Organization> = ways
        .iter()
        .map(|&w| {
            let geometry = CacheGeometry::new(sets * w as u64 * block as u64, w, block, latency)?;
            Ok(Organization::PrivateCustom { geometry })
        })
        .collect::<Result<_>>()?;
    let mixes: Vec<Mix> = apps
        .iter()
        .map(|&app| WorkloadPool::homogeneous(app, single.cores, exp.seed))
        .collect();
    let cells: Vec<SimCell<'_>> = mixes
        .iter()
        .flat_map(|mix| {
            orgs.iter().map(|&org| SimCell {
                machine: &single,
                org,
                mix,
            })
        })
        .collect();
    let results = run_cells(&cells, exp)?;
    Ok(results
        .chunks(ways.len().max(1))
        .map(|row| {
            row.iter()
                .zip(ways)
                .map(|(r, &w)| {
                    let stats = r.result.per_core[0].1;
                    SensitivityPoint {
                        blocks_per_set: w,
                        misses: stats.l3_misses,
                        accesses: stats.l3_accesses,
                    }
                })
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_mix_measures_requested_window() {
        let machine = MachineConfig::baseline();
        let exp = ExperimentConfig::quick();
        let mix = WorkloadPool::homogeneous(SpecApp::Gzip, 4, 1);
        let r = run_mix(&machine, Organization::Private, &mix, &exp).unwrap();
        assert_eq!(r.result.per_core[0].1.cycles, exp.measure_cycles);
        assert_eq!(r.organization, "private");
    }

    #[test]
    fn compare_schemes_aligns_mixes() {
        let machine = MachineConfig::baseline();
        let exp = ExperimentConfig::quick();
        let mix = WorkloadPool::homogeneous(SpecApp::Parser, 4, 2);
        let rs = compare_schemes(
            &machine,
            &[Organization::Private, Organization::Shared],
            &mix,
            &exp,
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].mix, rs[1].mix);
    }

    #[test]
    fn instrumented_run_matches_run_mix_in_both_modes() {
        // The fast-path counters are a pure side channel: a chip from
        // the builder measures bit-identically to run_mix with the fast
        // path on AND off, and the counters reflect the requested mode.
        let machine = MachineConfig::baseline();
        let exp = ExperimentConfig::quick();
        let mix = WorkloadPool::homogeneous(SpecApp::Gzip, 4, 1);
        let instrumented = |exp: &ExperimentConfig| {
            let org = Organization::Private;
            let mut cmp =
                build_chip(&machine, org, &mix.profiles(), &mix.forwards, exp, NullSink).unwrap();
            let result = measure(&mut cmp, exp);
            (result, cmp.fast_path_stats())
        };
        let plain = run_mix(&machine, Organization::Private, &mix, &exp).unwrap();
        let (on, fast) = instrumented(&exp);
        assert_eq!(plain.result, on);
        assert!(fast.data_fast_hits > 0, "fast path fired: {fast:?}");
        let (off, off_fast) = instrumented(&exp.with_fast_path(false));
        assert_eq!(plain.result, off, "--no-fast-path changed the result");
        assert_eq!(off_fast.data_fast_hits + off_fast.inst_fast_hits, 0);
        assert!(off_fast.data_slow > 0);
    }

    #[test]
    fn run_policy_flags_parse_in_both_spellings_and_reject_bad_values() {
        fn parse(args: &[&str]) -> std::result::Result<ExperimentConfig, String> {
            let mut exp = ExperimentConfig::quick();
            let mut it = flag_args(args.iter().map(|a| a.to_string()));
            while let Some(flag) = it.next() {
                if !exp.parse_flag(&flag, &mut it)? {
                    return Err(format!("unknown argument {flag}"));
                }
            }
            Ok(exp)
        }
        let base = ExperimentConfig::quick();
        let accepted: [(&[&str], ExperimentConfig); 10] = [
            (&[], base),
            (&["--no-skip"], base.with_cycle_skip(false)),
            (&["--no-fast-path"], base.with_fast_path(false)),
            (&["--jobs", "3"], base.with_jobs(3)),
            (&["--jobs=3"], base.with_jobs(3)),
            (&["--sample-sets", "4"], base.with_sample_sets(Some(4))),
            (&["--sample-sets=0"], base.with_sample_sets(Some(0))),
            (
                &["--time-sample", "1000:4000"],
                base.with_time_sample(Some((1_000, 4_000))),
            ),
            (
                &["--time-sample=5000:0"],
                base.with_time_sample(Some((5_000, 0))),
            ),
            (
                &["--no-skip", "--no-fast-path"],
                base.with_cycle_skip(false).with_fast_path(false),
            ),
        ];
        for (args, want) in accepted {
            assert_eq!(parse(args), Ok(want), "{args:?}");
        }
        let rejected: [(&[&str], &str); 11] = [
            (&["--jobs", "many"], "worker count"),
            (&["--jobs=-1"], "worker count"),
            (&["--jobs"], "needs a value"),
            (&["--jobs", "--no-skip"], "needs a value"),
            (&["--sample-sets", "-4"], "set-sampling shift"),
            (&["--sample-sets", "4294967297"], "out of range"),
            (&["--sample-sets="], "needs a value"),
            (&["--time-sample", "0:5"], "detail must be > 0"),
            (&["--time-sample", "1000:x"], "detail:gap"),
            (&["--time-sample", "1000"], "detail:gap"),
            (&["--time-sampel", "1000:4000"], "unknown argument"),
        ];
        for (args, message) in rejected {
            match parse(args) {
                Err(e) => assert!(e.contains(message), "{args:?}: {e}"),
                Ok(exp) => panic!("{args:?} must be rejected, parsed {exp:?}"),
            }
        }
    }

    #[test]
    fn sensitivity_sweep_is_monotone_enough() {
        // More blocks per set can only help (within noise): the last
        // point must not have more misses than the first.
        let machine = MachineConfig::baseline();
        let exp = ExperimentConfig::quick();
        let points = sensitivity_sweep(&machine, SpecApp::Gzip, &[1, 4, 8], &exp).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[2].misses <= points[0].misses);
    }
}
