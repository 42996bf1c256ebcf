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

use simcore::config::{CacheGeometry, MachineConfig, MachineConfigBuilder};
use simcore::error::Result;
use telemetry::{collector, NullSink, Recorder, Sink, Trace, TraceMeta};
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
    /// Worker threads for independent simulation cells (see
    /// [`run_cells`]). `1` runs everything serially; results are
    /// bit-identical for every value because each cell is
    /// self-contained. This is an execution policy, not part of the
    /// experiment's identity.
    pub jobs: usize,
    /// Whether [`Cmp::run`] may use the event-driven cycle-skipping fast
    /// path. Like `jobs`, an execution policy: results are bit-identical
    /// either way (enforced by the differential tests and the CI
    /// exactness-differential job); `false` is the `--no-skip` escape hatch
    /// that keeps the reference stepping loop alive.
    pub cycle_skip: bool,
    /// Whether cores may use the exact hit fast path (fused TLB+L1
    /// probe, memo-served lookups, warm trace decode, issue-scan
    /// hint). Another execution policy: results are bit-identical
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
            seed: 2007,
            jobs: 1,
            cycle_skip: true,
            fast_path: true,
            sample_shift: None,
            time_sample: None,
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

/// Section 3's run protocol with an arbitrary sink: warm-up, reset,
/// measure.
fn drive<S: Sink>(
    machine: &MachineConfig,
    org: Organization,
    mix: &Mix,
    exp: &ExperimentConfig,
    sink: S,
) -> Result<MixResult> {
    // Sampling is requested per experiment but built per machine: copy
    // the machine and set the L3 sampling knob so `L3System::build` adds
    // the estimator wrapper.
    let mut machine = *machine;
    if exp.sample_shift.is_some() {
        machine.l3.sample_shift = exp.sample_shift;
    }
    let machine = &machine;
    let mut cmp = Cmp::new_with_sink(machine, org, mix, exp.seed, sink)?;
    cmp.set_cycle_skip(exp.cycle_skip);
    cmp.set_fast_path(exp.fast_path);
    if let Some((detail, gap)) = exp.time_sample {
        cmp.set_time_sample(detail, gap);
    }
    cmp.warm(exp.warm_instructions);
    cmp.run(exp.warmup_cycles);
    cmp.reset_stats();
    cmp.run(exp.measure_cycles);
    Ok(MixResult {
        mix: mix.clone(),
        organization: org.label(),
        result: cmp.snapshot(),
        trace: None,
    })
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

/// Runs one mix under one organization: warm-up, reset, measure. When a
/// [`collector`] is installed the run records telemetry into a ring of
/// the collector's capacity and carries the finished [`Trace`] in
/// [`MixResult::trace`]; otherwise the untraced ([`NullSink`]) build
/// runs.
///
/// # Errors
///
/// Propagates configuration errors from [`Cmp::new`].
pub fn run_mix(
    machine: &MachineConfig,
    org: Organization,
    mix: &Mix,
    exp: &ExperimentConfig,
) -> Result<MixResult> {
    match collector::capacity() {
        Some(capacity) => {
            let (mut result, trace) = run_mix_traced(machine, org, mix, exp, capacity)?;
            result.trace = Some(trace);
            Ok(result)
        }
        None => drive(machine, org, mix, exp, NullSink),
    }
}

/// Runs one mix with a recording sink of ring capacity `capacity`,
/// independent of any process-wide collector, and returns the plain-data
/// trace alongside the result. This is the entry point tests and the
/// CLI use; [`run_mix`] routes through it when a collector is active.
///
/// # Errors
///
/// Propagates configuration errors from [`Cmp::new`].
pub fn run_mix_traced(
    machine: &MachineConfig,
    org: Organization,
    mix: &Mix,
    exp: &ExperimentConfig,
    capacity: usize,
) -> Result<(MixResult, Trace)> {
    let recorder = Recorder::with_capacity(capacity);
    let result = drive(machine, org, mix, exp, recorder.clone())?;
    let meta = TraceMeta {
        org: org.label().to_string(),
        cores: machine.cores,
        ring_capacity: capacity,
        initial_quotas: initial_quotas(machine, org),
    };
    let final_quotas = result.result.quotas.clone().unwrap_or_default();
    let trace = recorder.finish(meta, final_quotas);
    Ok((result, trace))
}

/// Like [`run_mix`] (untraced), additionally returning the chip's
/// fast-path effectiveness counters for the measured window. The
/// counters are a perf-attribution side channel: the [`MixResult`] is
/// bit-identical to [`run_mix`]'s for the same experiment, fast path on
/// or off (off, the fast-hit counters are zero and everything lands in
/// the slow buckets).
///
/// # Errors
///
/// Propagates configuration errors from [`Cmp::new`].
pub fn run_mix_instrumented(
    machine: &MachineConfig,
    org: Organization,
    mix: &Mix,
    exp: &ExperimentConfig,
) -> Result<(MixResult, cpusim::FastPathStats)> {
    let mut machine = *machine;
    if exp.sample_shift.is_some() {
        machine.l3.sample_shift = exp.sample_shift;
    }
    let mut cmp = Cmp::new(&machine, org, mix, exp.seed)?;
    cmp.set_cycle_skip(exp.cycle_skip);
    cmp.set_fast_path(exp.fast_path);
    if let Some((detail, gap)) = exp.time_sample {
        cmp.set_time_sample(detail, gap);
    }
    cmp.warm(exp.warm_instructions);
    cmp.run(exp.warmup_cycles);
    cmp.reset_stats();
    cmp.run(exp.measure_cycles);
    Ok((
        MixResult {
            mix: mix.clone(),
            organization: org.label(),
            result: cmp.snapshot(),
            trace: None,
        },
        cmp.fast_path_stats(),
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
        // The counters are a pure side channel: the MixResult must be
        // bit-identical to run_mix's with the fast path on AND off, and
        // the counters must reflect the requested mode.
        let machine = MachineConfig::baseline();
        let exp = ExperimentConfig::quick();
        let mix = WorkloadPool::homogeneous(SpecApp::Gzip, 4, 1);
        let plain = run_mix(&machine, Organization::Private, &mix, &exp).unwrap();
        let (on, fast) = run_mix_instrumented(&machine, Organization::Private, &mix, &exp).unwrap();
        assert_eq!(plain, on);
        assert!(fast.data_fast_hits > 0, "fast path fired: {fast:?}");
        let off_exp = exp.with_fast_path(false);
        let (off, off_fast) =
            run_mix_instrumented(&machine, Organization::Private, &mix, &off_exp).unwrap();
        assert_eq!(plain, off, "--no-fast-path changed the result");
        assert_eq!(off_fast.data_fast_hits + off_fast.inst_fast_hits, 0);
        assert!(off_fast.data_slow > 0);
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
