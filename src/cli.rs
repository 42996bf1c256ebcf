//! Command-line driver: configure and run one simulation without writing
//! any Rust. Used by the `nuca-sim` binary.
//!
//! ```text
//! nuca-sim --org adaptive --apps ammp,gzip,crafty,eon
//! nuca-sim --org shared --apps art,mesa,gap,facerec --measure 2000000
//! nuca-sim --org adaptive --parallel galgel:0.4:2048 --tech-scaled
//! nuca-sim --org private,shared,adaptive --apps ammp,art,twolf,vpr --jobs 3
//! ```

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use nuca_core::cmp::{Cmp, CmpResult};
use nuca_core::engine::AdaptiveParams;
use nuca_core::experiment::{build_chip, flag_args, flag_value, measure, ExperimentConfig};
use nuca_core::l3::Organization;
use simcore::config::MachineConfig;
use simcore::error::ConfigError;
use telemetry::{NullSink, Recorder, Sink, Trace, TraceMeta};
use tracegen::profile::AppProfile;
use tracegen::spec::SpecApp;
use tracegen::workload::{parallel_workload, WorkloadPool};

/// How many trailing telemetry events a paranoid failure report dumps.
const PARANOID_TAIL: usize = 32;

/// A fully parsed simulation request.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// The machine to simulate.
    pub machine: MachineConfig,
    /// The last-level organizations to run, in request order. Each one
    /// is an independent simulation cell; [`run_all`] executes them on
    /// `exp.jobs` worker threads.
    pub organizations: Vec<Organization>,
    /// One profile handle per core (replicated workloads share one
    /// allocation).
    pub profiles: Vec<Arc<AppProfile>>,
    /// Fast-forward per core.
    pub forwards: Vec<u64>,
    /// The windows, the seed and the run policy (`--jobs`, `--no-skip`,
    /// `--no-fast-path`, `--sample-sets`, `--time-sample`).
    pub exp: ExperimentConfig,
    /// Audit L3 structural invariants after every step (slow).
    pub paranoid: bool,
    /// Write a JSONL event trace here (one section per organization, in
    /// request order; identical for every `jobs` value).
    pub trace: Option<PathBuf>,
    /// Write the aggregated metrics JSON document here.
    pub metrics_out: Option<PathBuf>,
}

impl SimRequest {
    /// Whether this request records telemetry: any export target, or
    /// `--paranoid` (so a failing audit can dump the event-ring tail).
    pub fn recording(&self) -> bool {
        self.trace.is_some() || self.metrics_out.is_some() || self.paranoid
    }
}

/// Error from argument parsing, or the request for help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    message: String,
    help: bool,
}

impl CliError {
    fn new(msg: impl Into<String>) -> Self {
        CliError {
            message: msg.into(),
            help: false,
        }
    }

    /// `--help` or `-h`: the message is [`USAGE`], for standard output.
    fn help() -> Self {
        CliError {
            message: USAGE.to_string(),
            help: true,
        }
    }

    /// Whether this is a request for help rather than an argument error.
    pub fn is_help(&self) -> bool {
        self.help
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::new(e.to_string())
    }
}

/// Usage text for the `nuca-sim` binary.
pub const USAGE: &str = "\
nuca-sim — simulate a multiprogrammed or parallel workload on a NUCA CMP

USAGE:
    nuca-sim --org <ORGS> (--apps <A,B,C,D> | --parallel <APP:FRAC:KB>) [OPTIONS]
    nuca-sim campaign <spec.toml> [--out PATH] [--shard K/N] [--resume]
                      [--jobs N] [--sample-sets K] [--fail-after N]
    nuca-sim campaign merge <merged.jsonl> <shard.jsonl>...

    The campaign subcommand expands a declarative sweep spec (see
    specs/*.toml and DESIGN.md) into a cell grid and runs it with
    warm-state forking, crash-safe sharding and --resume.

REQUIRED:
    --org <ORGS>           comma-separated list drawn from: private |
                           private4x | shared | adaptive | cooperative
                           (each runs as an independent simulation)
    --apps <LIST>          comma-separated SPEC2000 names, one per core
    --parallel <SPEC>      instead of --apps: APP:SHARED_FRAC:SHARED_KB
                           (e.g. galgel:0.4:2048) replicated on every core

OPTIONS:
    --seed <N>             master seed                     [default: 2007]
    --warm <N>             functional warm instructions    [default: 3000000]
    --warmup <N>           timed warm-up cycles            [default: 1000000]
    --measure <N>          measured cycles                 [default: 1500000]
    --l3-mb <N>            aggregate L3 capacity in MiB    [default: 4]
    --tech-scaled          apply the Figure 10 latency scaling
    --reeval <N>           adaptive re-evaluation period   [default: 2000]
    --jobs <N>             host threads a run may use: cells first,
                           then each cell's warm (0 = one per core;
                           output is bit-identical to --jobs 1)
                                                           [default: 1]
    --paranoid             audit L3 structural invariants after every
                           timed step; abort on the first violation (slow),
                           dumping the tail of the telemetry event ring
    --no-skip              disable event-driven cycle skipping and run the
                           reference stepping loop (bit-identical output,
                           slower; exists as a differential check)
    --no-fast-path         disable the exact core-side hit fast path
                           (fused TLB+L1 probe/walk, memo-served
                           lookups, pipeline bookkeeping bypass) and run
                           the reference walks (bit-identical output,
                           slower; exists as a differential check)
    --sample-sets <K>      simulate only 1/2^K of the L3 sets in full
                           detail and charge the rest a calibrated
                           latency estimate (SMARTS-style confidence
                           bounds are reported; 0 = full membership
                           through the estimator, bit-identical to
                           omitting the flag)
    --time-sample <D:G>    alternate D cycle-accurate cycles with G
                           functionally warmed cycles (caches, quotas
                           and predictors stay warm; pipeline timing is
                           skipped). IPC comes from the detailed windows
                           with SMARTS confidence bounds; a gap of 0 is
                           bit-identical to omitting the flag
    --trace <PATH>         write a JSONL event trace covering every
                           requested organization (sections in request
                           order; identical for every --jobs value)
    --metrics-out <PATH>   write the aggregated metrics JSON document
    --help                 print this text
";

/// Parses command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`CliError`] with a human-readable message for any invalid or
/// missing argument, and [`CliError::is_help`] set for `--help`/`-h`.
pub fn parse_args(args: &[String]) -> Result<SimRequest, CliError> {
    let mut org_name: Option<String> = None;
    let mut apps: Option<Vec<SpecApp>> = None;
    let mut parallel: Option<(SpecApp, f64, u64)> = None;
    let mut exp = ExperimentConfig::default();
    let mut l3_mb = 4u64;
    let mut tech_scaled = false;
    let mut reeval = 2000u64;
    let mut paranoid = false;
    let mut trace: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;

    let mut it = flag_args(args.iter().cloned());
    while let Some(arg) = it.next() {
        if exp.parse_flag(&arg, &mut it).map_err(CliError::new)? {
            continue;
        }
        let flag = arg.as_str();
        let mut value = || flag_value(flag, it.next()).map_err(CliError::new);
        match flag {
            "--org" => org_name = Some(value()?),
            "--apps" => {
                let list = value()?;
                let parsed: Result<Vec<SpecApp>, _> = list
                    .split(',')
                    .map(|s| s.trim().parse::<SpecApp>())
                    .collect();
                apps = Some(parsed.map_err(|e| CliError::new(e.to_string()))?);
            }
            "--parallel" => {
                let spec = value()?;
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 3 {
                    return Err(CliError::new("--parallel expects APP:FRAC:KB"));
                }
                let app = parts[0]
                    .parse::<SpecApp>()
                    .map_err(|e| CliError::new(e.to_string()))?;
                let frac = parts[1]
                    .parse::<f64>()
                    .map_err(|_| CliError::new("bad shared fraction"))?;
                let kb = parts[2]
                    .parse::<u64>()
                    .map_err(|_| CliError::new("bad shared size"))?;
                parallel = Some((app, frac, kb));
            }
            "--seed" => exp.seed = parse_u64(&value()?)?,
            "--warm" => exp.warm_instructions = parse_u64(&value()?)?,
            "--warmup" => exp.warmup_cycles = parse_u64(&value()?)?,
            "--measure" => exp.measure_cycles = parse_u64(&value()?)?,
            "--l3-mb" => l3_mb = parse_u64(&value()?)?,
            "--reeval" => reeval = parse_u64(&value()?)?,
            "--trace" => trace = Some(PathBuf::from(value()?)),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value()?)),
            "--tech-scaled" => tech_scaled = true,
            "--paranoid" => paranoid = true,
            "--help" | "-h" => return Err(CliError::help()),
            other => return Err(CliError::new(format!("unknown argument: {other}"))),
        }
    }

    let l3_bytes = l3_mb
        .checked_mul(1024 * 1024)
        .ok_or_else(|| CliError::new(format!("--l3-mb {l3_mb} is out of range")))?;
    let mut machine = simcore::config::MachineConfigBuilder::new()
        .l3_capacity(l3_bytes)
        .build()?;
    if tech_scaled {
        machine = machine.technology_scaled();
    }
    if exp.sample_shift.is_some() {
        machine.l3.sample_shift = exp.sample_shift;
        machine.validate()?;
    }
    let seed = exp.seed;

    let organizations = match org_name.as_deref() {
        Some(list) => list
            .split(',')
            .map(|name| match name.trim() {
                "private" => Ok(Organization::Private),
                "private4x" => Ok(Organization::PrivateScaled { factor: 4 }),
                "shared" => Ok(Organization::Shared),
                "adaptive" => Ok(Organization::Adaptive(AdaptiveParams {
                    reeval_period: reeval,
                    ..AdaptiveParams::default()
                })),
                "cooperative" => Ok(Organization::Cooperative { seed }),
                other => Err(CliError::new(format!("unknown organization: {other}"))),
            })
            .collect::<Result<Vec<Organization>, CliError>>()?,
        None => return Err(CliError::new("--org is required (see --help)")),
    };
    if organizations.is_empty() {
        return Err(CliError::new("--org needs at least one organization"));
    }
    if paranoid && exp.time_sample.is_some_and(|(_, gap)| gap > 0) {
        return Err(CliError::new(
            "--paranoid audits every timed cycle and cannot be combined with \
             a non-zero --time-sample gap",
        ));
    }

    let (profiles, forwards) = match (apps, parallel) {
        (Some(apps), None) => {
            if apps.len() != machine.cores {
                return Err(CliError::new(format!(
                    "need exactly {} applications, got {}",
                    machine.cores,
                    apps.len()
                )));
            }
            let profiles = apps.iter().map(|a| Arc::new(a.profile().clone())).collect();
            let mix = WorkloadPool::random_mixes(&apps, machine.cores, 1, seed)
                .pop()
                .ok_or_else(|| CliError::new("workload pool produced no mix"))?;
            (profiles, mix.forwards)
        }
        (None, Some((app, frac, kb))) => {
            let (profiles, forwards) = parallel_workload(app, machine.cores, frac, kb, seed);
            // The spec overrides the preset's sharing, so check the result.
            for p in &profiles {
                p.validate()?;
            }
            (profiles, forwards)
        }
        (Some(_), Some(_)) => {
            return Err(CliError::new(
                "--apps and --parallel are mutually exclusive",
            ))
        }
        (None, None) => return Err(CliError::new("one of --apps or --parallel is required")),
    };

    Ok(SimRequest {
        machine,
        organizations,
        profiles,
        forwards,
        exp,
        paranoid,
        trace,
        metrics_out,
    })
}

fn parse_u64(s: &str) -> Result<u64, CliError> {
    s.replace('_', "")
        .parse::<u64>()
        .map_err(|_| CliError::new(format!("expected a number, got {s}")))
}

/// Runs the request's first organization to completion (the common
/// single-organization invocation).
///
/// With `paranoid` set, the L3 structure is audited after every timed
/// step (warm-up and measurement), and the run aborts with the violation
/// list at the first inconsistency.
///
/// # Errors
///
/// Returns [`CliError`] if no organization was requested, the chip
/// cannot be built, or a paranoid run finds a structural violation.
pub fn run(req: &SimRequest) -> Result<CmpResult, CliError> {
    let org = *req
        .organizations
        .first()
        .ok_or_else(|| CliError::new("no organization requested"))?;
    run_one(req, org).map(|(result, _)| result)
}

/// Runs every requested organization — on `req.exp.jobs` worker threads via
/// the deterministic runner — and returns `(label, result)` pairs in
/// request order. Output is bit-identical for every `jobs` value.
///
/// When `--trace` / `--metrics-out` were requested, this is also where
/// the files are written: one JSONL trace with a section per
/// organization in request order, and one metrics document.
///
/// # Errors
///
/// Returns the first (in request order) [`CliError`] from any run, or a
/// file-system error from writing an export target.
pub fn run_all(req: &SimRequest) -> Result<Vec<(&'static str, CmpResult)>, CliError> {
    let outcomes: Result<Vec<_>, CliError> =
        simcore::parallel::map_slice(req.exp.jobs, &req.organizations, |&org| {
            run_one(req, org).map(|(result, trace)| (org.label(), result, trace))
        })
        .into_iter()
        .collect();
    let mut results = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    for (label, result, trace) in outcomes? {
        results.push((label, result));
        traces.extend(trace);
    }
    if let Some(path) = &req.trace {
        write_export(path, &telemetry::export::render_jsonl(&traces))?;
    }
    if let Some(path) = &req.metrics_out {
        write_export(path, &telemetry::export::metrics_json(&traces).render())?;
    }
    Ok(results)
}

fn write_export(path: &PathBuf, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::new(format!("cannot write {}: {e}", path.display())))
}

fn run_one(req: &SimRequest, org: Organization) -> Result<(CmpResult, Option<Trace>), CliError> {
    let (machine, exp) = (&req.machine, &req.exp);
    if req.recording() {
        let recorder = Recorder::with_capacity(Recorder::DEFAULT_CAPACITY);
        let mut cmp = build_chip(
            machine,
            org,
            &req.profiles,
            &req.forwards,
            exp,
            recorder.clone(),
        )?;
        let result = drive(&mut cmp, req, Some(&recorder))?;
        let meta = TraceMeta {
            org: org.label().to_string(),
            cores: req.machine.cores,
            ring_capacity: Recorder::DEFAULT_CAPACITY,
            initial_quotas: nuca_core::experiment::initial_quotas(&req.machine, org),
        };
        let trace = recorder.finish(meta, result.quotas.clone().unwrap_or_default());
        Ok((result, Some(trace)))
    } else {
        let mut cmp = build_chip(machine, org, &req.profiles, &req.forwards, exp, NullSink)?;
        Ok((drive(&mut cmp, req, None)?, None))
    }
}

fn drive<S: Sink>(
    cmp: &mut Cmp<S>,
    req: &SimRequest,
    recorder: Option<&Recorder>,
) -> Result<CmpResult, CliError> {
    if !req.paranoid {
        return Ok(measure(cmp, &req.exp));
    }
    cmp.warm(req.exp.warm_instructions);
    paranoid_phase(cmp, req.exp.warmup_cycles, "warm-up", recorder)?;
    cmp.reset_stats();
    paranoid_phase(cmp, req.exp.measure_cycles, "measurement", recorder)?;
    Ok(cmp.snapshot())
}

fn paranoid_phase<S: Sink>(
    cmp: &mut Cmp<S>,
    cycles: u64,
    phase: &str,
    recorder: Option<&Recorder>,
) -> Result<(), CliError> {
    cmp.run_paranoid(cycles).map_err(|(cycle, violations)| {
        use std::fmt::Write as _;
        let mut msg = format!(
            "paranoid audit failed during {phase} at cycle {}: {} violation(s)",
            cycle.raw(),
            violations.len()
        );
        for v in violations {
            let _ = write!(msg, "\n  {v}");
        }
        if let Some(rec) = recorder {
            let tail = rec.tail(PARANOID_TAIL);
            let _ = write!(
                msg,
                "\nlast {} of {} telemetry events:",
                tail.len(),
                rec.emitted()
            );
            for r in &tail {
                let _ = write!(
                    msg,
                    "\n  [seq {} cycle {}] {:?}",
                    r.seq,
                    r.at.raw(),
                    r.event
                );
            }
        }
        CliError::new(msg)
    })
}

/// Renders one organization's result the way the `fig*` binaries do.
pub fn render(req: &SimRequest, org_label: &str, result: &CmpResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "organization : {org_label}");
    let _ = writeln!(
        out,
        "window       : {} warm instr + {} warm-up + {} measured cycles (seed {})",
        req.exp.warm_instructions, req.exp.warmup_cycles, req.exp.measure_cycles, req.exp.seed
    );
    // `result.ipc[i]` equals `s.ipc()` on full-detail runs and is the
    // detailed-window estimate on time-sampled ones (raw counters also
    // count functional retires, so `s.ipc()` would be meaningless
    // there).
    for (i, (app, s)) in result.per_core.iter().enumerate() {
        let _ = writeln!(
            out,
            "core {i} {app:<8} IPC {:.4}  L3 acc {:>7}  local {:>7}  remote {:>6}  miss {:>7}",
            result.ipc[i], s.l3_accesses, s.l3_local_hits, s.l3_remote_hits, s.l3_misses
        );
    }
    let _ = writeln!(out, "harmonic IPC : {:.4}", result.hmean_ipc);
    let _ = writeln!(out, "average IPC  : {:.4}", result.amean_ipc);
    if let Some(q) = &result.quotas {
        let _ = writeln!(out, "quotas       : {q:?}");
    }
    // Shift 0 (full membership through the estimator) prints nothing, so
    // its output stays byte-identical to a full run — the e2e
    // differential test depends on that.
    if let Some(samp) = &result.sampling {
        if samp.shift > 0 {
            let _ = writeln!(
                out,
                "sampling     : {}/{} sets (shift {}), {} sampled / {} estimated accesses, mean L3 {:.1} cyc, rel err {:.3}% (95% CI)",
                samp.sampled_sets,
                samp.total_sets,
                samp.shift,
                samp.sampled_accesses,
                samp.estimated_accesses,
                samp.mean_latency,
                samp.relative_error * 100.0
            );
        }
    }
    // A `None` report (full-detail runs, including a 0-gap schedule)
    // prints nothing, keeping `--time-sample d:0` output byte-identical
    // to a plain run — the e2e differential test depends on that.
    if let Some(ts) = &result.time_sampling {
        let _ = writeln!(
            out,
            "time-sample  : {} full windows of {} cycles + {}-cycle gaps ({} detailed / {} functional cycles), window hmean IPC {:.4} ± {:.3}% (95% CI)",
            ts.windows,
            ts.detail,
            ts.gap,
            ts.detailed_cycles,
            ts.functional_cycles,
            ts.mean_window_hmean_ipc,
            ts.relative_ci95 * 100.0
        );
    }
    if req.paranoid {
        let _ = writeln!(
            out,
            "paranoid     : audited after each of {} timed cycles, zero violations",
            req.exp.warmup_cycles + req.exp.measure_cycles
        );
    }
    let _ = writeln!(
        out,
        "bus          : {} fills, mean queue {:.1} cycles",
        result.memory.requests,
        result.memory.mean_queue_delay()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_a_minimal_multiprogrammed_request() {
        let req = parse_args(&argv("--org adaptive --apps ammp,gzip,crafty,eon")).unwrap();
        assert_eq!(req.profiles.len(), 4);
        assert_eq!(req.organizations.len(), 1);
        assert_eq!(req.organizations[0].label(), "adaptive");
        assert_eq!(req.exp.seed, 2007);
        assert_eq!(req.exp.jobs, 1);
        assert!(req.exp.cycle_skip);
    }

    #[test]
    fn parses_sample_sets_and_validates_the_shift() {
        let req = parse_args(&argv(
            "--org shared --apps ammp,gzip,crafty,eon --sample-sets 4",
        ))
        .unwrap();
        assert_eq!(req.exp.sample_shift, Some(4));
        assert_eq!(req.machine.l3.sample_shift, Some(4));
        let off = parse_args(&argv("--org shared --apps ammp,gzip,crafty,eon")).unwrap();
        assert_eq!(off.exp.sample_shift, None);
        assert_eq!(off.machine.l3.sample_shift, None);
        // A shift that leaves no sampled sets is rejected up front.
        assert!(parse_args(&argv(
            "--org shared --apps ammp,gzip,crafty,eon --sample-sets 40",
        ))
        .is_err());
    }

    #[test]
    fn sampled_run_reports_confidence_bounds() {
        let mut req = parse_args(&argv(
            "--org adaptive --apps ammp,gzip,crafty,eon --sample-sets 3",
        ))
        .unwrap();
        req.exp.warm_instructions = 60_000;
        req.exp.warmup_cycles = 5_000;
        req.exp.measure_cycles = 80_000;
        let result = run(&req).unwrap();
        let samp = result.sampling.expect("sampled run carries a report");
        assert_eq!(samp.shift, 3);
        assert!(samp.sampled_accesses + samp.estimated_accesses > 0);
        let text = render(&req, "adaptive", &result);
        assert!(text.contains("sampling"), "render shows the accuracy line");
        assert!(text.contains("95% CI"));
    }

    #[test]
    fn parses_time_sample_and_rejects_empty_windows() {
        let req = parse_args(&argv(
            "--org shared --apps ammp,gzip,crafty,eon --time-sample 5000:20000",
        ))
        .unwrap();
        assert_eq!(req.exp.time_sample, Some((5_000, 20_000)));
        let off = parse_args(&argv("--org shared --apps ammp,gzip,crafty,eon")).unwrap();
        assert_eq!(off.exp.time_sample, None);
        // No detailed windows to measure from.
        assert!(parse_args(&argv(
            "--org shared --apps ammp,gzip,crafty,eon --time-sample 0:20000",
        ))
        .is_err());
        // Malformed schedule.
        assert!(parse_args(&argv(
            "--org shared --apps ammp,gzip,crafty,eon --time-sample 5000",
        ))
        .is_err());
        // Paranoid audits every timed cycle; a gapped schedule has none.
        assert!(parse_args(&argv(
            "--org shared --apps ammp,gzip,crafty,eon --time-sample 5000:20000 --paranoid",
        ))
        .is_err());
        // A zero gap is full detail, so paranoid composes with it.
        assert!(parse_args(&argv(
            "--org shared --apps ammp,gzip,crafty,eon --time-sample 5000:0 --paranoid",
        ))
        .is_ok());
    }

    #[test]
    fn time_sampled_run_reports_window_bounds() {
        let mut req = parse_args(&argv(
            "--org adaptive --apps ammp,gzip,crafty,eon --time-sample 2000:6000",
        ))
        .unwrap();
        req.exp.warm_instructions = 60_000;
        req.exp.warmup_cycles = 8_000;
        req.exp.measure_cycles = 80_000;
        let result = run(&req).unwrap();
        let ts = result.time_sampling.expect("sampled run carries a report");
        assert_eq!((ts.detail, ts.gap), (2_000, 6_000));
        assert!(ts.windows >= 2);
        assert!(ts.detailed_cycles < 80_000);
        let text = render(&req, "adaptive", &result);
        assert!(text.contains("time-sample"), "render shows the window line");
        assert!(text.contains("95% CI"));
    }

    #[test]
    fn no_skip_selects_the_reference_stepping_loop() {
        let req = parse_args(&argv("--org shared --apps ammp,gzip,crafty,eon --no-skip")).unwrap();
        assert!(!req.exp.cycle_skip);
        assert!(
            req.exp.fast_path,
            "--no-skip leaves the hit fast path alone"
        );
    }

    #[test]
    fn no_fast_path_selects_the_reference_walks() {
        let req = parse_args(&argv(
            "--org shared --apps ammp,gzip,crafty,eon --no-fast-path",
        ))
        .unwrap();
        assert!(!req.exp.fast_path);
        assert!(
            req.exp.cycle_skip,
            "--no-fast-path leaves cycle skipping alone"
        );
        let plain = parse_args(&argv("--org shared --apps ammp,gzip,crafty,eon")).unwrap();
        assert!(plain.exp.fast_path, "fast path defaults on");
    }

    #[test]
    fn parses_an_organization_list_and_jobs() {
        let req = parse_args(&argv(
            "--org private,shared,adaptive --apps ammp,gzip,crafty,eon --jobs 2",
        ))
        .unwrap();
        let labels: Vec<_> = req.organizations.iter().map(|o| o.label()).collect();
        assert_eq!(labels, ["private", "shared", "adaptive"]);
        assert_eq!(req.exp.jobs, 2);
        // --jobs 0 means "auto": at least one worker.
        let auto = parse_args(&argv("--org private --apps ammp,gzip,crafty,eon --jobs 0")).unwrap();
        assert!(auto.exp.jobs >= 1);
    }

    #[test]
    fn parses_options_and_scaling() {
        let req = parse_args(&argv(
            "--org shared --apps art,mesa,gap,facerec --seed 9 --measure 123 --l3-mb 8 --tech-scaled",
        ))
        .unwrap();
        assert_eq!(req.exp.seed, 9);
        assert_eq!(req.exp.measure_cycles, 123);
        assert_eq!(req.machine.l3.shared.size_bytes(), 8 * 1024 * 1024);
        assert_eq!(req.machine.l2.latency(), 11, "tech scaling applied");
    }

    #[test]
    fn parses_parallel_workloads() {
        let req = parse_args(&argv("--org adaptive --parallel galgel:0.4:2048")).unwrap();
        assert_eq!(req.profiles.len(), 4);
        assert!((req.profiles[0].shared_read_frac - 0.4).abs() < 1e-12);
        assert_eq!(req.profiles[0].shared_kb, 2048);
    }

    #[test]
    fn rejects_parallel_specs_outside_the_profile_ranges() {
        // A zero-size region, fractions outside [0, 1], and a region
        // whose byte span wraps `u64`.
        for spec in [
            "galgel:0.4:0",
            "galgel:1.5:64",
            "galgel:nan:64",
            "galgel:-0.1:64",
            "galgel:0.4:1152921504606846976",
        ] {
            let err = parse_args(&argv(&format!("--org adaptive --parallel {spec}")));
            assert!(err.is_err(), "{spec} accepted");
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("--org bogus --apps ammp,gzip,crafty,eon")).is_err());
        assert!(parse_args(&argv("--org private --apps ammp")).is_err());
        assert!(parse_args(&argv("--org private")).is_err());
        assert!(parse_args(&argv("--org private --apps a,b,c,d")).is_err());
        assert!(parse_args(&argv("--org private --apps ammp,gzip,crafty,eon --seed x")).is_err());
        assert!(parse_args(&argv("--unknown")).is_err());
        assert!(parse_args(&argv(
            "--org adaptive --apps ammp,gzip,crafty,eon --parallel a:1:1"
        ))
        .is_err());
    }

    #[test]
    fn rejects_out_of_range_integers_instead_of_truncating() {
        // 2^32 + 1 would truncate to shift 1, and (2^44 + 4) MiB would
        // wrap the byte count back to a 4 MB L3.
        let base = "--org shared --apps ammp,gzip,crafty,eon";
        for flag in ["--sample-sets 4294967297", "--l3-mb 17592186044420"] {
            match parse_args(&argv(&format!("{base} {flag}"))) {
                Err(e) => assert!(e.to_string().contains("out of range"), "{flag}: {e}"),
                Ok(_) => panic!("{flag} must be rejected"),
            }
        }
    }

    #[test]
    fn end_to_end_tiny_run() {
        let mut req = parse_args(&argv("--org adaptive --apps ammp,gzip,crafty,eon")).unwrap();
        req.exp.warm_instructions = 50_000;
        req.exp.warmup_cycles = 5_000;
        req.exp.measure_cycles = 20_000;
        let result = run(&req).unwrap();
        assert!(result.hmean_ipc > 0.0);
        let text = render(&req, req.organizations[0].label(), &result);
        assert!(text.contains("harmonic IPC"));
        assert!(text.contains("quotas"));
    }

    #[test]
    fn run_all_is_identical_for_any_job_count() {
        let mut req = parse_args(&argv(
            "--org private,shared,adaptive --apps ammp,gzip,crafty,eon",
        ))
        .unwrap();
        req.exp.warm_instructions = 30_000;
        req.exp.warmup_cycles = 2_000;
        req.exp.measure_cycles = 10_000;
        let serial = run_all(&req).unwrap();
        req.exp.jobs = 3;
        let parallel = run_all(&req).unwrap();
        assert_eq!(serial, parallel, "jobs must not change any result bit");
        let labels: Vec<_> = serial.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["private", "shared", "adaptive"]);
    }

    #[test]
    fn parses_trace_and_metrics_flags() {
        let req = parse_args(&argv(
            "--org adaptive --apps ammp,gzip,crafty,eon --trace t.jsonl --metrics-out m.json",
        ))
        .unwrap();
        assert_eq!(req.trace.as_deref(), Some(std::path::Path::new("t.jsonl")));
        assert_eq!(
            req.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );
        assert!(req.recording());
        let plain = parse_args(&argv("--org private --apps ammp,gzip,crafty,eon")).unwrap();
        assert!(!plain.recording(), "untraced run stays on the NullSink");
        let paranoid = parse_args(&argv(
            "--org private --apps ammp,gzip,crafty,eon --paranoid",
        ))
        .unwrap();
        assert!(paranoid.recording(), "paranoid records for failure dumps");
    }

    #[test]
    fn traced_run_exports_schema_valid_jsonl_and_metrics() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join(format!("nuca-cli-trace-{}.jsonl", std::process::id()));
        let metrics_path = dir.join(format!("nuca-cli-metrics-{}.json", std::process::id()));
        let mut req =
            parse_args(&argv("--org private,adaptive --apps ammp,gzip,crafty,eon")).unwrap();
        req.exp.warm_instructions = 30_000;
        req.exp.warmup_cycles = 2_000;
        req.exp.measure_cycles = 20_000;
        req.trace = Some(trace_path.clone());
        req.metrics_out = Some(metrics_path.clone());
        let results = run_all(&req).unwrap();

        let text = std::fs::read_to_string(&trace_path).unwrap();
        let report = telemetry::export::validate_jsonl(&text).unwrap_or_else(|errs| {
            panic!("trace failed validation: {errs:?}");
        });
        assert_eq!(report.sections, 2, "one section per organization");
        assert!(report.events > 0);

        // The adaptive section's summary carries the run's final quotas.
        let sections = telemetry::export::parse_sections(&text).unwrap();
        let summary = sections[1].summary.as_ref().unwrap();
        let final_quotas: Vec<u32> = match summary.get("final_quotas") {
            Some(telemetry::json::Json::Arr(items)) => {
                items.iter().map(|j| j.as_num().unwrap() as u32).collect()
            }
            other => panic!("missing final_quotas: {other:?}"),
        };
        assert_eq!(Some(&final_quotas), results[1].1.quotas.as_ref());

        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(telemetry::json::Json::parse(&metrics).is_ok());
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn paranoid_flag_is_parsed_and_audits_cleanly() {
        let mut req = parse_args(&argv(
            "--org adaptive --apps ammp,gzip,crafty,eon --paranoid",
        ))
        .unwrap();
        assert!(req.paranoid);
        req.exp.warm_instructions = 10_000;
        req.exp.warmup_cycles = 2_000;
        req.exp.measure_cycles = 3_000;
        let result = run(&req).unwrap();
        assert!(result.hmean_ipc > 0.0);
    }
}
