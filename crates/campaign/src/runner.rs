//! Crash-safe sharded campaign execution with warm-state forking.
//!
//! The runner walks its shard's cells **in grid-index order** and
//! appends one manifest line per cell as it completes. That ordering is
//! the whole crash-safety story: a killed campaign's manifest is a
//! prefix of the uninterrupted one, so `--resume` (skip what the
//! manifest already has, truncate a partial tail) reproduces the
//! remaining lines byte-for-byte, and the shard manifests of a
//! `--shard K/N` split merge — a stable sort by cell index — into
//! exactly the single-process manifest.
//!
//! Functional warm-up is paid once per *warm group* (cells with equal
//! [`warm_fingerprint`]) and forked to
//! the rest of the group through the versioned, checksummed chip
//! snapshot ([`Cmp::save_chip_state`]). Within a chunk of cells the
//! warm-ups and the timed runs each fan out over `jobs` worker
//! threads; results are bit-identical for every `jobs` value because
//! cells share nothing mutable and lines are appended in index order
//! after the join.

use std::path::PathBuf;

use nuca_core::cmp::{Cmp, CmpResult};
use nuca_core::experiment::build_chip;
use nuca_core::l3::Organization;
use simcore::config::MachineConfig;
use simcore::parallel::{map_slice, resolve_jobs};
use simcore::snapshot::fnv1a64;
use telemetry::json::Json;
use telemetry::registry::Registry;
use telemetry::NullSink;
use tracegen::workload::Mix;

use crate::grid::{machine_for, organization_for, warm_fingerprint, Cell};
use crate::manifest::{read_completed, ManifestWriter};
use crate::screen::{screen, Pruned};
use crate::spec::CampaignSpec;
use crate::CampaignError;

/// Execution policy for one campaign invocation. None of these knobs
/// affect manifest *content* — only which slice of it this process
/// writes and how fast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Worker threads (`0` = one per available core).
    pub jobs: usize,
    /// `(K, N)`: this process runs shard `K` of `N` (1-based).
    pub shard: (u32, u32),
    /// Skip cells already in the manifest (and truncate a partial
    /// trailing line — the footprint of a kill).
    pub resume: bool,
    /// Test hook: stop (pretending to be killed) after appending this
    /// many lines in this invocation.
    pub fail_after: Option<usize>,
    /// Manifest path this shard appends to.
    pub out: PathBuf,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            jobs: 1,
            shard: (1, 1),
            resume: false,
            fail_after: None,
            out: PathBuf::from("campaign.jsonl"),
        }
    }
}

/// Progress events, delivered in manifest order from the orchestration
/// loop (never from worker threads).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Grid expanded and screened; execution is about to start.
    Start {
        /// Cells in the full grid.
        cells: usize,
        /// Cells owned by this shard.
        shard_cells: usize,
        /// Cells the screening pass pruned (whole grid).
        pruned: usize,
    },
    /// `--resume` found completed cells in the manifest.
    Resumed {
        /// Cells skipped because their lines already exist.
        skipped: usize,
    },
    /// One functional warm-up finished and its snapshot was cached.
    Warmed {
        /// Cells of this shard's work list forking this warm state.
        cells_sharing: usize,
    },
    /// A simulated cell finished and its line was appended.
    CellDone {
        /// Grid index.
        cell: usize,
        /// Harmonic-mean IPC of the measured window.
        hmean_ipc: f64,
    },
    /// A pruned cell's line was appended (pruning is never silent).
    CellPruned {
        /// Grid index.
        cell: usize,
        /// The dominating cell's grid index.
        dominated_by: usize,
    },
    /// `fail_after` tripped; the invocation stops as if killed.
    Killed {
        /// Lines appended before stopping.
        appended: usize,
    },
}

/// What one invocation did, for callers and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Cells in the full grid.
    pub total_cells: usize,
    /// Cells owned by this shard.
    pub shard_cells: usize,
    /// Pruned-cell lines this invocation appended.
    pub pruned: usize,
    /// Cells skipped via `--resume`.
    pub skipped: usize,
    /// Cells simulated to completion this invocation.
    pub ran: usize,
    /// Functional warm-ups paid this invocation.
    pub warm_groups: usize,
    /// Whether `fail_after` cut the run short.
    pub killed: bool,
    /// `campaign/*` counters mirroring the fields above.
    pub registry: Registry,
}

/// Which shard (0-based) a cell index belongs to. Hashing the index
/// spreads expensive neighboring cells (same org, same mix) across
/// shards instead of giving one shard a solid block of them.
pub fn shard_of(index: usize, shards: u32) -> u32 {
    let h = fnv1a64(&(index as u64).to_le_bytes());
    (h % u64::from(shards.max(1))) as u32
}

/// One cell ready to simulate: its machine, organization, workload and
/// warm-group fingerprint, resolved once up front.
struct Prepared {
    cell: Cell,
    machine: MachineConfig,
    org: Organization,
    mix: Mix,
    fp: u64,
}

/// A unit of this shard's work list, in grid-index order.
enum Work {
    Prune {
        cell: Cell,
        verdict: Pruned,
        mix_label: String,
    },
    Run(Box<Prepared>),
}

impl Work {
    fn index(&self) -> usize {
        match self {
            Work::Prune { cell, .. } => cell.index,
            Work::Run(p) => p.cell.index,
        }
    }
}

/// Runs (this shard of) a campaign, appending manifest lines to
/// `opts.out` in cell-index order and reporting progress through
/// `on_event`.
///
/// # Errors
///
/// [`CampaignError::Config`] for invalid shard arguments or cell
/// geometry, [`CampaignError::Manifest`] when the manifest already
/// exists without `--resume` (or is corrupt mid-file),
/// [`CampaignError::Io`]/[`CampaignError::Snapshot`] on file and
/// snapshot failures.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &RunOptions,
    on_event: &mut dyn FnMut(&Event),
) -> Result<Report, CampaignError> {
    let (k, n) = opts.shard;
    if k == 0 || n == 0 || k > n {
        return Err(CampaignError::Config(format!(
            "invalid shard {k}/{n}: want 1 <= K <= N"
        )));
    }
    let jobs = resolve_jobs(opts.jobs);
    let cells = spec.cells();

    // Screening is global — every shard prices the whole grid and
    // derives the identical pruned set, so no coordination is needed.
    let pruned_list = if spec.screen {
        screen(spec, &cells)?
    } else {
        Vec::new()
    };
    let verdict_for = |idx: usize| pruned_list.iter().find(|p| p.cell == idx).copied();

    let completed = if opts.resume {
        read_completed(&opts.out)?
    } else {
        match std::fs::metadata(&opts.out) {
            Ok(m) if m.len() > 0 => {
                return Err(CampaignError::Manifest(format!(
                    "{} already has content; pass --resume to continue it or remove it first",
                    opts.out.display()
                )))
            }
            _ => Vec::new(),
        }
    };

    // Build this shard's work list in grid order, resolving machines,
    // mixes and warm fingerprints once.
    let mut mix_lists: Vec<(u64, Vec<Mix>)> = Vec::new();
    let mut todo: Vec<Work> = Vec::new();
    let mut skipped = 0usize;
    let mut shard_cells = 0usize;
    for cell in &cells {
        if shard_of(cell.index, n) != k - 1 {
            continue;
        }
        shard_cells += 1;
        if completed.contains(&cell.index) {
            skipped += 1;
            continue;
        }
        let machine = machine_for(cell)?;
        if !mix_lists.iter().any(|(s, _)| *s == cell.mix_seed) {
            mix_lists.push((cell.mix_seed, spec.mixes_for(cell.mix_seed, machine.cores)));
        }
        let mix = mix_lists
            .iter()
            .find(|(s, _)| *s == cell.mix_seed)
            .and_then(|(_, list)| list.get(cell.mix_index))
            .cloned()
            .ok_or_else(|| {
                CampaignError::Config(format!("cell {}: mix index out of range", cell.index))
            })?;
        match verdict_for(cell.index) {
            Some(verdict) => todo.push(Work::Prune {
                cell: *cell,
                verdict,
                mix_label: mix.label(),
            }),
            None => {
                let org = organization_for(cell, spec.seed);
                let fp = warm_fingerprint(&machine, org, &mix, spec.seed, spec.warm_instructions);
                todo.push(Work::Run(Box::new(Prepared {
                    cell: *cell,
                    machine,
                    org,
                    mix,
                    fp,
                })));
            }
        }
    }

    on_event(&Event::Start {
        cells: cells.len(),
        shard_cells,
        pruned: pruned_list.len(),
    });
    if skipped > 0 {
        on_event(&Event::Resumed { skipped });
    }

    // How many still-pending cells fork each warm state, so snapshots
    // are dropped the moment their last cell completes.
    let mut refcounts: Vec<(u64, usize)> = Vec::new();
    for w in &todo {
        if let Work::Run(p) = w {
            match refcounts.iter_mut().find(|(f, _)| *f == p.fp) {
                Some(rc) => rc.1 += 1,
                None => refcounts.push((p.fp, 1)),
            }
        }
    }

    let mut writer = ManifestWriter::append_to(&opts.out)?;
    let mut warm_cache: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut appended = 0usize;
    let mut ran = 0usize;
    let mut pruned_written = 0usize;
    let mut warm_groups = 0usize;
    let mut killed = false;

    let chunk_len = jobs.max(1) * 2;
    'chunks: for chunk in todo.chunks(chunk_len) {
        // Pay the chunk's missing warm-ups, fanned out over `jobs`.
        let mut missing: Vec<&Prepared> = Vec::new();
        for w in chunk {
            if let Work::Run(p) = w {
                let cached = warm_cache.iter().any(|(f, _)| *f == p.fp);
                let queued = missing.iter().any(|q| q.fp == p.fp);
                if !cached && !queued {
                    missing.push(p);
                }
            }
        }
        let warmed = map_slice(jobs, &missing, |p| warm_group(p, spec));
        for (p, bytes) in missing.iter().zip(warmed) {
            warm_cache.push((p.fp, bytes?));
            warm_groups += 1;
            let sharing = refcounts
                .iter()
                .find(|(f, _)| *f == p.fp)
                .map_or(0, |(_, c)| *c);
            on_event(&Event::Warmed {
                cells_sharing: sharing,
            });
        }

        // Simulate the chunk's runnable cells, then append every line
        // of the chunk in grid order.
        let runs: Vec<&Prepared> = chunk
            .iter()
            .filter_map(|w| match w {
                Work::Run(p) => Some(p.as_ref()),
                Work::Prune { .. } => None,
            })
            .collect();
        let cache = &warm_cache;
        let outputs = map_slice(jobs, &runs, |p| run_one(p, spec, cache));
        let mut outputs = outputs.into_iter();
        for w in chunk {
            let line = match w {
                Work::Prune {
                    cell,
                    verdict,
                    mix_label,
                } => {
                    on_event(&Event::CellPruned {
                        cell: cell.index,
                        dominated_by: verdict.dominated_by,
                    });
                    pruned_written += 1;
                    prune_line(cell, mix_label, verdict)
                }
                Work::Run(p) => {
                    let (hmean, line) = outputs.next().ok_or_else(|| {
                        CampaignError::Config(format!(
                            "cell {}: missing simulation output",
                            w.index()
                        ))
                    })??;
                    ran += 1;
                    release_warm_state(&mut warm_cache, &mut refcounts, p.fp);
                    on_event(&Event::CellDone {
                        cell: p.cell.index,
                        hmean_ipc: hmean,
                    });
                    line
                }
            };
            writer.append(&line)?;
            appended += 1;
            if opts.fail_after == Some(appended) {
                killed = true;
                on_event(&Event::Killed { appended });
                break 'chunks;
            }
        }
    }

    let mut registry = Registry::new();
    registry.add("campaign/cells_total", cells.len() as u64);
    registry.add("campaign/cells_shard", shard_cells as u64);
    registry.add("campaign/pruned_grid", pruned_list.len() as u64);
    registry.add("campaign/pruned_written", pruned_written as u64);
    registry.add("campaign/skipped", skipped as u64);
    registry.add("campaign/ran", ran as u64);
    registry.add("campaign/warm_groups", warm_groups as u64);
    registry.add("campaign/warm_forks", (ran - warm_groups.min(ran)) as u64);
    registry.add("campaign/appended", appended as u64);
    registry.add("campaign/killed", u64::from(killed));
    Ok(Report {
        total_cells: cells.len(),
        shard_cells,
        pruned: pruned_written,
        skipped,
        ran,
        warm_groups,
        killed,
        registry,
    })
}

/// Pays one warm group's functional warm-up and returns the chip
/// snapshot every cell of the group forks from. Any group member may
/// act as representative — warm state is latency-independent (pinned
/// by `nuca-core`'s snapshot tests) — so the first is used.
fn warm_group(p: &Prepared, spec: &CampaignSpec) -> Result<Vec<u8>, CampaignError> {
    let mut cmp = Cmp::new(&p.machine, p.org, &p.mix, spec.seed)?;
    cmp.warm(spec.warm_instructions);
    Ok(cmp.save_chip_state()?)
}

/// Runs one cell from its warm group's snapshot: build the chip,
/// restore, timed warm-up, reset, measure. Returns the headline metric and the
/// finished manifest line.
fn run_one(
    p: &Prepared,
    spec: &CampaignSpec,
    warm_cache: &[(u64, Vec<u8>)],
) -> Result<(f64, String), CampaignError> {
    let bytes = warm_cache
        .iter()
        .find(|(f, _)| *f == p.fp)
        .map(|(_, b)| b)
        .ok_or_else(|| {
            CampaignError::Snapshot(format!("cell {}: warm state not cached", p.cell.index))
        })?;
    let exp = spec
        .experiment()
        .with_time_sample(p.cell.time_sample.to_config());
    let mut cmp = build_chip(
        &p.machine,
        p.org,
        &p.mix.profiles(),
        &p.mix.forwards,
        &exp,
        NullSink,
    )?;
    cmp.load_chip_state(bytes)?;
    cmp.run(spec.warmup_cycles);
    cmp.reset_stats();
    cmp.run(spec.measure_cycles);
    let result = cmp.snapshot();
    let line = done_line(&p.cell, &p.mix.label(), &result);
    Ok((result.hmean_ipc, line))
}

/// Drops a warm snapshot once its last pending cell has completed.
fn release_warm_state(cache: &mut Vec<(u64, Vec<u8>)>, refcounts: &mut [(u64, usize)], fp: u64) {
    if let Some(rc) = refcounts.iter_mut().find(|(f, _)| *f == fp) {
        rc.1 = rc.1.saturating_sub(1);
        if rc.1 == 0 {
            cache.retain(|(f, _)| *f != fp);
        }
    }
}

/// The axis-echo fields every manifest line starts with, in fixed key
/// order (the manifest is byte-compared across runs; key order and
/// number rendering must never drift).
fn axis_fields(cell: &Cell, mix_label: &str, status: &str) -> Vec<(String, Json)> {
    vec![
        ("cell".to_string(), Json::num(cell.index as f64)),
        ("status".to_string(), Json::str(status)),
        ("org".to_string(), Json::str(cell.org.name())),
        ("l3_mb".to_string(), Json::num(cell.l3_mb as f64)),
        ("l3_assoc".to_string(), Json::num(f64::from(cell.l3_assoc))),
        (
            "l3_latency".to_string(),
            Json::str(cell.l3_latency.render()),
        ),
        ("l2_latency".to_string(), Json::num(cell.l2_latency as f64)),
        (
            "mem_latency".to_string(),
            Json::str(cell.mem_latency.render()),
        ),
        ("mix_seed".to_string(), Json::num(cell.mix_seed as f64)),
        ("mix_index".to_string(), Json::num(cell.mix_index as f64)),
        (
            "time_sample".to_string(),
            Json::str(cell.time_sample.render()),
        ),
        ("mix".to_string(), Json::str(mix_label)),
    ]
}

/// The manifest line of a completed simulation cell: the only writer
/// of the line format [`Manifest`](crate::manifest::Manifest) reads.
pub fn done_line(cell: &Cell, mix_label: &str, result: &CmpResult) -> String {
    let mut fields = axis_fields(cell, mix_label, "done");
    fields.push(("hmean_ipc".to_string(), Json::num(result.hmean_ipc)));
    fields.push(("amean_ipc".to_string(), Json::num(result.amean_ipc)));
    fields.push((
        "ipc".to_string(),
        Json::Arr(result.ipc.iter().map(|&v| Json::num(v)).collect()),
    ));
    fields.push((
        "l3_accesses".to_string(),
        Json::num(result.total_l3_accesses() as f64),
    ));
    fields.push((
        "l3_misses".to_string(),
        Json::num(result.total_l3_misses() as f64),
    ));
    fields.push((
        "mem_requests".to_string(),
        Json::num(result.memory.requests as f64),
    ));
    if let Some(quotas) = &result.quotas {
        fields.push((
            "quotas".to_string(),
            Json::Arr(quotas.iter().map(|&q| Json::num(f64::from(q))).collect()),
        ));
    }
    if let Some(t) = &result.time_sampling {
        fields.push((
            "time_sampling".to_string(),
            Json::Obj(vec![
                ("detail".to_string(), Json::num(t.detail as f64)),
                ("gap".to_string(), Json::num(t.gap as f64)),
                ("windows".to_string(), Json::num(t.windows as f64)),
                (
                    "detailed_cycles".to_string(),
                    Json::num(t.detailed_cycles as f64),
                ),
                (
                    "functional_cycles".to_string(),
                    Json::num(t.functional_cycles as f64),
                ),
                (
                    "mean_window_hmean_ipc".to_string(),
                    Json::num(t.mean_window_hmean_ipc),
                ),
                ("std_error".to_string(), Json::num(t.hmean_ipc_std_error)),
                ("relative_ci95".to_string(), Json::num(t.relative_ci95)),
            ]),
        ));
    }
    Json::Obj(fields).render_compact()
}

/// The manifest line of a screened-out cell: pruning is never silent —
/// the dominator and both price tags are recorded.
fn prune_line(cell: &Cell, mix_label: &str, verdict: &Pruned) -> String {
    let mut fields = axis_fields(cell, mix_label, "pruned");
    fields.push((
        "dominated_by".to_string(),
        Json::num(verdict.dominated_by as f64),
    ));
    fields.push((
        "storage_bits".to_string(),
        Json::num(verdict.estimate.storage_bits as f64),
    ));
    fields.push((
        "modeled_latency".to_string(),
        Json::num(verdict.estimate.modeled_latency),
    ));
    fields.push((
        "dominator_storage_bits".to_string(),
        Json::num(verdict.dominator.storage_bits as f64),
    ));
    fields.push((
        "dominator_modeled_latency".to_string(),
        Json::num(verdict.dominator.modeled_latency),
    ));
    Json::Obj(fields).render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axes, LatPair, OrgKind};

    /// A campaign small enough for unit tests but real enough to
    /// exercise warm forking: one org would hide group sharing, so two
    /// latency points share each (org, mix) warm-up.
    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".to_string(),
            warm_instructions: 60_000,
            warmup_cycles: 5_000,
            measure_cycles: 20_000,
            mixes: 1,
            axes: Axes {
                organization: vec![OrgKind::Private, OrgKind::Adaptive],
                l3_latency: vec![
                    LatPair {
                        private: 14,
                        shared: 19,
                    },
                    LatPair {
                        private: 16,
                        shared: 24,
                    },
                ],
                ..Axes::default()
            },
            ..CampaignSpec::default()
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nuca-runner-{}-{name}", std::process::id()))
    }

    fn run(spec: &CampaignSpec, opts: &RunOptions) -> Report {
        run_campaign(spec, opts, &mut |_| {}).unwrap()
    }

    #[test]
    fn warm_state_is_forked_across_latency_cells() {
        let spec = tiny_spec();
        let out = tmp("fork.jsonl");
        let _ = std::fs::remove_file(&out);
        let report = run(
            &spec,
            &RunOptions {
                out: out.clone(),
                ..RunOptions::default()
            },
        );
        // 2 orgs x 2 latency pairs x 1 mix = 4 cells, but only 2
        // functional warm-ups: the latency axis forks.
        assert_eq!(report.total_cells, 4);
        assert_eq!(report.ran, 4);
        assert_eq!(report.warm_groups, 2);
        assert!(!report.killed);
        assert_eq!(report.registry.counter("campaign/warm_forks"), Some(2));
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_manifest() {
        let spec = tiny_spec();
        let full = tmp("full.jsonl");
        let cut = tmp("cut.jsonl");
        let _ = std::fs::remove_file(&full);
        let _ = std::fs::remove_file(&cut);
        run(
            &spec,
            &RunOptions {
                out: full.clone(),
                ..RunOptions::default()
            },
        );
        let killed = run(
            &spec,
            &RunOptions {
                out: cut.clone(),
                fail_after: Some(1),
                jobs: 2,
                ..RunOptions::default()
            },
        );
        assert!(killed.killed);
        assert_eq!(killed.registry.counter("campaign/killed"), Some(1));
        let resumed = run(
            &spec,
            &RunOptions {
                out: cut.clone(),
                resume: true,
                jobs: 2,
                ..RunOptions::default()
            },
        );
        assert_eq!(resumed.skipped, 1);
        assert!(!resumed.killed);
        let a = std::fs::read(&full).unwrap();
        let b = std::fs::read(&cut).unwrap();
        assert_eq!(a, b, "killed+resumed manifest must be byte-identical");
        let _ = std::fs::remove_file(&full);
        let _ = std::fs::remove_file(&cut);
    }

    #[test]
    fn shards_partition_the_grid_and_merge_to_the_serial_manifest() {
        let spec = tiny_spec();
        let serial = tmp("serial.jsonl");
        let s1 = tmp("s1.jsonl");
        let s2 = tmp("s2.jsonl");
        for p in [&serial, &s1, &s2] {
            let _ = std::fs::remove_file(p);
        }
        run(
            &spec,
            &RunOptions {
                out: serial.clone(),
                ..RunOptions::default()
            },
        );
        let r1 = run(
            &spec,
            &RunOptions {
                out: s1.clone(),
                shard: (1, 2),
                ..RunOptions::default()
            },
        );
        let r2 = run(
            &spec,
            &RunOptions {
                out: s2.clone(),
                shard: (2, 2),
                ..RunOptions::default()
            },
        );
        assert_eq!(r1.shard_cells + r2.shard_cells, 4);
        assert!(r1.shard_cells > 0 && r2.shard_cells > 0, "both shards work");
        let merged = crate::manifest::merge(&[s1.clone(), s2.clone()]).unwrap();
        let serial_text = std::fs::read_to_string(&serial).unwrap();
        assert_eq!(merged, serial_text);
        for p in [&serial, &s1, &s2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn existing_manifest_without_resume_is_refused() {
        let spec = tiny_spec();
        let out = tmp("refuse.jsonl");
        std::fs::write(&out, "{\"cell\":0}\n").unwrap();
        let err = run_campaign(
            &spec,
            &RunOptions {
                out: out.clone(),
                ..RunOptions::default()
            },
            &mut |_| {},
        );
        assert!(matches!(err, Err(CampaignError::Manifest(_))));
        assert!(matches!(
            run_campaign(
                &spec,
                &RunOptions {
                    shard: (3, 2),
                    ..RunOptions::default()
                },
                &mut |_| {},
            ),
            Err(CampaignError::Config(_))
        ));
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn screening_prunes_into_the_manifest_not_into_silence() {
        let mut spec = tiny_spec();
        spec.screen = true;
        spec.axes.organization = vec![OrgKind::Shared];
        let out = tmp("screen.jsonl");
        let _ = std::fs::remove_file(&out);
        let mut pruned_events = 0usize;
        let report = run_campaign(
            &spec,
            &RunOptions {
                out: out.clone(),
                ..RunOptions::default()
            },
            &mut |e| {
                if matches!(e, Event::CellPruned { .. }) {
                    pruned_events += 1;
                }
            },
        )
        .unwrap();
        // The slower latency pair is dominated: half the grid prunes,
        // and every pruned cell still has a manifest line.
        assert_eq!(report.pruned, 1);
        assert_eq!(report.ran, 1);
        assert_eq!(pruned_events, 1);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"status\":\"pruned\""));
        assert!(text.contains("\"dominated_by\":0"));
        assert!(text.contains("\"modeled_latency\""));
        let _ = std::fs::remove_file(&out);
    }
}
