//! Drivers for every table and figure of the paper's evaluation section.
//!
//! Figures 3 and 5, the §4.6 shadow-tag study and the ablations simulate
//! at the requested scale. Figures 6–12 never simulate: they project the
//! finished cells of the campaign manifests `nuca-sim campaign` writes
//! for the committed specs — `specs/paper.toml` (Figures 6, 7, 11 and
//! the baseline half of 10), `specs/fig8.toml` (Figures 8 and 12),
//! `specs/fig9.toml` (Figure 9) and `specs/fig10.toml` (the scaled half
//! of Figure 10). Drivers return structured results, the `render_*`
//! functions format them as the `fig*` binaries print them, and
//! `EXPERIMENTS.md` records paper-vs-measured.

use std::collections::BTreeMap;

use campaign::manifest::{DoneCell, Manifest};
use campaign::spec::OrgKind;
use campaign::CampaignError;
use nuca_core::experiment::{
    classify, run_cells, sensitivity_grid, Classification, ExperimentConfig, SensitivityPoint,
    SimCell,
};
use nuca_core::l3::Organization;
use simcore::config::MachineConfig;
use simcore::error::ConfigError;
use simcore::stats::{arithmetic_mean, speedup};
use tracegen::spec::SpecApp;
use tracegen::workload::WorkloadPool;

use crate::report::{f4, pct, Table};

/// The applications whose miss curves Figure 3 plots (the paper names
/// `mcf` and `gzip`; the others are representative of its five curves).
pub const FIG3_APPS: [SpecApp; 5] = [
    SpecApp::Mcf,
    SpecApp::Gzip,
    SpecApp::Ammp,
    SpecApp::Twolf,
    SpecApp::Parser,
];

/// Blocks-per-set grid for the Figure 3 sweep.
pub const FIG3_WAYS: [u32; 7] = [1, 2, 3, 4, 6, 8, 16];

/// One Figure 3 series.
#[derive(Debug, Clone)]
pub struct Fig3Series {
    /// The application.
    pub app: SpecApp,
    /// Misses per measured window at each blocks-per-set point.
    pub points: Vec<SensitivityPoint>,
}

/// Figure 3: number of misses as a function of blocks per set. The
/// whole `app x ways` grid is one flat work list, so it parallelizes
/// across `exp.jobs` workers.
///
/// # Errors
///
/// Propagates configuration errors from the experiment harness.
pub fn fig3(
    machine: &MachineConfig,
    exp: &ExperimentConfig,
) -> Result<Vec<Fig3Series>, ConfigError> {
    let rows = sensitivity_grid(machine, &FIG3_APPS, &FIG3_WAYS, exp)?;
    Ok(FIG3_APPS
        .into_iter()
        .zip(rows)
        .map(|(app, points)| Fig3Series { app, points })
        .collect())
}

/// Figure 5: classification of all 24 applications by last-level
/// intensity (threshold: nine accesses per thousand cycles).
///
/// # Errors
///
/// Propagates configuration errors from the experiment harness.
pub fn fig5(
    machine: &MachineConfig,
    exp: &ExperimentConfig,
) -> Result<Vec<Classification>, ConfigError> {
    classify(machine, exp)
}

/// One experiment (mix) of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// The mix label.
    pub label: String,
    /// Harmonic-mean IPC under private slices.
    pub private: f64,
    /// Harmonic-mean IPC under the shared cache.
    pub shared: f64,
    /// Harmonic-mean IPC under the adaptive scheme.
    pub adaptive: f64,
    /// Final adaptive quotas.
    pub quotas: Vec<u32>,
}

/// Aggregate of a scheme against the private baseline.
#[derive(Debug, Clone, Copy)]
pub struct SchemeSummary {
    /// Mean of per-mix harmonic-IPC speedups.
    pub hmean_speedup: f64,
    /// Mean of per-mix arithmetic-IPC speedups.
    pub amean_speedup: f64,
}

/// Figure 6 results: per-mix harmonic IPC for the three schemes, sorted
/// by the adaptive scheme's speedup over private (as the paper sorts).
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Per-experiment rows, sorted ascending by adaptive/private.
    pub rows: Vec<Fig6Row>,
    /// Shared-cache aggregate vs private.
    pub shared: SchemeSummary,
    /// Adaptive aggregate vs private.
    pub adaptive: SchemeSummary,
}

/// Mean over the manifest's mixes of `org`'s IPC over private's, with
/// `ipc` picking the harmonic or the arithmetic mean of a cell.
fn mean_speedup(
    m: &Manifest,
    org: OrgKind,
    ipc: fn(&DoneCell) -> f64,
) -> Result<f64, CampaignError> {
    let mut speedups = Vec::with_capacity(m.mixes());
    for i in 0..m.mixes() {
        speedups.push(speedup(
            ipc(m.cell(org, i)?),
            ipc(m.cell(OrgKind::Private, i)?),
        ));
    }
    Ok(arithmetic_mean(&speedups))
}

fn summary(m: &Manifest, org: OrgKind) -> Result<SchemeSummary, CampaignError> {
    Ok(SchemeSummary {
        hmean_speedup: mean_speedup(m, org, |c| c.hmean_ipc)?,
        amean_speedup: mean_speedup(m, org, |c| c.amean_ipc)?,
    })
}

/// Figure 6: harmonic-mean IPC per experiment over LLC-intensive mixes,
/// from the `specs/paper.toml` manifest.
///
/// # Errors
///
/// [`CampaignError::Manifest`] if a private, shared or adaptive cell is
/// missing or pruned.
pub fn fig6(m: &Manifest) -> Result<Fig6Result, CampaignError> {
    let mut rows = Vec::with_capacity(m.mixes());
    for i in 0..m.mixes() {
        let adaptive = m.cell(OrgKind::Adaptive, i)?;
        rows.push(Fig6Row {
            label: adaptive.label(),
            private: m.cell(OrgKind::Private, i)?.hmean_ipc,
            shared: m.cell(OrgKind::Shared, i)?.hmean_ipc,
            adaptive: adaptive.hmean_ipc,
            quotas: adaptive.quotas.clone().unwrap_or_default(),
        });
    }
    rows.sort_by(|x, y| {
        let sx = speedup(x.adaptive, x.private);
        let sy = speedup(y.adaptive, y.private);
        sx.total_cmp(&sy)
    });
    Ok(Fig6Result {
        rows,
        shared: summary(m, OrgKind::Shared)?,
        adaptive: summary(m, OrgKind::Adaptive)?,
    })
}

/// Figure 6 as the `fig6` binary prints it.
pub fn render_fig6(r: &Fig6Result) -> String {
    let mut t = Table::new(
        "Figure 6 — harmonic-mean IPC per experiment, sorted by adaptive/private",
        &["mix", "private", "shared", "adaptive", "adp/priv", "quotas"],
    );
    for row in &r.rows {
        t.row(&[
            &row.label,
            &f4(row.private),
            &f4(row.shared),
            &f4(row.adaptive),
            &pct(speedup(row.adaptive, row.private)),
            &format!("{:?}", row.quotas),
        ]);
    }
    format!(
        "{}\nadaptive vs private: harmonic {} / arithmetic {}   (paper: +21% / +13%)\n\
         adaptive vs shared : harmonic {} / arithmetic {}   (paper: +2% / +5%)\n",
        t.render(),
        pct(r.adaptive.hmean_speedup),
        pct(r.adaptive.amean_speedup),
        pct(r.adaptive.hmean_speedup / r.shared.hmean_speedup),
        pct(r.adaptive.amean_speedup / r.shared.amean_speedup)
    )
}

/// Per-application speedups of the adaptive scheme against three
/// yardsticks (Figures 7 and 9).
#[derive(Debug, Clone)]
pub struct PerAppRow {
    /// Application name.
    pub app: &'static str,
    /// Adaptive IPC / private IPC, averaged over appearances.
    pub vs_private: f64,
    /// Adaptive IPC / shared IPC.
    pub vs_shared: f64,
    /// Adaptive IPC / 4x-size-private IPC.
    pub vs_private4x: f64,
    /// Number of appearances across the mixes.
    pub appearances: usize,
}

/// For every application, the mean over all its appearances of its IPC
/// under the adaptive scheme over its IPC under `baseline`, with the
/// appearance count, in name order.
fn per_app_speedup(
    m: &Manifest,
    baseline: OrgKind,
) -> Result<Vec<(&'static str, f64, usize)>, CampaignError> {
    let mut acc: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for i in 0..m.mixes() {
        let (new, base) = (m.cell(OrgKind::Adaptive, i)?, m.cell(baseline, i)?);
        for ((app, s_new), s_base) in new.apps.iter().zip(&new.ipc).zip(&base.ipc) {
            if *s_base > 0.0 {
                let e = acc.entry(app.name()).or_insert((0.0, 0));
                e.0 += s_new / s_base;
                e.1 += 1;
            }
        }
    }
    Ok(acc
        .into_iter()
        .map(|(app, (sum, n))| (app, sum / n as f64, n))
        .collect())
}

/// Figures 7 and 9: per-application speedup of the adaptive scheme
/// against private, shared and 4x private caches — Figure 7 from the
/// `specs/paper.toml` manifest, Figure 9 from `specs/fig9.toml`'s
/// (8-MByte L3).
///
/// # Errors
///
/// [`CampaignError::Manifest`] if an adaptive, private, shared or
/// private4x cell is missing or pruned.
pub fn fig7(m: &Manifest) -> Result<Vec<PerAppRow>, CampaignError> {
    let vs_s = per_app_speedup(m, OrgKind::Shared)?;
    let vs_4 = per_app_speedup(m, OrgKind::Private4x)?;
    Ok(per_app_speedup(m, OrgKind::Private)?
        .into_iter()
        .map(|(app, sp, n)| {
            let find = |v: &[(&'static str, f64, usize)]| {
                v.iter()
                    .find(|(a, _, _)| *a == app)
                    .map(|(_, s, _)| *s)
                    .unwrap_or(0.0)
            };
            PerAppRow {
                app,
                vs_private: sp,
                vs_shared: find(&vs_s),
                vs_private4x: find(&vs_4),
                appearances: n,
            }
        })
        .collect())
}

/// A Figure 7/9 table as the `fig7`/`fig9` binaries print it: `title`,
/// the rows, a blank line and `note`.
pub fn render_per_app(title: &str, note: &str, rows: &[PerAppRow]) -> String {
    let mut t = Table::new(
        title,
        &["app", "vs private", "vs shared", "vs 4x private", "n"],
    );
    for r in rows {
        t.row(&[
            r.app,
            &pct(r.vs_private),
            &pct(r.vs_shared),
            &pct(r.vs_private4x),
            &r.appearances.to_string(),
        ]);
    }
    format!("{}\n{note}", t.render())
}

/// One Figure 8 row: an application's speedup under the adaptive scheme
/// relative to private caches, over mixes drawn from all applications.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Application name.
    pub app: &'static str,
    /// Adaptive IPC / private IPC.
    pub speedup: f64,
    /// Whether the application is LLC-intensive (Figure 5).
    pub intensive: bool,
    /// Appearances across the mixes.
    pub appearances: usize,
}

/// Figure 8: speedup vs private caches for all applications (both
/// categories), from the `specs/fig8.toml` manifest (mixes drawn from
/// the full suite).
///
/// # Errors
///
/// [`CampaignError::Manifest`] if an adaptive or private cell is
/// missing or pruned.
pub fn fig8(m: &Manifest) -> Result<Vec<Fig8Row>, CampaignError> {
    Ok(per_app_speedup(m, OrgKind::Private)?
        .into_iter()
        .map(|(app, sp, n)| Fig8Row {
            app,
            speedup: sp,
            intensive: app
                .parse::<SpecApp>()
                .map(|a| a.is_llc_intensive())
                .unwrap_or(false),
            appearances: n,
        })
        .collect())
}

/// Figure 8 as the `fig8` binary prints it.
pub fn render_fig8(rows: &[Fig8Row]) -> String {
    let mut t = Table::new(
        "Figure 8 — adaptive speedup vs private, all applications",
        &["app", "speedup", "class", "n"],
    );
    for r in rows {
        t.row(&[
            r.app,
            &pct(r.speedup),
            if r.intensive {
                "intensive"
            } else {
                "non-intensive"
            },
            &r.appearances.to_string(),
        ]);
    }
    t.render()
}

/// Figure 10 result: aggregate speedups vs private for each scheme on
/// the baseline and on the technology-scaled machine.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// (label, baseline hmean speedup, scaled hmean speedup) per scheme.
    pub schemes: Vec<(&'static str, f64, f64)>,
}

/// Figure 10: impact of technology scaling (L2 9→11, L3 14/19→16/24,
/// memory 258/260→330/338 cycles). The paper's claim: the new scheme's
/// advantage grows as memory gets relatively slower. `base` is the
/// `specs/paper.toml` manifest, `scaled` the `specs/fig10.toml` one;
/// both must hold the same mixes.
///
/// # Errors
///
/// [`CampaignError::Manifest`] if the two manifests hold different
/// mixes, or a private, shared, cooperative or adaptive cell is missing
/// or pruned.
pub fn fig10(base: &Manifest, scaled: &Manifest) -> Result<Fig10Result, CampaignError> {
    for i in 0..base.mixes().max(scaled.mixes()) {
        let (b, s) = (
            base.cell(OrgKind::Private, i)?,
            scaled.cell(OrgKind::Private, i)?,
        );
        if b.apps != s.apps {
            return Err(CampaignError::Manifest(format!(
                "mix {i} is {} on the baseline machine but {} on the scaled one",
                b.label(),
                s.label()
            )));
        }
    }
    let mut schemes = Vec::new();
    for org in [OrgKind::Shared, OrgKind::Cooperative, OrgKind::Adaptive] {
        let hmean = |c: &DoneCell| c.hmean_ipc;
        schemes.push((
            org.name(),
            mean_speedup(base, org, hmean)?,
            mean_speedup(scaled, org, hmean)?,
        ));
    }
    Ok(Fig10Result { schemes })
}

/// Figure 10 as the `fig10` binary prints it.
pub fn render_fig10(r: &Fig10Result) -> String {
    let mut t = Table::new(
        "Figure 10 — mean harmonic speedup vs private, baseline vs scaled technology",
        &["scheme", "baseline", "scaled tech", "delta"],
    );
    for (label, base, scaled) in &r.schemes {
        t.row(&[
            label,
            &pct(*base),
            &pct(*scaled),
            &format!("{:+.1} pp", (scaled - base) * 100.0),
        ]);
    }
    format!(
        "{}\nPaper shape: as memory latency grows (258/260 -> 330/338 cycles) the\n\
         adaptive scheme gains the most, because it removes the most memory accesses.\n",
        t.render()
    )
}

/// One row of Figures 11/12: the adaptive scheme relative to the
/// cooperative ("random replacement") scheme for one mix.
#[derive(Debug, Clone)]
pub struct VsCooperativeRow {
    /// Mix label.
    pub label: String,
    /// Harmonic-mean IPC, adaptive.
    pub adaptive: f64,
    /// Harmonic-mean IPC, cooperative.
    pub cooperative: f64,
    /// adaptive / cooperative.
    pub relative: f64,
}

/// Figures 11 and 12: adaptive vs cooperative per mix, sorted by the
/// relative performance — Figure 11 from the `specs/paper.toml`
/// manifest (memory-intensive mixes), Figure 12 from `specs/fig8.toml`'s
/// (mixes from all applications, where the advantage shrinks because
/// many applications barely use the L3).
///
/// # Errors
///
/// [`CampaignError::Manifest`] if an adaptive or cooperative cell is
/// missing or pruned.
pub fn fig11(m: &Manifest) -> Result<Vec<VsCooperativeRow>, CampaignError> {
    let mut rows = Vec::with_capacity(m.mixes());
    for i in 0..m.mixes() {
        let (a, c) = (
            m.cell(OrgKind::Adaptive, i)?,
            m.cell(OrgKind::Cooperative, i)?,
        );
        rows.push(VsCooperativeRow {
            label: a.label(),
            adaptive: a.hmean_ipc,
            cooperative: c.hmean_ipc,
            relative: speedup(a.hmean_ipc, c.hmean_ipc),
        });
    }
    rows.sort_by(|x, y| x.relative.total_cmp(&y.relative));
    Ok(rows)
}

/// A Figure 11/12 table as the `fig11`/`fig12` binaries print it:
/// `title`, the rows and the mean relative performance against what the
/// `paper` reports.
pub fn render_vs_cooperative(title: &str, paper: &str, rows: &[VsCooperativeRow]) -> String {
    let mut t = Table::new(title, &["mix", "adaptive", "cooperative", "relative"]);
    for r in rows {
        t.row(&[
            &r.label,
            &f4(r.adaptive),
            &f4(r.cooperative),
            &pct(r.relative),
        ]);
    }
    let mean = arithmetic_mean(&rows.iter().map(|r| r.relative).collect::<Vec<_>>());
    format!(
        "{}\nmean relative performance: {} (paper: {paper})\n",
        t.render(),
        pct(mean)
    )
}

/// Section 4.6 result: average/harmonic IPC with full shadow-tag
/// coverage vs 1/16 lowest-index-set sampling.
#[derive(Debug, Clone)]
pub struct ShadowSamplingResult {
    /// Mean per-mix arithmetic IPC, full coverage.
    pub full_amean: f64,
    /// Mean per-mix arithmetic IPC, sampled (1/16).
    pub sampled_amean: f64,
    /// Mean per-mix harmonic IPC, full coverage.
    pub full_hmean: f64,
    /// Mean per-mix harmonic IPC, sampled (1/16).
    pub sampled_hmean: f64,
}

impl ShadowSamplingResult {
    /// Relative change of the arithmetic mean when sampling.
    pub fn amean_delta(&self) -> f64 {
        speedup(self.sampled_amean, self.full_amean) - 1.0
    }

    /// Relative change of the harmonic mean when sampling.
    pub fn hmean_delta(&self) -> f64 {
        speedup(self.sampled_hmean, self.full_hmean) - 1.0
    }
}

/// Section 4.6: reducing the number of shadow tags to 1/16 of the sets
/// (lowest index). The paper reports ±0.1 % IPC deltas.
///
/// # Errors
///
/// Propagates configuration errors from the experiment harness.
pub fn shadow_sampling(
    machine: &MachineConfig,
    exp: &ExperimentConfig,
    n_mixes: usize,
) -> Result<ShadowSamplingResult, ConfigError> {
    let mixes =
        WorkloadPool::random_mixes(&SpecApp::intensive_pool(), machine.cores, n_mixes, exp.seed);
    let params = nuca_core::engine::AdaptiveParams {
        shadow_sampling: cachesim::shadow::SetSampling::LowestIndex { shift: 4 },
        ..nuca_core::engine::AdaptiveParams::default()
    };
    let orgs = [Organization::adaptive(), Organization::Adaptive(params)];
    let cells: Vec<SimCell<'_>> = mixes
        .iter()
        .flat_map(|mix| orgs.iter().map(move |&org| SimCell { machine, org, mix }))
        .collect();
    let results = run_cells(&cells, exp)?;
    let mut full_a = Vec::new();
    let mut full_h = Vec::new();
    let mut samp_a = Vec::new();
    let mut samp_h = Vec::new();
    for pair in results.chunks(orgs.len()) {
        let (full, samp) = (&pair[0], &pair[1]);
        full_a.push(full.result.amean_ipc);
        full_h.push(full.result.hmean_ipc);
        samp_a.push(samp.result.amean_ipc);
        samp_h.push(samp.result.hmean_ipc);
    }
    Ok(ShadowSamplingResult {
        full_amean: arithmetic_mean(&full_a),
        sampled_amean: arithmetic_mean(&samp_a),
        full_hmean: arithmetic_mean(&full_h),
        sampled_hmean: arithmetic_mean(&samp_h),
    })
}

/// An ablation point: one parameter value and its aggregate outcome.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Human-readable parameter value.
    pub value: String,
    /// Mean harmonic-IPC speedup vs the private baseline.
    pub hmean_speedup: f64,
    /// Total last-level misses across mixes (the quantity the scheme
    /// minimizes).
    pub total_misses: u64,
}

/// Runs an ablation over adaptive parameters on intensive mixes.
///
/// # Errors
///
/// Propagates configuration errors from the experiment harness.
pub fn ablate<P>(
    machine: &MachineConfig,
    exp: &ExperimentConfig,
    n_mixes: usize,
    points: &[(String, P)],
    to_params: impl Fn(&P) -> nuca_core::engine::AdaptiveParams,
) -> Result<Vec<AblationPoint>, ConfigError> {
    let mixes =
        WorkloadPool::random_mixes(&SpecApp::intensive_pool(), machine.cores, n_mixes, exp.seed);
    // One flat cell list: the private baselines first, then every
    // (point, mix) pair — the whole ablation parallelizes at once.
    let orgs: Vec<Organization> = points
        .iter()
        .map(|(_, p)| Organization::Adaptive(to_params(p)))
        .collect();
    let mut cells: Vec<SimCell<'_>> = mixes
        .iter()
        .map(|mix| SimCell {
            machine,
            org: Organization::Private,
            mix,
        })
        .collect();
    for &org in &orgs {
        cells.extend(mixes.iter().map(|mix| SimCell { machine, org, mix }));
    }
    let results = run_cells(&cells, exp)?;
    let (baselines, rest) = results.split_at(mixes.len());
    Ok(points
        .iter()
        .enumerate()
        .map(|(i, (label, _))| {
            let row = &rest[i * mixes.len()..(i + 1) * mixes.len()];
            let mut sp = Vec::new();
            let mut misses = 0;
            for (r, base) in row.iter().zip(baselines) {
                sp.push(speedup(r.result.hmean_ipc, base.result.hmean_ipc));
                misses += r.result.total_l3_misses();
            }
            AblationPoint {
                value: label.clone(),
                hmean_speedup: arithmetic_mean(&sp),
                total_misses: misses,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::stats::harmonic_mean;

    /// Per-core IPC of every organization on two mixes, `gzip+mcf` and
    /// `mcf+crafty`: mcf appears twice and crafty is non-intensive.
    const CELLS: [(&str, [[f64; 2]; 2]); 5] = [
        ("private", [[0.5, 0.2], [0.2, 1.0]]),
        ("private4x", [[0.6, 0.3], [0.3, 1.0]]),
        ("shared", [[0.4, 0.2], [0.25, 0.9]]),
        ("adaptive", [[0.55, 0.2], [0.2, 1.1]]),
        ("cooperative", [[0.5, 0.18], [0.2, 1.0]]),
    ];

    fn manifest(mixes: [&str; 2]) -> Manifest {
        let mut text = String::new();
        for (org, ipcs) in CELLS {
            for (i, (mix, ipc)) in mixes.iter().zip(ipcs).enumerate() {
                text.push_str(&format!(
                    "{{\"status\":\"done\",\"org\":\"{org}\",\"mix_index\":{i},\"mix\":\"{mix}\",\
                     \"hmean_ipc\":{},\"amean_ipc\":{},\"ipc\":{ipc:?}}}\n",
                    harmonic_mean(&ipc),
                    arithmetic_mean(&ipc)
                ));
            }
        }
        Manifest::parse("synthetic", &text).unwrap()
    }

    fn paper() -> Manifest {
        manifest(["gzip+mcf", "mcf+crafty"])
    }

    #[test]
    fn fig6_rows_are_sorted_by_adaptive_speedup() {
        let r = fig6(&paper()).unwrap();
        assert_eq!(r.rows.len(), 2);
        for w in r.rows.windows(2) {
            let a = speedup(w[0].adaptive, w[0].private);
            let b = speedup(w[1].adaptive, w[1].private);
            assert!(a <= b + 1e-12);
        }
    }

    #[test]
    fn per_app_speedup_averages_appearances() {
        let rows = fig7(&paper()).unwrap();
        let names: Vec<_> = rows.iter().map(|r| (r.app, r.appearances)).collect();
        assert_eq!(names, [("crafty", 1), ("gzip", 1), ("mcf", 2)]);
        assert!((rows[1].vs_private - 0.55 / 0.5).abs() < 1e-12);
        assert!(
            (rows[2].vs_private - 1.0).abs() < 1e-12,
            "mcf: 0.2/0.2 twice"
        );
        assert!((rows[2].vs_shared - (0.2 / 0.2 + 0.2 / 0.25) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn fig8_covers_both_categories() {
        let rows = fig8(&paper()).unwrap();
        assert!(rows.iter().any(|r| r.intensive));
        assert!(rows.iter().any(|r| !r.intensive));
        for r in &rows {
            assert!(r.speedup > 0.0, "{} speedup must be positive", r.app);
        }
    }

    #[test]
    fn fig10_rejects_manifests_of_different_mixes() {
        let base = paper();
        assert!(fig10(&base, &paper()).is_ok());
        let other = manifest(["gzip+mcf", "mcf+gzip"]);
        assert!(matches!(
            fig10(&base, &other),
            Err(CampaignError::Manifest(m)) if m.contains("mix 1")
        ));
    }

    #[test]
    fn fig11_relative_column_is_consistent() {
        let rows = fig11(&paper()).unwrap();
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!((r.relative - r.adaptive / r.cooperative).abs() < 1e-9);
        }
    }

    #[test]
    fn shadow_sampling_runs_a_tiny_mix_reproducibly() {
        let machine = MachineConfig::baseline();
        let exp = ExperimentConfig {
            warm_instructions: 60_000,
            warmup_cycles: 10_000,
            measure_cycles: 40_000,
            ..ExperimentConfig::default()
        };
        let means = || {
            let r = shadow_sampling(&machine, &exp, 1).unwrap();
            [r.full_amean, r.sampled_amean, r.full_hmean, r.sampled_hmean]
        };
        let first = means();
        assert!(first.iter().all(|m| m.is_finite() && *m > 0.0), "{first:?}");
        assert_eq!(first.map(f64::to_bits), means().map(f64::to_bits));
    }
}
