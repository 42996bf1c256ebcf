//! The three benchmark workloads and the cells they are made of.
//!
//! A cell is one chip simulation: a four-application mix under one
//! last-level organization, run with the Section 3 protocol (functional
//! warm, timed warm-up window, statistics reset, measured window).
//! Every workload is 4 mixes x {private, shared, adaptive} = 12 cells.

use nuca_core::experiment::ExperimentConfig;
use nuca_core::l3::Organization;
use simcore::config::MachineConfig;
use simcore::rng::SimRng;
use tracegen::spec::SpecApp;
use tracegen::workload::{Mix, WorkloadPool};

/// Workload seed used when `--seed` is not given; the committed expected
/// outputs (`expected/seed-2007.txt`) are for this seed.
pub const DEFAULT_SEED: u64 = 2007;

/// The held-out seed: a performance claim tuned on other seeds must also
/// hold on this one.
pub const HELD_OUT_SEED: u64 = 1971;

/// Mixes per workload.
pub const MIXES: usize = 4;

/// The `--time-sample` schedule of the `sampled` workload: detailed
/// cycles alternating with functionally warmed cycles.
pub const TIME_SAMPLE: (u64, u64) = (10_000, 40_000);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memory-intensive mixes at full detail (the paper's Fig. 6
    /// population): L3 organization, Algorithm 1, MSHRs and the bus work
    /// hardest.
    Intensive,
    /// Mixes of the non-intensive applications: core-bound, so the
    /// pipeline, L1/L2 and trace generation dominate.
    Light,
    /// The `intensive` cells time-sampled: window scheduler, paced
    /// functional gaps and pipeline drains dominate, and accuracy is
    /// measured against the exact result of the same cells.
    Sampled,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Intensive, Workload::Light, Workload::Sampled];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::Intensive => "intensive",
            Workload::Light => "light",
            Workload::Sampled => "sampled",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The applications the workload's mixes are dealt from.
    pub fn pool(self) -> Vec<SpecApp> {
        match self {
            Workload::Intensive | Workload::Sampled => SpecApp::intensive_pool(),
            Workload::Light => SpecApp::ALL
                .into_iter()
                .filter(|a| !a.is_llc_intensive())
                .collect(),
        }
    }

    /// Whether the timed cells run time-sampled (approximate) rather than
    /// in full detail.
    pub const fn is_sampled(self) -> bool {
        matches!(self, Workload::Sampled)
    }

    /// The exact run protocol: the timed configuration of `intensive` and
    /// `light`, and the reference the `sampled` estimates are scored
    /// against. Phases are 10 % of the simulator's default experiment
    /// (300k warm instructions per core, 100k warm-up and 150k measured
    /// cycles), short enough for several repeats of every cell per run;
    /// `sampled` measures a ten times longer window so that the sampling
    /// machinery, not the up-front warm, carries its host time.
    pub fn exact_config(self, seed: u64) -> ExperimentConfig {
        let base = ExperimentConfig {
            seed,
            ..ExperimentConfig::default().scaled(10, 100)
        };
        match self {
            Workload::Intensive | Workload::Light => base,
            Workload::Sampled => ExperimentConfig {
                measure_cycles: 1_400_000,
                ..base
            },
        }
    }

    /// The configuration the workload times: the exact protocol, or for
    /// `sampled` the same cells under [`TIME_SAMPLE`] with the functional
    /// warm cut to 5/8 (the setting `perf`'s time-sampled pass uses).
    pub fn timed_config(self, seed: u64) -> ExperimentConfig {
        let exact = self.exact_config(seed);
        if self.is_sampled() {
            exact.with_time_sample(Some(TIME_SAMPLE)).scaled_warm(5, 8)
        } else {
            exact
        }
    }

    /// The workload's cells for `seed`, mix-major.
    pub fn cells(self, machine: &MachineConfig, seed: u64) -> Vec<Cell> {
        let mixes = deal_mixes(&self.pool(), machine.cores, MIXES, seed);
        mixes
            .into_iter()
            .enumerate()
            .flat_map(|(m, mix)| {
                organizations().into_iter().map(move |org| Cell {
                    mix_index: m,
                    mix: mix.clone(),
                    org,
                })
            })
            .collect()
    }
}

/// The organizations every mix runs under.
pub fn organizations() -> [Organization; 3] {
    [
        Organization::Private,
        Organization::Shared,
        Organization::adaptive(),
    ]
}

/// One simulation cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Index of the mix within the workload.
    pub mix_index: usize,
    /// The applications and their fast-forwards.
    pub mix: Mix,
    /// The last-level organization.
    pub org: Organization,
}

impl Cell {
    /// A stable identifier such as `m2/adaptive`.
    pub fn id(&self) -> String {
        format!("m{}/{}", self.mix_index, self.org.label())
    }
}

/// Deals `n` mixes of `cores` applications from a seeded shuffle of
/// `pool` repeated to fill every slot, so each application appears
/// equally often whenever `pool.len()` divides `n * cores`. Unlike
/// independent draws with replacement, this keeps the host work of a
/// workload nearly the same from seed to seed, which is what lets
/// runs with different seeds be compared. Fast-forwards are drawn in
/// the paper's 0.5-1.5 billion range.
pub fn deal_mixes(pool: &[SpecApp], cores: usize, n: usize, seed: u64) -> Vec<Mix> {
    let mut rng = SimRng::seed_from(seed);
    let mut apps: Vec<SpecApp> = pool.iter().copied().cycle().take(cores * n).collect();
    rng.shuffle(&mut apps);
    apps.chunks(cores)
        .map(|chunk| Mix {
            apps: chunk.to_vec(),
            forwards: (0..cores)
                .map(|_| rng.range(WorkloadPool::FORWARD_MIN, WorkloadPool::FORWARD_MAX))
                .collect(),
        })
        .collect()
}
