//! Spec → deterministic cell grid, machine construction and the warm
//! fingerprint that decides which cells share one functional warm-up.
//!
//! The grid is the cartesian product of the axes in declaration order —
//! organization, `l3_mb`, `l3_assoc`, `l3_latency`, `l2_latency`,
//! `mem_latency`, `mix_seed`, `time_sample` — with the
//! mix index innermost, so cell N always means the same point for a
//! given spec.
//!
//! # Warm fingerprint
//!
//! Functional warm-up advances state without timing, so the post-warm
//! chip state is *independent of every latency parameter*: the L2/L3
//! hit latencies, the neighbor latency and the memory first-chunk
//! latencies (pinned by `nuca-core`'s `snapshot_is_latency_independent`
//! test). [`warm_fingerprint`] therefore hashes only what warm state
//! can depend on — core count, cache shapes (size/assoc/block), the
//! bus occupancy parameters (`inter_chunk`, `chunk_bytes`), the
//! organization's structural identity, the mix and the seeds. Cells that differ only in latency axes share one warm-up
//! and fork the snapshot, which is where the campaign engine's speedup
//! comes from. The `time_sample` axis is likewise excluded: warm-up is
//! functional, so the post-warm state cannot depend on how the *timed*
//! phase will be sampled.

use nuca_core::engine::AdaptiveParams;
use nuca_core::l3::Organization;
use simcore::config::{CacheGeometry, MachineConfig, MachineConfigBuilder};
use simcore::snapshot::fnv1a64;
use tracegen::spec::SpecApp;
use tracegen::workload::{Mix, WorkloadPool};

use crate::spec::{CampaignSpec, LatPair, OrgKind, PoolKind, TsPair};
use crate::CampaignError;

/// One point of the expanded grid. Axis values are echoed verbatim so
/// manifest lines can identify the cell without re-expanding the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Position in the grid (the manifest key).
    pub index: usize,
    /// Organization axis value.
    pub org: OrgKind,
    /// Aggregate L3 capacity in MiB.
    pub l3_mb: u64,
    /// Shared-organization associativity.
    pub l3_assoc: u32,
    /// L3 private/shared hit latencies.
    pub l3_latency: LatPair,
    /// L2 hit latency.
    pub l2_latency: u64,
    /// Memory private/shared first-chunk latencies.
    pub mem_latency: LatPair,
    /// Mix seed (selects the mix list).
    pub mix_seed: u64,
    /// Index into the mix list drawn from `mix_seed`.
    pub mix_index: usize,
    /// Time-sampling schedule (`0:0` = off).
    pub time_sample: TsPair,
}

impl CampaignSpec {
    /// Expands the spec into its flat, deterministic cell grid.
    pub fn cells(&self) -> Vec<Cell> {
        let a = &self.axes;
        let mut cells = Vec::new();
        for &org in &a.organization {
            for &l3_mb in &a.l3_mb {
                for &l3_assoc in &a.l3_assoc {
                    for &l3_latency in &a.l3_latency {
                        for &l2_latency in &a.l2_latency {
                            for &mem_latency in &a.mem_latency {
                                for &mix_seed in &a.mix_seed {
                                    for &time_sample in &a.time_sample {
                                        for mix_index in 0..self.mixes {
                                            cells.push(Cell {
                                                index: cells.len(),
                                                org,
                                                l3_mb,
                                                l3_assoc,
                                                l3_latency,
                                                l2_latency,
                                                mem_latency,
                                                mix_seed,
                                                mix_index,
                                                time_sample,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// The application pool the spec draws mixes from.
    pub fn pool_apps(&self) -> Vec<SpecApp> {
        match self.pool {
            PoolKind::Intensive => SpecApp::intensive_pool(),
            PoolKind::All => SpecApp::ALL.to_vec(),
        }
    }

    /// The mix list for one `mix_seed` axis value (`mixes` entries).
    pub fn mixes_for(&self, mix_seed: u64, cores: usize) -> Vec<Mix> {
        WorkloadPool::random_mixes(&self.pool_apps(), cores, self.mixes, mix_seed)
    }
}

/// Builds the machine configuration a cell runs on.
///
/// # Errors
///
/// [`CampaignError::Config`] when the axis values describe an invalid
/// geometry (e.g. an associativity the set math cannot honor).
pub fn machine_for(cell: &Cell) -> Result<MachineConfig, CampaignError> {
    let capacity = cell
        .l3_mb
        .checked_mul(1024 * 1024)
        .ok_or_else(|| CampaignError::Config(format!("l3_mb {} is out of range", cell.l3_mb)))?;
    let mut machine = MachineConfigBuilder::new()
        .l3_capacity(capacity)
        .l3_private_latency(cell.l3_latency.private)
        .l3_shared_latency(cell.l3_latency.shared)
        .l3_neighbor_latency(cell.l3_latency.shared)
        .build()?;
    let cores = machine.cores as u32;
    machine.l3.shared = CacheGeometry::new(capacity, cell.l3_assoc, 64, cell.l3_latency.shared)?;
    machine.l3.private = CacheGeometry::new(
        capacity / u64::from(cores),
        (cell.l3_assoc / cores).max(1),
        64,
        cell.l3_latency.private,
    )?;
    machine.l2 = machine.l2.with_latency(cell.l2_latency);
    machine.memory.first_chunk_private = cell.mem_latency.private;
    machine.memory.first_chunk_shared = cell.mem_latency.shared;
    machine.validate()?;
    Ok(machine)
}

/// The [`Organization`] a cell runs (the cooperative scheme's internal
/// seed follows the campaign seed, as `nuca-sim --org cooperative`
/// does).
pub fn organization_for(cell: &Cell, campaign_seed: u64) -> Organization {
    match cell.org {
        OrgKind::Private => Organization::Private,
        OrgKind::Private4x => Organization::PrivateScaled { factor: 4 },
        OrgKind::Shared => Organization::Shared,
        OrgKind::Adaptive => Organization::Adaptive(AdaptiveParams::default()),
        OrgKind::Cooperative => Organization::Cooperative {
            seed: campaign_seed,
        },
    }
}

/// Everything the post-warm chip state depends on, hashed. Cells with
/// equal fingerprints share one functional warm-up; latency parameters
/// are deliberately excluded (see the module docs).
pub fn warm_fingerprint(
    machine: &MachineConfig,
    org: Organization,
    mix: &Mix,
    campaign_seed: u64,
    warm_instructions: u64,
) -> u64 {
    use std::fmt::Write as _;
    let mut id = String::new();
    let shape =
        |g: &CacheGeometry| format!("{}x{}x{}", g.size_bytes(), g.total_ways(), g.block_bytes());
    let _ = write!(
        id,
        "cores={};l1i={};l1d={};l2={};l3s={};l3p={};bus={}x{};",
        machine.cores,
        shape(&machine.l1i),
        shape(&machine.l1d),
        shape(&machine.l2),
        shape(&machine.l3.shared),
        shape(&machine.l3.private),
        machine.memory.inter_chunk,
        machine.memory.chunk_bytes,
    );
    // The organization's structural identity: variant, adaptive
    // parameters, scale factors and internal seeds all shape warm
    // state; Debug renders them canonically. Latency fields do not
    // appear in any Organization variant the grid generates.
    let _ = write!(id, "org={org:?};");
    let _ = write!(id, "mix={};fwd={:?};", mix.label(), mix.forwards);
    let _ = write!(id, "seed={campaign_seed};warm={warm_instructions}");
    fnv1a64(id.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Axes;

    fn two_by_two() -> CampaignSpec {
        CampaignSpec {
            mixes: 2,
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

    #[test]
    fn grid_is_the_cartesian_product_in_declaration_order() {
        let spec = two_by_two();
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 2, "orgs x latencies x mixes");
        // Mix index is innermost, organization outermost.
        assert_eq!(cells[0].mix_index, 0);
        assert_eq!(cells[1].mix_index, 1);
        assert_eq!(cells[0].l3_latency.private, 14);
        assert_eq!(cells[2].l3_latency.private, 16);
        assert_eq!(cells[0].org, OrgKind::Private);
        assert_eq!(cells[4].org, OrgKind::Adaptive);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Expansion is deterministic.
        assert_eq!(cells, spec.cells());
    }

    #[test]
    fn machines_honor_the_axes() {
        let spec = two_by_two();
        let cells = spec.cells();
        let m = machine_for(&cells[2]).unwrap();
        assert_eq!(m.l3.shared.size_bytes(), 4 * 1024 * 1024);
        assert_eq!(m.l3.shared.latency(), 24);
        assert_eq!(m.l3.private.latency(), 16);
        assert_eq!(m.l3.neighbor_latency, 24);
        assert_eq!(m.l3.shared.total_ways(), 16);
        assert_eq!(m.l3.private.total_ways(), 4);
        assert_eq!(m.memory.first_chunk_private, 258);
    }

    #[test]
    fn oversized_l3_is_an_error_not_a_wrap() {
        // (2^44 + 4) MiB wraps to 4 MiB in unchecked u64 arithmetic.
        let mut cell = two_by_two().cells()[0];
        cell.l3_mb = (1 << 44) + 4;
        match machine_for(&cell) {
            Err(CampaignError::Config(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn time_sample_axis_reaches_the_cells() {
        let mut spec = two_by_two();
        spec.axes.time_sample = vec![
            TsPair { detail: 0, gap: 0 },
            TsPair {
                detail: 5_000,
                gap: 20_000,
            },
        ];
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2, "time_sample doubles the grid");
        // The time_sample axis sits between mix_seed and mix_index.
        assert_eq!(cells[0].time_sample.to_config(), None);
        assert_eq!(cells[2].time_sample.to_config(), Some((5_000, 20_000)));
        assert_eq!(cells[2].mix_index, 0);
    }

    #[test]
    fn warm_fingerprint_ignores_latency_axes_only() {
        let spec = two_by_two();
        let cells = spec.cells();
        let mixes = spec.mixes_for(2007, 4);
        let fp = |cell: &Cell| {
            let m = machine_for(cell).unwrap();
            warm_fingerprint(
                &m,
                organization_for(cell, spec.seed),
                &mixes[cell.mix_index],
                spec.seed,
                spec.warm_instructions,
            )
        };
        // Cells 0 and 2: same org/mix, different L3 latency pair —
        // one warm group.
        assert_eq!(fp(&cells[0]), fp(&cells[2]));
        // Different mix, org or structure: different groups.
        assert_ne!(fp(&cells[0]), fp(&cells[1]));
        assert_ne!(fp(&cells[0]), fp(&cells[4]));
        let mut bigger = cells[0];
        bigger.l3_mb = 8;
        assert_ne!(fp(&cells[0]), fp(&bigger));
    }
}
