//! Machine configuration: Table 1 of the paper, encoded as data.
//!
//! [`MachineConfig::baseline`] reproduces the baseline CMP used for all
//! experiments: four 4-wide out-of-order cores, per-core L1/L2, and a
//! 4-MByte last-level (L3) cache that the different organizations under
//! study manage differently. The derived configurations used by the
//! evaluation section are also provided:
//!
//! - [`MachineConfig::with_l3_scale`] — the 8-MByte L3 of Figure 9,
//! - [`MachineConfig::technology_scaled`] — the latency-scaled machine of
//!   Figure 10 (L2 9→11 cycles, L3 14/19→16/24, memory 258/260→330/338).

use std::fmt;

use crate::error::{ConfigError, Result};

/// Geometry and latency of one cache level.
///
/// # Example
///
/// ```
/// use simcore::config::CacheGeometry;
/// let l1d = CacheGeometry::new(64 * 1024, 2, 64, 3).unwrap();
/// assert_eq!(l1d.sets(), 512);
/// assert_eq!(l1d.offset_bits(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    assoc: u32,
    block_bytes: u32,
    latency: u64,
}

impl CacheGeometry {
    /// Creates a cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the block size or total size is not a
    /// power of two, if the associativity is zero or above 32, or if the
    /// size is not divisible into whole sets.
    pub fn new(size_bytes: u64, assoc: u32, block_bytes: u32, latency: u64) -> Result<Self> {
        if !block_bytes.is_power_of_two() {
            return Err(ConfigError::new("cache block size must be a power of two"));
        }
        if assoc == 0 {
            return Err(ConfigError::new("cache associativity must be nonzero"));
        }
        // Per-set validity/dirty state is a u32 bitmask, so associativity
        // caps at 32 ways — Table 1's largest configuration is the 4-core
        // shared L3 at 16 ways, and the robustness suite goes to 32 (the
        // 8-core chip).
        if assoc > 32 {
            return Err(ConfigError::new(
                "cache associativity above 32 is not supported (per-set bitmask encoding)",
            ));
        }
        if size_bytes == 0 || !size_bytes.is_multiple_of(assoc as u64 * block_bytes as u64) {
            return Err(ConfigError::new(
                "cache size must be a nonzero multiple of associativity times block size",
            ));
        }
        let sets = size_bytes / (assoc as u64 * block_bytes as u64);
        if !sets.is_power_of_two() {
            return Err(ConfigError::new(
                "number of cache sets must be a power of two",
            ));
        }
        Ok(CacheGeometry {
            size_bytes,
            assoc,
            block_bytes,
            latency,
        })
    }

    /// Const constructor for statically-known geometries (the Table 1
    /// constants). Enforces the same invariants as [`CacheGeometry::new`];
    /// used to initialize a `const`, a violation is a compile error rather
    /// than a runtime panic.
    const fn checked(size_bytes: u64, assoc: u32, block_bytes: u32, latency: u64) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "cache block size must be a power of two"
        );
        assert!(
            assoc != 0 && assoc <= 32,
            "cache associativity must be in 1..=32"
        );
        assert!(
            size_bytes != 0 && size_bytes.is_multiple_of(assoc as u64 * block_bytes as u64),
            "cache size must be a nonzero multiple of associativity times block size"
        );
        let sets = size_bytes / (assoc as u64 * block_bytes as u64);
        assert!(
            sets.is_power_of_two(),
            "number of cache sets must be a power of two"
        );
        CacheGeometry {
            size_bytes,
            assoc,
            block_bytes,
            latency,
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (ways per set).
    #[inline]
    pub const fn total_ways(&self) -> u32 {
        self.assoc
    }

    /// Block (line) size in bytes.
    #[inline]
    pub const fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Hit latency in cycles.
    #[inline]
    pub const fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of sets.
    #[inline]
    pub const fn sets(&self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.block_bytes as u64)
    }

    /// log2 of the block size.
    #[inline]
    pub const fn offset_bits(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// log2 of the number of sets.
    #[inline]
    pub const fn index_bits(&self) -> u32 {
        self.sets().trailing_zeros()
    }

    /// Returns a copy with a different hit latency.
    #[must_use]
    pub const fn with_latency(mut self, latency: u64) -> Self {
        self.latency = latency;
        self
    }

    /// Returns a copy scaled to `factor` times the capacity (same
    /// associativity, more sets).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the scaled size is invalid.
    pub fn scaled_capacity(&self, factor: u64) -> Result<Self> {
        CacheGeometry::new(
            self.size_bytes * factor,
            self.assoc,
            self.block_bytes,
            self.latency,
        )
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KiB {}-way, {} B blocks, {}-cycle",
            self.size_bytes / 1024,
            self.assoc,
            self.block_bytes,
            self.latency
        )
    }
}

/// Pipeline parameters of one out-of-order core (Table 1, upper half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Register update unit (instruction window / ROB) size.
    pub ruu_size: usize,
    /// Load/store queue size.
    pub lsq_size: usize,
    /// Fetch queue size in instructions.
    pub fetch_queue: usize,
    /// Fetch, decode, issue and commit width (instructions per cycle).
    pub width: usize,
    /// Number of integer ALUs.
    pub int_alus: usize,
    /// Number of floating-point ALUs.
    pub fp_alus: usize,
    /// Number of integer multiply/divide units.
    pub int_mul: usize,
    /// Number of floating-point multiply/divide units.
    pub fp_mul: usize,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
}

impl PipelineConfig {
    /// The Table 1 baseline pipeline.
    pub const TABLE1: Self = PipelineConfig {
        ruu_size: 128,
        lsq_size: 64,
        fetch_queue: 4,
        width: 4,
        int_alus: 4,
        fp_alus: 4,
        int_mul: 1,
        fp_mul: 1,
        mispredict_penalty: 7,
    };
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::TABLE1
    }
}

/// Branch predictor parameters (combined predictor with BTB, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchConfig {
    /// Bimodal table entries.
    pub bimodal_entries: usize,
    /// Second-level (history-indexed) table entries.
    pub level2_entries: usize,
    /// Global history length in bits.
    pub history_bits: u32,
    /// Chooser (meta-predictor) table entries.
    pub chooser_entries: usize,
    /// Branch target buffer entries.
    pub btb_entries: usize,
    /// Branch target buffer associativity.
    pub btb_assoc: usize,
}

impl BranchConfig {
    /// The Table 1 baseline combined predictor.
    pub const TABLE1: Self = BranchConfig {
        bimodal_entries: 4096,
        level2_entries: 1024,
        history_bits: 10,
        chooser_entries: 4096,
        btb_entries: 512,
        btb_assoc: 4,
    };
}

impl Default for BranchConfig {
    fn default() -> Self {
        BranchConfig::TABLE1
    }
}

/// Translation lookaside buffer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Number of fully-associative entries.
    pub entries: usize,
    /// Miss penalty in cycles.
    pub miss_penalty: u64,
}

impl TlbConfig {
    /// The Table 1 baseline TLB.
    pub const TABLE1: Self = TlbConfig {
        entries: 128,
        miss_penalty: 30,
    };
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::TABLE1
    }
}

/// Main-memory timing (Table 1, "Main Memory" row).
///
/// The first chunk of a line fill arrives after `first_chunk_*` cycles;
/// subsequent 8-byte chunks arrive every `inter_chunk` cycles. The shared
/// off-chip bus enforces the 9 GB/s (2 bytes/cycle at 4.5 GHz) limit by
/// serializing chunk transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryConfig {
    /// First-chunk latency when the L3 is organized as a shared/NUCA cache.
    pub first_chunk_shared: u64,
    /// First-chunk latency when the L3 is a pure private organization
    /// (two cycles less: no global lookup before going off chip).
    pub first_chunk_private: u64,
    /// Cycles between successive chunks of the same line fill.
    pub inter_chunk: u64,
    /// Chunk size in bytes.
    pub chunk_bytes: u32,
}

impl MemoryConfig {
    /// The Table 1 baseline memory timing.
    pub const TABLE1: Self = MemoryConfig {
        first_chunk_shared: 260,
        first_chunk_private: 258,
        inter_chunk: 4,
        chunk_bytes: 8,
    };
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig::TABLE1
    }
}

impl MemoryConfig {
    /// Number of chunks in one `block_bytes`-byte line fill.
    #[inline]
    pub const fn chunks_per_line(&self, block_bytes: u32) -> u64 {
        (block_bytes / self.chunk_bytes) as u64
    }

    /// Bus occupancy of one line fill in cycles.
    #[inline]
    pub const fn line_occupancy(&self, block_bytes: u32) -> u64 {
        self.chunks_per_line(block_bytes) * self.inter_chunk
    }
}

/// Last-level (L3) cache description: both the shared and the per-core
/// private geometries, since the organizations under study interpret the
/// same silicon differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct L3Config {
    /// The aggregate shared organization: 4 MByte, 16-way, 19 cycles.
    pub shared: CacheGeometry,
    /// One core's private slice: 1 MByte, 4-way, 14 cycles.
    pub private: CacheGeometry,
    /// Latency of a hit in a neighboring slice or in the shared partition.
    pub neighbor_latency: u64,
}

impl L3Config {
    /// The baseline 4-MByte L3 of Table 1 for a `cores`-core chip.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cores` is zero or the derived geometries
    /// are invalid.
    pub fn baseline(cores: usize) -> Result<Self> {
        if cores == 0 {
            return Err(ConfigError::new("core count must be nonzero"));
        }
        let shared_bytes = 4 * 1024 * 1024;
        let shared = CacheGeometry::new(shared_bytes, 4 * cores as u32, 64, 19)?;
        let private = CacheGeometry::new(shared_bytes / cores as u64, 4, 64, 14)?;
        Ok(L3Config {
            shared,
            private,
            neighbor_latency: 19,
        })
    }
}

/// The complete simulated machine: Table 1 of the paper.
///
/// Construct with [`MachineConfig::baseline`] or via
/// [`MachineConfigBuilder`]; derive the evaluation variants with
/// [`MachineConfig::with_l3_scale`] (Figure 9) and
/// [`MachineConfig::technology_scaled`] (Figure 10).
///
/// # Example
///
/// ```
/// use simcore::config::MachineConfig;
/// let m = MachineConfig::baseline();
/// let big = m.with_l3_scale(2).unwrap();     // Figure 9: 8-MByte L3
/// assert_eq!(big.l3.shared.size_bytes(), 8 * 1024 * 1024);
/// let scaled = m.technology_scaled();        // Figure 10 latencies
/// assert_eq!(scaled.l2.latency(), 11);
/// assert_eq!(scaled.memory.first_chunk_shared, 338);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Number of independent cores (the paper evaluates 4).
    pub cores: usize,
    /// Pipeline parameters shared by all cores.
    pub pipeline: PipelineConfig,
    /// Branch predictor parameters.
    pub branch: BranchConfig,
    /// L1 instruction cache: 64 KiB 2-way, 2-cycle.
    pub l1i: CacheGeometry,
    /// L1 data cache: 64 KiB 2-way, 3-cycle.
    pub l1d: CacheGeometry,
    /// Unified per-core L2: 256 KiB 4-way, 9-cycle.
    pub l2: CacheGeometry,
    /// Last-level cache description.
    pub l3: L3Config,
    /// Instruction/data TLBs.
    pub tlb: TlbConfig,
    /// Main memory and off-chip bus.
    pub memory: MemoryConfig,
}

impl MachineConfig {
    /// The baseline 4-core machine of Table 1 as a compile-time constant.
    ///
    /// Every geometry goes through `CacheGeometry::checked`, so an
    /// invalid constant fails the build instead of erroring at runtime;
    /// the cross-field invariants are pinned by unit test against
    /// [`MachineConfigBuilder`].
    pub const TABLE1: Self = MachineConfig {
        cores: 4,
        pipeline: PipelineConfig::TABLE1,
        branch: BranchConfig::TABLE1,
        l1i: CacheGeometry::checked(64 * 1024, 2, 64, 2),
        l1d: CacheGeometry::checked(64 * 1024, 2, 64, 3),
        l2: CacheGeometry::checked(256 * 1024, 4, 64, 9),
        l3: L3Config {
            shared: CacheGeometry::checked(4 * 1024 * 1024, 16, 64, 19),
            private: CacheGeometry::checked(1024 * 1024, 4, 64, 14),
            neighbor_latency: 19,
        },
        tlb: TlbConfig::TABLE1,
        memory: MemoryConfig::TABLE1,
    };

    /// The baseline 4-core configuration of Table 1.
    pub const fn baseline() -> Self {
        Self::TABLE1
    }

    /// Returns a copy with the L3 capacity multiplied by `factor`
    /// (Figure 9 uses `factor = 2` for the 8-MByte cache, keeping the same
    /// timing model as the 4-MByte cache, as the paper does).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the scaled geometry is invalid.
    pub fn with_l3_scale(&self, factor: u64) -> Result<Self> {
        let mut next = *self;
        next.l3.shared = self.l3.shared.scaled_capacity(factor)?;
        next.l3.private = self.l3.private.scaled_capacity(factor)?;
        Ok(next)
    }

    /// The technology-scaled machine of Section 4.5 / Figure 10.
    ///
    /// Core cycle time shrinks by 30 % while wires do not: L2 goes from 9 to
    /// 11 cycles, the L3 private/shared latencies from 14/19 to 16/24, and
    /// main memory from 258/260 to 330/338 cycles.
    #[must_use]
    pub fn technology_scaled(&self) -> Self {
        let mut next = *self;
        next.l2 = next.l2.with_latency(11);
        next.l3.private = next.l3.private.with_latency(16);
        next.l3.shared = next.l3.shared.with_latency(24);
        next.l3.neighbor_latency = 24;
        next.memory.first_chunk_private = 330;
        next.memory.first_chunk_shared = 338;
        next
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when block sizes disagree between levels or
    /// the L3 slices do not tile the shared capacity.
    pub fn validate(&self) -> Result<()> {
        if self.cores == 0 || self.cores > 256 {
            return Err(ConfigError::new("core count must be in 1..=256"));
        }
        let b = self.l1d.block_bytes();
        if self.l1i.block_bytes() != b
            || self.l2.block_bytes() != b
            || self.l3.shared.block_bytes() != b
            || self.l3.private.block_bytes() != b
        {
            return Err(ConfigError::new(
                "all cache levels must share one block size",
            ));
        }
        if self.l3.private.size_bytes() * self.cores as u64 != self.l3.shared.size_bytes() {
            return Err(ConfigError::new(
                "private L3 slices must tile the shared L3 capacity exactly",
            ));
        }
        if self.l3.private.total_ways() * self.cores as u32 != self.l3.shared.total_ways() {
            return Err(ConfigError::new(
                "private L3 ways times cores must equal shared L3 ways",
            ));
        }
        if self.pipeline.width == 0 || self.pipeline.ruu_size == 0 {
            return Err(ConfigError::new(
                "pipeline width and RUU size must be nonzero",
            ));
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::baseline()
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} cores, {}-wide OoO, RUU {} / LSQ {}",
            self.cores, self.pipeline.width, self.pipeline.ruu_size, self.pipeline.lsq_size
        )?;
        writeln!(f, "L1I {}", self.l1i)?;
        writeln!(f, "L1D {}", self.l1d)?;
        writeln!(f, "L2  {}", self.l2)?;
        writeln!(
            f,
            "L3  shared {} / private slice {} (neighbor {}-cycle)",
            self.l3.shared, self.l3.private, self.l3.neighbor_latency
        )?;
        write!(
            f,
            "mem {}+{}x{} cycles ({} B chunks)",
            self.memory.first_chunk_shared,
            self.memory.chunks_per_line(self.l1d.block_bytes()) - 1,
            self.memory.inter_chunk,
            self.memory.chunk_bytes
        )
    }
}

/// Builder for [`MachineConfig`] (C-BUILDER).
///
/// All setters take and return `&mut self`; call [`build`](Self::build) to
/// validate and produce the configuration.
///
/// # Example
///
/// ```
/// use simcore::config::MachineConfigBuilder;
/// let m = MachineConfigBuilder::new()
///     .cores(4)
///     .l3_private_latency(14)
///     .build()
///     .unwrap();
/// assert_eq!(m.l3.private.latency(), 14);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    cores: usize,
    pipeline: PipelineConfig,
    branch: BranchConfig,
    tlb: TlbConfig,
    memory: MemoryConfig,
    l2_size: u64,
    l3_shared_latency: u64,
    l3_private_latency: u64,
    l3_neighbor_latency: u64,
    l3_capacity: u64,
}

impl MachineConfigBuilder {
    /// Starts from the Table 1 baseline.
    pub fn new() -> Self {
        MachineConfigBuilder {
            cores: 4,
            pipeline: PipelineConfig::default(),
            branch: BranchConfig::default(),
            tlb: TlbConfig::default(),
            memory: MemoryConfig::default(),
            l2_size: 256 * 1024,
            l3_shared_latency: 19,
            l3_private_latency: 14,
            l3_neighbor_latency: 19,
            l3_capacity: 4 * 1024 * 1024,
        }
    }

    /// Sets the number of cores.
    pub fn cores(&mut self, cores: usize) -> &mut Self {
        self.cores = cores;
        self
    }

    /// Sets the pipeline parameters.
    pub fn pipeline(&mut self, pipeline: PipelineConfig) -> &mut Self {
        self.pipeline = pipeline;
        self
    }

    /// Sets the branch predictor parameters.
    pub fn branch(&mut self, branch: BranchConfig) -> &mut Self {
        self.branch = branch;
        self
    }

    /// Sets the TLB parameters.
    pub fn tlb(&mut self, tlb: TlbConfig) -> &mut Self {
        self.tlb = tlb;
        self
    }

    /// Sets the memory timing.
    pub fn memory(&mut self, memory: MemoryConfig) -> &mut Self {
        self.memory = memory;
        self
    }

    /// Sets the unified L2 capacity in bytes.
    pub fn l2_size(&mut self, bytes: u64) -> &mut Self {
        self.l2_size = bytes;
        self
    }

    /// Sets the aggregate L3 capacity in bytes.
    pub fn l3_capacity(&mut self, bytes: u64) -> &mut Self {
        self.l3_capacity = bytes;
        self
    }

    /// Sets the shared-organization L3 hit latency.
    pub fn l3_shared_latency(&mut self, cycles: u64) -> &mut Self {
        self.l3_shared_latency = cycles;
        self
    }

    /// Sets the private-slice L3 hit latency.
    pub fn l3_private_latency(&mut self, cycles: u64) -> &mut Self {
        self.l3_private_latency = cycles;
        self
    }

    /// Sets the neighbor-slice / shared-partition hit latency.
    pub fn l3_neighbor_latency(&mut self, cycles: u64) -> &mut Self {
        self.l3_neighbor_latency = cycles;
        self
    }

    /// Validates and builds the [`MachineConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any geometry is invalid or cross-field
    /// invariants fail.
    pub fn build(&self) -> Result<MachineConfig> {
        let l1i = CacheGeometry::new(64 * 1024, 2, 64, 2)?;
        let l1d = CacheGeometry::new(64 * 1024, 2, 64, 3)?;
        let l2 = CacheGeometry::new(self.l2_size, 4, 64, 9)?;
        let shared = CacheGeometry::new(
            self.l3_capacity,
            4 * self.cores as u32,
            64,
            self.l3_shared_latency,
        )?;
        let private = CacheGeometry::new(
            self.l3_capacity / self.cores.max(1) as u64,
            4,
            64,
            self.l3_private_latency,
        )?;
        let config = MachineConfig {
            cores: self.cores,
            pipeline: self.pipeline,
            branch: self.branch,
            l1i,
            l1d,
            l2,
            l3: L3Config {
                shared,
                private,
                neighbor_latency: self.l3_neighbor_latency,
            },
            tlb: self.tlb,
            memory: self.memory,
        };
        config.validate()?;
        Ok(config)
    }
}

impl Default for MachineConfigBuilder {
    fn default() -> Self {
        MachineConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_1() {
        let m = MachineConfig::baseline();
        assert_eq!(m.cores, 4);
        assert_eq!(m.pipeline.ruu_size, 128);
        assert_eq!(m.pipeline.lsq_size, 64);
        assert_eq!(m.pipeline.width, 4);
        assert_eq!(m.pipeline.mispredict_penalty, 7);
        assert_eq!(m.l1i.size_bytes(), 64 * 1024);
        assert_eq!(m.l1i.latency(), 2);
        assert_eq!(m.l1d.latency(), 3);
        assert_eq!(m.l2.size_bytes(), 256 * 1024);
        assert_eq!(m.l2.latency(), 9);
        assert_eq!(m.l3.shared.size_bytes(), 4 * 1024 * 1024);
        assert_eq!(m.l3.shared.total_ways(), 16);
        assert_eq!(m.l3.shared.latency(), 19);
        assert_eq!(m.l3.private.size_bytes(), 1024 * 1024);
        assert_eq!(m.l3.private.total_ways(), 4);
        assert_eq!(m.l3.private.latency(), 14);
        assert_eq!(m.l3.neighbor_latency, 19);
        assert_eq!(m.tlb.entries, 128);
        assert_eq!(m.tlb.miss_penalty, 30);
        assert_eq!(m.memory.first_chunk_shared, 260);
        assert_eq!(m.memory.first_chunk_private, 258);
        assert_eq!(m.memory.inter_chunk, 4);
        m.validate().unwrap();
    }

    #[test]
    fn const_baseline_equals_builder_output() {
        // The compile-time TABLE1 constant and the runtime builder must
        // describe the same machine, so neither can silently drift.
        let built = MachineConfigBuilder::new().build().unwrap();
        assert_eq!(MachineConfig::TABLE1, built);
        MachineConfig::TABLE1.validate().unwrap();
    }

    #[test]
    fn geometry_rejects_bad_parameters() {
        assert!(CacheGeometry::new(1000, 2, 64, 1).is_err());
        assert!(CacheGeometry::new(64 * 1024, 0, 64, 1).is_err());
        assert!(CacheGeometry::new(64 * 1024, 2, 48, 1).is_err());
        assert!(CacheGeometry::new(0, 2, 64, 1).is_err());
    }

    #[test]
    fn geometry_derived_fields() {
        let g = CacheGeometry::new(4 * 1024 * 1024, 16, 64, 19).unwrap();
        assert_eq!(g.sets(), 4096);
        assert_eq!(g.index_bits(), 12);
        assert_eq!(g.offset_bits(), 6);
    }

    #[test]
    fn figure9_scaling_doubles_l3() {
        let m = MachineConfig::baseline().with_l3_scale(2).unwrap();
        assert_eq!(m.l3.shared.size_bytes(), 8 * 1024 * 1024);
        assert_eq!(m.l3.private.size_bytes(), 2 * 1024 * 1024);
        // Same timing model as the 4-MByte cache, per Section 4.4.
        assert_eq!(m.l3.shared.latency(), 19);
        m.validate().unwrap();
    }

    #[test]
    fn figure10_technology_scaling_latencies() {
        let m = MachineConfig::baseline().technology_scaled();
        assert_eq!(m.l2.latency(), 11);
        assert_eq!(m.l3.private.latency(), 16);
        assert_eq!(m.l3.shared.latency(), 24);
        assert_eq!(m.l3.neighbor_latency, 24);
        assert_eq!(m.memory.first_chunk_private, 330);
        assert_eq!(m.memory.first_chunk_shared, 338);
        m.validate().unwrap();
    }

    #[test]
    fn memory_chunk_arithmetic() {
        let mem = MemoryConfig::default();
        assert_eq!(mem.chunks_per_line(64), 8);
        assert_eq!(mem.line_occupancy(64), 32);
    }

    #[test]
    fn builder_customization() {
        let m = MachineConfigBuilder::new()
            .cores(2)
            .l3_capacity(2 * 1024 * 1024)
            .l3_private_latency(12)
            .build()
            .unwrap();
        assert_eq!(m.cores, 2);
        assert_eq!(m.l3.shared.total_ways(), 8);
        assert_eq!(m.l3.private.latency(), 12);
    }

    #[test]
    fn builder_rejects_zero_cores() {
        assert!(MachineConfigBuilder::new().cores(0).build().is_err());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(format!("{}", MachineConfig::baseline()).contains("L3"));
    }
}
