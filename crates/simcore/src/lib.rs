//! Foundation crate for the NUCA chip-multiprocessor simulator.
//!
//! `simcore` provides the vocabulary shared by every other crate in this
//! workspace:
//!
//! - [`types`] — strongly-typed identifiers and quantities ([`Address`],
//!   [`BlockAddr`], [`CoreId`], [`Cycle`]) so that byte addresses, block
//!   addresses, cycle counts and core indices can never be confused.
//! - [`config`] — the full machine description from Table 1 of the paper,
//!   with a builder and the derived configurations used by the evaluation
//!   (8-MByte last-level cache for Figure 9, technology-scaled latencies for
//!   Figure 10).
//! - [`stats`] — hit/miss tallies and the summary statistics the paper
//!   reports (harmonic and arithmetic mean of per-core IPC).
//! - [`parallel`] — a deterministic scoped-thread runner for independent
//!   simulation cells (the only sanctioned way to spawn threads; see
//!   `nuca-lint` rule L5).
//! - [`rng`] — a small, deterministic pseudo-random number generator
//!   (SplitMix64 seeding a xoshiro256** stream) so that every experiment is
//!   exactly reproducible from its seed.
//! - [`snapshot`] — the versioned, checksummed binary codec used to
//!   persist post-warm-up chip state for the campaign engine.
//! - [`error`] — the crate-level error type.
//!
//! # Example
//!
//! ```
//! use simcore::config::MachineConfig;
//! use simcore::types::CoreId;
//!
//! let machine = MachineConfig::baseline();
//! assert_eq!(machine.cores, 4);
//! assert_eq!(machine.l3.shared.total_ways(), 16);
//! let core = CoreId::new(2, machine.cores).expect("core 2 exists");
//! assert_eq!(core.index(), 2);
//! ```

pub mod config;
pub mod error;
pub mod invariant;
pub mod parallel;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod types;

pub use config::MachineConfig;
pub use error::{ConfigError, Result};
pub use invariant::{Invariant, Violation};
pub use rng::SimRng;
pub use types::{Address, BlockAddr, CoreId, Cycle};
