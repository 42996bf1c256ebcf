//! The campaign engine: declarative sweep specs, warm-state
//! snapshot/fork, and crash-safe sharded execution (DESIGN.md §9).
//!
//! A *campaign* is the design-space-exploration layer above
//! [`nuca_core::experiment`]: a committed `.toml` spec describes axes
//! (organization, L3 size/ways/latency, memory latency, mix seeds,
//! time-sampling schedule) that expand into a flat, deterministic grid of
//! simulation cells. The engine then
//!
//! 1. optionally *screens* the grid with the analytical cost/latency
//!    model of [`nuca_core::cost`], pruning cells dominated on both
//!    storage cost and modeled service latency (every pruned cell is
//!    logged in the manifest — pruning is never silent);
//! 2. groups the surviving cells by *warm fingerprint* — the hash of
//!    everything the functional warm-up state depends on — pays the
//!    functional warm-up once per group, snapshots the chip with
//!    [`nuca_core::cmp::Cmp::save_chip_state`], and forks the bytes
//!    into every cell of the group (restore → timed run is pinned
//!    bit-identical to warming through);
//! 3. appends one JSON line per finished cell to a manifest, in cell
//!    order, so a killed campaign resumes exactly where it stopped and
//!    a sharded campaign merges bit-identically with an uninterrupted
//!    single-process run.
//!
//! The library never prints; progress flows through a caller-supplied
//! event callback and a [`telemetry::registry::Registry`] of counters.

pub mod driver;
pub mod grid;
pub mod manifest;
pub mod runner;
pub mod screen;
pub mod spec;

use std::fmt;

/// Any error the campaign engine can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The spec file failed to parse or validate (message carries
    /// `file:line:` context).
    Spec(String),
    /// A cell's machine configuration failed to build.
    Config(String),
    /// A file-system operation on the manifest or spec failed.
    Io(String),
    /// A manifest being resumed or merged is inconsistent.
    Manifest(String),
    /// A chip-state snapshot failed to encode or decode.
    Snapshot(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(m) => write!(f, "spec error: {m}"),
            CampaignError::Config(m) => write!(f, "config error: {m}"),
            CampaignError::Io(m) => write!(f, "io error: {m}"),
            CampaignError::Manifest(m) => write!(f, "manifest error: {m}"),
            CampaignError::Snapshot(m) => write!(f, "snapshot error: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<simcore::error::ConfigError> for CampaignError {
    fn from(e: simcore::error::ConfigError) -> Self {
        CampaignError::Config(e.to_string())
    }
}

impl From<simcore::snapshot::SnapshotError> for CampaignError {
    fn from(e: simcore::snapshot::SnapshotError) -> Self {
        CampaignError::Snapshot(format!("{e:?}"))
    }
}
