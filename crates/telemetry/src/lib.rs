//! Zero-cost-when-off tracing and metrics for the NUCA simulator.
//!
//! The paper's mechanism is a *dynamic* one — shadow-tag gain vs.
//! LRU-loss estimates move one block/set of quota every 2000-miss epoch
//! — so end-of-run aggregates alone cannot tell a correct quota
//! trajectory from a broken one. This crate makes the trajectory (and
//! the cache/MSHR/memory traffic around it) observable:
//!
//! - [`Sink`] / [`NullSink`] / [`Recorder`]: the emission boundary.
//!   Simulator components are generic over `S: Sink` with `NullSink` as
//!   the default; every emission site is guarded by `if S::ENABLED`, so
//!   the untraced build monomorphizes to exactly the code it had before
//!   this crate existed (verified by the `telemetry_overhead` bench).
//! - [`Event`] / [`EventKind`]: the typed taxonomy — `Repartition`,
//!   `Epoch`, `ShadowHit`, `LruHit`, `Demotion`, `SharedEviction`,
//!   `Eviction`, `Spill`, `Mshr*`, `MemoryFill`.
//! - [`Tracer`]: a fixed-capacity ring buffer for high-frequency events
//!   with full retention of structural (quota-trajectory) events and
//!   exact per-kind/per-core counts.
//! - [`export`]: deterministic JSONL export ([`export::render_jsonl`]),
//!   schema + replay validation ([`export::validate_jsonl`], which
//!   reconstructs `SharingEngine::quotas()` from the event stream — the
//!   bit-for-bit property CI enforces) and the `--metrics-out` document
//!   ([`export::metrics_json`]).
//! - [`Registry`]: the insertion-ordered `/`-path counters behind the
//!   JSON export.
//! - [`collector`]: opt-in process-wide collection used by the figure
//!   binaries (`--trace <path>`); traces are gathered
//!   in cell order, so output is identical for every `--jobs` value.
//!
//! The `trace-view` binary (this crate's `src/bin`) summarizes and
//! validates trace files; see README.md §Observability.

pub mod collector;
pub mod event;
pub mod export;
pub mod json;
pub mod registry;
pub mod sink;

pub use event::{CoreOccupancy, Event, EventKind, TraceRecord};
pub use registry::Registry;
pub use sink::{NullSink, Recorder, Sink, Trace, TraceMeta, Tracer};
