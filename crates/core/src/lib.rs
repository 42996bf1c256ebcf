//! # Adaptive shared/private NUCA cache partitioning
//!
//! A from-scratch reproduction of *"An Adaptive Shared/Private NUCA Cache
//! Partitioning Scheme for Chip Multiprocessors"* (Dybdahl & Stenström,
//! HPCA 2007).
//!
//! The paper proposes a last-level (L3) cache for chip multiprocessors in
//! which each core owns a local slice split into a **private** partition
//! (fast, 14 cycles, inaccessible to other cores) and a contribution to a
//! chip-wide **shared** partition (19 cycles). A *sharing engine*
//! continuously estimates, per core,
//!
//! - the **gain** of one more block per set — misses whose address matches
//!   the core's *shadow tag* (the most recently evicted tag, Figure 4b),
//!   and
//! - the **loss** of one fewer block per set — hits in the core's
//!   private-LRU block (after Suh et al.),
//!
//! and every 2000 L3 misses moves one block-per-set of quota from the core
//! with the smallest loss to the core with the largest gain, if the gain
//! exceeds the loss. Replacement follows Algorithm 1: fills go to the
//! requester's private partition; the demoted private-LRU block enters the
//! shared partition, whose victim is the LRU-most block of any
//! *over-quota* core (falling back to the global LRU block). Repartitioning
//! is lazy: quota changes only steer future replacements.
//!
//! ## Crate layout
//!
//! - [`l3`] — the last-level organizations the paper evaluates, built
//!   by [`l3::L3System`] around the chip's one memory channel: private
//!   and shared LRU slices, [`l3::AdaptiveL3`] (the contribution) and
//!   [`l3::CooperativeL3`] (Chang & Sohi's scheme as described in §4.7,
//!   "random replacement").
//! - [`engine`] — the sharing engine: per-core counters, shadow-tag
//!   integration and the re-evaluation rule.
//! - [`cmp`] — the four-core chip: cores, organization and memory bound
//!   together behind one `step`/`run` interface.
//! - [`experiment`] — the evaluation harness (mix runner, Figure 5
//!   classifier, Figure 3 sensitivity sweep).
//! - [`cost`] — the §2.7 storage-cost model (152 Kbits for the baseline).
//!
//! ## Quick start
//!
//! ```
//! use nuca_core::cmp::Cmp;
//! use nuca_core::l3::Organization;
//! use simcore::config::MachineConfig;
//! use tracegen::spec::SpecApp;
//! use tracegen::workload::WorkloadPool;
//!
//! let machine = MachineConfig::baseline();
//! let mix = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), 4, 1, 42)
//!     .pop()
//!     .unwrap();
//! let mut cmp = Cmp::new(&machine, Organization::adaptive(), &mix, 42).unwrap();
//! cmp.run(20_000);
//! let result = cmp.snapshot();
//! assert_eq!(result.per_core.len(), 4);
//! ```

pub mod cmp;
pub mod cost;
pub mod engine;
pub mod experiment;
pub mod l3;

pub use cmp::{Cmp, CmpResult};
pub use engine::{AdaptiveParams, SharingEngine};
pub use l3::{AdaptiveL3, CooperativeL3, L3System, Organization};
