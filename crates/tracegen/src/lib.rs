//! Synthetic SPEC2000-like workloads for the NUCA CMP simulator.
//!
//! The paper drives its SimpleScalar-based simulator with all SPEC2000
//! applications (reference inputs, `vortex` and `sixtrack` excluded).
//! SPEC binaries and traces are proprietary, so this crate substitutes
//! **statistical micro-op generators**: each application is described by an
//! [`AppProfile`] capturing the properties the evaluated mechanisms
//! actually observe —
//!
//! - instruction mix and data-dependency distances (bounds core ILP),
//! - branch pool size and predictability (drives the real predictor),
//! - a hierarchical locality model (L1-resident, L2-resident, L3 "hot"
//!   region sized in blocks-per-set, and a streaming region of cold
//!   misses) that determines per-set associativity demand — the quantity
//!   the adaptive partitioning scheme estimates and trades between cores.
//!
//! [`spec`] provides 24 calibrated profiles named after the SPEC2000
//! applications the paper uses; the calibration targets are the paper's
//! Figure 3 (miss curves vs blocks/set: `mcf` flat after one block, `gzip`
//! saturating at four, `ammp`/`art`/`twolf`/`vpr` improving beyond four)
//! and Figure 5 (last-level-cache intensity classification, threshold
//! nine accesses per thousand cycles).
//!
//! [`workload`] builds the multiprogrammed mixes of Section 3: four
//! randomly picked applications, each independently fast-forwarded.
//!
//! # Example
//!
//! ```
//! use tracegen::spec::SpecApp;
//! use tracegen::generator::TraceGenerator;
//! use simcore::rng::SimRng;
//!
//! let mut gen = TraceGenerator::new(SpecApp::Mcf.profile(), SimRng::seed_from(1));
//! let op = gen.next_op();
//! assert!(gen.dep_distance(op.dep1) >= 1);
//! ```

mod dep;
pub mod generator;
pub mod op;
pub mod profile;
pub mod spec;
pub mod workload;

pub use generator::TraceGenerator;
pub use op::{MicroOp, OpClass};
pub use profile::{AppProfile, AppProfileBuilder, MemoryMix, RegionLayout};
pub use spec::SpecApp;
pub use workload::{Mix, WorkloadPool};
