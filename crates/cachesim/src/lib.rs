//! Cache structures for the NUCA chip-multiprocessor simulator.
//!
//! This crate provides the building blocks every cache organization in the
//! workspace is assembled from:
//!
//! - [`lru`] — an explicit LRU stack over way indices, the primitive both
//!   the conventional levels and the paper's partitioned last-level cache
//!   are built on (the adaptive scheme inspects LRU *positions*, so the
//!   stack must be a first-class object rather than timestamps).
//! - [`cache`] — a generic set-associative, write-back/write-allocate cache
//!   used for L1I/L1D/L2 and the private and shared last-level
//!   organizations.
//! - [`mshr`] — miss status holding registers for the non-blocking
//!   hierarchy (secondary misses merge onto an outstanding fill).
//! - [`shadow`] — the paper's shadow-tag table (Figure 4b) with the
//!   low-index set sampling of Section 4.6.
//! - [`percore`] — a tiny fixed-size per-core table type used for the
//!   counters of Figure 4c and the partition parameters of Figure 4d.
//!
//! # Example
//!
//! ```
//! use cachesim::cache::{Cache, Lookup};
//! use simcore::config::CacheGeometry;
//! use simcore::types::{Address, CoreId};
//!
//! let geom = CacheGeometry::new(64 * 1024, 2, 64, 3).unwrap();
//! let mut l1 = Cache::new(geom);
//! let a = Address::new(0x1000);
//! let c0 = CoreId::from_index(0);
//! assert_eq!(l1.access(a, false, c0), Lookup::Miss);
//! l1.fill(a, false, c0);
//! assert!(matches!(l1.access(a, false, c0), Lookup::Hit { .. }));
//! ```

pub mod cache;
pub mod lru;
pub mod mshr;
pub mod percore;
pub mod shadow;

pub use cache::{Cache, EvictedBlock, Lookup};
pub use lru::LruStack;
pub use mshr::MshrFile;
pub use percore::PerCore;
pub use shadow::{SetSampling, ShadowTags};
