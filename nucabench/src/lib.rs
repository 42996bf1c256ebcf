//! The repository benchmark for the NUCA simulator.
//!
//! It drives the simulator only through public APIs (`Cmp`, `Core`,
//! `L3System`, `TraceGenerator`, `Cache`, `MainMemory`) and times the
//! calls into each layer from outside. See `README.md` in this directory
//! for the workloads, metrics and how to run it.

pub mod bench;
pub mod cell;
pub mod expected;
pub mod layers;
pub mod probe;
pub mod replay;
pub mod report;
pub mod workload;
