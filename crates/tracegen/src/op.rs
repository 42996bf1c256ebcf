//! The micro-operation vocabulary consumed by the out-of-order core model.

use simcore::types::Address;
use std::fmt;

/// Functional classes of micro-operations, mirroring the functional units
/// of Table 1 (4 INT ALUs, 4 FP ALUs, 1 INT mul/div, 1 FP mul/div) plus
/// memory and control operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer operation (1-cycle ALU).
    IntAlu,
    /// Floating-point add/compare (2-cycle FP ALU).
    FpAlu,
    /// Integer multiply/divide (single shared unit).
    IntMul,
    /// Floating-point multiply/divide (single shared unit).
    FpMul,
    /// Data load; `addr` is the effective address.
    Load,
    /// Data store; retires through the store queue without blocking.
    Store,
    /// Conditional branch; `taken` is the architected outcome.
    Branch,
}

impl OpClass {
    /// Execution latency on its functional unit (memory latency for loads
    /// comes from the cache hierarchy instead).
    #[inline]
    pub const fn base_latency(self) -> u64 {
        match self {
            OpClass::IntAlu | OpClass::Branch | OpClass::Store => 1,
            OpClass::FpAlu => 2,
            OpClass::IntMul => 3,
            OpClass::Load => 1,
            OpClass::FpMul => 4,
        }
    }

    /// Whether the op accesses data memory.
    #[inline]
    pub const fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int",
            OpClass::FpAlu => "fp",
            OpClass::IntMul => "imul",
            OpClass::FpMul => "fmul",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
        };
        f.write_str(s)
    }
}

/// Marks a missing second source in [`MicroOp::dep2`]. Dependency draws
/// are below 2^53, so the sentinel never clashes with one.
pub const NO_DEP: u64 = u64::MAX;

/// One dynamic micro-operation produced by a [`TraceGenerator`].
///
/// Dependencies travel as raw draws, which
/// [`TraceGenerator::dep_distance`] turns into *distances*: 3 means this
/// op reads the value produced by the op three positions earlier in
/// program order (0 means no dependency). The core resolves them at
/// dispatch, against its reorder buffer, which bounds them naturally;
/// ops that never dispatch (functional warm, the drain at a window
/// boundary) never pay for the conversion.
///
/// [`TraceGenerator`]: crate::generator::TraceGenerator
/// [`TraceGenerator::dep_distance`]: crate::generator::TraceGenerator::dep_distance
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Program counter of the instruction.
    pub pc: Address,
    /// Functional class.
    pub class: OpClass,
    /// Effective address for loads and stores.
    pub addr: Option<Address>,
    /// Architected branch outcome (meaningful only for branches).
    pub taken: bool,
    /// Raw dependency draw of the first source operand (53 bits).
    pub dep1: u64,
    /// Raw draw of the second source operand, or [`NO_DEP`] when the op
    /// has none.
    pub dep2: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_ordered_sensibly() {
        assert_eq!(OpClass::IntAlu.base_latency(), 1);
        assert!(OpClass::FpMul.base_latency() > OpClass::FpAlu.base_latency());
        assert!(OpClass::IntMul.base_latency() > OpClass::IntAlu.base_latency());
    }

    #[test]
    fn memory_classification() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Branch.is_mem());
    }

    #[test]
    fn display_nonempty() {
        for c in [
            OpClass::IntAlu,
            OpClass::FpAlu,
            OpClass::IntMul,
            OpClass::FpMul,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
        ] {
            assert!(!format!("{c}").is_empty());
        }
    }
}
