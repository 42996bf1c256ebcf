//! The committed expected outputs for [`DEFAULT_SEED`].
//!
//! `expected/seed-2007.txt` holds one line per cell and result kind:
//! `<workload> <kind> <cell id> <signature>`, where kind is `exact` (the
//! full-detail result; the timed result of `intensive` and `light`, the
//! reference of `sampled`) or `sampled` (the time-sampled estimate).
//! Regenerate it with `--write-expected` after a change that is meant to
//! alter simulated behaviour.

use crate::workload::{Workload, DEFAULT_SEED};

const TEXT: &str = include_str!("../expected/seed-2007.txt");

/// Which result of a cell a line pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The full-detail result.
    Exact,
    /// The time-sampled estimate (`sampled` only).
    Sampled,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::Sampled => "sampled",
        }
    }
}

/// The committed signature of `cell_id`, if `seed` has committed outputs
/// and the file pins that cell.
pub fn lookup(seed: u64, workload: Workload, kind: Kind, cell_id: &str) -> Option<&'static str> {
    if seed != DEFAULT_SEED {
        return None;
    }
    TEXT.lines().find_map(|line| {
        let mut parts = line.splitn(4, ' ');
        let matches = parts.next() == Some(workload.name())
            && parts.next() == Some(kind.name())
            && parts.next() == Some(cell_id);
        if matches {
            parts.next()
        } else {
            None
        }
    })
}

/// Whether `seed` has committed outputs for `workload`.
pub fn has_outputs(seed: u64, workload: Workload) -> bool {
    seed == DEFAULT_SEED
        && TEXT
            .lines()
            .any(|l| l.split(' ').next() == Some(workload.name()))
}

/// One line of the expected-outputs file.
pub fn render(workload: Workload, kind: Kind, cell_id: &str, signature: &str) -> String {
    format!("{} {} {cell_id} {signature}", workload.name(), kind.name())
}
