//! Running one cell, through `Cmp` (timed by phase from outside) or
//! through the traced [`Replay`] driver, and the output signature the
//! correctness gate compares.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use nuca_core::cmp::{Cmp, CmpResult};
use nuca_core::experiment::ExperimentConfig;
use simcore::config::MachineConfig;
use simcore::error::Result;

use crate::replay::{Replay, Trace};
use crate::workload::Cell;

/// Host time of one cell's phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// `Cmp::new` and its configuration calls.
    pub setup: Duration,
    /// Inside `Cmp::warm`.
    pub warm: Duration,
    /// Inside the two `Cmp::run` calls.
    pub detailed: Duration,
    /// The whole cell: set-up, warm, timed windows, reset and snapshot.
    pub total: Duration,
}

impl Phases {
    /// Every phase multiplied by `k` (host-speed normalization).
    pub fn scaled(&self, k: f64) -> Phases {
        Phases {
            setup: self.setup.mul_f64(k),
            warm: self.warm.mul_f64(k),
            detailed: self.detailed.mul_f64(k),
            total: self.total.mul_f64(k),
        }
    }

    /// Adds another cell's phases.
    pub fn absorb(&mut self, other: &Phases) {
        self.setup += other.setup;
        self.warm += other.warm;
        self.detailed += other.detailed;
        self.total += other.total;
    }
}

/// What one `Cmp` cell produced.
#[derive(Debug, Clone)]
pub struct CmpRun {
    /// The measured window.
    pub result: CmpResult,
    /// Host time by phase.
    pub phases: Phases,
    /// Whether `Cmp::audit` found the L3 structure consistent at the end.
    pub audit_clean: bool,
}

/// Builds the chip for `cell` under `exp` (the set-up `setup_s` times).
///
/// # Errors
///
/// Propagates configuration errors from `Cmp::new`.
pub fn build_cmp(machine: &MachineConfig, cell: &Cell, exp: &ExperimentConfig) -> Result<Cmp> {
    let mut cmp = Cmp::new(machine, cell.org, &cell.mix, exp.seed)?;
    cmp.set_cycle_skip(exp.cycle_skip);
    cmp.set_fast_path(exp.fast_path);
    if let Some((detail, gap)) = exp.time_sample {
        cmp.set_time_sample(detail, gap);
    }
    Ok(cmp)
}

/// Runs `cell` through `Cmp` with the experiment protocol of
/// `nuca_core::experiment::run_mix`, timing each phase from outside.
///
/// # Errors
///
/// Propagates configuration errors from `Cmp::new`.
pub fn run_cmp(machine: &MachineConfig, cell: &Cell, exp: &ExperimentConfig) -> Result<CmpRun> {
    let t0 = Instant::now();
    let mut cmp = build_cmp(machine, cell, exp)?;
    let t1 = Instant::now();
    cmp.warm(exp.warm_instructions);
    let t2 = Instant::now();
    cmp.run(exp.warmup_cycles);
    let t3 = Instant::now();
    cmp.reset_stats();
    let t4 = Instant::now();
    cmp.run(exp.measure_cycles);
    let t5 = Instant::now();
    let result = cmp.snapshot();
    let t6 = Instant::now();
    let phases = Phases {
        setup: t1 - t0,
        warm: t2 - t1,
        detailed: (t3 - t2) + (t5 - t4),
        total: t6 - t0,
    };
    let audit_clean = cmp.audit().is_empty();
    Ok(CmpRun {
        result,
        phases,
        audit_clean,
    })
}

/// What one replayed cell produced.
#[derive(Debug, Clone)]
pub struct ReplayRun {
    /// The measured window (must equal `Cmp`'s).
    pub result: CmpResult,
    /// Spans and work counters.
    pub trace: Trace,
    /// Exact-path fast-hit counters over the measured window.
    pub fast_hits: u64,
    /// Fast-path hits plus fallbacks over the measured window.
    pub fast_total: u64,
    /// Completed Algorithm 1 re-evaluation epochs (adaptive cells).
    pub epochs: u64,
    /// Quota transfers (adaptive cells).
    pub repartitions: u64,
    /// Whether the L3 structure audits clean at the end.
    pub audit_clean: bool,
}

/// Runs `cell` at full detail through the traced [`Replay`] driver.
///
/// # Errors
///
/// Propagates configuration errors from `L3System::build`.
pub fn run_replay(
    machine: &MachineConfig,
    cell: &Cell,
    exp: &ExperimentConfig,
) -> Result<ReplayRun> {
    let mut chip = Replay::new(machine, cell.org, &cell.mix, exp.seed)?;
    chip.warm(exp.warm_instructions);
    chip.run(exp.warmup_cycles);
    chip.reset_stats();
    chip.run(exp.measure_cycles);
    let fast = chip.fast_path_stats();
    let fast_hits = fast.data_fast_hits + fast.inst_fast_hits;
    let engine = chip.l3().as_adaptive().map(|a| a.engine());
    Ok(ReplayRun {
        result: chip.snapshot(),
        trace: *chip.trace(),
        fast_hits,
        fast_total: fast_hits + fast.data_slow + fast.inst_slow,
        epochs: engine.map_or(0, |e| e.epochs()),
        repartitions: engine.map_or(0, |e| e.repartitions().len() as u64),
        audit_clean: chip.audit().is_empty(),
    })
}

/// The outputs the correctness gate pins, as one line: hmean IPC, then
/// per-core committed instructions and L3 local/remote/miss counts, then
/// the final quotas. Floats print in Rust's shortest round-trip form, so
/// two signatures are equal exactly when the values are bit-identical.
pub fn signature(result: &CmpResult) -> String {
    let join = |f: &dyn Fn(&cpusim::CoreStats) -> u64| {
        result
            .per_core
            .iter()
            .map(|(_, s)| f(s).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut line = format!(
        "hmean={} committed={} local={} remote={} miss={}",
        result.hmean_ipc,
        join(&|s| s.committed),
        join(&|s| s.l3_local_hits),
        join(&|s| s.l3_remote_hits),
        join(&|s| s.l3_misses),
    );
    match &result.quotas {
        Some(q) => {
            let q: Vec<String> = q.iter().map(u32::to_string).collect();
            let _ = write!(line, " quotas={}", q.join(","));
        }
        None => line.push_str(" quotas=-"),
    }
    line
}

/// The hmean IPC a [`signature`] records.
pub fn signature_hmean(sig: &str) -> Option<f64> {
    sig.strip_prefix("hmean=")?.split(' ').next()?.parse().ok()
}
