//! The traced driver: one exact cell rebuilt from the simulator's public
//! parts, with host-time spans recorded around the calls into each layer.
//!
//! [`Replay`] is seeded exactly as `Cmp::with_profiles_and_sink` seeds a
//! chip, warms like the batched `Cmp::warm`, and steps detailed windows
//! like `Cmp::run` (event skip plus the per-core idle-proof memo), so its
//! [`CmpResult`] equals `Cmp`'s bit for bit — the benchmark checks that on
//! every traced cell.
//!
//! Spans are laps of one clock: each layer boundary reads the clock once
//! and charges the interval since the previous boundary to the layer that
//! ran in it.
//!
//! - **l3**: every `LastLevel::access` / `writeback`, through a timing
//!   adapter, bucketed by the access's [`L3Source`] (write-backs apart);
//! - **core**: everything between L3 calls — `warm_op_batched`, the warm
//!   batch drain's bookkeeping, `idle_until` proofs and `Core::step`.
//!
//! Only the phase edges (adaptation freeze, bus quiesce) fall outside a
//! span; `trace.coverage` reports the attributed share of the phase wall.

use std::time::{Duration, Instant};

use cpusim::core::Core;
use cpusim::l3iface::{L3Batch, L3Op, L3Outcome, L3Source, LastLevel, OPS_PER_WARM_OP};
use cpusim::FastPathStats;
use nuca_core::cmp::CmpResult;
use nuca_core::l3::{L3System, Organization};
use simcore::config::MachineConfig;
use simcore::error::Result;
use simcore::invariant::{Invariant, Violation};
use simcore::rng::SimRng;
use simcore::stats::{arithmetic_mean, harmonic_mean};
use simcore::types::{Address, CoreId, Cycle};
use tracegen::workload::Mix;
use tracegen::TraceGenerator;

/// L3 span bucket of a write-back (the access buckets are indexed by
/// [`L3Source`]).
const WRITEBACK: usize = 3;

fn bucket(source: L3Source) -> usize {
    match source {
        L3Source::LocalHit => 0,
        L3Source::RemoteHit => 1,
        L3Source::Memory => 2,
    }
}

/// Count and summed host time of L3 calls, per bucket: local hit, remote
/// hit, miss (memory), write-back.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct L3Spans {
    /// Calls per bucket.
    pub calls: [u64; 4],
    /// Host nanoseconds per bucket.
    pub nanos: [u64; 4],
}

impl L3Spans {
    fn record(&mut self, bucket: usize, ns: u64) {
        self.calls[bucket] += 1;
        self.nanos[bucket] += ns;
    }

    /// Total host nanoseconds across buckets.
    pub fn total_ns(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Total calls across buckets.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Adds another phase's or cell's spans.
    pub fn absorb(&mut self, other: &L3Spans) {
        for b in 0..4 {
            self.calls[b] += other.calls[b];
            self.nanos[b] += other.nanos[b];
        }
    }
}

/// Host time of one phase, split between the cores and the L3.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSpans {
    /// Core self time: every lap not spent inside an L3 call.
    pub core_ns: u64,
    /// The L3 calls.
    pub l3: L3Spans,
}

impl PhaseSpans {
    fn absorb(&mut self, other: &PhaseSpans) {
        self.core_ns += other.core_ns;
        self.l3.absorb(&other.l3);
    }

    /// All attributed host nanoseconds of the phase.
    pub fn total_ns(&self) -> u64 {
        self.core_ns + self.l3.total_ns()
    }
}

/// Host-time spans and exact work counters of one replayed cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Trace {
    /// Wall time inside [`Replay::warm`].
    pub warm_wall: Duration,
    /// Wall time inside [`Replay::run`].
    pub detailed_wall: Duration,
    /// Spans while warming.
    pub warm: PhaseSpans,
    /// Spans in detailed windows.
    pub detailed: PhaseSpans,
    /// `Core::step` calls.
    pub steps: u64,
    /// Cycles jumped over by the event skip.
    pub cycles_skipped: u64,
    /// Cycles simulated in detail (stepped plus skipped).
    pub detailed_cycles: u64,
}

impl Trace {
    /// Adds another cell's trace.
    pub fn absorb(&mut self, other: &Trace) {
        self.warm_wall += other.warm_wall;
        self.detailed_wall += other.detailed_wall;
        self.warm.absorb(&other.warm);
        self.detailed.absorb(&other.detailed);
        self.steps += other.steps;
        self.cycles_skipped += other.cycles_skipped;
        self.detailed_cycles += other.detailed_cycles;
    }

    /// Host time attributed to some span.
    pub fn attributed(&self) -> Duration {
        Duration::from_nanos(self.warm.total_ns() + self.detailed.total_ns())
    }
}

/// The lap clock: each read returns the nanoseconds since the previous
/// one.
#[derive(Debug)]
struct Lap(Instant);

impl Lap {
    fn start() -> Self {
        Lap(Instant::now())
    }

    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = u64::try_from((now - self.0).as_nanos()).unwrap_or(u64::MAX);
        self.0 = now;
        ns
    }
}

/// `LastLevel` adapter that laps the clock around every call into the
/// organization: the interval before the call was the caller's (core)
/// time, the call itself is L3 time.
struct TimedL3<'a> {
    l3: &'a mut L3System,
    spans: &'a mut PhaseSpans,
    clock: &'a mut Lap,
}

impl LastLevel for TimedL3<'_> {
    fn access(&mut self, core: CoreId, addr: Address, write: bool, now: Cycle) -> L3Outcome {
        self.spans.core_ns += self.clock.lap();
        let out = self.l3.access(core, addr, write, now);
        self.spans.l3.record(bucket(out.source), self.clock.lap());
        out
    }

    fn writeback(&mut self, core: CoreId, addr: Address, now: Cycle) {
        self.spans.core_ns += self.clock.lap();
        self.l3.writeback(core, addr, now);
        self.spans.l3.record(WRITEBACK, self.clock.lap());
    }
}

/// One chip rebuilt from public parts and driven with spans.
#[derive(Debug)]
pub struct Replay {
    cores: Vec<Core>,
    l3: L3System,
    now: Cycle,
    /// Per-core idle-proof memo, as in `Cmp`: while `idle_wake[i] > now`
    /// core `i` is known idle until that cycle.
    idle_wake: Vec<u64>,
    trace: Trace,
}

impl Replay {
    /// Builds the chip exactly as `Cmp::new(cfg, org, mix, seed)` does,
    /// with the hit fast path on.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from `L3System::build`.
    pub fn new(cfg: &MachineConfig, org: Organization, mix: &Mix, seed: u64) -> Result<Self> {
        let mut root = SimRng::seed_from(seed);
        let cores: Vec<Core> = mix
            .apps
            .iter()
            .zip(&mix.forwards)
            .enumerate()
            .map(|(i, (app, &forward))| {
                let mut gen = TraceGenerator::new(app.profile(), root.fork(i as u64));
                gen.fast_forward(forward);
                let mut core = Core::new(CoreId::from_index(i as u8), cfg, gen);
                core.set_fast_path(true);
                core
            })
            .collect();
        let l3 = L3System::build(org, cfg)?;
        Ok(Replay {
            idle_wake: vec![0; cores.len()],
            cores,
            l3,
            now: Cycle::ZERO,
            trace: Trace::default(),
        })
    }

    /// The spans and counters recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The organization (for engine counters).
    pub fn l3(&self) -> &L3System {
        &self.l3
    }

    /// Functional warm, mirroring the batched `Cmp::warm`: adaptation
    /// frozen, one instruction per core per cycle into an [`L3Batch`],
    /// the batch drained through the organization, the bus quiesced.
    pub fn warm(&mut self, instructions_per_core: u64) {
        let start = Instant::now();
        self.l3.set_adaptation_frozen(true);
        let mut clock = Lap::start();
        let mut batch = L3Batch::new();
        for _ in 0..instructions_per_core {
            for i in 0..self.cores.len() {
                if batch.remaining() < OPS_PER_WARM_OP {
                    self.drain(&mut batch, &mut clock);
                }
                self.cores[i].warm_op_batched(self.now, &mut batch);
            }
            self.drain(&mut batch, &mut clock);
            self.now += 1;
        }
        self.trace.warm.core_ns += clock.lap();
        self.l3.quiesce(self.now);
        self.l3.set_adaptation_frozen(false);
        self.trace.warm_wall += start.elapsed();
    }

    /// Walks the batch through the organization in push order and routes
    /// each access outcome back to its core.
    fn drain(&mut self, batch: &mut L3Batch, clock: &mut Lap) {
        let mut port = TimedL3 {
            l3: &mut self.l3,
            spans: &mut self.trace.warm,
            clock,
        };
        for op in batch.ops() {
            match *op {
                L3Op::Access { core, addr, write } => {
                    let out = port.access(core, addr, write, self.now);
                    self.cores[core.index()].note_l3_outcome(out.source);
                }
                L3Op::Writeback { core, addr } => port.writeback(core, addr, self.now),
            }
        }
        batch.clear();
    }

    /// A detailed window of `cycles` cycles, mirroring `Cmp::run` with
    /// event skip on: jump the clock whenever every core proves itself
    /// idle, otherwise step every core once.
    pub fn run(&mut self, cycles: u64) {
        let start = Instant::now();
        let mut clock = Lap::start();
        let target = self.now + cycles;
        self.idle_wake.fill(0);
        while self.now < target {
            match self.idle_horizon() {
                Some(wake) => {
                    let to = wake.min(target);
                    self.trace.cycles_skipped += to.since(self.now);
                    self.now = to;
                }
                None => {
                    let mut port = TimedL3 {
                        l3: &mut self.l3,
                        spans: &mut self.trace.detailed,
                        clock: &mut clock,
                    };
                    for core in &mut self.cores {
                        core.step(self.now, &mut port);
                    }
                    self.trace.steps += self.cores.len() as u64;
                    self.now += 1;
                }
            }
        }
        self.trace.detailed.core_ns += clock.lap();
        self.trace.detailed_cycles += cycles;
        self.trace.detailed_wall += start.elapsed();
    }

    /// `Cmp::idle_horizon`: `Some(wake)` when every core is provably idle
    /// now, with the earliest cycle any of them can act.
    fn idle_horizon(&mut self) -> Option<Cycle> {
        let now = self.now.raw();
        let mut wake = u64::MAX;
        for (core, memo) in self.cores.iter().zip(&mut self.idle_wake) {
            let w = if *memo > now {
                *memo
            } else {
                match core.idle_until(self.now) {
                    Some(t) => {
                        *memo = t.raw();
                        t.raw()
                    }
                    None => {
                        *memo = 0;
                        return None;
                    }
                }
            };
            wake = wake.min(w);
        }
        Some(Cycle::new(wake))
    }

    /// The warm-up boundary: statistics restart, state carries over.
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.reset_stats(self.now);
        }
        self.l3.reset_stats();
    }

    /// The measured window, assembled exactly as `Cmp::snapshot` does for
    /// an unsampled chip.
    pub fn snapshot(&self) -> CmpResult {
        let per_core: Vec<_> = self
            .cores
            .iter()
            .map(|c| (c.app_name(), c.stats(self.now)))
            .collect();
        let ipc: Vec<f64> = per_core.iter().map(|(_, s)| s.ipc()).collect();
        CmpResult {
            hmean_ipc: harmonic_mean(&ipc),
            amean_ipc: arithmetic_mean(&ipc),
            memory: self.l3.memory_stats(),
            quotas: self.l3.as_adaptive().map(|a| a.quotas()),
            sampling: self.l3.sampling_report(),
            time_sampling: None,
            per_core,
            ipc,
        }
    }

    /// Fast-path counters summed over cores since the last reset.
    pub fn fast_path_stats(&self) -> FastPathStats {
        let mut total = FastPathStats::default();
        for core in &self.cores {
            total.absorb(core.fast_path_stats());
        }
        total
    }

    /// Audits the last-level structure; empty means consistent.
    pub fn audit(&self) -> Vec<Violation> {
        self.l3.audit()
    }
}
