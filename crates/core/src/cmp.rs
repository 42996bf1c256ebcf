//! The four-core chip multiprocessor: cores, last-level organization and
//! the shared memory channel bound together.
//!
//! Mirrors the simulated architecture of Figure 1: four independent
//! out-of-order cores with private L1/L2 hierarchies, a last-level cache
//! managed by one of the [`Organization`]s, and a shared off-chip bus
//! with congestion. The methodology of Section 3 (random fast-forward,
//! warm-up, fixed measured cycles) is driven through
//! [`Cmp::run`]/[`Cmp::reset_stats`].

use std::borrow::Borrow;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cpusim::core::{Core, CoreStats};
use cpusim::l3iface::{L3Batch, L3Op, L3Outcome, LastLevel, OPS_PER_WARM_OP};
use memsim::MemoryStats;
use simcore::config::MachineConfig;
use simcore::error::{ConfigError, Result};
use simcore::invariant::{Invariant, Violation};
use simcore::parallel::{cell_cpus, cell_share, fan_out, fan_out_coupled, wait_until, Progress};
use simcore::rng::SimRng;
use simcore::stats::{arithmetic_mean, harmonic_mean};
use simcore::types::{Address, CoreId, Cycle};
use telemetry::{Event, NullSink, Sink};
use tracegen::workload::Mix;
use tracegen::TraceGenerator;

use crate::l3::{L3System, Organization, SamplingReport};

/// SMARTS-style accuracy summary of a time-sampled run: what fraction of
/// time ran detailed, how many paired measurements the estimate rests
/// on, and the confidence interval those measurements imply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSamplingReport {
    /// Detailed-window length in cycles.
    pub detail: u64,
    /// Functional-warming gap length in cycles.
    pub gap: u64,
    /// Full-length detailed windows measured (partial tail windows feed
    /// the IPC estimate but not the window-to-window error bound).
    pub windows: u64,
    /// Cycles simulated in detail since the last stats reset.
    pub detailed_cycles: u64,
    /// Cycles covered by functional warming since the last stats reset.
    pub functional_cycles: u64,
    /// Mean per-window hmean IPC over the full windows.
    pub mean_window_hmean_ipc: f64,
    /// Standard error of that mean (0 with fewer than two windows).
    pub hmean_ipc_std_error: f64,
    /// Relative half-width of the 95 % confidence interval:
    /// `1.96 · SE / mean` (the SMARTS reporting convention).
    pub relative_ci95: f64,
}

/// Results of one measurement window on a [`Cmp`].
#[derive(Debug, Clone, PartialEq)]
pub struct CmpResult {
    /// Per-core `(application name, statistics)`, in core order.
    pub per_core: Vec<(&'static str, CoreStats)>,
    /// Per-core IPC, in core order.
    pub ipc: Vec<f64>,
    /// Harmonic mean of per-core IPC — the paper's headline metric.
    pub hmean_ipc: f64,
    /// Arithmetic mean of per-core IPC.
    pub amean_ipc: f64,
    /// Memory-channel statistics for the window.
    pub memory: MemoryStats,
    /// Adaptive quota snapshot, when the organization is adaptive.
    pub quotas: Option<Vec<u32>>,
    /// Always `None`: no organization is set-sampled. Kept only because
    /// the benchmark's replay builds a `CmpResult` literal; ROADMAP item
    /// 2(e) removes it.
    pub sampling: Option<SamplingReport>,
    /// Time-sampling accuracy summary, when the run was time-sampled
    /// (`None` for full-detail runs, including `--time-sample d:0`).
    pub time_sampling: Option<TimeSamplingReport>,
}

impl CmpResult {
    /// Total last-level misses across cores.
    pub fn total_l3_misses(&self) -> u64 {
        self.per_core.iter().map(|(_, s)| s.l3_misses).sum()
    }

    /// Total last-level accesses across cores.
    pub fn total_l3_accesses(&self) -> u64 {
        self.per_core.iter().map(|(_, s)| s.l3_accesses).sum()
    }
}

/// The simulated chip multiprocessor.
///
/// The `S` parameter selects the telemetry sink shared by the cores and
/// the last-level organization; the default [`NullSink`] compiles all
/// emission sites away.
#[derive(Debug)]
pub struct Cmp<S: Sink = NullSink> {
    cores: Vec<Core<S>>,
    l3: L3System<S>,
    now: Cycle,
    window_start: Cycle,
    /// Whether [`Cmp::run`] steps only the cores that can act and jumps
    /// over cycles in which none can (the event-driven loop). The
    /// `--no-skip` escape hatch clears it.
    cycle_skip: bool,
    /// [`Core::step`] calls since the chip was built (a work counter for
    /// `perf`; never part of results, traces or snapshots).
    core_steps: u64,
    /// `Some((detail, gap))` when [`Cmp::run`] time-samples: alternate
    /// `detail` cycle-accurate cycles with `gap` functionally-warmed
    /// cycles. `None` (the default, and any 0-gap request) runs every
    /// cycle in detail.
    time_sample: Option<(u64, u64)>,
    /// Detailed-window measurement accumulators for the SMARTS estimate.
    ts: TsAccum,
    /// Per-core side of the functional engine, in core order (see
    /// [`Cmp::warm`]).
    lanes: Vec<Lane>,
    /// (cycle, core) marks the functional engine's drain served since
    /// the chip was built (a work counter for `perf`; never part of
    /// results, traces or snapshots).
    drain_visits: u64,
    /// The chip-level telemetry sink (window-boundary events; cores and
    /// the organization carry their own clones).
    sink: S,
}

/// Per-window accumulators of a time-sampled run. Reset with the
/// statistics window; scratch vectors are allocated once at build time.
#[derive(Debug, Clone, Default)]
struct TsAccum {
    /// Full detailed windows measured.
    windows: u64,
    /// Running sum of per-window hmean IPC over full windows.
    sum: f64,
    /// Running sum of squares (for the standard error).
    sumsq: f64,
    /// Total cycles run in detail.
    detailed_cycles: u64,
    /// Total cycles covered functionally.
    functional_cycles: u64,
    /// Per-core instructions committed inside detailed windows.
    core_committed: Vec<u64>,
    /// Scratch: per-core committed count at the current window's start.
    window_base: Vec<u64>,
    /// Scratch: per-core IPC of the current window.
    window_ipc: Vec<f64>,
    /// Denominator of the gap pacing rational (see [`Lane::pace_num`]):
    /// the last detailed window's span.
    pace_den: u64,
}

impl TsAccum {
    fn for_cores(cores: usize) -> Self {
        TsAccum {
            core_committed: vec![0; cores],
            window_base: vec![0; cores],
            window_ipc: vec![0.0; cores],
            ..TsAccum::default()
        }
    }

    fn reset(&mut self) {
        self.windows = 0;
        self.sum = 0.0;
        self.sumsq = 0.0;
        self.detailed_cycles = 0;
        self.functional_cycles = 0;
        self.core_committed.fill(0);
        self.pace_den = 0;
    }
}

/// Cycles of functional warming each core runs ahead of the last-level
/// organization: the engine runs every core through one chunk, then
/// drains the chunk's requests (see [`Cmp::warm`]).
const FUNCTIONAL_CHUNK: u64 = 16_384;

/// One core's side of the functional engine: its deferred L3 requests
/// over the current chunk, the drain's cursor into them, and its gap
/// pacing. Storage is reserved on first use and kept, so building a chip
/// reserves none and a chunk allocates nothing once the lane has seen
/// one as large. Aligned like [`Core`], so lanes kept side by side and
/// filled on different host threads share no cache line.
#[derive(Debug)]
#[repr(align(128))]
struct Lane {
    /// The core's L3 requests over the chunk, in push order.
    log: L3Batch,
    /// One `(cycle offset, log length)` mark per cycle of the chunk in
    /// which the core queued at least one request, in cycle order: the
    /// requests of that cycle end at that log length and begin where the
    /// previous mark's requests end. Cycles without a request leave no
    /// mark.
    marks: Vec<(u64, usize)>,
    /// The drain's cursor: the next mark to serve.
    next: usize,
    /// The drain's cursor: the log length already served.
    served: usize,
    /// Gap retirement pacing, as the exact rational `pace_num /
    /// TsAccum::pace_den` instructions per cycle: the last detailed
    /// window's committed count (floored at one, so a fully stalled
    /// window cannot starve the generator stream) over its span. The
    /// functional gap retires on the Bresenham schedule of that rational
    /// (see [`pace`]), so the core advances its instruction stream at
    /// the density the detailed model just measured — integer math only,
    /// deterministic.
    pace_num: u64,
    /// Bresenham credit carried across gap cycles.
    pace_acc: u64,
}

impl Lane {
    fn new() -> Self {
        Lane {
            log: L3Batch::with_capacity(0),
            marks: Vec::new(),
            next: 0,
            served: 0,
            pace_num: 0,
            pace_acc: 0,
        }
    }

    /// The core side of one chunk: runs `core` functionally for `span`
    /// cycles from `start` into a fresh log, marking each cycle that
    /// queued a request. Without `den`, op `k` fires at cycle `k`; with
    /// it, the ops fire on the Bresenham schedule of `pace_num / den`
    /// ([`pace`]), which jumps from one firing cycle to the next. Work
    /// tracks instructions, never idle cycles. Touches nothing but
    /// `core` and this lane.
    fn run<S: Sink>(&mut self, core: &mut Core<S>, start: Cycle, span: u64, den: Option<u64>) {
        let ops = den.map_or(u128::from(span), |den| {
            (u128::from(self.pace_acc) + u128::from(self.pace_num) * u128::from(span))
                / u128::from(den.max(1))
        });
        self.log.clear();
        self.marks.clear();
        self.next = 0;
        self.served = 0;
        // Reserve the chunk's worst case up front (a no-op once the
        // lane has seen a chunk this large), so no push allocates.
        let ops = usize::try_from(ops).unwrap_or(usize::MAX);
        self.log.reserve(ops.saturating_mul(OPS_PER_WARM_OP));
        let worst_marks = usize::try_from(span).map_or(ops, |cycles| cycles.min(ops));
        self.marks.reserve(worst_marks);
        let (log, marks) = (&mut self.log, &mut self.marks);
        let mut fire = |at: u64, n: u64| {
            let before = log.len();
            for _ in 0..n {
                core.warm_op_batched(start + at, log);
            }
            if log.len() > before {
                marks.push((at, log.len()));
            }
        };
        match den {
            None => (0..span).for_each(|at| fire(at, 1)),
            Some(den) => self.pace_acc = pace(self.pace_acc, self.pace_num, den, span, fire),
        }
    }

    /// The cycle offset of the next mark the drain has not served.
    fn next_mark(&self) -> Option<u64> {
        self.marks.get(self.next).map(|&(at, _)| at)
    }

    /// When the next unserved mark falls at cycle offset `at`, advances
    /// the cursor past it and returns the log range of its requests.
    fn take_mark(&mut self, at: u64) -> Option<Range<usize>> {
        match self.marks.get(self.next) {
            Some(&(mark, end)) if mark == at => {
                self.next += 1;
                Some(std::mem::replace(&mut self.served, end)..end)
            }
            _ => None,
        }
    }
}

/// The gap's retirement schedule over `span` cycles, op to op. From
/// credit `acc`, every cycle earns `num` credits and one op fires per
/// `den` accumulated: the per-cycle Bresenham loop. Calls
/// `fire(offset, ops)` for each cycle offset at which `ops ≥ 1` ops
/// fire, in cycle order, and returns the credit carried out of the
/// span — both exactly the per-cycle loop's.
///
/// At a pace of one op per cycle or more, every cycle fires `num / den`
/// ops, plus one whenever the carried remainders reach `den`. Below it,
/// the walk jumps from one firing cycle to the next: the next op fires
/// `ceil((den − acc) / num)` cycles on (one when `acc + num ≥ den`),
/// and there the ops fire while the credit covers `den`. From credit
/// below `num`, which every fire from credit below `den` leaves, that
/// jump is `den / num`, plus one when `den % num > acc`, so only a
/// span's first jump divides. From credit below `den`, no intermediate
/// reaches `den + num`, the per-cycle loop's own bound.
fn pace(mut acc: u64, num: u64, den: u64, span: u64, mut fire: impl FnMut(u64, u64)) -> u64 {
    debug_assert!(den > 0, "a pace has a denominator");
    if num == 0 {
        return acc;
    }
    if num >= den {
        let (per, extra) = (num / den, num % den);
        for at in 0..span {
            acc += extra;
            let mut ops = per;
            while acc >= den {
                acc -= den;
                ops += 1;
            }
            fire(at, ops);
        }
        return acc;
    }
    let (per, extra) = (den / num, den % num);
    let mut at = 0;
    loop {
        let wait = if acc < num {
            per + u64::from(extra > acc)
        } else {
            den.saturating_sub(acc).div_ceil(num).max(1)
        };
        let left = span - at;
        if wait > left {
            // No op fires in the rest of the span: `left · num` is below
            // `den − acc`.
            return acc + left * num;
        }
        at += wait;
        acc += wait * num;
        let mut ops = 0;
        while acc >= den {
            acc -= den;
            ops += 1;
        }
        fire(at - 1, ops);
    }
}

/// One host thread's share of a detailed window: some of the chip's
/// cores, in core order, and the [`Core::step`] calls it made.
struct Group<'c, S: Sink> {
    members: Vec<Member<'c, S>>,
    steps: u64,
}

/// One core of a [`Group`]. Aligned like [`Core`], so members of groups
/// on different host threads share no cache line.
#[repr(align(128))]
struct Member<'c, S: Sink> {
    /// The core's index on the chip.
    index: usize,
    core: &'c mut Core<S>,
    /// The last [`Core::idle_until`] answer: while `memo > now`, the core
    /// is known idle until that cycle and need not be re-proved. Sound
    /// because idleness depends only on core-local state and an idle
    /// core's step is a no-op, so the proof survives other cores'
    /// activity; 0 (always stale) whenever the core goes active.
    memo: u64,
}

impl<S: Sink> Group<'_, S> {
    /// The event-driven loop over this group's cores from `start` to
    /// `target`: each visited cycle, every core either proves its step a
    /// no-op or is stepped through `hub`, and when no core steps the
    /// group's clock jumps to its earliest wake. Each core's progress is
    /// published as it goes: the cycle after a step, the wake of a proof.
    fn run(&mut self, start: Cycle, target: Cycle, hub: &mut impl Hub<S>) {
        let mut now = start;
        let mut steps = 0;
        while now < target {
            let t = now.raw();
            let mut wake = u64::MAX;
            let mut stepped = false;
            for m in &mut self.members {
                if m.memo > t {
                    wake = wake.min(m.memo);
                    continue;
                }
                match m.core.idle_until(now) {
                    Some(w) => {
                        m.memo = w.raw();
                        wake = wake.min(m.memo);
                        hub.publish(m.index, m.memo);
                    }
                    None => {
                        m.memo = 0;
                        hub.step(m.core, m.index, now);
                        steps += 1;
                        stepped = true;
                        hub.publish(m.index, t + 1);
                    }
                }
            }
            now = if stepped {
                now + 1
            } else {
                // Every wake candidate is strictly after `now`, so the
                // jump always makes progress; an empty horizon
                // (`u64::MAX`, a fully drained group) clamps to `target`
                // exactly like the stepping loop's no-op spin.
                Cycle::new(wake).min(target)
            };
        }
        self.steps += steps;
    }
}

/// What a [`Group`] steps its cores against: the organization itself
/// when one group holds every core, a [`Gate`] to it when groups run on
/// several host threads.
trait Hub<S: Sink> {
    /// Steps `core`, the chip's core `index`, at `now`.
    fn step(&mut self, core: &mut Core<S>, index: usize, now: Cycle);

    /// Announces that core `index` makes no last-level call before cycle
    /// `progress`.
    fn publish(&self, index: usize, progress: u64);
}

impl<S: Sink> Hub<S> for L3System<S> {
    #[inline]
    fn step(&mut self, core: &mut Core<S>, _index: usize, now: Cycle) {
        core.step(now, self);
    }

    #[inline]
    fn publish(&self, _index: usize, _progress: u64) {}
}

/// A group's port to the organization when groups run on several host
/// threads: the organization behind a lock, every core's progress mark,
/// and the core stepping through it and the cycle of its step.
///
/// The serial loop makes core `core`'s calls at cycle `now` after every
/// call of a lower core at `now` and of every core before `now`, and
/// before any other. So each call waits until every lower core has
/// finished `now` and every higher core has finished `now - 1`, then
/// calls the organization under the lock. No later call can have gone
/// first: it would have waited for this core to finish `now`.
struct Gate<'a, 'l, S: Sink> {
    l3: &'a Mutex<&'l mut L3System<S>>,
    /// Per core, the first cycle it has not finished: it makes no
    /// last-level call before it. `u64::MAX` once its group is done.
    progress: &'a [Progress],
    core: usize,
    now: u64,
}

impl<'l, S: Sink> Gate<'_, 'l, S> {
    /// Waits for this call's turn and takes the organization.
    fn admit(&self) -> MutexGuard<'_, &'l mut L3System<S>> {
        let (core, now) = (self.core, self.now);
        wait_until(|| {
            self.progress
                .iter()
                .enumerate()
                .all(|(i, p)| p.get() >= now + u64::from(i < core))
        });
        self.l3.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<S: Sink> Hub<S> for Gate<'_, '_, S> {
    #[inline]
    fn step(&mut self, core: &mut Core<S>, index: usize, now: Cycle) {
        self.core = index;
        self.now = now.raw();
        core.step(now, self);
    }

    #[inline]
    fn publish(&self, index: usize, progress: u64) {
        self.progress[index].publish(progress);
    }
}

impl<S: Sink> LastLevel for Gate<'_, '_, S> {
    fn access(&mut self, core: CoreId, addr: Address, write: bool, now: Cycle) -> L3Outcome {
        self.admit().access(core, addr, write, now)
    }

    fn writeback(&mut self, core: CoreId, addr: Address, now: Cycle) {
        self.admit().writeback(core, addr, now);
    }
}

impl Cmp {
    /// Builds an untraced chip running `mix` under the given last-level
    /// organization. Each core's trace generator is seeded independently
    /// from `seed` and fast-forwarded per the mix (Section 3).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the mix does not match the machine's
    /// core count or the organization cannot be built.
    pub fn new(cfg: &MachineConfig, org: Organization, mix: &Mix, seed: u64) -> Result<Self> {
        Cmp::with_profiles_and_sink(cfg, org, &mix.profiles(), &mix.forwards, seed, NullSink)
    }
}

impl<S: Sink> Cmp<S> {
    /// Builds a chip running one application profile per core, each
    /// fast-forwarded by its entry in `forwards` — the SPEC2000-like
    /// presets of a mix, parallel (read-shared) workloads and custom
    /// studies alike — and clones `sink` into every core and the
    /// last-level organization so one recorder observes the whole chip
    /// ([`NullSink`] for an untraced chip).
    ///
    /// Accepts anything that borrows as a profile (`AppProfile`,
    /// `Arc<AppProfile>`, `&AppProfile`), so replicated workloads can
    /// share one profile allocation across cores.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the profile count does not match the
    /// machine's core count or the organization cannot be built.
    pub fn with_profiles_and_sink<P: Borrow<tracegen::AppProfile>>(
        cfg: &MachineConfig,
        org: Organization,
        profiles: &[P],
        forwards: &[u64],
        seed: u64,
        sink: S,
    ) -> Result<Self> {
        if profiles.len() != cfg.cores || forwards.len() != cfg.cores {
            return Err(ConfigError::new(format!(
                "workload has {} applications / {} forwards but the machine has {} cores",
                profiles.len(),
                forwards.len(),
                cfg.cores
            )));
        }
        let mut root = SimRng::seed_from(seed);
        let cores: Vec<Core<S>> = profiles
            .iter()
            .zip(forwards)
            .enumerate()
            .map(|(i, (profile, forward))| {
                let mut gen = TraceGenerator::new(profile.borrow(), root.fork(i as u64));
                gen.fast_forward(*forward);
                // Length was checked above, so the index form is in range.
                let id = CoreId::from_index(i as u8);
                Core::with_sink(id, cfg, gen, sink.clone())
            })
            .collect();
        let ts = TsAccum::for_cores(cores.len());
        let lanes = cores.iter().map(|_| Lane::new()).collect();
        let l3 = L3System::build_with_sink(org, cfg, sink.clone())?;
        Ok(Cmp {
            cores,
            l3,
            now: Cycle::ZERO,
            window_start: Cycle::ZERO,
            cycle_skip: true,
            core_steps: 0,
            time_sample: None,
            ts,
            lanes,
            drain_visits: 0,
            sink,
        })
    }

    /// Enables or disables the event-driven loop in [`run`](Self::run).
    /// Disabled, `run` steps every core on every cycle — the reference
    /// semantics the event-driven loop is differentially tested against;
    /// results are bit-identical either way.
    pub fn set_cycle_skip(&mut self, enabled: bool) {
        self.cycle_skip = enabled;
    }

    /// Enables or disables the exact core-side hit fast path (fused
    /// TLB+L1 probe/walk, memo-served lookups, the pipeline bookkeeping
    /// bypass) on every core. Results are bit-identical either way; this is the
    /// `--no-fast-path` escape hatch the differential CI job flips.
    pub fn set_fast_path(&mut self, enabled: bool) {
        for core in &mut self.cores {
            core.set_fast_path(enabled);
        }
    }

    /// Chip-wide fast-path effectiveness counters (perf attribution side
    /// channel; never part of results, traces or snapshots).
    pub fn fast_path_stats(&self) -> cpusim::FastPathStats {
        let mut total = cpusim::FastPathStats::default();
        for core in &self.cores {
            total.absorb(core.fast_path_stats());
        }
        total
    }

    /// [`Core::step`] calls since the chip was built — the exact work
    /// count of the detailed loop, summed over cores (a side channel like
    /// [`fast_path_stats`](Self::fast_path_stats); never part of results,
    /// traces or snapshots). The stepping loop adds one per core per
    /// cycle; the event-driven loop adds one per core that can act.
    pub fn core_steps(&self) -> u64 {
        self.core_steps
    }

    /// The (cycle, core) marks the functional engine's drain served since
    /// the chip was built — the exact work count of the warm's and the
    /// time-sampling gaps' L3 side (a side channel like
    /// [`core_steps`](Self::core_steps); never part of results, traces or
    /// snapshots). A mark is one cycle in which one core queued at least
    /// one L3 request, so cycles and cores without a request add nothing.
    pub fn drain_visits(&self) -> u64 {
        self.drain_visits
    }

    /// Configures SMARTS-style time sampling: [`run`](Self::run)
    /// alternates `detail` cycle-accurate cycles with `gap` functionally
    /// warmed cycles. A zero `gap` turns sampling off — the run is then
    /// byte-identical to an unconfigured chip, and
    /// [`snapshot`](Self::snapshot) carries no
    /// [`TimeSamplingReport`]. Callers validate the schedule with
    /// [`parse_time_sample`](crate::experiment::parse_time_sample).
    pub fn set_time_sample(&mut self, detail: u64, gap: u64) {
        debug_assert!(crate::experiment::check_time_sample(detail, gap).is_ok());
        self.time_sample = if gap == 0 { None } else { Some((detail, gap)) };
    }

    /// The current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The last-level system (for organization-specific inspection).
    pub fn l3(&self) -> &L3System<S> {
        &self.l3
    }

    /// Advances the whole chip by one cycle, stepping every core.
    pub fn step(&mut self) {
        for core in &mut self.cores {
            core.step(self.now, &mut self.l3);
        }
        self.core_steps += self.cores.len() as u64;
        self.now += 1;
    }

    /// Runs for `cycles` cycles.
    ///
    /// With cycle skipping enabled (the default), the loop is
    /// event-driven per core: each cycle, every core either proves its
    /// next step a no-op (see [`Core::idle_until`]) or is stepped, and
    /// when every core proves itself idle the clock jumps straight to the
    /// earliest pending event — an MSHR/memory-fill completion, an issued
    /// ROB head finishing, a dependency becoming ready, or fetch
    /// resuming. A skipped step changes no state and emits no telemetry,
    /// and the cores that do step run in core order as in
    /// [`step`](Self::step), so statistics (which derive from `now` and
    /// committed counts), 2000-miss re-evaluation boundaries (misses
    /// only happen in steps that run) and traces are identical to the
    /// stepping loop.
    ///
    /// An untraced chip runs its cores in groups, one per host CPU of the
    /// cell's [`cell_cpus`] and at most one per core, with every
    /// last-level call admitted in the serial loop's (cycle, core) order,
    /// so results are identical at every width.
    /// With time sampling configured (see
    /// [`set_time_sample`](Self::set_time_sample)), the run instead
    /// alternates detailed windows — this same event-driven path, on one
    /// thread — with functional-warming gaps, estimating IPC from the
    /// detailed windows only. The window schedule restarts at every `run`
    /// call.
    pub fn run(&mut self, cycles: u64) {
        match self.time_sample {
            Some((detail, gap)) => self.run_time_sampled(cycles, detail, gap),
            None => self.run_detailed(cycles, self.detailed_width()),
        }
    }

    /// Host threads a full-detail [`run`](Self::run) steps the cores on:
    /// the cell's share of the host's CPUs ([`cell_cpus`]; more groups
    /// than CPUs would only wait on one another), at most one per core.
    /// One for a traced chip, whose events must keep the serial order.
    fn detailed_width(&self) -> usize {
        if S::ENABLED {
            1
        } else {
            cell_cpus().min(self.cores.len())
        }
    }

    /// The cycle-accurate run loop (see [`run`](Self::run) for the
    /// event-driven semantics), on `width` host threads.
    ///
    /// Cores only interact through the last-level cache and the memory
    /// bus, and both are passive (their state changes only on
    /// core-initiated accesses), so a core's idleness proof holds no
    /// matter what the other cores do in the same cycle. Proofs are
    /// memoized per core ([`Member::memo`]): a stalled core is re-proved
    /// once per stall, not once per cycle, because a still-valid proof
    /// cannot be invalidated by anything but that core's own non-idle
    /// step. So each core is visited at the same cycles — after each of
    /// its steps and at each proven wake — whichever cores share its
    /// loop, and its steps read only its own state and the outcomes of
    /// its own last-level calls.
    ///
    /// The cores are dealt round-robin into `width` groups ([`Group`]).
    /// One group runs the loop with the organization passed straight
    /// through. Several run it on their own threads through
    /// [`fan_out_coupled`], reaching the organization through a [`Gate`]
    /// that admits each call only when the serial loop would have made
    /// it: once every other core has published that it is past the
    /// caller's (cycle, core) position. The organization and the memory
    /// channel therefore see exactly the serial call sequence, which with
    /// the above makes every width bit-identical. The `--no-skip`
    /// stepping loop stays on one thread: it is the oracle.
    fn run_detailed(&mut self, cycles: u64, width: usize) {
        let target = self.now + cycles;
        if !self.cycle_skip {
            while self.now < target {
                self.step();
            }
            return;
        }
        let start = self.now;
        let cores = self.cores.len();
        let width = width.clamp(1, cores.max(1));
        let mut groups: Vec<Group<'_, S>> = (0..width)
            .map(|_| Group {
                members: Vec::new(),
                steps: 0,
            })
            .collect();
        for (index, core) in self.cores.iter_mut().enumerate() {
            // State mutations outside `run` (warming, stat resets) are
            // not tracked by the memo, so every core starts unproven.
            groups[index % width].members.push(Member {
                index,
                core,
                memo: 0,
            });
        }
        if let [group] = groups.as_mut_slice() {
            group.run(start, target, &mut self.l3);
        } else {
            let l3 = Mutex::new(&mut self.l3);
            let progress: Vec<Progress> = (0..cores).map(|_| Progress::new(start.raw())).collect();
            fan_out_coupled(
                &mut groups,
                |group| {
                    let mut gate = Gate {
                        l3: &l3,
                        progress: &progress,
                        core: 0,
                        now: 0,
                    };
                    group.run(start, target, &mut gate);
                },
                |group| {
                    for m in &group.members {
                        progress[m.index].publish(u64::MAX);
                    }
                },
            );
        }
        self.core_steps += groups.iter().map(|g| g.steps).sum::<u64>();
        self.now = target;
    }

    /// The SMARTS window scheduler: run `detail` cycles in full detail,
    /// measure the window, functionally retire whatever is still in
    /// flight, warm `gap` cycles with retirement credit-paced at each
    /// core's just-measured window IPC, repeat. Pacing the gap at the
    /// detailed model's own instruction density — rather than a flat
    /// one instruction per core per cycle like [`warm`](Self::warm) —
    /// keeps functional time honest (a stall-heavy core's stream does
    /// not race ahead of where detailed simulation would have taken it)
    /// and keeps a gap cycle cheaper than the detailed cycle it
    /// replaces. Cache, TLB, predictor, shadow-tag and quota state stay
    /// warm through the gaps — Algorithm 1 keeps re-evaluating on the
    /// real miss stream (adaptation is *not* frozen, unlike
    /// [`warm`](Self::warm)) — while IPC is estimated from the detailed
    /// windows alone.
    fn run_time_sampled(&mut self, cycles: u64, detail: u64, gap: u64) {
        let target = self.now + cycles;
        while self.now < target {
            let span = detail.min(target.since(self.now));
            for (base, core) in self.ts.window_base.iter_mut().zip(&self.cores) {
                *base = core.committed();
            }
            self.run_detailed(span, 1);
            self.note_detailed_window(span, span == detail);
            if self.now >= target {
                break;
            }
            self.emit_window_boundary(true);
            self.drain_pipelines();
            let g = gap.min(target.since(self.now));
            self.run_functional_paced(g);
            self.ts.functional_cycles += g;
            self.emit_window_boundary(false);
        }
    }

    /// Folds one finished detailed window into the sampling accumulators.
    /// Partial (tail) windows feed the pooled IPC estimate; only
    /// full-length windows enter the paired-measurement error bound.
    fn note_detailed_window(&mut self, span: u64, full: bool) {
        self.ts.detailed_cycles += span;
        for (i, core) in self.cores.iter().enumerate() {
            let delta = core.committed() - self.ts.window_base[i];
            self.ts.core_committed[i] += delta;
            self.ts.window_ipc[i] = if span == 0 {
                0.0
            } else {
                delta as f64 / span as f64
            };
        }
        if span > 0 {
            // Re-arm gap pacing from this window: `max(delta, 1)`
            // instructions per `span` cycles per core (the floor keeps a
            // fully stalled window from freezing the stream entirely).
            for ((lane, core), base) in self
                .lanes
                .iter_mut()
                .zip(&self.cores)
                .zip(&self.ts.window_base)
            {
                lane.pace_num = (core.committed() - base).max(1);
            }
            self.ts.pace_den = span;
        }
        if full && span > 0 {
            let h = harmonic_mean(&self.ts.window_ipc);
            self.ts.windows += 1;
            self.ts.sum += h;
            self.ts.sumsq += h * h;
        }
    }

    /// Functionally retires all in-flight pipeline state on every core at
    /// a window boundary (see [`Core::drain_pipeline`]); afterwards the
    /// whole chip is quiescent.
    fn drain_pipelines(&mut self) {
        for i in 0..self.cores.len() {
            self.cores[i].drain_pipeline(self.now, &mut self.l3);
        }
        debug_assert!(self.cores.iter().all(cpusim::core::Core::is_quiescent));
    }

    fn emit_window_boundary(&mut self, functional: bool) {
        if S::ENABLED {
            self.sink
                .emit(self.now, Event::TimeSampleWindow { functional });
        }
    }

    /// Audits the last-level structure right now (see
    /// [`simcore::invariant::Invariant`]); empty means consistent.
    pub fn audit(&self) -> Vec<Violation> {
        self.l3.audit()
    }

    /// Runs for `cycles` cycles, auditing the last-level structure after
    /// every step and stopping at the first inconsistency.
    ///
    /// This is the engine behind `nuca-sim --paranoid`: per-step auditing
    /// is orders of magnitude slower than [`run`](Self::run), but it
    /// pinpoints the exact cycle at which a structural invariant broke.
    ///
    /// # Errors
    ///
    /// Returns the cycle of the first failing step together with the
    /// violations found there.
    pub fn run_paranoid(
        &mut self,
        cycles: u64,
    ) -> std::result::Result<(), (Cycle, Vec<Violation>)> {
        for _ in 0..cycles {
            self.step();
            let violations = self.l3.audit();
            if !violations.is_empty() {
                return Err((self.now, violations));
            }
        }
        Ok(())
    }

    /// Warms the chip *functionally*: each core executes
    /// `instructions_per_core` instructions with full cache/TLB/predictor
    /// state updates but no pipeline timing (one instruction per core per
    /// cycle of pacing, so the shared bus sees a realistic request
    /// spacing). Mirrors the paper's long fast-forward before measuring.
    ///
    /// The engine splits the warm into a core side and an L3 side. For
    /// each chunk of 16,384 cycles, every core first runs its
    /// instructions for the whole chunk, deferring its L3-bound requests
    /// into its own log ([`L3Batch`]) and leaving one mark — the cycle
    /// and the log's length after it — for each cycle in which it queued
    /// a request. The chip then merges the marks through the organization
    /// in (cycle, core) order, each mark's requests in push order at its
    /// own cycle, and routes each access outcome to its core with
    /// [`Core::note_l3_outcome`]. Work tracks instructions and L3
    /// requests: a cycle or a core without a request costs the drain
    /// nothing ([`drain_visits`](Self::drain_visits) counts the marks).
    /// The core sides of one chunk run on up to [`cell_share`] host
    /// threads (the cell's share of `--jobs`, or the host's parallelism
    /// outside any runner).
    ///
    /// The result is bit-identical to the one-at-a-time loop kept as
    /// [`warm_reference`](Self::warm_reference), at every thread count:
    ///
    /// - (a) a core's side never reads anything an L3 outcome or another
    ///   core writes. The warm path discards L3 timing — only the outcome
    ///   *source* feeds the core's L3 counters, which its own side never
    ///   reads — and the trace cursor, predictor, TLBs and L1/L2 are
    ///   core-private. So running a core ahead of the L3, or of the other
    ///   cores, or on another thread, cannot change its requests.
    /// - (b) the drain order is the reference order. The reference loop
    ///   issues cycle by cycle, core by core, each access followed by its
    ///   dependent writeback; the merge serves the smallest next cycle
    ///   first and the lowest core on a tie, so the organization and
    ///   memory channel see the same request sequence. A (cycle, core)
    ///   slot without a mark issued nothing in the reference loop either.
    /// - (c) each request carries the cycle the reference loop issued it
    ///   at, so time-dependent L3 and bus state evolves identically.
    /// - (d) the core side emits no telemetry, so a traced chip's event
    ///   stream is the drain's, in the serial order.
    pub fn warm(&mut self, instructions_per_core: u64) {
        // Equal instruction pacing distorts the per-wall-clock estimator
        // counters, so quota adaptation pauses during functional warm-up;
        // the timed phase adapts from the initial 75 %/25 % partitioning
        // exactly as the paper's runs do.
        self.l3.set_adaptation_frozen(true);
        self.run_functional(instructions_per_core);
        self.l3.set_adaptation_frozen(false);
    }

    /// The engine of [`warm`](Self::warm) without the adaptation freeze:
    /// every core retires one instruction per cycle for `cycles` cycles
    /// (full cache/TLB/predictor/L3 state updates, no pipeline timing),
    /// with the core sides on up to [`cell_share`] host threads, and the
    /// memory channel is quiesced at the end so a following detailed
    /// window starts on an uncongested bus. Quota adaptation stays live,
    /// as in the time-sampling gaps, which run the same engine on one
    /// thread.
    pub fn run_functional(&mut self, cycles: u64) {
        let width = cell_share().min(self.cores.len());
        self.functional(cycles, width, None);
    }

    /// The time-sampling gap engine: [`run_functional`](Self::run_functional)
    /// on one thread, with retirement credit-paced at the last detailed
    /// window's measured per-core IPC (`Lane::pace_num / TsAccum::pace_den`,
    /// exact integers on the Bresenham schedule of [`pace`]). Each cycle,
    /// core `i` earns `pace_num` credits and retires one instruction per
    /// `pace_den` accumulated — so over the whole gap its stream advances
    /// by `gap × window_ipc` instructions, the count the detailed model
    /// would have consumed in that time, instead of the flat one per
    /// cycle the instruction-budgeted warm phase uses. The engine jumps
    /// from one firing cycle to the next, so a gap costs per instruction,
    /// not per cycle. Deterministic: the pace is a pure function of the
    /// preceding window, and the credit carry lives in the stats window
    /// (`reset_stats` clears it). One thread, because a gap is short:
    /// fanned out, each gap would move half the cores' state to another
    /// host CPU and back for a few tens of thousands of cycles of work.
    fn run_functional_paced(&mut self, cycles: u64) {
        debug_assert!(self.ts.pace_den > 0, "gap must follow a detailed window");
        let den = self.ts.pace_den.max(1);
        self.functional(cycles, 1, Some(den));
    }

    /// The functional engine shared by [`warm`](Self::warm) and the
    /// time-sampling gaps: chunk by chunk, the core sides on up to
    /// `width` host threads (see [`Lane::run`] for `den`), then the
    /// drain; finally the memory channel is quiesced.
    fn functional(&mut self, cycles: u64, width: usize, den: Option<u64>) {
        let mut left = cycles;
        while left > 0 {
            let span = left.min(FUNCTIONAL_CHUNK);
            let start = self.now;
            let mut work: Vec<(&mut Core<S>, &mut Lane)> =
                self.cores.iter_mut().zip(&mut self.lanes).collect();
            fan_out(width, &mut work, |(core, lane)| {
                lane.run(core, start, span, den);
            });
            self.drain_lanes(start, span);
            left -= span;
        }
        self.l3.quiesce(self.now);
    }

    /// The L3 side of the chunk of `span` cycles from `start`: merges the
    /// lanes' marks in (cycle, core) order — the smallest next cycle
    /// first, the lowest core on a tie — and serves each mark's requests
    /// in push order at its own cycle, routing each access outcome back
    /// to its issuing core. Then the clock moves past the chunk.
    fn drain_lanes(&mut self, start: Cycle, span: u64) {
        while let Some(at) = self.lanes.iter().filter_map(Lane::next_mark).min() {
            let now = start + at;
            for lane in &mut self.lanes {
                let Some(range) = lane.take_mark(at) else {
                    continue;
                };
                self.drain_visits += 1;
                for op in &lane.log.ops()[range] {
                    match *op {
                        L3Op::Access { core, addr, write } => {
                            let out = self.l3.access(core, addr, write, now);
                            self.cores[core.index()].note_l3_outcome(out.source);
                        }
                        L3Op::Writeback { core, addr } => {
                            self.l3.writeback(core, addr, now);
                        }
                    }
                }
            }
        }
        self.now = start + span;
    }

    /// The one-at-a-time reference warm loop the chunked
    /// [`warm`](Self::warm) is differentially tested against: every
    /// core's instruction calls straight into the organization, cycle by
    /// cycle, core by core, on one thread. Bit-identical results by
    /// construction — see `warm` for the argument.
    pub fn warm_reference(&mut self, instructions_per_core: u64) {
        self.l3.set_adaptation_frozen(true);
        for _ in 0..instructions_per_core {
            for core in &mut self.cores {
                core.warm_op(self.now, &mut self.l3);
            }
            self.now += 1;
        }
        self.l3.quiesce(self.now);
        self.l3.set_adaptation_frozen(false);
    }

    /// Marks the warm-up boundary: all statistics restart here while
    /// architectural state (cache contents, quotas, predictors) carries
    /// over.
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.reset_stats(self.now);
        }
        self.l3.reset_stats();
        self.window_start = self.now;
        self.ts.reset();
        for lane in &mut self.lanes {
            lane.pace_num = 0;
            lane.pace_acc = 0;
        }
    }

    /// Serializes the whole chip's warm state — clock, every core's
    /// learned state and the last-level organization — into a versioned,
    /// checksummed snapshot (see [`simcore::snapshot`]). Valid only at a
    /// quiescent point (right after [`warm`](Self::warm)): core pipeline
    /// structures are empty there and are not encoded.
    ///
    /// Restoring with [`load_chip_state`](Self::load_chip_state) into a
    /// freshly built chip of the same structural configuration and then
    /// running is bit-identical to running the original chip — the
    /// campaign engine's snapshot/fork layer is built on this guarantee.
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError::Mismatch`] when any core has
    /// in-flight pipeline state.
    pub fn save_chip_state(
        &self,
    ) -> std::result::Result<Vec<u8>, simcore::snapshot::SnapshotError> {
        let mut w = simcore::snapshot::SnapshotWriter::new();
        w.put_usize(self.cores.len());
        w.put_cycle(self.now);
        w.put_cycle(self.window_start);
        for core in &self.cores {
            core.save_state(&mut w)?;
        }
        self.l3.save_state(&mut w);
        Ok(w.finish())
    }

    /// Restores a snapshot written by
    /// [`save_chip_state`](Self::save_chip_state) into this freshly built
    /// chip. The chip must share the snapshot's *structural*
    /// configuration (cores, cache geometries, organization variant,
    /// workload); latencies may differ — they are reconstructed from this
    /// chip's own configuration, which is what lets one warm snapshot
    /// fork across the latency axes of a sweep.
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError`] on checksum/version failure,
    /// structural mismatch, or trailing bytes.
    pub fn load_chip_state(
        &mut self,
        bytes: &[u8],
    ) -> std::result::Result<(), simcore::snapshot::SnapshotError> {
        let mut r = simcore::snapshot::SnapshotReader::open(bytes)?;
        if r.get_usize()? != self.cores.len() {
            return Err(simcore::snapshot::SnapshotError::Mismatch("core count"));
        }
        self.now = r.get_cycle()?;
        self.window_start = r.get_cycle()?;
        for core in &mut self.cores {
            core.load_state(&mut r)?;
        }
        self.l3.load_state(&mut r)?;
        r.finish()
    }

    /// Snapshot of the current measurement window.
    ///
    /// On a time-sampled run, the `ipc`/`hmean_ipc`/`amean_ipc` estimates
    /// come from the detailed windows only (the SMARTS estimator); the
    /// raw `per_core` counters stay exact over the whole window,
    /// functional retires included.
    pub fn snapshot(&self) -> CmpResult {
        let per_core: Vec<(&'static str, CoreStats)> = self
            .cores
            .iter()
            .map(|c| (c.app_name(), c.stats(self.now)))
            .collect();
        let mut ipc: Vec<f64> = per_core.iter().map(|(_, s)| s.ipc()).collect();
        if self.time_sample.is_some() && self.ts.detailed_cycles > 0 {
            for (v, &committed) in ipc.iter_mut().zip(&self.ts.core_committed) {
                *v = committed as f64 / self.ts.detailed_cycles as f64;
            }
        }
        CmpResult {
            hmean_ipc: harmonic_mean(&ipc),
            amean_ipc: arithmetic_mean(&ipc),
            memory: self.l3.memory_stats(),
            quotas: self.l3.as_adaptive().map(|a| a.quotas()),
            sampling: self.l3.sampling_report(),
            time_sampling: self.time_sampling_report(),
            per_core,
            ipc,
        }
    }

    /// The SMARTS accuracy summary of the current window, when time
    /// sampling is configured.
    pub fn time_sampling_report(&self) -> Option<TimeSamplingReport> {
        let (detail, gap) = self.time_sample?;
        let n = self.ts.windows;
        let mean = if n > 0 { self.ts.sum / n as f64 } else { 0.0 };
        let se = if n > 1 {
            let nf = n as f64;
            let var = ((self.ts.sumsq - self.ts.sum * self.ts.sum / nf) / (nf - 1.0)).max(0.0);
            (var / nf).sqrt()
        } else {
            0.0
        };
        Some(TimeSamplingReport {
            detail,
            gap,
            windows: n,
            detailed_cycles: self.ts.detailed_cycles,
            functional_cycles: self.ts.functional_cycles,
            mean_window_hmean_ipc: mean,
            hmean_ipc_std_error: se,
            relative_ci95: if mean > 0.0 { 1.96 * se / mean } else { 0.0 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpusim::l3iface::LastLevel;
    use tracegen::spec::SpecApp;
    use tracegen::workload::WorkloadPool;

    fn quick_mix() -> Mix {
        Mix {
            apps: vec![SpecApp::Gzip, SpecApp::Mcf, SpecApp::Crafty, SpecApp::Eon],
            forwards: vec![600_000_000; 4],
        }
    }

    #[test]
    fn four_cores_all_make_progress() {
        let cfg = MachineConfig::baseline();
        let mut cmp = Cmp::new(&cfg, Organization::Private, &quick_mix(), 1).unwrap();
        cmp.run(30_000);
        let r = cmp.snapshot();
        assert_eq!(r.per_core.len(), 4);
        for (app, s) in &r.per_core {
            assert!(s.committed > 0, "{app} committed nothing");
        }
        assert!(r.hmean_ipc > 0.0 && r.hmean_ipc <= r.amean_ipc + 1e-9);
    }

    #[test]
    fn mix_size_is_validated() {
        let cfg = MachineConfig::baseline();
        let bad = Mix {
            apps: vec![SpecApp::Gzip],
            forwards: vec![1],
        };
        assert!(Cmp::new(&cfg, Organization::Private, &bad, 1).is_err());
    }

    #[test]
    fn warmup_reset_starts_clean_window() {
        let cfg = MachineConfig::baseline();
        let mut cmp = Cmp::new(&cfg, Organization::Shared, &quick_mix(), 2).unwrap();
        cmp.run(20_000);
        cmp.reset_stats();
        let r0 = cmp.snapshot();
        assert_eq!(r0.per_core[0].1.committed, 0);
        cmp.run(10_000);
        let r = cmp.snapshot();
        assert_eq!(r.per_core[0].1.cycles, 10_000);
        assert!(r.per_core[0].1.committed > 0);
    }

    #[test]
    fn adaptive_snapshot_exposes_quotas() {
        let cfg = MachineConfig::baseline();
        let mut cmp = Cmp::new(&cfg, Organization::adaptive(), &quick_mix(), 3).unwrap();
        cmp.run(5_000);
        let r = cmp.snapshot();
        let quotas = r.quotas.expect("adaptive orgs expose quotas");
        assert_eq!(quotas.iter().sum::<u32>(), 16);
    }

    #[test]
    fn paranoid_run_reports_no_violations() {
        let cfg = MachineConfig::baseline();
        for org in [
            Organization::Private,
            Organization::Shared,
            Organization::adaptive(),
            Organization::Cooperative { seed: 7 },
        ] {
            let mut cmp = Cmp::new(&cfg, org, &quick_mix(), 4).unwrap();
            cmp.run_paranoid(2_000)
                .unwrap_or_else(|(cycle, vs)| panic!("violations at cycle {cycle:?}: {vs:?}"));
            assert!(cmp.audit().is_empty());
        }
    }

    #[test]
    fn deterministic_across_reruns() {
        let cfg = MachineConfig::baseline();
        let run = || {
            let mix = WorkloadPool::random_mixes(&SpecApp::intensive_pool(), 4, 1, 9)
                .pop()
                .unwrap();
            let mut cmp = Cmp::new(&cfg, Organization::adaptive(), &mix, 9).unwrap();
            cmp.run(15_000);
            cmp.snapshot()
        };
        let a = run();
        let b = run();
        assert_eq!(a.per_core, b.per_core);
    }

    /// Runs `f` as the only cell of a `jobs`-wide runner, so the chip's
    /// warm fans out over `jobs` host threads (the serial short-circuit
    /// keeps the caller's whole `jobs` as the cell's share).
    fn at_width<R: Send>(jobs: usize, f: impl Fn() -> R + Sync) -> R {
        simcore::parallel::run_indexed(jobs, 1, |_| f())
            .pop()
            .expect("one cell")
    }

    fn reference_warm(cfg: &MachineConfig, org: Organization, seed: u64, n: u64) -> Vec<u8> {
        let mut cmp = Cmp::new(cfg, org, &quick_mix(), seed).unwrap();
        cmp.warm_reference(n);
        cmp.save_chip_state().unwrap()
    }

    #[test]
    fn batched_warm_matches_one_at_a_time() {
        // The chunked warm must evolve core state, organization state and
        // the memory channel bit-identically to the reference
        // one-at-a-time loop, for every organization and however many
        // host threads run the core sides — pinned through the snapshot
        // encoding, and through a timed window run on top.
        let warm = 2 * FUNCTIONAL_CHUNK + 3;
        let cfg = MachineConfig::baseline();
        for org in [
            Organization::Private,
            Organization::Shared,
            Organization::adaptive(),
            Organization::Cooperative { seed: 7 },
        ] {
            let reference = reference_warm(&cfg, org, 13, warm);
            for width in 1..=4 {
                let bytes = at_width(width, || {
                    let mut cmp = Cmp::new(&cfg, org, &quick_mix(), 13).unwrap();
                    cmp.warm(warm);
                    cmp.save_chip_state().unwrap()
                });
                assert!(
                    bytes == reference,
                    "warm diverged under {} at width {width}",
                    org.label()
                );
            }
            let timed = at_width(2, || {
                let mut cmp = Cmp::new(&cfg, org, &quick_mix(), 13).unwrap();
                cmp.warm(warm);
                cmp.run(6_000);
                cmp.snapshot()
            });
            let mut cmp = Cmp::new(&cfg, org, &quick_mix(), 13).unwrap();
            cmp.warm_reference(warm);
            cmp.run(6_000);
            assert_eq!(
                timed,
                cmp.snapshot(),
                "timed run diverged under {}",
                org.label()
            );
        }
    }

    #[test]
    fn warm_is_exact_at_chunk_boundaries() {
        // Lengths around the chunk boundary and across several chunks,
        // including an empty warm, on the organization with the most
        // state and on the sharing one, serial and fanned out.
        let c = FUNCTIONAL_CHUNK;
        let cfg = MachineConfig::baseline();
        for org in [Organization::adaptive(), Organization::Shared] {
            for warm in [0, 1, c - 1, c, c + 1, 3 * c + 7] {
                let reference = reference_warm(&cfg, org, 17, warm);
                for width in [1, 3] {
                    let bytes = at_width(width, || {
                        let mut cmp = Cmp::new(&cfg, org, &quick_mix(), 17).unwrap();
                        cmp.warm(warm);
                        cmp.save_chip_state().unwrap()
                    });
                    assert!(
                        bytes == reference,
                        "warm of {warm} diverged under {} at width {width}",
                        org.label()
                    );
                }
            }
        }
    }

    /// The one-at-a-time paced loop the gap engine is checked against:
    /// every cycle, each core earns its `num` credits and retires one
    /// instruction per `den` accumulated, straight into the organization.
    /// Returns the carried credit.
    fn paced_reference(cmp: &mut Cmp, gap: u64, num: &[u64], den: u64, acc: &[u64]) -> Vec<u64> {
        let mut credit = acc.to_vec();
        for _ in 0..gap {
            for (i, core) in cmp.cores.iter_mut().enumerate() {
                credit[i] += num[i];
                while credit[i] >= den {
                    credit[i] -= den;
                    core.warm_op(cmp.now, &mut cmp.l3);
                }
            }
            cmp.now += 1;
        }
        cmp.l3.quiesce(cmp.now);
        credit
    }

    /// Arms every lane's gap pacing at `num[i] / den` with credit `acc[i]`.
    fn arm_pacing(cmp: &mut Cmp, num: &[u64], den: u64, acc: &[u64]) {
        cmp.ts.pace_den = den;
        for ((lane, &n), &a) in cmp.lanes.iter_mut().zip(num).zip(acc) {
            lane.pace_num = n;
            lane.pace_acc = a;
        }
    }

    #[test]
    fn paced_gap_engine_matches_one_at_a_time() {
        // The time-sampling gap engine against a one-at-a-time loop with
        // the same Bresenham pacing: paces below, at and above one
        // instruction per cycle, carried credit, and a gap spanning
        // several chunks.
        let cfg = MachineConfig::baseline();
        let (den, num, acc) = (8, [3, 8, 1, 17], [0, 5, 7, 2]);
        let gap = 2 * FUNCTIONAL_CHUNK + 11;
        for org in [
            Organization::adaptive(),
            Organization::Cooperative { seed: 7 },
        ] {
            let build = || {
                let mut cmp = Cmp::new(&cfg, org, &quick_mix(), 41).unwrap();
                cmp.warm(2_000);
                arm_pacing(&mut cmp, &num, den, &acc);
                cmp
            };
            let mut engine = build();
            engine.run_functional_paced(gap);

            let mut reference = build();
            let credit = paced_reference(&mut reference, gap, &num, den, &acc);

            let carried: Vec<u64> = engine.lanes.iter().map(|l| l.pace_acc).collect();
            assert_eq!(carried, credit, "credit carry under {}", org.label());
            assert!(
                engine.save_chip_state().unwrap() == reference.save_chip_state().unwrap(),
                "paced gap diverged under {}",
                org.label()
            );
        }
    }

    /// The per-cycle Bresenham loop [`pace`] jumps over: the offset of
    /// every op it fires over `span` cycles, and the carried credit.
    fn pace_per_cycle(mut acc: u64, num: u64, den: u64, span: u64) -> (Vec<u64>, u64) {
        let mut fired = Vec::new();
        for at in 0..span {
            acc += num;
            while acc >= den {
                acc -= den;
                fired.push(at);
            }
        }
        (fired, acc)
    }

    /// [`pace`]'s firing offsets, one entry per op, and its carry.
    fn pace_jumping(acc: u64, num: u64, den: u64, span: u64) -> (Vec<u64>, u64) {
        let mut fired = Vec::new();
        let mut last = None;
        let carry = pace(acc, num, den, span, |at, ops| {
            assert!(ops >= 1, "a reported cycle fires at least one op");
            assert!(last < Some(at), "cycles are reported once, in order");
            last = Some(at);
            fired.extend(std::iter::repeat_n(at, usize::try_from(ops).unwrap()));
        });
        (fired, carry)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn pacing_jump_matches_the_per_cycle_loop(
            den in 1u64..2_000,
            ratio in 1u64..4_000,
            acc_draw in proptest::prelude::any::<u64>(),
            span in 0u64..3_000,
            edge in 0u8..4,
        ) {
            // `num` up to about twice `den` (paces above one op per
            // cycle), with the corners drawn on purpose: a one-credit
            // op (`den = 1`), credit one short of an op, and a pace of
            // exactly one op per cycle.
            let den = if edge == 1 { 1 } else { den };
            let num = (ratio * den).div_ceil(2_000).max(1);
            let num = if edge == 3 { den } else { num };
            let acc = if edge == 2 { den - 1 } else { acc_draw % den };
            proptest::prop_assert_eq!(
                pace_jumping(acc, num, den, span),
                pace_per_cycle(acc, num, den, span),
                "num {} den {} acc {} span {}", num, den, acc, span
            );
        }
    }

    #[test]
    fn pacing_jump_covers_the_corners() {
        // No credit earned, a span too short to fire, a fire on the
        // span's last cycle, paces of several ops per cycle, values far
        // from the proptest's range, and credit of a whole op or more.
        for (acc, num, den, span) in [
            (0, 0, 5, 100),
            (0, 1, 1, 0),
            (0, 1, 1, 7),
            (3, 1, 10, 6),
            (3, 1, 10, 7),
            (9, 1, 10, 1),
            (0, 7, 2, 9),
            (1, 5, 2, 9),
            (0, 3, 1, 5),
            (12_345, 40_000, 1 << 40, 50),
            ((1 << 40) - 1, 1, 1 << 40, 3),
            (0, 1, u64::MAX / 2, 1_000),
            // Credit carried in at or above `den` (a gap whose window
            // span shrank): the first cycle fires every op it covers.
            (10, 3, 10, 4),
            (15, 3, 10, 6),
            (25, 3, 10, 6),
            (31, 12, 10, 4),
        ] {
            assert_eq!(
                pace_jumping(acc, num, den, span),
                pace_per_cycle(acc, num, den, span),
                "acc {acc} num {num} den {den} span {span}"
            );
        }
    }

    /// A profile whose data and code stay in the L1s: once its cold
    /// misses are served, it sends nothing to the L3.
    fn l1_resident_profile() -> tracegen::AppProfile {
        tracegen::profile::AppProfileBuilder::new("l1-resident")
            .mix(tracegen::profile::MemoryMix {
                l1_resident: 1.0,
                l2_resident: 0.0,
                l3_hot: 0.0,
                streaming: 0.0,
            })
            .l1_kb(8)
            .code_kb(8)
            .build()
            .unwrap()
    }

    /// A profile that streams on nine ops in ten: nearly every op it
    /// retires misses all the way to memory.
    fn streaming_profile() -> tracegen::AppProfile {
        tracegen::profile::AppProfileBuilder::new("streaming")
            .loads(0.5)
            .stores(0.4)
            .branches(0.05)
            .mix(tracegen::profile::MemoryMix {
                l1_resident: 0.0,
                l2_resident: 0.0,
                l3_hot: 0.0,
                streaming: 1.0,
            })
            .build()
            .unwrap()
    }

    fn chip_of(cfg: &MachineConfig, org: Organization, profiles: &[tracegen::AppProfile]) -> Cmp {
        let forwards = vec![0; profiles.len()];
        Cmp::with_profiles_and_sink(cfg, org, profiles, &forwards, 47, NullSink).unwrap()
    }

    /// Forwards to the organization and notes whether a request arrived.
    struct Touched<'a> {
        l3: &'a mut L3System,
        touched: bool,
    }

    impl LastLevel for Touched<'_> {
        fn access(
            &mut self,
            core: CoreId,
            addr: simcore::types::Address,
            write: bool,
            now: Cycle,
        ) -> cpusim::l3iface::L3Outcome {
            self.touched = true;
            self.l3.access(core, addr, write, now)
        }

        fn writeback(&mut self, core: CoreId, addr: simcore::types::Address, now: Cycle) {
            self.touched = true;
            self.l3.writeback(core, addr, now);
        }
    }

    /// [`Cmp::warm_reference`] that also counts the (cycle, core) slots
    /// in which a core sent the organization at least one request.
    fn requesting_slots(cmp: &mut Cmp, cycles: u64) -> u64 {
        cmp.l3.set_adaptation_frozen(true);
        let mut slots = 0;
        for _ in 0..cycles {
            for core in &mut cmp.cores {
                let mut port = Touched {
                    l3: &mut cmp.l3,
                    touched: false,
                };
                core.warm_op(cmp.now, &mut port);
                slots += u64::from(port.touched);
            }
            cmp.now += 1;
        }
        cmp.l3.quiesce(cmp.now);
        cmp.l3.set_adaptation_frozen(false);
        slots
    }

    #[test]
    fn drain_visits_count_the_requesting_slots() {
        // The drain serves one mark per (cycle, core) slot that sent the
        // L3 a request — the count a one-at-a-time loop sees — not one
        // per cycle and core. A chip whose cores stay in their L1s visits
        // nothing once its cold misses are served.
        let cfg = MachineConfig::baseline();
        let warm = FUNCTIONAL_CHUNK + 500;
        let org = Organization::adaptive();
        let mut engine = Cmp::new(&cfg, org, &quick_mix(), 45).unwrap();
        engine.warm(warm);
        let mut reference = Cmp::new(&cfg, org, &quick_mix(), 45).unwrap();
        let slots = requesting_slots(&mut reference, warm);
        assert_eq!(engine.drain_visits(), slots);
        assert!(
            slots > 0 && slots < 4 * warm,
            "{slots} of {} slots",
            4 * warm
        );
        assert!(engine.save_chip_state().unwrap() == reference.save_chip_state().unwrap());

        let quiet = vec![l1_resident_profile(); 4];
        let mut engine = chip_of(&cfg, org, &quiet);
        engine.warm(warm);
        let cold = engine.drain_visits();
        engine.warm(warm);
        assert_eq!(
            engine.drain_visits(),
            cold,
            "an L1-resident chip visited the drain"
        );
        let mut reference = chip_of(&cfg, org, &quiet);
        assert_eq!(requesting_slots(&mut reference, warm), cold);
        assert_eq!(requesting_slots(&mut reference, warm), 0);
    }

    #[test]
    fn quiet_lanes_and_ties_match_the_references() {
        // Two corners of the merge: lanes with no marks at all (cores 0
        // and 2 stay in their L1s), and several cores requesting in the
        // same cycle, the chunk's last one included (every core streams).
        // Each is warmed at widths 1–4 against the one-at-a-time warm and
        // run through a paced gap against the one-at-a-time paced loop.
        let cfg = MachineConfig::baseline();
        let org = Organization::adaptive();
        let quiet = l1_resident_profile();
        let busy = SpecApp::Mcf.profile().clone();
        let cases = [
            (
                "quiet lanes",
                vec![quiet.clone(), busy.clone(), quiet, busy],
            ),
            ("ties", vec![streaming_profile(); 4]),
        ];
        let warm = 2 * FUNCTIONAL_CHUNK;
        let last = FUNCTIONAL_CHUNK - 1;
        for (what, profiles) in cases {
            let mut reference = chip_of(&cfg, org, &profiles);
            reference.warm_reference(warm);
            let reference = reference.save_chip_state().unwrap();
            for width in 1..=4 {
                let (bytes, marks) = at_width(width, || {
                    let mut cmp = chip_of(&cfg, org, &profiles);
                    cmp.warm(warm);
                    let marks: Vec<Vec<(u64, usize)>> =
                        cmp.lanes.iter().map(|l| l.marks.clone()).collect();
                    (cmp.save_chip_state().unwrap(), marks)
                });
                assert!(bytes == reference, "{what}: warm diverged at width {width}");
                let at_last = marks
                    .iter()
                    .filter(|m| m.last().map(|&(at, _)| at) == Some(last))
                    .count();
                if what == "ties" {
                    assert!(
                        at_last >= 2,
                        "{what}: {at_last} lanes end at the last cycle"
                    );
                } else {
                    assert!(marks[0].is_empty() && marks[2].is_empty(), "{what}: marks");
                    assert!(!marks[1].is_empty(), "{what}: the busy lane left no mark");
                }
            }

            // A gap over two chunks and a bit, paced below, at and above
            // one op per cycle.
            let (den, num, acc) = (6, [5, 6, 13, 1], [2, 0, 5, 5]);
            let gap = 2 * FUNCTIONAL_CHUNK + 3;
            let build = || {
                let mut cmp = chip_of(&cfg, org, &profiles);
                cmp.warm(4_000);
                arm_pacing(&mut cmp, &num, den, &acc);
                cmp
            };
            let mut engine = build();
            engine.run_functional_paced(gap);
            let mut paced = build();
            let credit = paced_reference(&mut paced, gap, &num, den, &acc);
            let carried: Vec<u64> = engine.lanes.iter().map(|l| l.pace_acc).collect();
            assert_eq!(carried, credit, "{what}: credit carry");
            assert!(
                engine.save_chip_state().unwrap() == paced.save_chip_state().unwrap(),
                "{what}: paced gap diverged"
            );
        }
    }

    #[test]
    fn time_sampled_run_is_independent_of_the_warm_width() {
        // A time-sampled run whose gaps span several chunks, after a warm
        // fanned out at every width, ends exactly where it ends after the
        // reference warm.
        let cfg = MachineConfig::baseline();
        let org = Organization::adaptive();
        let finish = |cmp: &mut Cmp| {
            cmp.run(30_000);
            cmp.reset_stats();
            cmp.run(60_000);
            cmp.snapshot()
        };
        let build = || {
            let mut cmp = Cmp::new(&cfg, org, &quick_mix(), 43).unwrap();
            cmp.set_time_sample(2_000, 20_000);
            cmp
        };
        let mut reference = build();
        reference.warm_reference(FUNCTIONAL_CHUNK + 5);
        let reference = finish(&mut reference);
        assert!(reference.time_sampling.is_some());
        for width in 1..=4 {
            let result = at_width(width, || {
                let mut cmp = build();
                cmp.warm(FUNCTIONAL_CHUNK + 5);
                finish(&mut cmp)
            });
            assert_eq!(
                result, reference,
                "time-sampled run diverged at width {width}"
            );
        }
    }

    #[test]
    fn cycle_skip_matches_stepping_loop_exactly() {
        // The event-driven loop must be *bit-identical* to the reference
        // stepping loop — same committed counts, hit/miss stats and
        // quotas, for every organization — while stepping fewer cores.
        // Three cases: untraced, traced (every telemetry event, MSHR
        // alloc/merge/stall included, in order), and time-sampled (the
        // event-driven loop inside detailed windows).
        let cfg = MachineConfig::baseline();
        for org in [
            Organization::Private,
            Organization::Shared,
            Organization::adaptive(),
            Organization::Cooperative { seed: 7 },
        ] {
            let run = |skip: bool, time_sample: Option<(u64, u64)>| {
                let mut cmp = Cmp::new(&cfg, org, &quick_mix(), 11).unwrap();
                cmp.set_cycle_skip(skip);
                if let Some((detail, gap)) = time_sample {
                    cmp.set_time_sample(detail, gap);
                }
                cmp.warm(5_000);
                let warm_steps = cmp.core_steps();
                cmp.run(8_000);
                cmp.reset_stats();
                cmp.run(12_000);
                (cmp.snapshot(), cmp.core_steps() - warm_steps)
            };
            let (fast, fast_steps) = run(true, None);
            let (reference, reference_steps) = run(false, None);
            assert_eq!(fast, reference, "skip diverged under {}", org.label());
            assert_eq!(
                reference_steps,
                4 * 20_000,
                "stepping loop steps every core"
            );
            assert!(
                fast_steps < reference_steps,
                "{}: event-driven loop stepped {fast_steps} cores, stepping loop {reference_steps}",
                org.label()
            );

            let sampled = Some((2_000, 6_000));
            assert_eq!(
                run(true, sampled).0,
                run(false, sampled).0,
                "time-sampled skip diverged under {}",
                org.label()
            );

            let traced = |skip: bool| {
                let mix = quick_mix();
                let sink = telemetry::Recorder::with_capacity(1 << 20);
                let mut cmp = Cmp::with_profiles_and_sink(
                    &cfg,
                    org,
                    &mix.profiles(),
                    &mix.forwards,
                    11,
                    sink.clone(),
                )
                .unwrap();
                cmp.set_cycle_skip(skip);
                cmp.warm(5_000);
                cmp.run(8_000);
                cmp.reset_stats();
                cmp.run(12_000);
                (cmp.snapshot(), sink)
            };
            let (fast, fast_sink) = traced(true);
            let (reference, reference_sink) = traced(false);
            assert_eq!(
                fast,
                reference,
                "traced skip diverged under {}",
                org.label()
            );
            assert!(fast_sink.count(telemetry::EventKind::MshrAlloc) > 0);
            assert_eq!(
                fast_sink.emitted(),
                reference_sink.emitted(),
                "event count diverged under {}",
                org.label()
            );
            assert_eq!(
                fast_sink.tail(1 << 20),
                reference_sink.tail(1 << 20),
                "event stream diverged under {}",
                org.label()
            );
        }
    }

    fn organizations() -> [Organization; 4] {
        [
            Organization::Private,
            Organization::Shared,
            Organization::adaptive(),
            Organization::Cooperative { seed: 7 },
        ]
    }

    /// One mix dealt from the intensive pool, or from the rest of the
    /// applications (the pool of nucabench's `light`).
    fn pool_mix(intensive: bool, seed: u64) -> Mix {
        let pool: Vec<SpecApp> = SpecApp::ALL
            .into_iter()
            .filter(|a| a.is_llc_intensive() == intensive)
            .collect();
        WorkloadPool::random_mixes(&pool, 4, 1, seed)
            .pop()
            .expect("one mix")
    }

    /// What a detailed window must leave the same at every width: the
    /// window's results (per-core stats included), the steps taken so
    /// far and the organization's audit.
    type Outcome = (CmpResult, u64, Vec<Violation>);

    /// Warms a chip, then runs the experiment protocol — a warm-up
    /// window, a stats reset, a measured window — with the detailed loop
    /// on `width` host threads; returns the outcome of each window.
    fn windows_at(
        width: usize,
        org: Organization,
        mix: &Mix,
        seed: u64,
        (warm, warmup, measure): (u64, u64, u64),
    ) -> [Outcome; 2] {
        let mut cmp = Cmp::new(&MachineConfig::baseline(), org, mix, seed).unwrap();
        cmp.warm(warm);
        let window = |cmp: &mut Cmp, cycles| {
            cmp.run_detailed(cycles, width);
            (cmp.snapshot(), cmp.core_steps(), cmp.audit())
        };
        let first = window(&mut cmp, warmup);
        cmp.reset_stats();
        [first, window(&mut cmp, measure)]
    }

    #[test]
    fn fanned_out_detailed_loop_is_exact_at_every_width() {
        // Every organization, on a core-bound and an LLC-intensive mix,
        // with the cores in one, two, three (uneven) and four groups:
        // both windows must match the one-thread loop exactly. The chips
        // do reach the organization, so the gate has calls to order.
        for intensive in [false, true] {
            let mix = pool_mix(intensive, 2007);
            for org in organizations() {
                let serial = windows_at(1, org, &mix, 51, (20_000, 5_000, 20_000));
                let measured = &serial[1].0;
                assert!(measured.total_l3_accesses() > 0, "no L3 traffic");
                assert!(serial.iter().all(|(_, _, audit)| audit.is_empty()));
                for width in 2..=4 {
                    assert!(
                        windows_at(width, org, &mix, 51, (20_000, 5_000, 20_000)) == serial,
                        "{} (intensive: {intensive}) diverged at width {width}",
                        org.label()
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn detailed_loop_is_exact_at_any_width(
            org in 0usize..4,
            intensive in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
            warmup in proptest::prop_oneof![
                proptest::prelude::Just(0u64),
                proptest::prelude::Just(1u64),
                0u64..6_000
            ],
            measure in proptest::prop_oneof![
                proptest::prelude::Just(0u64),
                proptest::prelude::Just(1u64),
                0u64..6_000
            ],
            width in 2usize..=4,
        ) {
            let (org, mix) = (organizations()[org], pool_mix(intensive, seed));
            let lengths = (3_000, warmup, measure);
            proptest::prop_assert!(
                windows_at(width, org, &mix, seed, lengths) == windows_at(1, org, &mix, seed, lengths),
                "{} diverged at width {}", org.label(), width
            );
        }
    }

    #[test]
    fn hit_fast_path_matches_reference_walk_exactly() {
        // The core-side hit fast path (fused TLB+L1 probe/walk, memos,
        // bookkeeping bypass) must be bit-identical to the reference
        // walks across warm + detailed + reset + detailed, for every
        // organization, including the chip snapshot encoding.
        let cfg = MachineConfig::baseline();
        for org in [
            Organization::Private,
            Organization::Shared,
            Organization::adaptive(),
            Organization::Cooperative { seed: 7 },
        ] {
            let run = |fast: bool| {
                let mut cmp = Cmp::new(&cfg, org, &quick_mix(), 19).unwrap();
                cmp.set_fast_path(fast);
                cmp.warm(5_000);
                cmp.run(8_000);
                cmp.reset_stats();
                cmp.run(12_000);
                (cmp.snapshot(), cmp.fast_path_stats())
            };
            let (fast, counters) = run(true);
            let (reference, off_counters) = run(false);
            assert_eq!(fast, reference, "fast path diverged under {}", org.label());
            assert!(
                counters.data_fast_hits > 0,
                "fast path never fired under {}",
                org.label()
            );
            assert_eq!(
                off_counters.data_fast_hits + off_counters.inst_fast_hits,
                0,
                "disabled fast path fired under {}",
                org.label()
            );
        }
    }

    #[test]
    fn snapshot_restore_run_matches_run_through() {
        // The campaign engine's core guarantee: warm, snapshot, restore
        // into a fresh chip, run — bit-identical to warming and running
        // straight through, for every organization.
        let cfg = MachineConfig::baseline();
        for org in [
            Organization::Private,
            Organization::Shared,
            Organization::adaptive(),
            Organization::Cooperative { seed: 7 },
        ] {
            let mix = quick_mix();
            let mut original = Cmp::new(&cfg, org, &mix, 21).unwrap();
            original.warm(6_000);
            let bytes = original.save_chip_state().expect("quiescent after warm");

            let mut restored = Cmp::new(&cfg, org, &mix, 21).unwrap();
            restored.load_chip_state(&bytes).expect("restore");

            let finish = |cmp: &mut Cmp| {
                cmp.run(4_000);
                cmp.reset_stats();
                cmp.run(8_000);
                cmp.snapshot()
            };
            let through = finish(&mut original);
            let forked = finish(&mut restored);
            assert_eq!(through, forked, "fork diverged under {}", org.label());
        }
    }

    #[test]
    fn snapshot_is_latency_independent() {
        // Functional warm-up discards timing, so a snapshot taken under
        // one set of latencies restores into a machine with different
        // ones and runs bit-identically to warming that machine directly
        // — the property that lets one warm snapshot fork across a
        // sweep's latency axes. Every latency axis the campaign spec
        // exposes is varied at once: memory first-chunk, L3 hit (both
        // organizations' banks and the neighbor hop) and L2 hit.
        let base = MachineConfig::baseline();
        let mut slow = MachineConfig::baseline();
        slow.memory.first_chunk_private = 330;
        slow.memory.first_chunk_shared = 338;
        slow.l2 = slow.l2.with_latency(11);
        slow.l3.private = slow.l3.private.with_latency(16);
        slow.l3.shared = slow.l3.shared.with_latency(24);
        slow.l3.neighbor_latency = 24;
        let mix = quick_mix();
        for org in [Organization::Shared, Organization::adaptive()] {
            let mut warm_base = Cmp::new(&base, org, &mix, 23).unwrap();
            warm_base.warm(6_000);
            let bytes = warm_base.save_chip_state().unwrap();

            let mut warm_slow = Cmp::new(&slow, org, &mix, 23).unwrap();
            warm_slow.warm(6_000);

            let mut forked = Cmp::new(&slow, org, &mix, 23).unwrap();
            forked.load_chip_state(&bytes).unwrap();

            let finish = |cmp: &mut Cmp| {
                cmp.run(4_000);
                cmp.reset_stats();
                cmp.run(8_000);
                cmp.snapshot()
            };
            assert_eq!(
                finish(&mut warm_slow),
                finish(&mut forked),
                "latency fork diverged under {}",
                org.label()
            );
        }
    }

    #[test]
    fn snapshot_rejects_wrong_organization_and_corruption() {
        // Private and shared are one organization type told apart only by
        // the snapshot tag, and private, `private4x` and cooperative all
        // lead with a private slice: every cross-organization restore
        // must still be refused.
        let cfg = MachineConfig::baseline();
        let mix = quick_mix();
        let orgs = [
            Organization::Private,
            Organization::PrivateScaled { factor: 4 },
            Organization::Shared,
            Organization::adaptive(),
            Organization::Cooperative { seed: 7 },
        ];
        for (i, from) in orgs.into_iter().enumerate() {
            let mut cmp = Cmp::new(&cfg, from, &mix, 5).unwrap();
            cmp.warm(1_000);
            let bytes = cmp.save_chip_state().unwrap();
            for (j, to) in orgs.into_iter().enumerate() {
                if i == j {
                    continue;
                }
                let mut wrong = Cmp::new(&cfg, to, &mix, 5).unwrap();
                assert!(
                    matches!(
                        wrong.load_chip_state(&bytes),
                        Err(simcore::snapshot::SnapshotError::Mismatch(_))
                    ),
                    "{} restored into {}",
                    from.label(),
                    to.label()
                );
            }
        }

        let mut cmp = Cmp::new(&cfg, Organization::Shared, &mix, 5).unwrap();
        cmp.warm(1_000);
        let bytes = cmp.save_chip_state().unwrap();

        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        let mut fresh = Cmp::new(&cfg, Organization::Shared, &mix, 5).unwrap();
        assert!(matches!(
            fresh.load_chip_state(&corrupt),
            Err(simcore::snapshot::SnapshotError::BadChecksum { .. })
        ));
    }

    #[test]
    fn snapshot_requires_quiescence() {
        let cfg = MachineConfig::baseline();
        let mut cmp = Cmp::new(&cfg, Organization::Shared, &quick_mix(), 5).unwrap();
        cmp.run(2_000); // timed run leaves in-flight pipeline state
        assert!(matches!(
            cmp.save_chip_state(),
            Err(simcore::snapshot::SnapshotError::Mismatch(_))
        ));
    }

    #[test]
    fn zero_gap_time_sampling_is_identical_to_detailed() {
        // `--time-sample d:0` must be byte-identical to an unsampled run:
        // the scheduler is bypassed entirely and no report is attached.
        let cfg = MachineConfig::baseline();
        for org in [
            Organization::Private,
            Organization::Shared,
            Organization::adaptive(),
            Organization::Cooperative { seed: 7 },
        ] {
            let run = |sampled: bool| {
                let mut cmp = Cmp::new(&cfg, org, &quick_mix(), 31).unwrap();
                if sampled {
                    cmp.set_time_sample(5_000, 0);
                }
                cmp.warm(5_000);
                cmp.run(8_000);
                cmp.reset_stats();
                cmp.run(12_000);
                cmp.snapshot()
            };
            let sampled = run(true);
            let plain = run(false);
            assert_eq!(sampled, plain, "0-gap diverged under {}", org.label());
            assert!(sampled.time_sampling.is_none());
        }
    }

    #[test]
    fn time_sampled_run_reports_confidence_bounds() {
        let cfg = MachineConfig::baseline();
        let mut cmp = Cmp::new(&cfg, Organization::adaptive(), &quick_mix(), 33).unwrap();
        cmp.set_time_sample(2_000, 6_000);
        cmp.warm(20_000);
        cmp.run(16_000);
        cmp.reset_stats();
        cmp.run(40_000);
        let r = cmp.snapshot();
        let ts = r.time_sampling.expect("sampled run carries a report");
        assert_eq!(ts.detail, 2_000);
        assert_eq!(ts.gap, 6_000);
        // 40_000 cycles = 5 full detailed windows (one per 8_000-cycle
        // period) and their gaps.
        assert_eq!(ts.windows, 5);
        assert_eq!(ts.detailed_cycles + ts.functional_cycles, 40_000);
        assert_eq!(ts.detailed_cycles, 5 * 2_000);
        assert!(ts.mean_window_hmean_ipc > 0.0);
        assert!(ts.hmean_ipc_std_error.is_finite());
        assert!(ts.relative_ci95 >= 0.0);
        // The headline estimate comes from detailed cycles only and must
        // be a plausible IPC.
        assert!(r.hmean_ipc > 0.0 && r.hmean_ipc <= 4.0);
        // Raw counters keep counting functional retires: committed over
        // the whole window exceeds what the detailed windows alone saw.
        let committed: u64 = r.per_core.iter().map(|(_, s)| s.committed).sum();
        assert!(committed as f64 > r.hmean_ipc * ts.detailed_cycles as f64);
    }

    #[test]
    fn time_sampled_gaps_keep_quotas_adapting_and_audit_clean() {
        // Unlike warm-up, the functional gaps do NOT freeze Algorithm 1:
        // re-evaluation epochs keep closing on the gap miss stream, and
        // the structure stays consistent across window boundaries. The
        // control run spends only the schedule's detailed-cycle budget
        // (no gaps), so any extra epochs in the sampled run were closed
        // by misses the credit-paced gaps fed to the sharing engine.
        let cfg = MachineConfig::baseline();
        let run = |cycles: u64, ts: Option<(u64, u64)>| {
            let mut cmp = Cmp::new(&cfg, Organization::adaptive(), &quick_mix(), 35).unwrap();
            if let Some((d, g)) = ts {
                cmp.set_time_sample(d, g);
            }
            cmp.warm(10_000);
            cmp.run(cycles);
            assert!(cmp.audit().is_empty());
            let epochs = cmp
                .l3()
                .as_adaptive()
                .expect("adaptive org")
                .engine()
                .epochs();
            (cmp.snapshot(), epochs)
        };
        // 300_000 cycles on a 2_000:8_000 schedule = 60_000 detailed.
        let (sampled, sampled_epochs) = run(300_000, Some((2_000, 8_000)));
        let (budget, budget_epochs) = run(60_000, None);
        assert_eq!(
            sampled.quotas.expect("adaptive org").iter().sum::<u32>(),
            16
        );
        assert!(
            sampled_epochs > budget_epochs,
            "gap misses must keep closing re-evaluation epochs \
             (sampled {sampled_epochs} vs detailed-budget-only {budget_epochs})"
        );
        assert!(budget.hmean_ipc > 0.0);
    }

    #[test]
    fn time_sampled_run_is_deterministic() {
        let cfg = MachineConfig::baseline();
        let run = || {
            let mut cmp = Cmp::new(&cfg, Organization::adaptive(), &quick_mix(), 37).unwrap();
            cmp.set_time_sample(1_500, 4_500);
            cmp.warm(8_000);
            cmp.run(10_000);
            cmp.reset_stats();
            cmp.run(30_000);
            cmp.snapshot()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn functional_gap_engine_matches_warm_modulo_adaptation_freeze() {
        // For organizations with no adaptation (freeze is a no-op),
        // `run_functional` IS the warm engine: identical chip state,
        // pinned bit-for-bit through the snapshot encoding.
        let cfg = MachineConfig::baseline();
        for org in [Organization::Private, Organization::Shared] {
            let mix = quick_mix();
            let mut warmed = Cmp::new(&cfg, org, &mix, 39).unwrap();
            warmed.warm(12_000);
            let mut functional = Cmp::new(&cfg, org, &mix, 39).unwrap();
            functional.run_functional(12_000);
            assert_eq!(
                warmed.save_chip_state().unwrap(),
                functional.save_chip_state().unwrap(),
                "gap engine diverged from warm under {}",
                org.label()
            );
        }
    }

    #[test]
    fn different_organizations_share_the_same_traces() {
        // Committed-instruction counts differ, but the applications and
        // their address streams are identical across organizations (same
        // seed), so the comparison is apples-to-apples.
        let cfg = MachineConfig::baseline();
        let mix = quick_mix();
        let mut a = Cmp::new(&cfg, Organization::Private, &mix, 5).unwrap();
        let mut b = Cmp::new(&cfg, Organization::Shared, &mix, 5).unwrap();
        a.run(10_000);
        b.run(10_000);
        let ra = a.snapshot();
        let rb = b.snapshot();
        for i in 0..4 {
            assert_eq!(ra.per_core[i].0, rb.per_core[i].0);
        }
    }
}
