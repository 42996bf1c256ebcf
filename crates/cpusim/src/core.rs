//! The cycle-driven out-of-order core model.
//!
//! A simplified but faithful rendition of SimpleScalar's RUU machine with
//! the Table 1 parameters: 4-wide fetch/dispatch/issue/commit, a 128-entry
//! register update unit (reorder buffer), a 64-entry load/store queue,
//! functional-unit contention, a combined branch predictor whose
//! mispredictions cost 7 cycles of fetch, separate I/D TLBs, and
//! non-blocking L1/L2 caches with MSHR-based miss merging. Every L2 miss
//! is handed to a [`LastLevel`] organization.
//!
//! The model is trace-driven: micro-ops come from a
//! [`tracegen::TraceGenerator`], carrying dependency distances that the
//! scheduler honors, so IPC responds to memory latency exactly the way the
//! paper's evaluation requires (stalls overlap while the window lasts,
//! then the core drains).

pub mod functional;

use std::collections::VecDeque;

use cachesim::cache::Cache;
use cachesim::mshr::MshrFile;
use simcore::config::MachineConfig;
use simcore::stats::HitMiss;
use simcore::types::{Address, CoreId, Cycle};
use telemetry::{Event, NullSink, Sink};
use tracegen::op::{MicroOp, OpClass};
use tracegen::TraceGenerator;

use crate::branch::BranchPredictor;
use crate::fastpath::{self, FastPathStats};
use crate::l3iface::{DirectPort, L3Batch, L3Outcome, L3Source, LastLevel, WarmPort};
use crate::tlb::Tlb;

/// Number of L2 miss-status registers per core.
const MSHR_ENTRIES: usize = 16;
/// L1 data cache ports (concurrent memory issues per cycle).
const MEM_PORTS: usize = 2;
/// How far past the oldest unissued entry the scheduler looks each cycle.
const SCHED_WINDOW: usize = 32;
/// Ready-time ring size; must exceed RUU size + max dependency distance.
const RING: usize = 512;

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    class: OpClass,
    addr: Option<Address>,
    dep1: u64,
    dep2: u64,
    issued: bool,
    ready_at: Cycle,
    mispredicted: bool,
}

/// Aggregated statistics for one core over the measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// Instructions committed.
    pub committed: u64,
    /// Cycles simulated in the window.
    pub cycles: u64,
    /// L1 instruction cache hits/misses.
    pub l1i: HitMiss,
    /// L1 data cache hits/misses.
    pub l1d: HitMiss,
    /// Unified L2 hits/misses.
    pub l2: HitMiss,
    /// Last-level accesses issued (primary L2 misses).
    pub l3_accesses: u64,
    /// Last-level accesses satisfied locally (private partition).
    pub l3_local_hits: u64,
    /// Last-level accesses satisfied remotely (shared/neighbor).
    pub l3_remote_hits: u64,
    /// Last-level accesses that went to main memory.
    pub l3_misses: u64,
    /// Branch predictions and mispredictions.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Data TLB misses.
    pub dtlb_misses: u64,
    /// Instruction TLB misses.
    pub itlb_misses: u64,
}

impl CoreStats {
    /// Instructions per cycle over the window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Last-level accesses per thousand cycles — the Figure 5 metric.
    pub fn l3_accesses_per_kilocycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.l3_accesses as f64 * 1000.0 / self.cycles as f64
        }
    }
}

/// One out-of-order core with its private L1I/L1D/L2 hierarchy.
///
/// The `S` parameter selects the telemetry sink for MSHR events; the
/// default [`NullSink`] compiles all emission sites away.
pub struct Core<S: Sink = NullSink> {
    id: CoreId,
    cfg: MachineConfig,
    gen: TraceGenerator,
    bp: BranchPredictor,
    itlb: Tlb,
    dtlb: Tlb,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    mshr: MshrFile,

    rob: VecDeque<RobEntry>,
    lsq_occupancy: usize,
    fetch_queue: VecDeque<(MicroOp, bool)>, // (op, mispredicted)
    next_seq: u64,
    /// Raw completion cycle per sequence number (mod RING); `u64::MAX`
    /// while in flight.
    ready_ring: Vec<u64>,
    fetch_resume_at: Cycle,
    /// Fetch is blocked until the mispredicted branch with this sequence
    /// number issues.
    waiting_branch: Option<u64>,
    /// Last instruction block fetched (I-side accesses happen per block).
    last_fetch_block: u64,

    committed: u64,
    window_start: Cycle,
    l3_accesses: u64,
    l3_local_hits: u64,
    l3_remote_hits: u64,
    l3_misses: u64,
    /// Whether the exact hit fast path (fused TLB+L1 probe/walk,
    /// memo-served lookups, warm trace decode, issue-scan hint) is
    /// enabled. Results are bit-identical either way; `--no-fast-path`
    /// clears it.
    fast_path: bool,
    /// Fast-path effectiveness counters (perf side channel only; never
    /// part of [`CoreStats`], traces or snapshots).
    fast: FastPathStats,
    /// Issue-scan hint: every ROB entry at an index below this is issued,
    /// so the oldest-unissued scan may start here. Maintained by
    /// commit/issue/drain; consulted only when `fast_path` is on.
    issue_hint: usize,
    sink: S,
}

impl<S: Sink> std::fmt::Debug for Core<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("app", &self.gen.profile().name)
            .field("committed", &self.committed)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates an untraced core running the given trace.
    pub fn new(id: CoreId, cfg: &MachineConfig, gen: TraceGenerator) -> Self {
        Core::with_sink(id, cfg, gen, NullSink)
    }
}

impl<S: Sink> Core<S> {
    /// Creates a core emitting MSHR telemetry into `sink`.
    pub fn with_sink(id: CoreId, cfg: &MachineConfig, gen: TraceGenerator, sink: S) -> Self {
        Core {
            id,
            cfg: *cfg,
            gen,
            bp: BranchPredictor::new(cfg.branch),
            itlb: Tlb::new(cfg.tlb),
            dtlb: Tlb::new(cfg.tlb),
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            mshr: MshrFile::new(MSHR_ENTRIES),
            rob: VecDeque::with_capacity(cfg.pipeline.ruu_size),
            lsq_occupancy: 0,
            fetch_queue: VecDeque::with_capacity(cfg.pipeline.fetch_queue),
            next_seq: 1,
            ready_ring: vec![0; RING], // lint:allow(L7): constructor
            fetch_resume_at: Cycle::ZERO,
            waiting_branch: None,
            last_fetch_block: u64::MAX,
            committed: 0,
            window_start: Cycle::ZERO,
            l3_accesses: 0,
            l3_local_hits: 0,
            l3_remote_hits: 0,
            l3_misses: 0,
            fast_path: true,
            fast: FastPathStats::default(),
            issue_hint: 0,
            sink,
        }
    }

    /// Enables or disables the exact hit fast path on this core: the
    /// fused TLB+L1 probe/walk with its memos, warm trace decode, and
    /// the issue-scan hint. Disabled, every access runs the reference
    /// sequence; results are bit-identical in both modes, so this only
    /// exists as the `--no-fast-path` escape hatch the differential CI
    /// job flips.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
        self.itlb.set_memo(enabled);
        self.dtlb.set_memo(enabled);
        self.l1i.set_memo(enabled);
        self.l1d.set_memo(enabled);
        self.l2.set_memo(enabled);
        if !enabled {
            self.gen.set_warm_decode(false);
        }
    }

    /// Fast-path effectiveness counters since the last statistics reset.
    pub fn fast_path_stats(&self) -> FastPathStats {
        self.fast
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The application this core runs.
    pub fn app_name(&self) -> &'static str {
        self.gen.profile().name
    }

    /// Instructions committed since the last statistics reset.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Resets the measurement window at `now`: committed-instruction and
    /// component statistics restart, architectural and learned state
    /// (caches, predictor, TLBs) is kept — this is the warm-up boundary.
    pub fn reset_stats(&mut self, now: Cycle) {
        self.committed = 0;
        self.window_start = now;
        self.l3_accesses = 0;
        self.l3_local_hits = 0;
        self.l3_remote_hits = 0;
        self.l3_misses = 0;
        self.bp.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.fast = FastPathStats::default();
    }

    /// Statistics for the window ending at `now`.
    pub fn stats(&self, now: Cycle) -> CoreStats {
        CoreStats {
            committed: self.committed,
            cycles: now.since(self.window_start),
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3_accesses: self.l3_accesses,
            l3_local_hits: self.l3_local_hits,
            l3_remote_hits: self.l3_remote_hits,
            l3_misses: self.l3_misses,
            branches: self.bp.predictions(),
            mispredicts: self.bp.mispredictions(),
            dtlb_misses: self.dtlb.misses(),
            itlb_misses: self.itlb.misses(),
        }
    }

    /// Whether the pipeline holds no in-flight state: nothing fetched,
    /// nothing in the ROB or MSHRs, no pending branch redirect. This is
    /// the only state in which the core can be snapshotted — functional
    /// warm-up never touches the pipeline, so the boundary right after
    /// [`warm_op`](Self::warm_op) runs qualifies by construction.
    pub fn is_quiescent(&self) -> bool {
        self.rob.is_empty()
            && self.fetch_queue.is_empty()
            && self.mshr.is_empty()
            && self.waiting_branch.is_none()
            && self.lsq_occupancy == 0
            && self.next_seq == 1
            && self.fetch_resume_at == Cycle::ZERO
    }

    /// Writes the learned state (trace generator, predictor, TLBs,
    /// caches, counters) to a snapshot. Pipeline structures are not
    /// encoded — the core must be quiescent (see
    /// [`is_quiescent`](Self::is_quiescent)).
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError::Mismatch`] when the core has
    /// in-flight pipeline state.
    pub fn save_state(
        &self,
        w: &mut simcore::snapshot::SnapshotWriter,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        if !self.is_quiescent() {
            return Err(simcore::snapshot::SnapshotError::Mismatch(
                "core pipeline not quiescent (snapshot only valid at the warm boundary)",
            ));
        }
        w.put_u8(self.id.asid());
        self.gen.save_state(w);
        self.bp.save_state(w);
        self.itlb.save_state(w);
        self.dtlb.save_state(w);
        self.l1i.save_state(w);
        self.l1d.save_state(w);
        self.l2.save_state(w);
        w.put_u64(self.last_fetch_block);
        w.put_u64(self.committed);
        w.put_cycle(self.window_start);
        w.put_u64(self.l3_accesses);
        w.put_u64(self.l3_local_hits);
        w.put_u64(self.l3_remote_hits);
        w.put_u64(self.l3_misses);
        Ok(())
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// freshly constructed (quiescent) core.
    ///
    /// # Errors
    ///
    /// [`simcore::snapshot::SnapshotError::Mismatch`] when this core is
    /// not quiescent, has a different id, or any component's geometry
    /// differs from the snapshot.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::SnapshotError;
        if !self.is_quiescent() {
            return Err(SnapshotError::Mismatch(
                "cannot restore into a core with in-flight pipeline state",
            ));
        }
        if r.get_u8()? != self.id.asid() {
            return Err(SnapshotError::Mismatch("core id"));
        }
        self.gen.load_state(r)?;
        self.bp.load_state(r)?;
        self.itlb.load_state(r)?;
        self.dtlb.load_state(r)?;
        self.l1i.load_state(r)?;
        self.l1d.load_state(r)?;
        self.l2.load_state(r)?;
        self.last_fetch_block = r.get_u64()?;
        self.committed = r.get_u64()?;
        self.window_start = r.get_cycle()?;
        self.l3_accesses = r.get_u64()?;
        self.l3_local_hits = r.get_u64()?;
        self.l3_remote_hits = r.get_u64()?;
        self.l3_misses = r.get_u64()?;
        Ok(())
    }

    #[inline]
    fn dep_ready(&self, producer: u64, now: Cycle) -> bool {
        if producer == 0 {
            return true;
        }
        self.ready_ring[(producer as usize) % RING] <= now.raw()
    }

    /// Applies this core's address-space tag, leaving read-shared
    /// addresses untagged so every core references the same blocks.
    #[inline]
    fn tag_data_address(&self, addr: Address) -> Address {
        if tracegen::generator::is_shared_address(addr) {
            addr
        } else {
            addr.with_asid(self.id.asid())
        }
    }

    /// Executes one instruction *functionally*: caches, TLBs, predictor
    /// and the last-level organization see the access stream and update
    /// their state, but no pipeline timing is modeled. Used to warm large
    /// working sets cheaply before a timed measurement window, mirroring
    /// the paper's long fast-forward.
    pub fn warm_op(&mut self, now: Cycle, l3: &mut dyn LastLevel) {
        self.warm_op_port(now, &mut DirectPort { l3 });
    }

    /// [`warm_op`](Self::warm_op) with the L3-bound requests deferred
    /// into `batch` instead of served immediately. Safe because the warm
    /// path discards L3 timing and the private L1/L2 hierarchy never
    /// depends on an L3 outcome; the chip applies the batched outcomes to
    /// this core's counters via
    /// [`note_l3_outcome`](Self::note_l3_outcome) when it drains.
    pub fn warm_op_batched(&mut self, now: Cycle, batch: &mut L3Batch) {
        self.warm_op_port(now, batch);
    }

    fn warm_op_port(&mut self, now: Cycle, port: &mut impl WarmPort) {
        if self.fast_path {
            // Warm consumers read only pc/class/addr/taken; warm decode
            // skips the dependency-distance math while consuming the
            // identical RNG draws. Cheap flag compare once enabled.
            self.gen.set_warm_decode(true);
        }
        let mut op = self.gen.next_op();
        op.pc = op.pc.with_asid(self.id.asid());
        let block = op.pc.block(self.cfg.l1i.offset_bits()).raw();
        if block != self.last_fetch_block {
            self.last_fetch_block = block;
            let l1i_hit = if self.fast_path {
                // One probe per structure, hit or miss side committed in
                // place — no fallback re-walk on the miss-heavy stream.
                fastpath::functional_walk(&mut self.itlb, &mut self.l1i, op.pc, false)
            } else {
                self.itlb.access(op.pc);
                self.l1i.access(op.pc, false, self.id).is_hit()
            };
            if l1i_hit {
                self.fast.inst_fast_hits += u64::from(self.fast_path);
            } else {
                self.fast.inst_slow += u64::from(self.fast_path);
                // Fused L2 lookup: the install moves ahead of the L3
                // request, which only touches L3/port state, and the
                // victim's inclusion/writeback handling stays behind
                // it — so the request order every component sees is
                // unchanged.
                let (l2, ev) = self.l2.access_fill(op.pc, false, self.id);
                if !l2.is_hit() {
                    self.warm_l3_request(op.pc, false, now, port);
                    self.finish_l2_victim(ev, port, now);
                }
                self.l1i.fill(op.pc, false, self.id);
            }
        }
        match op.class {
            OpClass::Branch => {
                let _ = self.bp.access(op.pc, op.taken);
            }
            OpClass::Load | OpClass::Store => {
                // Mem ops carry addresses by construction; a missing one is
                // dropped rather than aborting the run.
                if let Some(raw) = op.addr {
                    let addr = self.tag_data_address(raw);
                    self.functional_data_access(addr, op.class == OpClass::Store, now, port);
                }
            }
            _ => {}
        }
        self.committed += 1;
    }

    /// Issues a warm-path L3 request through `port`, counting the
    /// outcome now if the port resolved it (direct) or leaving the count
    /// to the batch drain (deferred).
    fn warm_l3_request(&mut self, addr: Address, write: bool, at: Cycle, port: &mut impl WarmPort) {
        if let Some(outcome) = port.access(self.id, addr, write, at) {
            self.note_l3_outcome(outcome.source);
        }
    }

    /// Applies the source classification of one drained batched request
    /// to this core's L3 counters — the counterpart of the counting done
    /// inline on the direct path.
    #[inline]
    pub fn note_l3_outcome(&mut self, source: L3Source) {
        self.l3_accesses += 1;
        match source {
            L3Source::LocalHit => self.l3_local_hits += 1,
            L3Source::RemoteHit => self.l3_remote_hits += 1,
            L3Source::Memory => self.l3_misses += 1,
        }
    }

    /// Advances the core by one cycle against the given last-level cache.
    pub fn step(&mut self, now: Cycle, l3: &mut dyn LastLevel) {
        self.mshr.expire(now);
        self.commit(now);
        self.issue(now, l3);
        self.dispatch();
        self.fetch(now, l3);
    }

    #[inline]
    fn dep_ready_cycle(&self, producer: u64) -> u64 {
        if producer == 0 {
            0
        } else {
            self.ready_ring[(producer as usize) % RING]
        }
    }

    /// Proves (or refuses to prove) that [`step`](Self::step) at `now` is
    /// a total no-op, returning the earliest cycle at which the core might
    /// act again. `None` means the core may do work *this* cycle and must
    /// be stepped; `Some(wake)` guarantees that every step in
    /// `now..wake` changes no architectural state, advances no trace
    /// stream, and emits no telemetry event, so the chip-level run loop
    /// may jump the clock straight to `wake`.
    ///
    /// The proof mirrors the five pipeline stages of `step`, each of which
    /// must be individually quiescent:
    ///
    /// - **MSHR expiry** acts only when a fill's `ready_at` has arrived;
    ///   the earliest outstanding completion is a wake source.
    /// - **Commit** acts only when the ROB head is issued and complete;
    ///   its `ready_at` is a wake source.
    /// - **Issue** acts as soon as *any* unissued entry in the scheduler
    ///   window has both dependencies ready — even one that would then be
    ///   refused a functional unit or MSHR slot (the refusal emits an
    ///   `MshrStall` telemetry event, so such cycles must be stepped to
    ///   keep traced runs bit-identical). Dependency-ready times from the
    ///   ready ring are wake sources; in-flight producers (`u64::MAX`)
    ///   are not, because the producer's own issue happens on a stepped
    ///   cycle which re-opens the horizon.
    /// - **Dispatch** is time-independent: it acts whenever the fetch
    ///   queue is nonempty, the ROB has room and (for memory ops) the LSQ
    ///   has room. Those resources only free on commit, already covered.
    /// - **Fetch** acts whenever it is not gated by an unresolved branch,
    ///   a full fetch queue, or `fetch_resume_at`; the latter is a wake
    ///   source.
    pub fn idle_until(&self, now: Cycle) -> Option<Cycle> {
        let mut wake = u64::MAX;

        // Fetch: an unblocked front end pulls new ops every cycle.
        if self.waiting_branch.is_none()
            && self.fetch_queue.len() < self.cfg.pipeline.fetch_queue.max(self.cfg.pipeline.width)
        {
            if self.fetch_resume_at <= now {
                return None;
            }
            wake = wake.min(self.fetch_resume_at.raw());
        }

        // Dispatch: blocked only by ROB/LSQ pressure, which is
        // time-independent and only released by commit.
        if let Some(&(op, _)) = self.fetch_queue.front() {
            let rob_full = self.rob.len() >= self.cfg.pipeline.ruu_size;
            let lsq_blocked = op.class.is_mem() && self.lsq_occupancy >= self.cfg.pipeline.lsq_size;
            if !rob_full && !lsq_blocked {
                return None;
            }
        }

        // Commit: in-order retirement waits on the head only.
        if let Some(e) = self.rob.front() {
            if e.issued {
                if e.ready_at <= now {
                    return None;
                }
                wake = wake.min(e.ready_at.raw());
            }
        }

        // MSHR: a completed fill frees a register this cycle.
        if let Some(t) = self.mshr.next_completion() {
            if t <= now {
                return None;
            }
            wake = wake.min(t.raw());
        }

        // Issue: scan the same bounded scheduler window `issue` uses.
        if let Some(start) = self.oldest_unissued(self.fast_path) {
            let end = (start + SCHED_WINDOW).min(self.rob.len());
            for idx in start..end {
                let e = &self.rob[idx];
                if e.issued {
                    continue;
                }
                let ready = self
                    .dep_ready_cycle(e.dep1)
                    .max(self.dep_ready_cycle(e.dep2));
                if ready <= now.raw() {
                    return None;
                }
                if ready != u64::MAX {
                    wake = wake.min(ready);
                }
            }
        }

        Some(Cycle::new(wake))
    }

    fn commit(&mut self, now: Cycle) {
        let mut popped = 0;
        for _ in 0..self.cfg.pipeline.width {
            let ready = matches!(self.rob.front(), Some(e) if e.issued && e.ready_at <= now);
            if !ready {
                break;
            }
            let Some(e) = self.rob.pop_front() else { break };
            if e.class.is_mem() {
                self.lsq_occupancy -= 1;
            }
            self.committed += 1;
            popped += 1;
        }
        // The issued prefix shrinks by exactly the popped entries.
        self.issue_hint = self.issue_hint.saturating_sub(popped);
    }

    /// The index of the oldest unissued ROB entry. With the fast path on,
    /// the scan starts at `issue_hint` — every entry below it is issued
    /// (the invariant commit/issue/drain maintain) — so both scans find
    /// the same index.
    #[inline]
    fn oldest_unissued(&self, fast: bool) -> Option<usize> {
        if fast {
            self.rob
                .iter()
                .skip(self.issue_hint)
                .position(|e| !e.issued)
                .map(|p| p + self.issue_hint)
        } else {
            self.rob.iter().position(|e| !e.issued)
        }
    }

    fn issue(&mut self, now: Cycle, l3: &mut dyn LastLevel) {
        let width = self.cfg.pipeline.width;
        let mut issued = 0;
        let mut int_alu = self.cfg.pipeline.int_alus;
        let mut fp_alu = self.cfg.pipeline.fp_alus;
        let mut int_mul = self.cfg.pipeline.int_mul;
        let mut fp_mul = self.cfg.pipeline.fp_mul;
        let mut mem_ports = MEM_PORTS;
        let mshr_blocked = self.mshr.is_full();
        // One stall event per blocked cycle, not per deferred op.
        let mut stall_emitted = false;

        // Find the oldest unissued entry, then look a bounded scheduler
        // window past it.
        let start = match self.oldest_unissued(self.fast_path) {
            Some(i) => i,
            None => {
                self.issue_hint = self.rob.len();
                return;
            }
        };
        self.issue_hint = start;
        let end = (start + SCHED_WINDOW).min(self.rob.len());

        for idx in start..end {
            if issued >= width {
                break;
            }
            let entry = self.rob[idx];
            if entry.issued {
                continue;
            }
            if !self.dep_ready(entry.dep1, now) || !self.dep_ready(entry.dep2, now) {
                continue;
            }
            // Functional unit / port availability.
            let fu_ok = match entry.class {
                OpClass::IntAlu | OpClass::Branch => {
                    if int_alu > 0 {
                        int_alu -= 1;
                        true
                    } else {
                        false
                    }
                }
                OpClass::FpAlu => {
                    if fp_alu > 0 {
                        fp_alu -= 1;
                        true
                    } else {
                        false
                    }
                }
                OpClass::IntMul => {
                    if int_mul > 0 {
                        int_mul -= 1;
                        true
                    } else {
                        false
                    }
                }
                OpClass::FpMul => {
                    if fp_mul > 0 {
                        fp_mul -= 1;
                        true
                    } else {
                        false
                    }
                }
                OpClass::Load | OpClass::Store => {
                    if mshr_blocked {
                        if S::ENABLED && !stall_emitted {
                            stall_emitted = true;
                            self.sink.emit(now, Event::MshrStall { core: self.id });
                        }
                        false
                    } else if mem_ports > 0 {
                        mem_ports -= 1;
                        true
                    } else {
                        false
                    }
                }
            };
            if !fu_ok {
                continue;
            }

            let ready_at = match (entry.class, entry.addr) {
                (OpClass::Load, Some(addr)) => self.data_access(addr, false, now, l3),
                (OpClass::Store, Some(addr)) => {
                    // Stores retire through the store buffer: the cache
                    // and memory system see the access (state, bandwidth),
                    // but commit does not wait for it.
                    let _ = self.data_access(addr, true, now, l3);
                    now + 1
                }
                // Mem ops carry addresses by construction; an address-less
                // one degrades to its base latency instead of aborting.
                (class, _) => now + class.base_latency(),
            };

            let e = &mut self.rob[idx];
            e.issued = true;
            e.ready_at = ready_at;
            self.ready_ring[(e.seq as usize) % RING] = ready_at.raw();
            if e.mispredicted {
                // Fetch restarts after the branch resolves plus the
                // misprediction penalty.
                self.fetch_resume_at = ready_at + self.cfg.pipeline.mispredict_penalty;
                self.waiting_branch = None;
            }
            issued += 1;
        }
    }

    /// Performs a data-side access, returning when the data is ready.
    fn data_access(
        &mut self,
        addr: Address,
        write: bool,
        now: Cycle,
        l3: &mut dyn LastLevel,
    ) -> Cycle {
        // Fast path: with no outstanding fill anywhere (so no MSHR merge
        // and no `MshrMerge` telemetry is possible), a fused DTLB+L1D hit
        // is exactly the reference walk below — DTLB hit means
        // `start == now`, L1D hit returns after the L1D latency, and the
        // fused probe has already committed both hit-side updates.
        if self.fast_path
            && self.mshr.is_empty()
            && fastpath::fused_hit(&mut self.dtlb, &mut self.l1d, addr, write)
        {
            self.fast.data_fast_hits += 1;
            return now + self.cfg.l1d.latency();
        }
        self.fast.data_slow += 1;

        let mut start = now;
        if !self.dtlb.access(addr) {
            start += self.dtlb.miss_penalty();
        }
        let blk = addr.block(self.cfg.l1d.offset_bits());

        // Outstanding fill for this block? Merge: timing comes from the
        // MSHR even though the block may already be installed state-wise.
        if let Some(merge) = self.mshr.lookup(blk) {
            if S::ENABLED {
                self.sink.emit(now, Event::MshrMerge { core: self.id });
            }
            let _ = self.l1d.access(addr, write, self.id);
            return merge.max(start + self.cfg.l1d.latency());
        }

        if self.l1d.access(addr, write, self.id).is_hit() {
            return start + self.cfg.l1d.latency();
        }
        let after_l1 = start + self.cfg.l1d.latency();
        if self.l2.access(addr, write, self.id).is_hit() {
            self.fill_l1d(addr, write);
            return after_l1 + self.cfg.l2.latency();
        }
        // L2 miss: go to the last-level organization.
        let l3_start = after_l1 + self.cfg.l2.latency();
        let outcome = self.l3_request(addr, write, l3_start, l3);
        self.mshr.request(blk, outcome.data_ready);
        if S::ENABLED {
            self.sink.emit(now, Event::MshrAlloc { core: self.id });
        }
        self.fill_l2(addr, write, l3, now);
        self.fill_l1d(addr, write);
        outcome.data_ready
    }

    fn l3_request(
        &mut self,
        addr: Address,
        write: bool,
        at: Cycle,
        l3: &mut dyn LastLevel,
    ) -> L3Outcome {
        let outcome = l3.access(self.id, addr, write, at);
        self.note_l3_outcome(outcome.source);
        outcome
    }

    fn fill_l1d(&mut self, addr: Address, dirty: bool) {
        if let Some(ev) = self.l1d.fill(addr, dirty, self.id) {
            if ev.dirty {
                // Dirty L1 victim merges into L2.
                let victim = ev.addr.first_byte(self.cfg.l1d.offset_bits());
                if self.l2.fill(victim, true, self.id).is_some() {
                    // The merge itself displaced an L2 block; handled the
                    // same as any L2 eviction below (rare).
                }
            }
        }
    }

    fn fill_l2(&mut self, addr: Address, dirty: bool, l3: &mut dyn LastLevel, now: Cycle) {
        self.fill_l2_port(addr, dirty, &mut DirectPort { l3 }, now);
    }

    fn fill_l2_port(&mut self, addr: Address, dirty: bool, port: &mut impl WarmPort, now: Cycle) {
        let ev = self.l2.fill(addr, dirty, self.id);
        self.finish_l2_victim(ev, port, now);
    }

    /// Inclusion maintenance for an L2 eviction: drop the L1 copies and
    /// write the victim back if any copy was dirty.
    fn finish_l2_victim(
        &mut self,
        ev: Option<cachesim::cache::EvictedBlock>,
        port: &mut impl WarmPort,
        now: Cycle,
    ) {
        if let Some(ev) = ev {
            let victim = ev.addr.first_byte(self.cfg.l2.offset_bits());
            // Maintain inclusion: drop the L1 copies.
            let l1_victim = self.l1d.invalidate(victim);
            let _ = self.l1i.invalidate(victim);
            let victim_dirty = ev.dirty || l1_victim.map(|b| b.dirty).unwrap_or(false);
            if victim_dirty {
                port.writeback(self.id, victim, now);
            }
        }
    }

    fn dispatch(&mut self) {
        let width = self.cfg.pipeline.width;
        for _ in 0..width {
            if self.rob.len() >= self.cfg.pipeline.ruu_size {
                break;
            }
            let Some(&(op, mispredicted)) = self.fetch_queue.front() else {
                break;
            };
            if op.class.is_mem() && self.lsq_occupancy >= self.cfg.pipeline.lsq_size {
                break;
            }
            self.fetch_queue.pop_front();
            let seq = self.next_seq;
            self.next_seq += 1;
            if op.class.is_mem() {
                self.lsq_occupancy += 1;
            }
            self.ready_ring[(seq as usize) % RING] = u64::MAX;
            let dep1 = seq.saturating_sub(op.dep1 as u64);
            let dep2 = if op.dep2 == 0 || op.dep2 as u64 >= seq {
                0
            } else {
                seq - op.dep2 as u64
            };
            if mispredicted {
                self.waiting_branch = Some(seq);
            }
            self.rob.push_back(RobEntry {
                seq,
                class: op.class,
                addr: op.addr,
                dep1,
                dep2,
                issued: false,
                ready_at: Cycle::ZERO,
                mispredicted,
            });
        }
    }

    fn fetch(&mut self, now: Cycle, l3: &mut dyn LastLevel) {
        if self.waiting_branch.is_some() || now < self.fetch_resume_at {
            return;
        }
        // The detailed pipeline reads dependency distances: leave warm
        // decode, so every op fetched here is full-decoded.
        self.gen.set_warm_decode(false);
        let width = self.cfg.pipeline.width;
        for _ in 0..width {
            if self.fetch_queue.len() >= self.cfg.pipeline.fetch_queue.max(width) {
                break;
            }
            let mut op = self.gen.next_op();
            // Tag both instruction and data addresses with this core's
            // address space so shared structures never alias across
            // programs.
            op.pc = op.pc.with_asid(self.id.asid());
            if let Some(a) = op.addr {
                op.addr = Some(self.tag_data_address(a));
            }

            // Instruction-side: one cache access per new fetch block.
            let block = op.pc.block(self.cfg.l1i.offset_bits()).raw();
            if block != self.last_fetch_block {
                self.last_fetch_block = block;
                if self.fast_path
                    && fastpath::fused_hit(&mut self.itlb, &mut self.l1i, op.pc, false)
                {
                    // ITLB hit + L1I hit: the reference walk below would
                    // leave `start == now`, hit the L1I and fall through
                    // without stalling — the fused probe has already
                    // committed those exact hit-side updates.
                    self.fast.inst_fast_hits += 1;
                } else {
                    self.fast.inst_slow += 1;
                    let mut start = now;
                    if !self.itlb.access(op.pc) {
                        start += self.itlb.miss_penalty();
                    }
                    if !self.l1i.access(op.pc, false, self.id).is_hit() {
                        let after_l1 = start + self.cfg.l1i.latency();
                        let ready = if self.l2.access(op.pc, false, self.id).is_hit() {
                            after_l1 + self.cfg.l2.latency()
                        } else {
                            let outcome =
                                self.l3_request(op.pc, false, after_l1 + self.cfg.l2.latency(), l3);
                            self.fill_l2(op.pc, false, l3, now);
                            outcome.data_ready
                        };
                        self.l1i.fill(op.pc, false, self.id);
                        self.fetch_resume_at = ready;
                        // The missing instruction itself enters the queue;
                        // the stall gates everything younger.
                        self.fetch_queue.push_back((op, false));
                        return;
                    } else if start > now {
                        // ITLB miss alone also stalls the front end.
                        self.fetch_resume_at = start;
                        self.fetch_queue.push_back((op, false));
                        return;
                    }
                }
            }

            if op.class == OpClass::Branch {
                let correct = self.bp.access(op.pc, op.taken);
                self.fetch_queue.push_back((op, !correct));
                if !correct {
                    // Nothing younger is fetched until this branch
                    // resolves.
                    return;
                }
            } else {
                self.fetch_queue.push_back((op, false));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l3iface::FixedLatencyL3;
    use simcore::rng::SimRng;
    use tracegen::profile::{AppProfileBuilder, MemoryMix};

    fn run_core(profile: tracegen::AppProfile, cycles: u64) -> (CoreStats, Core) {
        let cfg = MachineConfig::baseline();
        let gen = TraceGenerator::new(&profile, SimRng::seed_from(11));
        let mut core = Core::new(CoreId::from_index(0), &cfg, gen);
        let mut l3 = FixedLatencyL3::new(19);
        let warmup = cycles / 2;
        for c in 0..warmup {
            core.step(Cycle::new(c), &mut l3);
        }
        core.reset_stats(Cycle::new(warmup));
        for c in warmup..warmup + cycles {
            core.step(Cycle::new(c), &mut l3);
        }
        (core.stats(Cycle::new(warmup + cycles)), core)
    }

    fn compute_bound_profile() -> tracegen::AppProfile {
        AppProfileBuilder::new("compute")
            .loads(0.05)
            .stores(0.02)
            .branches(0.05)
            .predictability(0.99)
            .dep_mean(8.0)
            .dep2(0.1)
            .mix(MemoryMix {
                l1_resident: 1.0,
                l2_resident: 0.0,
                l3_hot: 0.0,
                streaming: 0.0,
            })
            .l1_kb(16)
            .code_kb(16)
            .build()
            .unwrap()
    }

    #[test]
    fn compute_bound_code_reaches_high_ipc() {
        let (stats, _) = run_core(compute_bound_profile(), 200_000);
        let ipc = stats.ipc();
        assert!(ipc > 1.5, "compute-bound IPC {ipc} should be high");
        assert!(ipc <= 4.0, "IPC cannot exceed machine width");
    }

    #[test]
    fn serial_dependencies_bound_ipc_near_one() {
        let p = AppProfileBuilder::new("serial")
            .loads(0.0)
            .stores(0.0)
            .branches(0.0)
            .dep_mean(1.0000001) // every op depends on its predecessor
            .dep2(0.0)
            .build()
            .unwrap();
        let (stats, _) = run_core(p, 100_000);
        let ipc = stats.ipc();
        assert!(
            (0.5..1.2).contains(&ipc),
            "serial chain IPC {ipc} should be near 1"
        );
    }

    #[test]
    fn memory_streaming_lowers_ipc() {
        let p = AppProfileBuilder::new("stream")
            .loads(0.3)
            .stores(0.1)
            .mix(MemoryMix {
                l1_resident: 0.0,
                l2_resident: 0.0,
                l3_hot: 0.0,
                streaming: 1.0,
            })
            .stream_kb(64 * 1024)
            .build()
            .unwrap();
        let (stream_stats, _) = run_core(p, 200_000);
        let (compute_stats, _) = run_core(compute_bound_profile(), 200_000);
        assert!(stream_stats.ipc() < compute_stats.ipc() * 0.7);
        assert!(stream_stats.l3_accesses > 0, "streaming reaches the L3");
    }

    #[test]
    fn l1_resident_working_set_stays_out_of_l3() {
        let (stats, _) = run_core(compute_bound_profile(), 200_000);
        assert!(
            stats.l3_accesses_per_kilocycle() < 1.0,
            "L1-resident app leaked {} accesses/kcycle to L3",
            stats.l3_accesses_per_kilocycle()
        );
        assert!(stats.l1d.miss_ratio() < 0.05);
    }

    #[test]
    fn l3_hot_app_pressures_l3() {
        let p = AppProfileBuilder::new("hot")
            .loads(0.28)
            .stores(0.08)
            .mix(MemoryMix {
                l1_resident: 0.2,
                l2_resident: 0.1,
                l3_hot: 0.6,
                streaming: 0.1,
            })
            .hot_kb(2048)
            .build()
            .unwrap();
        let (stats, _) = run_core(p, 300_000);
        assert!(
            stats.l3_accesses_per_kilocycle() > 9.0,
            "hot app only reached {} accesses/kcycle",
            stats.l3_accesses_per_kilocycle()
        );
    }

    #[test]
    fn branch_mispredicts_are_counted_and_costly() {
        let hard = AppProfileBuilder::new("hard")
            .branches(0.3)
            .loads(0.05)
            .stores(0.02)
            .predictability(0.55)
            .build()
            .unwrap();
        let easy = AppProfileBuilder::new("easy")
            .branches(0.3)
            .loads(0.05)
            .stores(0.02)
            .predictability(0.99)
            .build()
            .unwrap();
        let (hard_stats, _) = run_core(hard, 150_000);
        let (easy_stats, _) = run_core(easy, 150_000);
        assert!(hard_stats.mispredicts * 2 > hard_stats.branches / 2 / 2);
        assert!(hard_stats.ipc() < easy_stats.ipc());
    }

    #[test]
    fn stats_reset_starts_new_window() {
        let cfg = MachineConfig::baseline();
        let gen = TraceGenerator::new(&compute_bound_profile(), SimRng::seed_from(3));
        let mut core = Core::new(CoreId::from_index(0), &cfg, gen);
        let mut l3 = FixedLatencyL3::new(19);
        for c in 0..50_000 {
            core.step(Cycle::new(c), &mut l3);
        }
        core.reset_stats(Cycle::new(50_000));
        assert_eq!(core.committed(), 0);
        for c in 50_000..100_000 {
            core.step(Cycle::new(c), &mut l3);
        }
        let s = core.stats(Cycle::new(100_000));
        assert_eq!(s.cycles, 50_000);
        assert!(s.committed > 0);
    }

    #[test]
    fn committed_instructions_grow_monotonically() {
        let cfg = MachineConfig::baseline();
        let gen = TraceGenerator::new(&compute_bound_profile(), SimRng::seed_from(5));
        let mut core = Core::new(CoreId::from_index(0), &cfg, gen);
        let mut l3 = FixedLatencyL3::new(19);
        let mut last = 0;
        for c in 0..20_000 {
            core.step(Cycle::new(c), &mut l3);
            assert!(core.committed() >= last);
            last = core.committed();
        }
        assert!(last > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_core(compute_bound_profile(), 50_000);
        let (b, _) = run_core(compute_bound_profile(), 50_000);
        assert_eq!(a, b);
    }

    #[test]
    fn fast_path_is_invisible_to_results() {
        // Warm + detailed + drain with the fast path on and off: window
        // statistics and the learned-state snapshot must be identical;
        // only the side-channel counters may differ.
        let p = AppProfileBuilder::new("mixy")
            .loads(0.25)
            .stores(0.08)
            .branches(0.12)
            .predictability(0.9)
            .mix(MemoryMix {
                l1_resident: 0.5,
                l2_resident: 0.2,
                l3_hot: 0.2,
                streaming: 0.1,
            })
            .hot_kb(1024)
            .stream_kb(4 * 1024)
            .build()
            .unwrap();
        let run = |fast: bool| {
            let cfg = MachineConfig::baseline();
            let gen = TraceGenerator::new(&p, SimRng::seed_from(23));
            let mut core = Core::new(CoreId::from_index(0), &cfg, gen);
            core.set_fast_path(fast);
            let mut l3 = FixedLatencyL3::new(19);
            for c in 0..20_000 {
                core.warm_op(Cycle::new(c), &mut l3);
            }
            core.reset_stats(Cycle::ZERO);
            for c in 0..60_000 {
                core.step(Cycle::new(c), &mut l3);
            }
            core.drain_pipeline(Cycle::new(60_000), &mut l3);
            let stats = core.stats(Cycle::new(60_000));
            let mut w = simcore::snapshot::SnapshotWriter::new();
            core.save_state(&mut w).expect("drained core snapshots");
            (stats, w.finish(), core.fast_path_stats())
        };
        let (fast_stats, fast_snap, fast_counters) = run(true);
        let (slow_stats, slow_snap, slow_counters) = run(false);
        assert_eq!(fast_stats, slow_stats);
        assert_eq!(fast_snap, slow_snap);
        assert!(
            fast_counters.data_fast_hits > 0 && fast_counters.inst_fast_hits > 0,
            "fast path never fired: {fast_counters:?}"
        );
        assert_eq!(
            slow_counters.data_fast_hits + slow_counters.inst_fast_hits,
            0,
            "disabled fast path still fired: {slow_counters:?}"
        );
    }

    #[test]
    fn idle_until_agrees_with_hintless_scan() {
        // The issue-scan hint must never change what idle_until proves:
        // compare the hinted core's verdicts against a --no-fast-path
        // twin at every cycle of a mixed run.
        let cfg = MachineConfig::baseline();
        let p = memoryless_check_profile();
        let mk = |fast: bool| {
            let gen = TraceGenerator::new(&p, SimRng::seed_from(41));
            let mut core = Core::new(CoreId::from_index(0), &cfg, gen);
            core.set_fast_path(fast);
            core
        };
        let mut a = mk(true);
        let mut b = mk(false);
        let mut l3a = FixedLatencyL3::new(19);
        let mut l3b = FixedLatencyL3::new(19);
        for c in 0..30_000 {
            let now = Cycle::new(c);
            assert_eq!(a.idle_until(now), b.idle_until(now), "cycle {c}");
            a.step(now, &mut l3a);
            b.step(now, &mut l3b);
        }
        assert_eq!(a.committed(), b.committed());
    }

    fn memoryless_check_profile() -> tracegen::AppProfile {
        AppProfileBuilder::new("hinty")
            .loads(0.2)
            .stores(0.05)
            .branches(0.15)
            .predictability(0.8)
            .mix(MemoryMix {
                l1_resident: 0.6,
                l2_resident: 0.2,
                l3_hot: 0.2,
                streaming: 0.0,
            })
            .hot_kb(512)
            .build()
            .unwrap()
    }
}
