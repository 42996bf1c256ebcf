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
//! [`tracegen::TraceGenerator`], carrying dependency draws that dispatch
//! resolves into distances the scheduler honors, so IPC responds to
//! memory latency exactly the way the paper's evaluation requires (stalls
//! overlap while the window lasts, then the core drains).

pub mod functional;

use std::collections::VecDeque;

use cachesim::cache::Cache;
use cachesim::mshr::MshrFile;
use simcore::config::{MachineConfig, PipelineConfig};
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
/// End of a consumer list.
const NO_LINK: u32 = u32::MAX;

// The ready set and the calendar are indexed by `seq % 64`; every member
// lies in the scheduler window, so the window must fit without aliasing.
const _: () = assert!(SCHED_WINDOW <= 64);

/// The ready-set (and calendar) bit of sequence number `seq`.
#[inline]
fn ready_bit(seq: u64) -> u64 {
    1 << (seq % 64)
}

/// Window entries whose operands arrive at a known later cycle. Members
/// are unissued window entries, so like the ready set's they are unique
/// mod 64: a member bit and an operand-ready cycle per `seq % 64`, plus
/// the earliest of those cycles, make the set exact without a heap.
#[derive(Debug)]
struct Calendar {
    /// One bit per member, by `seq % 64`.
    members: u64,
    /// Each member's operand-ready cycle, by `seq % 64`.
    ready_at: [u64; 64],
    /// The earliest `ready_at` of a member; `u64::MAX` when there is none.
    next: u64,
}

impl Calendar {
    fn new() -> Self {
        Calendar {
            members: 0,
            ready_at: [0; 64],
            next: u64::MAX,
        }
    }

    /// Files entry `seq`, whose operands arrive at cycle `at`.
    #[inline]
    fn insert(&mut self, seq: u64, at: u64) {
        debug_assert_eq!(self.members & ready_bit(seq), 0, "seq {seq} filed twice");
        self.members |= ready_bit(seq);
        self.ready_at[(seq % 64) as usize] = at;
        self.next = self.next.min(at);
    }

    /// Removes the members whose operands are available by `now` and
    /// returns their bits; one compare while none is.
    #[inline]
    fn take_due(&mut self, now: u64) -> u64 {
        if self.next > now {
            return 0;
        }
        let (mut due, mut next) = (0, u64::MAX);
        let mut rest = self.members;
        while rest != 0 {
            let slot = rest.trailing_zeros();
            rest &= rest - 1;
            let at = self.ready_at[slot as usize];
            if at <= now {
                due |= 1 << slot;
            } else {
                next = next.min(at);
            }
        }
        self.members &= !due;
        self.next = next;
        due
    }

    /// Empties the calendar; stale `ready_at` slots are never read.
    fn clear(&mut self) {
        self.members = 0;
        self.next = u64::MAX;
    }
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
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

/// The functional units and memory ports left in one issue cycle.
#[derive(Debug, Clone, Copy)]
struct IssueSlots {
    int_alu: usize,
    fp_alu: usize,
    int_mul: usize,
    fp_mul: usize,
    mem_ports: usize,
    /// The MSHR file was full when the cycle began: no memory op issues.
    mshr_blocked: bool,
    /// This cycle's `MshrStall` event has been emitted.
    stall_emitted: bool,
}

impl IssueSlots {
    fn new(pipeline: &PipelineConfig, mshr_blocked: bool) -> Self {
        IssueSlots {
            int_alu: pipeline.int_alus,
            fp_alu: pipeline.fp_alus,
            int_mul: pipeline.int_mul,
            fp_mul: pipeline.fp_mul,
            mem_ports: MEM_PORTS,
            mshr_blocked,
            stall_emitted: false,
        }
    }

    /// Takes a unit for a `class` op; `false` when none is left.
    #[inline]
    fn claim(&mut self, class: OpClass) -> bool {
        let free = match class {
            OpClass::IntAlu | OpClass::Branch => &mut self.int_alu,
            OpClass::FpAlu => &mut self.fp_alu,
            OpClass::IntMul => &mut self.int_mul,
            OpClass::FpMul => &mut self.fp_mul,
            OpClass::Load | OpClass::Store => &mut self.mem_ports,
        };
        if *free == 0 {
            return false;
        }
        *free -= 1;
        true
    }
}

/// One out-of-order core with its private L1I/L1D/L2 hierarchy.
///
/// The `S` parameter selects the telemetry sink for MSHR events; the
/// default [`NullSink`] compiles all emission sites away.
///
/// Aligned to 128 bytes (an adjacent-line prefetch pair), so cores kept
/// side by side and warmed on different host threads share no cache line.
#[repr(align(128))]
pub struct Core<S: Sink = NullSink> {
    id: CoreId,
    /// The only part of the machine configuration the core reads after
    /// construction: its caches carry their own geometry and latency.
    pipeline: PipelineConfig,
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
    /// Scheduler state, after `sim-outorder`'s RUU wakeup: the window is
    /// `[sched_head, sched_head + SCHED_WINDOW)`, where `sched_head` is
    /// the sequence number of the oldest unissued entry (`next_seq` when
    /// none is). Every unissued window entry whose producers have both
    /// issued sits in exactly one of `ready_set` (operands available) or
    /// `calendar` (operands arrive at a known later cycle); entries past
    /// the window or still waiting on a producer are in neither.
    sched_head: u64,
    /// Ready window entries, one bit per `seq % 64`; age order is bit
    /// order rotated to start at `sched_head`.
    ready_set: u64,
    /// Window entries waiting for their operands: a member mask by
    /// `seq % 64` like the ready set's, each member's operand-ready cycle
    /// and the earliest of them, so `idle_until` reads the next wake in
    /// one load and `release_due` costs one compare until it arrives.
    calendar: Calendar,
    /// Head link of each in-flight producer's consumer list, by
    /// `seq % RING`. Link `2 * slot + k` is operand `k` of the consumer
    /// in `slot`; `consumer_next` chains the links.
    consumers: Vec<u32>,
    /// Next link of each consumer link (see `consumers`).
    consumer_next: Vec<u32>,
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
    /// memo-served lookups, the pipeline bookkeeping bypass) is enabled.
    /// Results are bit-identical either way; `--no-fast-path` clears it.
    fast_path: bool,
    /// Fast-path effectiveness counters (perf side channel only; never
    /// part of [`CoreStats`], traces or snapshots).
    fast: FastPathStats,
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
            pipeline: cfg.pipeline,
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
            sched_head: 1,
            ready_set: 0,
            calendar: Calendar::new(),
            consumers: vec![NO_LINK; RING], // lint:allow(L7): constructor
            consumer_next: vec![NO_LINK; 2 * RING], // lint:allow(L7): constructor
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
            sink,
        }
    }

    /// Enables or disables the exact hit fast path on this core: the
    /// fused TLB+L1 probe/walk, its memos and the pipeline bookkeeping
    /// bypass. Disabled, every access runs the reference sequence;
    /// results are bit-identical in both modes, so this only exists as
    /// the `--no-fast-path` escape hatch the differential CI job flips.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
        self.itlb.set_memo(enabled);
        self.dtlb.set_memo(enabled);
        self.l1i.set_memo(enabled);
        self.l1d.set_memo(enabled);
        self.l2.set_memo(enabled);
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
    /// differs from the snapshot;
    /// [`simcore::snapshot::SnapshotError::Corrupt`] when the payload
    /// decodes but no run can produce it: a trace cursor outside its
    /// region, a TLB entry or predictor history its own loader refuses,
    /// or a restored cache (L1I, L1D or L2) that fails its audit.
    pub fn load_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::invariant::Invariant;
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
        if [&self.l1i, &self.l1d, &self.l2]
            .iter()
            .any(|c| !c.audit().is_empty())
        {
            return Err(SnapshotError::Corrupt(
                "restored core cache fails its audit",
            ));
        }
        Ok(())
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
        let mut op = self.gen.next_op();
        op.pc = op.pc.with_asid(self.id.asid());
        let block = op.pc.block(self.l1i.offset_bits()).raw();
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
        self.dispatch(now);
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
    /// may skip this core's steps until `wake`.
    ///
    /// The proof mirrors the five pipeline stages of `step`, each of which
    /// must be individually quiescent:
    ///
    /// - **MSHR expiry** acts only when a fill's `ready_at` has arrived;
    ///   the earliest outstanding completion is a wake source.
    /// - **Commit** acts only when the ROB head is issued and complete;
    ///   its `ready_at` is a wake source.
    /// - **Issue** acts as soon as *any* unissued entry in the scheduler
    ///   window has both operands ready — even one that would then be
    ///   refused a functional unit or MSHR slot (the refusal emits an
    ///   `MshrStall` telemetry event, so such cycles must be stepped to
    ///   keep traced runs bit-identical). Those entries are exactly the
    ///   ready set plus any calendar entries due by `now`; the calendar's
    ///   earliest operand-ready cycle, which it caches, is a wake source.
    ///   Entries still waiting on an unissued producer are not, because
    ///   the producer's own issue happens on a stepped cycle which
    ///   re-opens the proof.
    /// - **Dispatch** is time-independent: it acts whenever the fetch
    ///   queue is nonempty, the ROB has room and (for memory ops) the LSQ
    ///   has room. Those resources only free on commit, already covered.
    /// - **Fetch** acts whenever it is not gated by an unresolved branch,
    ///   a full fetch queue, or `fetch_resume_at`; the latter is a wake
    ///   source.
    pub fn idle_until(&self, now: Cycle) -> Option<Cycle> {
        let wake = self.idle_outside_issue(now)?;
        if self.ready_set != 0 {
            return None;
        }
        // `u64::MAX` for an empty calendar.
        let next = self.calendar.next;
        if next <= now.raw() {
            return None;
        }
        Some(Cycle::new(wake.min(next)))
    }

    /// The fetch, dispatch, commit and MSHR obligations of
    /// [`idle_until`](Self::idle_until): `None` when one of those stages
    /// acts at `now`, otherwise the earliest of their wake sources
    /// (`u64::MAX` for none).
    fn idle_outside_issue(&self, now: Cycle) -> Option<u64> {
        let mut wake = u64::MAX;

        // Fetch: an unblocked front end pulls new ops every cycle.
        if self.waiting_branch.is_none()
            && self.fetch_queue.len() < self.pipeline.fetch_queue.max(self.pipeline.width)
        {
            if self.fetch_resume_at <= now {
                return None;
            }
            wake = wake.min(self.fetch_resume_at.raw());
        }

        // Dispatch: blocked only by ROB/LSQ pressure, which is
        // time-independent and only released by commit.
        if let Some(&(op, _)) = self.fetch_queue.front() {
            let rob_full = self.rob.len() >= self.pipeline.ruu_size;
            let lsq_blocked = op.class.is_mem() && self.lsq_occupancy >= self.pipeline.lsq_size;
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
        Some(wake)
    }

    fn commit(&mut self, now: Cycle) {
        for _ in 0..self.pipeline.width {
            let ready = matches!(self.rob.front(), Some(e) if e.issued && e.ready_at <= now);
            if !ready {
                break;
            }
            let Some(e) = self.rob.pop_front() else { break };
            if e.class.is_mem() {
                self.lsq_occupancy -= 1;
            }
            self.committed += 1;
        }
    }

    /// The ROB index of in-flight sequence number `seq` (the ROB holds
    /// the consecutive sequence numbers `next_seq - rob.len()..next_seq`).
    #[inline]
    fn rob_index(&self, seq: u64) -> usize {
        self.rob.len() - (self.next_seq - seq) as usize
    }

    /// The cycle at which both operands of `e` are available, or
    /// `u64::MAX` while a producer has not issued.
    #[inline]
    fn operands_ready_at(&self, e: &RobEntry) -> u64 {
        self.dep_ready_cycle(e.dep1)
            .max(self.dep_ready_cycle(e.dep2))
    }

    /// Files window entry `seq`, whose operands are available at cycle
    /// `at`: into the ready set when that is no later than `now`, else
    /// onto the calendar.
    #[inline]
    fn schedule(&mut self, seq: u64, at: u64, now: u64) {
        debug_assert!(seq >= self.sched_head && seq < self.sched_head + SCHED_WINDOW as u64);
        if at <= now {
            self.ready_set |= ready_bit(seq);
        } else {
            self.calendar.insert(seq, at);
        }
    }

    /// Files entry `seq` if its producers have both issued (the rest are
    /// filed when their last producer issues).
    #[inline]
    fn admit(&mut self, seq: u64, now: u64) {
        let at = self.operands_ready_at(&self.rob[self.rob_index(seq)]);
        if at != u64::MAX {
            self.schedule(seq, at, now);
        }
    }

    /// Links operand `k` of consumer `seq` into `producer`'s consumer
    /// list, if the producer is still in flight; returns whether it is.
    #[inline]
    fn wait_on(&mut self, producer: u64, seq: u64, k: usize) -> bool {
        if producer == 0 {
            return false;
        }
        let p = (producer as usize) % RING;
        if self.ready_ring[p] != u64::MAX {
            return false;
        }
        let link = 2 * ((seq as usize) % RING) + k;
        self.consumer_next[link] = self.consumers[p];
        self.consumers[p] = link as u32;
        true
    }

    /// Wakes the consumers of `producer`, which just issued: each one in
    /// the window whose other producer has issued too is filed (possibly
    /// straight into the ready set, for a zero-latency producer, where
    /// the selection loop in progress still reaches it because consumers
    /// are younger than their producers). `window_end` is this cycle's
    /// window bound; consumers past it are filed when the window reaches
    /// them.
    fn wake_consumers(&mut self, producer: u64, now: u64, window_end: u64) {
        let p = (producer as usize) % RING;
        let mut link = std::mem::replace(&mut self.consumers[p], NO_LINK);
        while link != NO_LINK {
            let slot = link as usize / 2;
            // A consumer is at most RING - 1 sequence numbers younger.
            let seq = producer + ((slot + RING - p) % RING) as u64;
            link = self.consumer_next[link as usize];
            if seq < window_end {
                self.admit(seq, now);
            }
        }
    }

    /// Moves the window past the entries issued at its head and files the
    /// entries it now covers.
    fn advance_window(&mut self, now: u64) {
        let old_end = self.sched_head + SCHED_WINDOW as u64;
        while self.sched_head < self.next_seq && self.rob[self.rob_index(self.sched_head)].issued {
            self.sched_head += 1;
        }
        let new_end = (self.sched_head + SCHED_WINDOW as u64).min(self.next_seq);
        for seq in old_end..new_end {
            self.admit(seq, now);
        }
    }

    /// Moves the calendar entries whose operands are available by `now`
    /// into the ready set.
    #[inline]
    fn release_due(&mut self, now: u64) {
        self.ready_set |= self.calendar.take_due(now);
    }

    /// Issues up to `width` ready window entries, oldest first, under the
    /// functional-unit, memory-port and MSHR limits. Refused entries stay
    /// ready for the next cycle.
    fn issue(&mut self, now: Cycle, l3: &mut dyn LastLevel) {
        let t = now.raw();
        self.release_due(t);
        if self.ready_set == 0 {
            return;
        }
        let mut slots = IssueSlots::new(&self.pipeline, self.mshr.is_full());
        let base = self.sched_head;
        let window_end = base + SCHED_WINDOW as u64;
        let rotate = (base % 64) as u32;
        // Window offset of the next candidate. The ready set is re-read
        // each time round, so a consumer a zero-latency issue wakes is
        // still selected this cycle, as the window scan would.
        let mut from = 0;
        let mut issued = 0;
        while issued < self.pipeline.width {
            let pending = self.ready_set.rotate_right(rotate) >> from;
            if pending == 0 {
                break;
            }
            let offset = from + pending.trailing_zeros();
            from = offset + 1;
            let seq = base + u64::from(offset);
            let idx = self.rob_index(seq);
            if !self.claim_unit(&mut slots, self.rob[idx].class, now) {
                continue;
            }
            self.ready_set &= !ready_bit(seq);
            self.execute(idx, seq, now, l3);
            self.wake_consumers(seq, t, window_end);
            issued += 1;
        }
        if issued > 0 {
            self.advance_window(t);
        }
    }

    /// Claims a functional unit (or memory port) for a `class` op this
    /// cycle. A memory op is refused outright while the MSHR file is
    /// full, emitting one `MshrStall` event per cycle.
    #[inline]
    fn claim_unit(&mut self, slots: &mut IssueSlots, class: OpClass, now: Cycle) -> bool {
        if class.is_mem() && slots.mshr_blocked {
            if S::ENABLED && !slots.stall_emitted {
                slots.stall_emitted = true;
                self.sink.emit(now, Event::MshrStall { core: self.id });
            }
            return false;
        }
        slots.claim(class)
    }

    /// Executes ROB entry `idx` (sequence number `seq`): performs its
    /// data access, records its completion cycle and, for a mispredicted
    /// branch, schedules the fetch restart.
    #[inline]
    fn execute(&mut self, idx: usize, seq: u64, now: Cycle, l3: &mut dyn LastLevel) {
        let entry = self.rob[idx];
        let ready_at = match (entry.class, entry.addr) {
            (OpClass::Load, Some(addr)) => self.data_access(addr, false, now, l3),
            (OpClass::Store, Some(addr)) => {
                // Stores retire through the store buffer: the cache and
                // memory system see the access (state, bandwidth), but
                // commit does not wait for it.
                let _ = self.data_access(addr, true, now, l3);
                now + 1
            }
            // Mem ops carry addresses by construction; an address-less one
            // degrades to its base latency instead of aborting.
            (class, _) => now + class.base_latency(),
        };
        let e = &mut self.rob[idx];
        e.issued = true;
        e.ready_at = ready_at;
        self.ready_ring[(seq as usize) % RING] = ready_at.raw();
        if entry.mispredicted {
            // Fetch restarts after the branch resolves plus the
            // misprediction penalty.
            self.fetch_resume_at = ready_at + self.pipeline.mispredict_penalty;
            self.waiting_branch = None;
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
            return now + self.l1d.latency();
        }
        self.fast.data_slow += 1;

        let mut start = now;
        if !self.dtlb.access(addr) {
            start += self.dtlb.miss_penalty();
        }
        let blk = addr.block(self.l1d.offset_bits());

        // Outstanding fill for this block? Merge: timing comes from the
        // MSHR even though the block may already be installed state-wise.
        if let Some(merge) = self.mshr.lookup(blk) {
            if S::ENABLED {
                self.sink.emit(now, Event::MshrMerge { core: self.id });
            }
            let _ = self.l1d.access(addr, write, self.id);
            return merge.max(start + self.l1d.latency());
        }

        if self.l1d.access(addr, write, self.id).is_hit() {
            return start + self.l1d.latency();
        }
        let after_l1 = start + self.l1d.latency();
        if self.l2.access(addr, write, self.id).is_hit() {
            self.fill_l1d(addr, write);
            return after_l1 + self.l2.latency();
        }
        // L2 miss: go to the last-level organization.
        let l3_start = after_l1 + self.l2.latency();
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
                let victim = ev.addr.first_byte(self.l1d.offset_bits());
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
            let victim = ev.addr.first_byte(self.l2.offset_bits());
            // Maintain inclusion: drop the L1 copies.
            let l1_victim = self.l1d.invalidate(victim);
            let _ = self.l1i.invalidate(victim);
            let victim_dirty = ev.dirty || l1_victim.map(|b| b.dirty).unwrap_or(false);
            if victim_dirty {
                port.writeback(self.id, victim, now);
            }
        }
    }

    fn dispatch(&mut self, now: Cycle) {
        let width = self.pipeline.width;
        for _ in 0..width {
            if self.rob.len() >= self.pipeline.ruu_size {
                break;
            }
            let Some(&(op, mispredicted)) = self.fetch_queue.front() else {
                break;
            };
            if op.class.is_mem() && self.lsq_occupancy >= self.pipeline.lsq_size {
                break;
            }
            self.fetch_queue.pop_front();
            let seq = self.next_seq;
            self.next_seq += 1;
            if op.class.is_mem() {
                self.lsq_occupancy += 1;
            }
            self.ready_ring[(seq as usize) % RING] = u64::MAX;
            // Only dispatched ops need their distances, so the draws are
            // resolved here rather than at fetch.
            let dep1 = seq.saturating_sub(self.gen.dep_distance(op.dep1));
            let d2 = self.gen.dep_distance(op.dep2);
            let dep2 = if d2 == 0 || d2 >= seq { 0 } else { seq - d2 };
            if mispredicted {
                self.waiting_branch = Some(seq);
            }
            self.rob.push_back(RobEntry {
                class: op.class,
                addr: op.addr,
                dep1,
                dep2,
                issued: false,
                ready_at: Cycle::ZERO,
                mispredicted,
            });
            let waits1 = self.wait_on(dep1, seq, 0);
            let waits2 = dep2 != dep1 && self.wait_on(dep2, seq, 1);
            if !waits1 && !waits2 && seq < self.sched_head + SCHED_WINDOW as u64 {
                self.admit(seq, now.raw());
            }
        }
    }

    fn fetch(&mut self, now: Cycle, l3: &mut dyn LastLevel) {
        if self.waiting_branch.is_some() || now < self.fetch_resume_at {
            return;
        }
        let width = self.pipeline.width;
        for _ in 0..width {
            if self.fetch_queue.len() >= self.pipeline.fetch_queue.max(width) {
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
            let block = op.pc.block(self.l1i.offset_bits()).raw();
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
                        let after_l1 = start + self.l1i.latency();
                        let ready = if self.l2.access(op.pc, false, self.id).is_hit() {
                            after_l1 + self.l2.latency()
                        } else {
                            let outcome =
                                self.l3_request(op.pc, false, after_l1 + self.l2.latency(), l3);
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

/// The window scan the ready list replaced, kept as the test oracle:
/// every cycle it rescans `[oldest unissued, +SCHED_WINDOW)` of the ROB
/// and re-checks each entry's operands against the ready ring. It keeps
/// the ready-list bookkeeping up to date (so a core driven by it stays
/// consistent) but never selects from it.
#[cfg(test)]
impl<S: Sink> Core<S> {
    /// ROB index of the oldest unissued entry, by full scan.
    fn scan_oldest_unissued(&self) -> Option<usize> {
        self.rob.iter().position(|e| !e.issued)
    }

    /// [`idle_until`](Self::idle_until) with the issue obligation proved
    /// by scanning the window.
    fn scan_idle_until(&self, now: Cycle) -> Option<Cycle> {
        let mut wake = self.idle_outside_issue(now)?;
        if let Some(start) = self.scan_oldest_unissued() {
            let end = (start + SCHED_WINDOW).min(self.rob.len());
            for e in self.rob.range(start..end).filter(|e| !e.issued) {
                let ready = self.operands_ready_at(e);
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

    /// [`step`](Self::step) with the issue stage selecting by window scan.
    fn scan_step(&mut self, now: Cycle, l3: &mut dyn LastLevel) {
        self.mshr.expire(now);
        self.commit(now);
        self.scan_issue(now, l3);
        self.dispatch(now);
        self.fetch(now, l3);
    }

    /// The issue stage by window scan: walk the window oldest first and
    /// issue every entry whose operands are ready by `now`, under the
    /// same unit limits as [`issue`](Self::issue).
    fn scan_issue(&mut self, now: Cycle, l3: &mut dyn LastLevel) {
        let t = now.raw();
        self.release_due(t);
        let Some(start) = self.scan_oldest_unissued() else {
            return;
        };
        let end = (start + SCHED_WINDOW).min(self.rob.len());
        let first = self.next_seq - (self.rob.len() - start) as u64;
        let window_end = first + SCHED_WINDOW as u64;
        let mut slots = IssueSlots::new(&self.pipeline, self.mshr.is_full());
        let mut issued = 0;
        for idx in start..end {
            if issued >= self.pipeline.width {
                break;
            }
            let e = self.rob[idx];
            if e.issued || self.operands_ready_at(&e) > t {
                continue;
            }
            if !self.claim_unit(&mut slots, e.class, now) {
                continue;
            }
            let seq = first + (idx - start) as u64;
            self.ready_set &= !ready_bit(seq);
            self.execute(idx, seq, now, l3);
            self.wake_consumers(seq, t, window_end);
            issued += 1;
        }
        if issued > 0 {
            self.advance_window(t);
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

    #[test]
    fn loader_refuses_a_cache_with_valid_bits_beyond_its_ways() {
        use simcore::snapshot::{fnv1a64, SnapshotError, SnapshotReader, SnapshotWriter};
        let cfg = MachineConfig::baseline();
        let profile = compute_bound_profile();
        let fresh = || {
            let gen = TraceGenerator::new(&profile, SimRng::seed_from(5));
            Core::new(CoreId::from_index(0), &cfg, gen)
        };
        let mut core = fresh();
        let mut l3 = FixedLatencyL3::new(19);
        for c in 0..5_000 {
            core.warm_op(Cycle::new(c), &mut l3);
        }
        let mut w = SnapshotWriter::new();
        core.save_state(&mut w).expect("warmed core snapshots");
        let clean = w.finish();

        // The L2 section ends before the core's seven trailing u64
        // fields and the checksum trailer. Inside it, the valid masks
        // follow the tag and owner arrays, each length-prefixed.
        let mut l2 = SnapshotWriter::new();
        core.l2.save_state(&mut l2);
        let l2_start = clean.len() - 8 - 7 * 8 - (l2.finish().len() - 16);
        let geom = core.l2.geometry();
        let sets = geom.sets() as usize;
        let blocks = sets * geom.total_ways() as usize;
        let valid = l2_start + 8 + 8 * blocks + 8 + blocks;
        assert_eq!(clean[valid..valid + 8], (sets as u64).to_le_bytes());
        // Bit 31 of the last set's mask, then a fresh checksum.
        let mut bytes = clean.clone();
        bytes[valid + 8 + 4 * (sets - 1) + 3] |= 0x80;
        let trailer = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..trailer]);
        bytes[trailer..].copy_from_slice(&sum.to_le_bytes());

        let load = |bytes: &[u8]| fresh().load_state(&mut SnapshotReader::open(bytes)?);
        assert_eq!(load(&clean), Ok(()));
        assert!(matches!(load(&bytes), Err(SnapshotError::Corrupt(_))));
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

    /// Sequence numbers of the entries `step` issues, in age order.
    fn issued_by<S: Sink>(core: &mut Core<S>, step: impl FnOnce(&mut Core<S>)) -> Vec<u64> {
        let first = core.next_seq - core.rob.len() as u64;
        let waiting: Vec<u64> = core
            .rob
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.issued)
            .map(|(i, _)| first + i as u64)
            .collect();
        step(core);
        waiting
            .into_iter()
            .filter(|&seq| core.rob[core.rob_index(seq)].issued)
            .collect()
    }

    #[test]
    fn zero_latency_producers_wake_consumers_in_the_same_cycle() {
        // With a zero-cycle L1D, a load that hits completes in its issue
        // cycle and the window scan issues its consumer right behind it;
        // the ready list must too.
        let mut cfg = MachineConfig::baseline();
        cfg.l1d = cfg.l1d.with_latency(0);
        let p = AppProfileBuilder::new("chain")
            .loads(0.35)
            .stores(0.05)
            .branches(0.05)
            .predictability(0.99)
            .dep_mean(1.5)
            .dep2(0.3)
            .mix(MemoryMix {
                l1_resident: 1.0,
                l2_resident: 0.0,
                l3_hot: 0.0,
                streaming: 0.0,
            })
            .l1_kb(8)
            .build()
            .unwrap();
        let mk = || {
            Core::new(
                CoreId::from_index(0),
                &cfg,
                TraceGenerator::new(&p, SimRng::seed_from(7)),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        let (mut l3a, mut l3b) = (FixedLatencyL3::new(19), FixedLatencyL3::new(19));
        let mut same_cycle = 0;
        for c in 0..20_000 {
            let now = Cycle::new(c);
            let sel_a = issued_by(&mut a, |core| core.step(now, &mut l3a));
            let sel_b = issued_by(&mut b, |core| core.scan_step(now, &mut l3b));
            assert_eq!(sel_a, sel_b, "cycle {c}");
            same_cycle += sel_a
                .iter()
                .filter(|&&seq| {
                    let e = a.rob[a.rob_index(seq)];
                    [e.dep1, e.dep2].iter().any(|d| sel_a.contains(d))
                })
                .count();
        }
        assert!(same_cycle > 0, "no consumer issued with its producer");
        assert_eq!(a.committed(), b.committed());
    }

    /// A random profile from the knobs that shape the scheduler's load:
    /// op mix, dependency density and where the data lives.
    #[allow(clippy::too_many_arguments)]
    fn random_profile(
        mem: f64,
        branches: f64,
        predictability: f64,
        dep_mean: f64,
        dep2: f64,
        fp: f64,
        weights: (f64, f64, f64, f64),
    ) -> tracegen::AppProfile {
        let (l1, l2, hot, stream) = weights;
        let sum = l1 + l2 + hot + stream;
        AppProfileBuilder::new("random")
            .loads(mem * 0.75)
            .stores(mem * 0.25)
            .branches(branches)
            .predictability(predictability)
            .dep_mean(dep_mean)
            .dep2(dep2)
            .fp(fp)
            .mix(MemoryMix {
                l1_resident: l1 / sum,
                l2_resident: l2 / sum,
                l3_hot: hot / sum,
                streaming: stream / sum,
            })
            .hot_kb(1024)
            .stream_kb(8 * 1024)
            .code_kb(16)
            .build()
            .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn ready_list_selects_what_the_window_scan_selects(
            mix in (0.0f64..0.55, 0.0f64..0.25, 0.5f64..1.0),
            deps in (1.0f64..32.0, 0.0f64..0.7, 0.0f64..0.6),
            weights in (0.01f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            l3_latency in 0u64..400,
            l1d_latency in 0u64..4,
            seed in 0u64..1_000,
        ) {
            // Lockstep: the ready-list core and the window-scan oracle
            // run the same trace against equal last levels from the same
            // functionally warmed state. Every cycle they must select the
            // same sequence numbers, and the ready list's idleness proof
            // must equal the scan's. Long L3 latencies over independent
            // misses fill the MSHR file, so refused memory ops and
            // `MshrStall` events are exercised; the two event streams
            // must match too.
            let (mem, branches, predictability) = mix;
            let (dep_mean, dep2, fp) = deps;
            let p = random_profile(mem, branches, predictability, dep_mean, dep2, fp, weights);
            let mut cfg = MachineConfig::baseline();
            cfg.l1d = cfg.l1d.with_latency(l1d_latency);
            let mk = || {
                let gen = TraceGenerator::new(&p, SimRng::seed_from(seed));
                Core::with_sink(CoreId::from_index(0), &cfg, gen, telemetry::Recorder::with_capacity(1 << 16))
            };
            let (mut a, mut b) = (mk(), mk());
            let (mut l3a, mut l3b) = (FixedLatencyL3::new(l3_latency), FixedLatencyL3::new(l3_latency));
            for c in 0..10_000 {
                a.warm_op(Cycle::new(c), &mut l3a);
                b.warm_op(Cycle::new(c), &mut l3b);
            }
            for c in 0..6_000 {
                let now = Cycle::new(c);
                let idle = a.idle_until(now);
                proptest::prop_assert_eq!(idle, b.scan_idle_until(now), "idle_until at cycle {}", c);
                proptest::prop_assert_eq!(idle, a.scan_idle_until(now), "idle_until at cycle {}", c);
                let sel_a = issued_by(&mut a, |core| core.step(now, &mut l3a));
                let sel_b = issued_by(&mut b, |core| core.scan_step(now, &mut l3b));
                proptest::prop_assert_eq!(&sel_a, &sel_b, "selection at cycle {}", c);
            }
            proptest::prop_assert_eq!(a.committed(), b.committed());
            proptest::prop_assert_eq!(a.sink.tail(1 << 16), b.sink.tail(1 << 16));
        }
    }

    #[test]
    fn lockstep_profiles_reach_mshr_pressure() {
        // The lockstep property above is only as strong as its inputs:
        // pin that its harshest corner really fills the MSHR file.
        let p = random_profile(0.54, 0.05, 0.9, 30.0, 0.0, 0.1, (0.01, 0.0, 0.5, 0.5));
        let cfg = MachineConfig::baseline();
        let gen = TraceGenerator::new(&p, SimRng::seed_from(3));
        let mut core = Core::with_sink(
            CoreId::from_index(0),
            &cfg,
            gen,
            telemetry::Recorder::with_capacity(16),
        );
        let mut l3 = FixedLatencyL3::new(390);
        for c in 0..10_000 {
            core.warm_op(Cycle::new(c), &mut l3);
        }
        for c in 0..6_000 {
            core.step(Cycle::new(c), &mut l3);
        }
        assert!(core.sink.count(telemetry::EventKind::MshrStall) > 0);
    }
}
