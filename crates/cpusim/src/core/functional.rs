//! The functional retire path of the time-sampling engine.
//!
//! A SMARTS-style time-sampled run alternates detailed windows (the
//! cycle-accurate [`Core::step`](super::Core::step) loop) with
//! functional-warming gaps in which instructions retire credit-paced at
//! each core's IPC from the preceding detailed window, through the same
//! decoded-trace plumbing `Cmp::warm` uses:
//! every cache access, LRU touch, TLB/predictor update and last-level
//! request still happens, but no pipeline timing is modeled.
//!
//! This module owns the boundary between the two regimes:
//!
//! - `Core::functional_data_access` is the latency-free D-side walk of
//!   the private hierarchy (shared by the warm path and the drain);
//! - [`Core::drain_pipeline`] functionally retires whatever a detailed
//!   window left in flight and resets the pipeline to the quiescent
//!   state, so a gap can start without losing or re-randomizing any
//!   instruction of the trace stream.
//!
//! Everything here is hot-path code for the functional gap engine and is
//! covered by the L7/D4 lint passes: no allocation, no per-op branching
//! beyond what the access stream requires.

use simcore::types::{Address, Cycle};
use telemetry::Sink;
use tracegen::op::OpClass;

use super::Core;
use crate::fastpath;
use crate::l3iface::{DirectPort, LastLevel, WarmPort};

impl<S: Sink> Core<S> {
    /// Performs one latency-free data access: DTLB, L1D, then (fused
    /// lookup-plus-install) L2, then the last-level organization, with
    /// full state updates and zero timing. The L2 install moves ahead of
    /// the L3 request — sound because the request only touches L3/port
    /// state — while the victim's inclusion invalidations and writeback
    /// stay behind it, so every component sees the same request order as
    /// the split lookup/fill sequence.
    pub(super) fn functional_data_access(
        &mut self,
        addr: Address,
        write: bool,
        now: Cycle,
        port: &mut impl WarmPort,
    ) {
        // Fast path: one probe per structure with the hit or miss side
        // committed in place — `Tlb::access`/`Cache::access` are exactly
        // lookup-then-commit, so the walk is the reference sequence minus
        // the duplicated finds a fallback re-walk would pay.
        let l1d_hit = if self.fast_path {
            fastpath::functional_walk(&mut self.dtlb, &mut self.l1d, addr, write)
        } else {
            self.dtlb.access(addr);
            self.l1d.access(addr, write, self.id).is_hit()
        };
        if l1d_hit {
            self.fast.data_fast_hits += u64::from(self.fast_path);
        } else {
            self.fast.data_slow += u64::from(self.fast_path);
            let (l2, ev) = self.l2.access_fill(addr, write, self.id);
            if !l2.is_hit() {
                self.warm_l3_request(addr, write, now, port);
                self.finish_l2_victim(ev, port, now);
            }
            self.fill_l1d(addr, write);
        }
    }

    /// Functionally retires every instruction a detailed window left in
    /// flight and resets the pipeline to the quiescent state, preparing
    /// the core for a functional-warming gap (or a snapshot).
    ///
    /// In-flight instructions were already fetched — their I-side
    /// accesses and branch-predictor updates happened at fetch time, and
    /// issued entries performed their data accesses at issue — so the
    /// drain walks the ROB and then the fetch queue in program order and
    /// performs only the *missing* state updates: the data access of
    /// every not-yet-issued memory op (addresses were ASID-tagged at
    /// fetch and must not be re-tagged). Each drained instruction counts
    /// as committed, so the trace stream advances without a gap.
    ///
    /// The pipeline reset drops timing-only state: outstanding MSHR fills
    /// (their blocks were installed when the misses issued), the ready
    /// ring and scheduler, the branch-redirect gate and the fetch stall.
    /// After the drain [`is_quiescent`](Self::is_quiescent) holds by
    /// construction.
    pub fn drain_pipeline(&mut self, now: Cycle, l3: &mut dyn LastLevel) {
        let mut port = DirectPort { l3 };
        while let Some(e) = self.rob.pop_front() {
            if !e.issued && e.class.is_mem() {
                if let Some(addr) = e.addr {
                    self.functional_data_access(addr, e.class == OpClass::Store, now, &mut port);
                }
            }
            self.committed += 1;
        }
        while let Some((op, _)) = self.fetch_queue.pop_front() {
            if op.class.is_mem() {
                if let Some(addr) = op.addr {
                    self.functional_data_access(addr, op.class == OpClass::Store, now, &mut port);
                }
            }
            self.committed += 1;
        }
        self.mshr.clear();
        self.lsq_occupancy = 0;
        self.next_seq = 1;
        self.waiting_branch = None;
        self.fetch_resume_at = Cycle::ZERO;
        self.ready_ring.fill(0);
        self.sched_head = 1;
        self.ready_set = 0;
        self.calendar.clear();
        self.consumers.fill(super::NO_LINK);
    }
}

#[cfg(test)]
mod tests {
    use simcore::config::MachineConfig;
    use simcore::rng::SimRng;
    use simcore::types::{CoreId, Cycle};
    use tracegen::profile::{AppProfileBuilder, MemoryMix};
    use tracegen::TraceGenerator;

    use crate::core::Core;
    use crate::l3iface::FixedLatencyL3;

    fn memory_heavy_profile() -> tracegen::AppProfile {
        AppProfileBuilder::new("drainy")
            .loads(0.3)
            .stores(0.1)
            .branches(0.1)
            .predictability(0.85)
            .mix(MemoryMix {
                l1_resident: 0.3,
                l2_resident: 0.2,
                l3_hot: 0.3,
                streaming: 0.2,
            })
            .hot_kb(1024)
            .stream_kb(8 * 1024)
            .build()
            .unwrap()
    }

    fn stepped_core(cycles: u64) -> (Core, FixedLatencyL3) {
        let cfg = MachineConfig::baseline();
        let gen = TraceGenerator::new(&memory_heavy_profile(), SimRng::seed_from(17));
        let mut core = Core::new(CoreId::from_index(0), &cfg, gen);
        let mut l3 = FixedLatencyL3::new(19);
        for c in 0..cycles {
            core.step(Cycle::new(c), &mut l3);
        }
        (core, l3)
    }

    #[test]
    fn drain_reaches_quiescence() {
        let (mut core, mut l3) = stepped_core(5_000);
        assert!(
            !core.is_quiescent(),
            "a timed run must leave in-flight state for this test to bite"
        );
        core.drain_pipeline(Cycle::new(5_000), &mut l3);
        assert!(core.is_quiescent());
        // A quiescent core can be snapshotted.
        let mut w = simcore::snapshot::SnapshotWriter::new();
        core.save_state(&mut w).expect("drained core snapshots");
    }

    #[test]
    fn drain_retires_every_in_flight_instruction() {
        let (mut core, mut l3) = stepped_core(5_000);
        let committed_before = core.committed();
        let in_flight = core.rob.len() + core.fetch_queue.len();
        assert!(in_flight > 0);
        core.drain_pipeline(Cycle::new(5_000), &mut l3);
        assert_eq!(core.committed(), committed_before + in_flight as u64);
    }

    #[test]
    fn drained_core_resumes_like_a_fresh_one() {
        // After a drain, stepping again makes progress and stays
        // deterministic: two identical histories drain to identical state.
        let run = || {
            let (mut core, mut l3) = stepped_core(4_000);
            core.drain_pipeline(Cycle::new(4_000), &mut l3);
            for c in 4_000..8_000 {
                core.step(Cycle::new(c), &mut l3);
            }
            (core.committed(), core.stats(Cycle::new(8_000)))
        };
        let (ca, sa) = run();
        let (cb, sb) = run();
        assert_eq!(ca, cb);
        assert_eq!(sa, sb);
        assert!(sa.committed > 0);
    }
}
