//! Event sinks: the zero-cost-when-off emission boundary.
//!
//! Simulator components are generic over an event [`Sink`]. The default,
//! [`NullSink`], advertises `ENABLED = false`; every emission site guards
//! its payload construction with `if S::ENABLED { ... }`, so after
//! monomorphization the disabled path contains no tracing code at all —
//! no branch, no allocation, no call. The recording sink ([`Recorder`])
//! shares one [`Tracer`] between the cores and the L3 of a single
//! simulated chip via `Arc<Mutex<_>>`. Every sink is `Send` because a
//! chip's functional warm runs its cores on several host threads, each
//! core carrying its own sink clone; the warm's core side emits no
//! events, so the lock is never contended and the event stream keeps
//! the serial order. The parallel experiment runner still gives each
//! simulation cell its own recorder and extracts a plain-data [`Trace`]
//! when the cell finishes.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use simcore::types::Cycle;

use crate::event::{Event, EventKind, TraceRecord};
use crate::registry::Registry;

/// Receives simulator events. See the module docs for the zero-cost
/// contract, and for why every sink is `Send`.
pub trait Sink: Clone + std::fmt::Debug + Send {
    /// Whether this sink records anything. Emission sites must guard all
    /// payload construction with `if S::ENABLED { ... }` so a `false`
    /// sink compiles to nothing.
    const ENABLED: bool;

    /// Records one event at simulated time `at`.
    fn emit(&mut self, at: Cycle, event: Event);
}

/// The default sink: discards everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _at: Cycle, _event: Event) {}
}

/// Fixed-capacity typed-event buffer with full retention of structural
/// events.
///
/// High-frequency events (hits, evictions, MSHR traffic) cycle through a
/// ring holding the most recent `capacity` records; structural events
/// ([`EventKind::is_structural`]) are kept for the whole run, so the
/// quota trajectory is always complete no matter how small the ring is.
/// Per-kind and per-kind-per-core counts are maintained for every event,
/// including those that later fall off the ring.
#[derive(Debug, Clone)]
pub struct Tracer {
    capacity: usize,
    next_seq: u64,
    ring: VecDeque<TraceRecord>,
    structural: Vec<TraceRecord>,
    dropped: u64,
    counts: [u64; EventKind::ALL.len()],
    per_core: Vec<Vec<u64>>,
}

impl Tracer {
    /// Creates a tracer whose ring keeps the last `capacity`
    /// high-frequency events (structural events are always kept).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            capacity: capacity.max(1),
            next_seq: 0,
            ring: VecDeque::new(),
            structural: Vec::new(),
            dropped: 0,
            counts: [0; EventKind::ALL.len()],
            per_core: vec![Vec::new(); EventKind::ALL.len()],
        }
    }

    /// Records one event.
    pub fn record(&mut self, at: Cycle, event: Event) {
        let kind = event.kind();
        if let Some(slot) = self.counts.get_mut(kind.index()) {
            *slot += 1;
        }
        if let Some(core) = event.core() {
            if let Some(row) = self.per_core.get_mut(kind.index()) {
                if row.len() <= core.index() {
                    row.resize(core.index() + 1, 0);
                }
                if let Some(cell) = row.get_mut(core.index()) {
                    *cell += 1;
                }
            }
        }
        let record = TraceRecord {
            seq: self.next_seq,
            at,
            event,
        };
        self.next_seq += 1;
        if kind.is_structural() {
            self.structural.push(record);
        } else {
            if self.ring.len() >= self.capacity {
                self.ring.pop_front();
                self.dropped += 1;
            }
            self.ring.push_back(record);
        }
    }

    /// Total events emitted so far (recorded + dropped).
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// High-frequency events that fell off the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Count of events of `kind` emitted so far.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts.get(kind.index()).copied().unwrap_or(0)
    }

    /// Count of events of `kind` attributed to `core` so far.
    pub fn count_for_core(&self, kind: EventKind, core: usize) -> u64 {
        self.per_core
            .get(kind.index())
            .and_then(|row| row.get(core))
            .copied()
            .unwrap_or(0)
    }

    /// Per-core counts for `kind` (indexed by core; may be shorter than
    /// the machine's core count if high cores never emitted).
    pub fn per_core_counts(&self, kind: EventKind) -> Vec<u64> {
        self.per_core.get(kind.index()).cloned().unwrap_or_default()
    }

    /// All retained records (structural + ring) merged by sequence
    /// number.
    pub fn events(&self) -> Vec<TraceRecord> {
        let mut merged = Vec::with_capacity(self.structural.len() + self.ring.len());
        let mut s = self.structural.iter().peekable();
        let mut r = self.ring.iter().peekable();
        loop {
            let take_structural = match (s.peek(), r.peek()) {
                (Some(a), Some(b)) => a.seq < b.seq,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let next = if take_structural { s.next() } else { r.next() };
            if let Some(record) = next {
                merged.push(record.clone());
            }
        }
        merged
    }

    /// The last `n` retained records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        let mut all = self.events();
        let start = all.len().saturating_sub(n);
        all.split_off(start)
    }
}

/// Run-level metadata exported as the first JSONL line of a section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Label of the L3 organization that produced the section.
    pub org: String,
    /// Core count of the simulated machine.
    pub cores: usize,
    /// Ring capacity the tracer ran with.
    pub ring_capacity: usize,
    /// Starting quota vector for adaptive runs (empty otherwise); the
    /// replay base for the Repartition event stream.
    pub initial_quotas: Vec<u32>,
}

/// A finished, plain-data trace: safe to move across threads, compare
/// and export.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run metadata.
    pub meta: TraceMeta,
    /// Retained records in sequence order.
    pub events: Vec<TraceRecord>,
    /// High-frequency events that fell off the ring.
    pub dropped: u64,
    /// Total events emitted (retained + dropped).
    pub emitted: u64,
    /// Per-kind totals in taxonomy order, zero kinds omitted.
    pub counts: Vec<(&'static str, u64)>,
    /// Per-kind, per-core totals (same kind order as `counts`); counts
    /// every emitted event, including those dropped from the ring.
    pub per_core_counts: Vec<(&'static str, Vec<u64>)>,
    /// Final quota vector for adaptive runs (empty otherwise).
    pub final_quotas: Vec<u32>,
}

impl Trace {
    /// Builds the hierarchical metrics view of this trace: per-kind
    /// totals under `events/<kind>`, per-core splits under
    /// `events/<kind>/core<i>`, and tracer health under `trace/`.
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        for &(name, total) in &self.counts {
            reg.add(&format!("events/{name}"), total);
        }
        for (name, row) in &self.per_core_counts {
            for (core, &n) in row.iter().enumerate() {
                if n > 0 {
                    reg.add(&format!("events/{name}/core{core}"), n);
                }
            }
        }
        reg.add("trace/emitted", self.emitted);
        reg.add("trace/dropped", self.dropped);
        reg.add("trace/retained", self.events.len() as u64);
        reg
    }
}

/// A clonable handle to a shared [`Tracer`], implementing [`Sink`].
///
/// All components of one simulated chip clone the same recorder, so
/// their events interleave in one globally-ordered stream. `Send`, so a
/// chip's cores may warm on several host threads (see the module docs);
/// extract a plain-data [`Trace`] with [`Recorder::finish`].
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Mutex<Tracer>>,
}

impl Recorder {
    /// Creates a recorder over a fresh tracer with the given ring
    /// capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            inner: Arc::new(Mutex::new(Tracer::with_capacity(capacity))),
        }
    }

    /// The shared tracer. Nothing in [`Tracer::record`] panics short of
    /// an allocation failure, which aborts; and a record cut short would
    /// at worst count an event it did not retain, which every later read
    /// tolerates. So a poisoned lock is taken over, not propagated.
    fn tracer(&self) -> MutexGuard<'_, Tracer> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Default ring capacity used by the CLI and the experiment harness.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// The last `n` retained records, oldest first (for failure dumps).
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        self.tracer().tail(n)
    }

    /// Total events emitted so far.
    pub fn emitted(&self) -> u64 {
        self.tracer().emitted()
    }

    /// Count of events of `kind` emitted so far.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.tracer().count(kind)
    }

    /// Freezes the recorded stream into a plain-data [`Trace`].
    pub fn finish(&self, meta: TraceMeta, final_quotas: Vec<u32>) -> Trace {
        let tracer = self.tracer();
        let counts: Vec<(&'static str, u64)> = EventKind::ALL
            .into_iter()
            .filter_map(|k| {
                let n = tracer.count(k);
                (n > 0).then_some((k.name(), n))
            })
            .collect();
        let per_core_counts: Vec<(&'static str, Vec<u64>)> = EventKind::ALL
            .into_iter()
            .filter_map(|k| {
                let row = tracer.per_core_counts(k);
                row.iter().any(|&n| n > 0).then_some((k.name(), row))
            })
            .collect();
        Trace {
            meta,
            events: tracer.events(),
            dropped: tracer.dropped(),
            emitted: tracer.emitted(),
            counts,
            per_core_counts,
            final_quotas,
        }
    }
}

impl Sink for Recorder {
    const ENABLED: bool = true;

    #[inline]
    fn emit(&mut self, at: Cycle, event: Event) {
        self.tracer().record(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::types::CoreId;

    fn lru(core: u8) -> Event {
        Event::LruHit {
            core: CoreId::from_index(core),
        }
    }

    fn repartition(epoch: u64) -> Event {
        Event::Repartition {
            epoch,
            gainer: CoreId::from_index(0),
            loser: CoreId::from_index(1),
            gain: 10,
            loss: 2,
            quotas: vec![5, 3, 4, 4],
        }
    }

    #[test]
    fn ring_drops_oldest_high_frequency_events() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.record(Cycle::new(i), lru(0));
        }
        assert_eq!(t.emitted(), 5);
        assert_eq!(t.dropped(), 3);
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        // Counts survive the drops.
        assert_eq!(t.count(EventKind::LruHit), 5);
    }

    #[test]
    fn structural_events_survive_ring_pressure() {
        let mut t = Tracer::with_capacity(1);
        t.record(Cycle::new(1), repartition(1));
        for i in 2..10 {
            t.record(Cycle::new(i), lru(1));
        }
        t.record(Cycle::new(10), repartition(2));
        let events = t.events();
        // Both repartitions retained plus the single surviving ring slot,
        // merged in sequence order.
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(
            events
                .iter()
                .filter(|r| r.event.kind() == EventKind::Repartition)
                .count(),
            2
        );
    }

    #[test]
    fn tail_returns_most_recent_records() {
        let mut t = Tracer::with_capacity(8);
        for i in 0..6 {
            t.record(Cycle::new(i), lru((i % 4) as u8));
        }
        let tail = t.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 4);
        assert_eq!(tail[1].seq, 5);
        assert!(t.tail(100).len() == 6);
    }

    #[test]
    fn per_core_counts_attribute_correctly() {
        let mut t = Tracer::with_capacity(4);
        t.record(Cycle::new(0), lru(0));
        t.record(Cycle::new(1), lru(2));
        t.record(Cycle::new(2), lru(2));
        assert_eq!(t.count_for_core(EventKind::LruHit, 0), 1);
        assert_eq!(t.count_for_core(EventKind::LruHit, 1), 0);
        assert_eq!(t.count_for_core(EventKind::LruHit, 2), 2);
    }

    #[test]
    fn recorder_clones_share_one_stream() {
        let rec = Recorder::with_capacity(16);
        let mut a = rec.clone();
        let mut b = rec.clone();
        a.emit(Cycle::new(1), lru(0));
        b.emit(Cycle::new(2), lru(1));
        a.emit(Cycle::new(3), repartition(1));
        assert_eq!(rec.emitted(), 3);
        let trace = rec.finish(
            TraceMeta {
                org: "adaptive".into(),
                cores: 4,
                ring_capacity: 16,
                initial_quotas: vec![4; 4],
            },
            vec![5, 3, 4, 4],
        );
        assert_eq!(trace.events.len(), 3);
        assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(trace.counts, vec![("repartition", 1), ("lru_hit", 2)]);
    }

    #[test]
    fn null_sink_is_disabled_and_inert() {
        fn enabled<S: Sink>(_: &S) -> bool {
            S::ENABLED
        }
        let mut sink = NullSink;
        assert!(!enabled(&sink));
        assert!(enabled(&Recorder::with_capacity(1)));
        sink.emit(Cycle::new(0), lru(0));
    }

    #[test]
    fn registry_view_exposes_hierarchy() {
        let rec = Recorder::with_capacity(16);
        let mut s = rec.clone();
        s.emit(Cycle::new(0), lru(0));
        s.emit(Cycle::new(1), lru(0));
        s.emit(Cycle::new(2), lru(3));
        let trace = rec.finish(
            TraceMeta {
                org: "adaptive".into(),
                cores: 4,
                ring_capacity: 16,
                initial_quotas: vec![4; 4],
            },
            Vec::new(),
        );
        let reg = trace.registry();
        assert_eq!(reg.counter("events/lru_hit"), Some(3));
        assert_eq!(reg.counter("events/lru_hit/core0"), Some(2));
        assert_eq!(reg.counter("events/lru_hit/core3"), Some(1));
        assert_eq!(reg.counter("trace/emitted"), Some(3));
    }
}
