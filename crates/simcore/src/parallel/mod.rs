//! Deterministic scoped-thread runner for independent simulation cells.
//!
//! Every figure in the paper is a grid of *cells* — one (machine,
//! organization, mix) simulation each — with no data flowing between
//! cells. [`run_indexed`] executes such a grid on `jobs` worker threads
//! using [`std::thread::scope`] and a shared atomic work index
//! (work-stealing by next-index claim), then reassembles the results in
//! cell order. Because each cell seeds its own [`crate::rng::SimRng`]
//! stream and touches no shared mutable state, the output is
//! **bit-identical** for every `jobs` value, including `jobs == 1`
//! (which short-circuits to a plain serial loop and spawns nothing).
//!
//! The claim/reassemble protocol is factored into three pieces the real
//! runner and the [`model`] schedule explorer share, so the property the
//! explorer proves is the property the runner actually executes:
//!
//! - [`WorkSource`] — the claim protocol (production impl:
//!   [`AtomicSource`], a `fetch_add` over `0..n`);
//! - [`WorkerState`] — one worker's loop body, advanced one claim at a
//!   time by [`WorkerState::step`];
//! - [`reassemble`] — the index-ordered merge of per-worker results.
//!
//! [`model`] drives these same pieces through *every* interleaving of
//! worker steps on small grids, turning "bit-identical for any `--jobs`"
//! from a sampled property into an exhaustively checked one.
//!
//! Inside one cell, [`fan_out`] spreads independent per-item work (a
//! chip's per-core functional warm) over host threads. A cell's thread
//! budget is its worker's share of `jobs` ([`cell_share`]): a one-cell
//! run keeps the caller's whole `jobs`, a grid of many cells gives each
//! worker `jobs / workers`, and code outside any runner gets the host's
//! [`default_jobs`].
//!
//! This is the only module in the workspace allowed to spawn threads
//! (enforced by `nuca-lint` rule L5): ad-hoc threading elsewhere could
//! reorder floating-point reductions or share RNG streams and silently
//! break the determinism the test suite relies on.

pub mod model;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

thread_local! {
    /// Host threads a cell running on this thread may use for its own
    /// [`fan_out`]; 0 outside any [`run_indexed`] call.
    static SHARE: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads to use when the caller asked for "auto":
/// the host's available parallelism, or 1 if it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a user-facing `--jobs` value: `0` means "auto" (one worker
/// per available core), anything else is taken literally.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        default_jobs()
    } else {
        requested
    }
}

/// The claim side of the work-stealing protocol: hands out each cell
/// index exactly once, then reports drained.
///
/// The real runner uses [`AtomicSource`] across threads; the model
/// checker drives the same trait from a virtual scheduler, so every
/// protocol state the explorer visits is one the runner can reach.
pub trait WorkSource: Sync {
    /// Claims the next unprocessed cell index, or `None` once the grid
    /// is drained. Each index in `0..n` is returned exactly once across
    /// all callers.
    fn claim(&self) -> Option<usize>;
}

/// Production [`WorkSource`]: a shared atomic counter over `0..n`.
///
/// `fetch_add` makes the claim a single atomic read-modify-write, so a
/// slow cell never stalls the rest of the grid (work-stealing by claim
/// rather than by deque).
#[derive(Debug)]
pub struct AtomicSource {
    next: AtomicUsize,
    n: usize,
}

impl AtomicSource {
    /// A source that will hand out `0..n` once each.
    pub fn new(n: usize) -> AtomicSource {
        AtomicSource {
            next: AtomicUsize::new(0),
            n,
        }
    }
}

impl Clone for AtomicSource {
    fn clone(&self) -> AtomicSource {
        AtomicSource {
            next: AtomicUsize::new(self.next.load(Ordering::Relaxed)),
            n: self.n,
        }
    }
}

impl WorkSource for AtomicSource {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }
}

/// One worker's half of the protocol: local `(index, result)` pairs,
/// advanced one claim at a time.
#[derive(Debug, Clone, Default)]
pub struct WorkerState<R> {
    local: Vec<(usize, R)>,
}

impl<R> WorkerState<R> {
    /// A worker with no claims yet.
    pub fn new() -> WorkerState<R> {
        WorkerState { local: Vec::new() }
    }

    /// One protocol step: claim the next index from `source` and run the
    /// cell. Returns `false` when the source is drained (the worker's
    /// exit condition).
    pub fn step<S: WorkSource + ?Sized, F: Fn(usize) -> R>(&mut self, source: &S, f: &F) -> bool {
        match source.claim() {
            Some(i) => {
                self.local.push((i, f(i)));
                true
            }
            None => false,
        }
    }

    /// The worker's accumulated `(index, result)` pairs, in claim order.
    pub fn into_local(self) -> Vec<(usize, R)> {
        self.local
    }
}

/// Merges per-worker `(index, result)` pairs into index order — the
/// reassembly half of the protocol. Returns `None` if the pairs are not
/// a permutation of `0..n` (a protocol violation: an index claimed twice
/// or never).
pub fn reassemble<R>(locals: Vec<Vec<(usize, R)>>, n: usize) -> Option<Vec<R>> {
    let mut pairs: Vec<(usize, R)> = locals.into_iter().flatten().collect();
    if pairs.len() != n {
        return None;
    }
    pairs.sort_unstable_by_key(|(i, _)| *i);
    if pairs
        .iter()
        .enumerate()
        .any(|(want, (got, _))| want != *got)
    {
        return None;
    }
    Some(pairs.into_iter().map(|(_, r)| r).collect())
}

/// Runs `f(0..n)` on up to `jobs` scoped worker threads and returns the
/// results in index order.
///
/// Workers claim cell indices from a shared [`AtomicSource`]; each
/// worker keeps `(index, result)` pairs locally ([`WorkerState`]); after
/// all workers join, [`reassemble`] merges the pairs by index, so the
/// caller sees exactly the order a serial loop would produce regardless
/// of thread scheduling. [`model::explore`] checks this protocol under
/// every possible schedule.
///
/// With `jobs <= 1` or `n <= 1` no threads are spawned at all — the
/// serial path is the parallel path's reference semantics, not a
/// separate implementation.
///
/// Each cell runs with its worker's share of `jobs` as its
/// [`cell_share`]: `jobs / workers` on the threaded path, the caller's
/// whole `jobs` on the serial one (so a one-cell `jobs = 4` run may fan
/// its own work out four ways, while a full grid leaves each cell one
/// thread).
///
/// A panic inside `f` is propagated to the caller after the remaining
/// workers drain (standard scoped-thread behavior).
pub fn run_indexed<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = jobs.clamp(1, n.max(1));
    if workers <= 1 {
        return with_share(jobs.max(1), || (0..n).map(f).collect());
    }
    let share = jobs / workers;
    let source = AtomicSource::new(n);
    let f = &f;
    let source = &source;
    let mut locals: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    SHARE.with(|c| c.set(share));
                    let mut state = WorkerState::new();
                    while state.step(source, f) {}
                    state.into_local()
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok(local) => locals.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Every index in 0..n is claimed by exactly one fetch_add, so after
    // a panic-free join the pairs are a permutation of 0..n.
    match reassemble(locals, n) {
        Some(out) => out,
        None => {
            debug_assert!(
                false,
                "claim protocol violated: result set is not a permutation"
            );
            Vec::new()
        }
    }
}

/// Host threads the cell running on this thread may use for its own
/// [`fan_out`]: its worker's share of the `jobs` passed to the enclosing
/// [`run_indexed`] (see there), or [`default_jobs`] outside any runner.
/// Always at least one.
pub fn cell_share() -> usize {
    match SHARE.with(Cell::get) {
        0 => default_jobs(),
        share => share,
    }
}

/// Runs `f` with this thread's [`cell_share`] set to `share`, restoring
/// the previous value afterwards (also when `f` unwinds).
fn with_share<R>(share: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SHARE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SHARE.with(|c| c.replace(share)));
    f()
}

/// Applies `f` to every item of `items` exactly once, on up to `width`
/// host threads (the calling thread included), and returns when all
/// items are done.
///
/// Items are claimed one at a time from an [`AtomicSource`], so uneven
/// per-item costs balance across threads. Which thread runs which item
/// is scheduling-dependent; callers must only hand over items whose
/// processing is independent (each `f(item)` touches its own item and
/// shared state only through `&` access), which makes the outcome the
/// same at every width. With `width <= 1` or at most one item nothing is
/// spawned: the items are processed in order on the calling thread.
///
/// A panic inside `f` propagates to the caller once the other threads
/// have finished.
pub fn fan_out<T, F>(width: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let width = width.clamp(1, items.len().max(1));
    if width <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    // One lock per item hands its `&mut` to whichever thread claims it.
    // Each index is claimed exactly once, so no lock is contended or
    // taken twice: a lock poisoned by a panicking `f` is never seen
    // again, and the panic itself reaches the caller through the join.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let source = AtomicSource::new(slots.len());
    let work = || {
        while let Some(i) = source.claim() {
            if let Some(slot) = slots.get(i) {
                f(&mut slot.lock().unwrap_or_else(PoisonError::into_inner));
            }
        }
    };
    let work = &work;
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..width).map(|_| s.spawn(work)).collect();
        work();
        for h in helpers {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Maps `f` over a slice on up to `jobs` worker threads, preserving
/// order (convenience wrapper over [`run_indexed`]).
pub fn map_slice<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_indexed(jobs, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_indexed(1, 100, |i| i * i);
        for jobs in [2, 3, 4, 8, 100, 1000] {
            assert_eq!(run_indexed(jobs, 100, |i| i * i), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_grids() {
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(4, 1, |i| i + 7), vec![7]);
        assert_eq!(run_indexed(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn results_are_in_index_order_under_contention() {
        // Uneven per-cell work so threads finish out of order.
        let out = run_indexed(4, 64, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn map_slice_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = map_slice(3, &items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_visits_every_item_exactly_once_at_every_width() {
        for len in [0usize, 1, 2, 4, 7] {
            for width in 0..=8 {
                let mut items: Vec<(usize, u32)> = (0..len).map(|i| (i, 0)).collect();
                fan_out(width, &mut items, |(i, visits)| {
                    *visits += 1;
                    *i *= 10;
                });
                let want: Vec<(usize, u32)> = (0..len).map(|i| (i * 10, 1)).collect();
                assert_eq!(items, want, "len={len} width={width}");
            }
        }
    }

    #[test]
    fn fan_out_propagates_a_panicking_item() {
        for width in [1, 2, 4] {
            let mut items: Vec<usize> = (0..6).collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fan_out(width, &mut items, |x| {
                    if *x == 3 {
                        panic!("item 3 fails");
                    }
                });
            }));
            assert!(outcome.is_err(), "width {width} swallowed the panic");
        }
    }

    #[test]
    fn cell_share_follows_the_runner() {
        // Outside any runner: the host default.
        assert_eq!(cell_share(), default_jobs());
        // Threaded path: each worker gets `jobs / workers`.
        assert_eq!(run_indexed(4, 2, |_| cell_share()), vec![2, 2]);
        assert_eq!(run_indexed(4, 3, |_| cell_share()), vec![1, 1, 1]);
        assert_eq!(run_indexed(2, 50, |_| cell_share()), vec![1; 50]);
        // Serial short-circuit: the caller's whole `jobs`, for a single
        // cell and for `jobs = 1` alike.
        assert_eq!(run_indexed(4, 1, |_| cell_share()), vec![4]);
        assert_eq!(run_indexed(1, 3, |_| cell_share()), vec![1, 1, 1]);
        // Nested runners see their own share; the outer one is restored.
        let nested = run_indexed(3, 1, |_| {
            let inner = run_indexed(2, 1, |_| cell_share());
            (inner, cell_share())
        });
        assert_eq!(nested, vec![(vec![2], 3)]);
        assert_eq!(cell_share(), default_jobs(), "share restored after the run");
    }

    #[test]
    fn resolve_jobs_auto_and_literal() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn atomic_source_hands_out_each_index_once() {
        let s = AtomicSource::new(3);
        assert_eq!(s.claim(), Some(0));
        assert_eq!(s.claim(), Some(1));
        assert_eq!(s.claim(), Some(2));
        assert_eq!(s.claim(), None);
        assert_eq!(s.claim(), None, "drained source stays drained");
    }

    #[test]
    fn reassemble_rejects_protocol_violations() {
        assert_eq!(
            reassemble(vec![vec![(1, 'b')], vec![(0, 'a')]], 2),
            Some(vec!['a', 'b'])
        );
        assert_eq!(reassemble(vec![vec![(0, 'a')]], 2), None, "missing index");
        assert_eq!(
            reassemble(vec![vec![(0, 'a'), (0, 'b')]], 2),
            None,
            "duplicate claim"
        );
    }
}
