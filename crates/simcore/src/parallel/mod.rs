//! Deterministic scoped-thread runner for independent simulation cells.
//!
//! Every figure in the paper is a grid of *cells* — one (machine,
//! organization, mix) simulation each — with no data flowing between
//! cells. [`run_indexed`] executes such a grid on up to `jobs` host
//! threads and returns the results in cell order. Because each cell
//! seeds its own [`crate::rng::SimRng`] stream and touches no shared
//! mutable state, the output is **bit-identical** for every `jobs`
//! value, including `jobs == 1` (which short-circuits to a plain serial
//! loop and spawns nothing).
//!
//! There is one claim loop, [`fan_out`]: threads take item indices from
//! a shared atomic counter, each index exactly once, so uneven items
//! balance across threads. [`run_indexed`] hands it one slot per cell,
//! and each cell writes its result into its own slot, so the results
//! are in index order by construction. Inside one cell, [`fan_out`]
//! also spreads independent per-item work (a chip's per-core functional
//! warm) over host threads. A cell's thread budget is its share of
//! `jobs` ([`cell_share`]): a one-cell run keeps the caller's whole
//! `jobs`, a grid of many cells gives each cell `jobs / workers`, and
//! code outside any runner gets the host's [`default_jobs`].
//!
//! Items that wait on one another go through [`fan_out_coupled`]
//! instead (a chip's groups of cores in a detailed window). Each item
//! publishes how far it has got in [`Progress`] marks and blocks in
//! [`wait_until`] until the marks it depends on have moved far enough.
//! Every item therefore needs a thread of its own, so that no item waits
//! on one that no thread has claimed, and an item that panics must still
//! publish that it is finished, so that the others stop waiting and the
//! panic reaches the caller. A waiting thread only helps while it has a
//! CPU to itself, so a cell sizes such a fan-out by its share of the
//! host's CPUs ([`cell_cpus`]): `min(jobs, default_jobs()) / workers`,
//! which keeps the coupled threads of all the cells of a grid together
//! within the host's CPUs.
//!
//! This is the only module in the workspace allowed to spawn threads
//! (enforced by `nuca-lint` rule L5): ad-hoc threading elsewhere could
//! reorder floating-point reductions or share RNG streams and silently
//! break the determinism the test suite relies on.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

thread_local! {
    /// The `jobs` of the [`run_indexed`] call running a cell on this
    /// thread and the cells it runs at once; `(0, 1)` outside any call.
    static RUNNER: Cell<(usize, usize)> = const { Cell::new((0, 1)) };
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

/// Runs `f(0..n)` on up to `jobs` host threads and returns the results
/// in index order.
///
/// Each cell gets its own slot, [`fan_out`] hands every slot to exactly
/// one thread, and the cell writes its result into that slot, so the
/// caller sees exactly the order a serial loop would produce regardless
/// of thread scheduling.
///
/// With `jobs <= 1` or `n <= 1` no threads are spawned at all — the
/// serial path is the parallel path's reference semantics, not a
/// separate implementation.
///
/// Each cell runs with its share of `jobs` as its [`cell_share`]:
/// `jobs / workers` on the threaded path, the caller's whole `jobs` on
/// the serial one (so a one-cell `jobs = 4` run may fan its own work out
/// four ways, while a full grid leaves each cell one thread), and with
/// its share of the host's CPUs as its [`cell_cpus`].
///
/// A panic inside `f` is propagated to the caller after the other
/// threads drain (see [`fan_out`]).
pub fn run_indexed<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = jobs.clamp(1, n.max(1));
    if workers <= 1 {
        return in_runner((jobs.max(1), 1), || (0..n).map(f).collect());
    }
    let mut slots: Vec<(usize, Option<R>)> = (0..n).map(|i| (i, None)).collect();
    fan_out(workers, &mut slots, |(i, out)| {
        *out = Some(in_runner((jobs, workers), || f(*i)));
    });
    // `fan_out` returned, so it ran every cell: every slot is filled.
    slots.into_iter().filter_map(|(_, out)| out).collect()
}

/// Host threads the cell running on this thread may use for its own
/// [`fan_out`]: its share of the `jobs` passed to the enclosing
/// [`run_indexed`] (see there), or [`default_jobs`] outside any runner.
/// Always at least one.
pub fn cell_share() -> usize {
    let (jobs, workers) = runner();
    (jobs / workers).max(1)
}

/// Host CPUs the cell running on this thread may keep busy, for a
/// [`fan_out_coupled`] whose items wait on one another: its share of
/// the enclosing [`run_indexed`]'s `jobs` capped at [`default_jobs`],
/// so `min(jobs, default_jobs()) / workers`, or [`default_jobs`]
/// outside any runner. Always at least one.
pub fn cell_cpus() -> usize {
    let (jobs, workers) = runner();
    (jobs.min(default_jobs()) / workers).max(1)
}

/// The enclosing [`run_indexed`]'s `jobs` and cells at once, or one cell
/// with the host's [`default_jobs`] outside any runner.
fn runner() -> (usize, usize) {
    match RUNNER.with(Cell::get) {
        (0, _) => (default_jobs(), 1),
        runner => runner,
    }
}

/// Runs `f` as a cell of a runner with `jobs` and `workers` (see
/// [`cell_share`] and [`cell_cpus`]), restoring the previous runner
/// afterwards (also when `f` unwinds).
fn in_runner<R>(runner: (usize, usize), f: impl FnOnce() -> R) -> R {
    struct Restore((usize, usize));
    impl Drop for Restore {
        fn drop(&mut self) {
            RUNNER.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(RUNNER.with(|c| c.replace(runner)));
    f()
}

/// Applies `f` to every item of `items` exactly once, on up to `width`
/// host threads (the calling thread included), and returns when all
/// items are done.
///
/// Items are claimed one at a time through a shared atomic counter, so
/// uneven per-item costs balance across threads. Which thread runs which
/// item is scheduling-dependent; callers must only hand over items whose
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
    // The counter publishes no data (the locks and the join do), so its
    // claims can be `Relaxed`.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
            f(&mut slot.lock().unwrap_or_else(PoisonError::into_inner));
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

/// [`fan_out`] for items that wait on one another: an item may block in
/// [`wait_until`] on another item's [`Progress`]. A waiting item holds
/// its thread, so every item gets a thread of its own (the calling
/// thread included): with fewer threads than items, an item could wait
/// on one that no thread has claimed, forever.
///
/// `finish(item)` runs once `f(item)` returns, and also when it unwinds.
/// It must publish whatever the item's waiters wait for (its marks at
/// `u64::MAX`), so that a panic in one item lets the others finish and
/// then reaches the caller, instead of hanging them.
pub fn fan_out_coupled<T, F, G>(items: &mut [T], f: F, finish: G)
where
    T: Send,
    F: Fn(&mut T) + Sync,
    G: Fn(&mut T) + Sync,
{
    /// Runs `finish` on the item when dropped, on return and unwind alike.
    struct Finish<'a, T, G: Fn(&mut T)> {
        item: &'a mut T,
        finish: &'a G,
    }
    impl<T, G: Fn(&mut T)> Drop for Finish<'_, T, G> {
        fn drop(&mut self) {
            (self.finish)(self.item);
        }
    }
    fan_out(items.len(), items, |item| {
        let guard = Finish {
            item,
            finish: &finish,
        };
        f(guard.item);
    });
}

/// How far an item of [`fan_out_coupled`] has got, as a `u64` that only
/// grows, for the other items to wait on. Aligned to 128 bytes (an
/// adjacent-line prefetch pair), so marks kept side by side and written
/// by different threads share no cache line.
#[derive(Debug)]
#[repr(align(128))]
pub struct Progress(AtomicU64);

impl Progress {
    /// A mark at `at`.
    pub fn new(at: u64) -> Self {
        Progress(AtomicU64::new(at))
    }

    /// Moves the mark to `at`. A thread that reads `at` or later through
    /// [`get`](Self::get) also sees everything the publisher did before.
    #[inline]
    pub fn publish(&self, at: u64) {
        self.0.store(at, Ordering::Release);
    }

    /// The mark's current value (see [`publish`](Self::publish)).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// Busy checks [`wait_until`] makes before it starts yielding its CPU.
const SPINS: u32 = 128;

/// Blocks until `ready()` holds: checks in a short busy loop, then
/// yields the host CPU between checks, so that on a host with fewer CPUs
/// than busy threads the item being waited on gets to run.
pub fn wait_until(mut ready: impl FnMut() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
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

    /// A miniature experiment cell: a per-cell seeded RNG stream reduced
    /// into a digest, the shape of real grid cells (no shared state, all
    /// randomness derived from the cell index).
    fn sim_cell(i: usize) -> (u64, u64) {
        let mut rng = crate::rng::SimRng::seed_from(0xC0FF_EE00 ^ i as u64);
        let mut hits = 0u64;
        let mut acc = 0u64;
        for _ in 0..256 {
            let v = rng.next_u64();
            acc = acc.wrapping_mul(31).wrapping_add(v);
            if v.is_multiple_of(3) {
                hits += 1;
            }
        }
        (hits, acc)
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_indexed(1, 100, |i| i * i);
        for jobs in [2, 3, 4, 8, 100, 1000] {
            assert_eq!(run_indexed(jobs, 100, |i| i * i), serial, "jobs={jobs}");
        }
        let serial: Vec<(u64, u64)> = (0..9).map(sim_cell).collect();
        for jobs in [1, 2, 3, 4, 8] {
            assert_eq!(run_indexed(jobs, 9, sim_cell), serial, "digest jobs={jobs}");
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

    /// Two items that take turns through their marks: item 0 waits for
    /// item 1 to finish round `r - 1` before its round `r`, item 1 for
    /// item 0 to finish round `r`. Returns each item's finished rounds.
    fn take_turns(rounds: u64, panics_at: Option<(usize, u64)>) -> [(usize, u64); 2] {
        let marks = [Progress::new(0), Progress::new(0)];
        let mut items = [(0, 0), (1, 0)];
        fan_out_coupled(
            &mut items,
            |(i, done)| {
                let (me, other) = (&marks[*i], &marks[1 - *i]);
                for round in 0..rounds {
                    wait_until(|| other.get() >= round + u64::from(*i == 1));
                    if panics_at == Some((*i, round)) {
                        panic!("item {i} fails in round {round}");
                    }
                    *done += 1;
                    me.publish(round + 1);
                }
            },
            |(i, _)| marks[*i].publish(u64::MAX),
        );
        items
    }

    #[test]
    fn coupled_items_run_together() {
        assert_eq!(take_turns(1_000, None), [(0, 1_000), (1, 1_000)]);
    }

    #[test]
    fn a_panicking_coupled_item_releases_its_waiter() {
        // Either item failing, first or mid-way: the other one is then
        // waiting on it, and must be released rather than hang.
        for panics_at in [(0, 0), (1, 0), (0, 37), (1, 500)] {
            let outcome = std::panic::catch_unwind(|| take_turns(1_000, Some(panics_at)));
            assert!(outcome.is_err(), "{panics_at:?}: the panic was swallowed");
        }
    }

    #[test]
    fn run_indexed_propagates_a_panicking_cell() {
        // On the threaded path a cell may run on the calling thread or on
        // a helper; either way its panic must reach the caller.
        for jobs in [2, 4] {
            for bad in [0, 3, 5] {
                let outcome = std::panic::catch_unwind(|| {
                    run_indexed(jobs, 6, |i| {
                        if i == bad {
                            panic!("cell {bad} fails");
                        }
                        i
                    })
                });
                assert!(outcome.is_err(), "jobs {jobs} swallowed cell {bad}'s panic");
            }
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
    fn cell_cpus_share_the_host_across_cells() {
        let host = default_jobs();
        // Outside any runner: the host's CPUs.
        assert_eq!(cell_cpus(), host);
        // One cell: the caller's `jobs`, capped at the host's CPUs.
        for jobs in [1, 2, 4, 64] {
            assert_eq!(run_indexed(jobs, 1, |_| cell_cpus()), vec![jobs.min(host)]);
        }
        // Several cells split `min(jobs, host)` between them, so their
        // coupled threads together stay within the host's CPUs.
        for (jobs, n) in [(2, 2), (4, 2), (4, 3), (64, 2), (64, 4), (2, 50)] {
            let cpus = run_indexed(jobs, n, |_| cell_cpus());
            let workers = jobs.min(n);
            let per_cell = (jobs.min(host) / workers).max(1);
            assert_eq!(cpus, vec![per_cell; n], "jobs {jobs}, {n} cells");
        }
        assert_eq!(cell_cpus(), host, "runner restored after the run");
    }

    #[test]
    fn resolve_jobs_auto_and_literal() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }
}
