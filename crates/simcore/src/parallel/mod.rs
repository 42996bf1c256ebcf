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
//! This is the only module in the workspace allowed to spawn threads
//! (enforced by `nuca-lint` rule L5): ad-hoc threading elsewhere could
//! reorder floating-point reductions or share RNG streams and silently
//! break the determinism the test suite relies on.

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
/// four ways, while a full grid leaves each cell one thread).
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
        return with_share(jobs.max(1), || (0..n).map(f).collect());
    }
    let share = jobs / workers;
    let mut slots: Vec<(usize, Option<R>)> = (0..n).map(|i| (i, None)).collect();
    fan_out(workers, &mut slots, |(i, out)| {
        *out = Some(with_share(share, || f(*i)));
    });
    // `fan_out` returned, so it ran every cell: every slot is filled.
    slots.into_iter().filter_map(|(_, out)| out).collect()
}

/// Host threads the cell running on this thread may use for its own
/// [`fan_out`]: its share of the `jobs` passed to the enclosing
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
    fn resolve_jobs_auto_and_literal() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }
}
