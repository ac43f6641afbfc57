//! Deterministic data parallelism on scoped OS threads.
//!
//! The build environment has no registry access, so instead of `rayon`
//! this tiny crate provides the one primitive the workspace needs: an
//! order-preserving indexed parallel map with per-worker state and an
//! atomic work queue, built on `std::thread::scope`. Results are returned
//! in index order regardless of completion order, so a parallel map over
//! a pure function is **bit-identical** to the serial loop it replaces —
//! the property the batch-estimation equivalence tests pin down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Resolves a thread-count knob: `0` means one worker per available core,
/// anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Maps `f` over `0..n` with per-worker state, returning results in index
/// order.
///
/// Each worker (or the calling thread, when serial) builds one `S` via
/// `init` and threads it through every item it processes — how the batch
/// estimator gives each worker a single reusable estimator instead of one
/// per item. `S` never crosses threads, so it needs no `Send`/`Sync`
/// bounds. Each worker drops its state on its own thread when it runs
/// out of items, so anything a state does on drop (the batch
/// estimator's cache fronts fold their hit/miss tallies into the shared
/// counters) is done before the map returns.
///
/// Runs serially when `threads <= 1` (after [`resolve_threads`]) or when
/// there are fewer than two items; otherwise fans out over
/// `min(threads, n)` scoped workers. Workers claim index *ranges* from a
/// shared atomic counter — roughly 16 claims per worker, clamped to
/// `1..=64` indices each, small enough for stealing to balance skewed
/// items and large enough that sub-microsecond items are not dominated
/// by `fetch_add` contention — keep their `(index, result)` records
/// locally, and hand them over once when they run dry; the caller sorts
/// them back into index order. `f` must be pure for the parallel and
/// serial paths to stay bit-identical. A panicking item panics the
/// calling thread after the scope joins.
pub fn par_map_init<S, R, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let chunk = (n / (workers * 16)).clamp(1, 64);

    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + chunk).min(n) {
                        local.push((i, f(&mut state, i)));
                    }
                }
                drop(state);
                // A worker's item panics outside this lock, so it is
                // never poisoned; recovering costs nothing all the same.
                done.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(local);
            });
        }
    });

    let mut tagged = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    debug_assert_eq!(tagged.len(), n);
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`par_map_init`] with no state.
    fn par_map(threads: usize, n: usize, f: impl Fn(usize) -> u64 + Sync) -> Vec<u64> {
        par_map_init(threads, n, || (), |(), i| f(i))
    }

    #[test]
    fn matches_serial_map() {
        // 5000 items make the claimed chunks wider than one index.
        for n in [0, 1, 2, 103, 5000] {
            let serial: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(31)).collect();
            for threads in [0, 1, 2, 3, 8, 64] {
                let par = par_map(threads, n, |i| (i as u64).wrapping_mul(31));
                assert_eq!(par, serial, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn resolve_threads_semantics() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn skewed_workloads_complete() {
        // Items with wildly different costs still all arrive, in order.
        let out = par_map(4, 40, |i| {
            if i % 7 == 0 {
                (0..(i * 1000)).map(|x| x as u64).sum::<u64>()
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 40);
        assert_eq!(out[1], 1);
    }

    #[test]
    fn dispatch_covers_every_index_exactly_once() {
        for n in [53, 2000] {
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            par_map(4, n, |i| counts[i].fetch_add(1, Ordering::Relaxed) as u64);
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "n={n} index {i}");
            }
        }
    }

    /// Counts the items it saw into `tally` when dropped.
    struct Buffered<'a> {
        items: usize,
        tally: &'a AtomicUsize,
    }

    impl Drop for Buffered<'_> {
        fn drop(&mut self) {
            self.tally.fetch_add(self.items, Ordering::Relaxed);
        }
    }

    #[test]
    fn per_worker_state_is_reused_and_dropped_before_the_map_returns() {
        // Each state buffers the items it processed and hands them to the
        // shared tally when dropped. Every item must be counted by the
        // time the call returns, and fewer inits than items proves state
        // persists across items instead of being rebuilt per item.
        let serial: Vec<u64> = (0..91).map(|i| (i as u64).wrapping_mul(17)).collect();
        for threads in [1, 2, 4] {
            let tally = AtomicUsize::new(0);
            let inits = AtomicUsize::new(0);
            let par = par_map_init(
                threads,
                91,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Buffered {
                        items: 0,
                        tally: &tally,
                    }
                },
                |state, i| {
                    state.items += 1;
                    (i as u64).wrapping_mul(17)
                },
            );
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(
                tally.load(Ordering::Relaxed),
                91,
                "threads={threads}: every state dropped"
            );
            assert!(
                inits.load(Ordering::Relaxed) <= threads,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let res = std::panic::catch_unwind(|| {
            par_map(4, 16, |i| {
                if i == 11 {
                    panic!("boom");
                }
                i as u64
            })
        });
        assert!(res.is_err());
    }
}
