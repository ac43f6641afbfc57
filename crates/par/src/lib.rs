//! Deterministic data parallelism on scoped OS threads.
//!
//! The build environment has no registry access, so instead of `rayon`
//! this tiny crate provides the one primitive the workspace needs: an
//! order-preserving indexed parallel map with per-worker state and an
//! atomic work queue, built on `std::thread::scope`. Results are returned
//! in index order regardless of completion order, so a parallel map over
//! a pure function is **bit-identical** to the serial loop it replaces —
//! the property the batch-estimation equivalence tests pin down. The
//! serving layer's bounded job queue lives here too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A panic caught while mapping one item in
/// [`par_map_init_chunked_isolated`]: the item's index slot carries this
/// instead of a result, and the rest of the batch completes normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemPanic {
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// passed through; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for ItemPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.message)
    }
}

impl std::error::Error for ItemPanic {}

/// Renders a caught panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Acquires `m` even if a previous holder panicked. Every critical
/// section in this crate only pushes whole `(index, value)` records into
/// a collection vector, so a poisoned lock cannot expose a half-written
/// record — recovery is always sound here, and it keeps one panicking
/// worker from cascading an unrelated `PoisonError` panic through every
/// other worker's result flush.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

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
/// order, with a per-chunk `flush` hook.
///
/// Each worker (or the calling thread, when serial) builds one `S` via
/// `init` and threads it through every item it processes — how the batch
/// estimator gives each worker a single reusable estimator instead of one
/// per item. `S` never crosses threads, so it needs no `Send`/`Sync`
/// bounds. After a worker finishes each claimed chunk (and once more
/// before it exits), `flush` runs against its state. The batch
/// estimator uses it to fold each worker's private cache tallies into
/// the shared counters once per chunk instead of once per item. On the
/// serial path the whole range is one chunk: `flush` runs once, after
/// the last item.
///
/// Runs serially when `threads <= 1` (after [`resolve_threads`]) or when
/// there are fewer than two items; otherwise fans out over
/// `min(threads, n)` scoped workers. Workers claim index *ranges* from a
/// shared atomic counter — roughly 16 claims per worker, clamped to
/// `1..=64` indices each, small enough for stealing to balance skewed
/// items and large enough that sub-microsecond items are not dominated
/// by `fetch_add` contention — keep their `(index, result)` records
/// locally, and hand them over once when they run dry; the caller sorts
/// them back into index order. `f` must be pure, and `flush` must
/// not affect `f`'s *results* (publishing memoized values earlier or
/// later may change speed, never outputs), for the parallel and serial
/// paths to stay bit-identical. A panicking item panics the calling
/// thread after the scope joins.
pub fn par_map_init_flushed<S, R, I, F, X>(
    threads: usize,
    n: usize,
    init: I,
    f: F,
    flush: X,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
    X: Fn(&mut S) + Sync,
{
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        let mut state = init();
        let out: Vec<R> = (0..n).map(|i| f(&mut state, i)).collect();
        flush(&mut state);
        return out;
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
                    flush(&mut state);
                }
                flush(&mut state);
                lock_ignore_poison(&done).extend(local);
            });
        }
    });

    let mut tagged = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    debug_assert_eq!(tagged.len(), n);
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// [`par_map_init_flushed`] with **panic isolation** and no flush hook:
/// each item's `f` call runs under [`catch_unwind`], so a panicking item
/// yields `Err(ItemPanic)` in its slot while every other item still
/// completes and returns in order. This is the serving-layer primitive:
/// one poisoned query must cost one answer, not the whole batch.
///
/// Two containment rules keep the isolation sound:
///
/// * a worker whose item panicked **discards its per-worker state** and
///   rebuilds it with `init` before the next item — `f` holds `&mut S`
///   when it panics, so `S` may be mid-mutation and is never reused
///   (this is also what makes the `AssertUnwindSafe` below honest);
/// * result collection recovers from poisoned locks instead of
///   propagating them (`lock_ignore_poison`), so a panic elsewhere
///   never aborts the flush of completed results.
///
/// `init` itself is *not* isolated: it builds caches/scratch from trusted
/// state, and a panic there is a programming error that should propagate.
/// On the non-panicking path, results are bit-identical to the serial
/// loop for any thread count.
pub fn par_map_init_chunked_isolated<S, R, I, F>(
    threads: usize,
    n: usize,
    init: I,
    f: F,
) -> Vec<Result<R, ItemPanic>>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    // One isolated step: run item `i`, replacing worker state on panic.
    let step = |state: &mut Option<S>, i: usize| -> Result<R, ItemPanic> {
        let s = state.get_or_insert_with(&init);
        match catch_unwind(AssertUnwindSafe(|| f(s, i))) {
            Ok(r) => Ok(r),
            Err(payload) => {
                *state = None; // state may be mid-mutation: rebuild lazily
                Err(ItemPanic {
                    message: panic_message(payload),
                })
            }
        }
    };
    par_map_init_flushed(threads, n, || None, step, |_| {})
}

/// Why [`BoundedQueue::try_push`] refused an item; the item comes back so
/// the producer can report it (e.g. as a typed `overloaded` reply).
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity. Shed the work — pushing never blocks.
    Full(T),
    /// The queue was closed; no further work is accepted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue for serving workers.
///
/// The contract is shed-don't-stall on the producer side and
/// drain-then-stop on the consumer side:
///
/// * [`try_push`](Self::try_push) never blocks — a full queue returns
///   [`PushError::Full`] immediately so the producer (a connection
///   thread) can answer `overloaded` instead of wedging on a slow pool;
/// * [`pop`](Self::pop) blocks while the queue is open and empty, and
///   returns `None` only once the queue is **closed and drained** — so
///   closing lets workers finish every admitted job before exiting
///   (graceful drain), while jobs arriving after [`close`](Self::close)
///   are refused with [`PushError::Closed`].
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    capacity: usize,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` pending items
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueues `item` without blocking; `Err` returns it when the queue
    /// is full (shed) or closed (draining).
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = lock_ignore_poison(&self.inner);
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock_ignore_poison(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: later pushes fail with [`PushError::Closed`],
    /// already-admitted items remain poppable, and blocked consumers wake
    /// (returning `None` once the backlog drains). Idempotent.
    pub fn close(&self) {
        let mut inner = lock_ignore_poison(&self.inner);
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// Whether [`close`](Self::close) has run.
    pub fn is_closed(&self) -> bool {
        lock_ignore_poison(&self.inner).closed
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        lock_ignore_poison(&self.inner).items.len()
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission bound this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`par_map_init_flushed`] with no state and no flush.
    fn par_map(threads: usize, n: usize, f: impl Fn(usize) -> u64 + Sync) -> Vec<u64> {
        par_map_init_flushed(threads, n, || (), |(), i| f(i), |()| {})
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

    #[test]
    fn per_worker_state_is_reused_and_every_item_is_flushed() {
        // State buffers items since the last flush; flush drains into the
        // shared tally. Everything processed must be flushed by the time
        // the call returns, and fewer inits than items proves state
        // persists across items instead of being rebuilt per item.
        let serial: Vec<u64> = (0..91).map(|i| (i as u64).wrapping_mul(17)).collect();
        for threads in [1, 2, 4] {
            let flushed = AtomicUsize::new(0);
            let inits = AtomicUsize::new(0);
            let par = par_map_init_flushed(
                threads,
                91,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |buffered, i| {
                    *buffered += 1;
                    (i as u64).wrapping_mul(17)
                },
                |buffered| {
                    flushed.fetch_add(*buffered, Ordering::Relaxed);
                    *buffered = 0;
                },
            );
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(
                flushed.load(Ordering::Relaxed),
                91,
                "threads={threads}: every item flushed"
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

    /// A quiet panic hook for isolation tests: the default hook prints a
    /// backtrace banner per caught panic, which floods test output.
    fn hushed<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn isolated_map_matches_serial_when_nothing_panics() {
        let serial: Vec<u64> = (0..103).map(|i| (i as u64).wrapping_mul(31)).collect();
        for threads in [0, 1, 2, 8] {
            let out = par_map_init_chunked_isolated(
                threads,
                103,
                || (),
                |(), i| (i as u64).wrapping_mul(31),
            );
            let vals: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(vals, serial, "threads={threads}");
        }
    }

    #[test]
    fn one_poisoned_item_yields_one_error_slot() {
        hushed(|| {
            for threads in [1, 4] {
                let out = par_map_init_chunked_isolated(
                    threads,
                    40,
                    || (),
                    |(), i| {
                        if i == 17 {
                            panic!("poisoned query 17");
                        }
                        i * 2
                    },
                );
                assert_eq!(out.len(), 40);
                for (i, r) in out.iter().enumerate() {
                    if i == 17 {
                        let e = r.as_ref().unwrap_err();
                        assert!(e.message.contains("poisoned query 17"), "{e}");
                    } else {
                        assert_eq!(*r.as_ref().unwrap(), i * 2, "slot {i}");
                    }
                }
            }
        });
    }

    #[test]
    fn every_item_panicking_still_returns_full_batch() {
        hushed(|| {
            let out = par_map_init_chunked_isolated::<(), usize, _, _>(
                4,
                25,
                || (),
                |(), _| panic!("all poisoned"),
            );
            assert_eq!(out.len(), 25);
            assert!(out.iter().all(|r| r.is_err()));
        });
    }

    /// Worker state contaminated by a panicking item is discarded: items
    /// processed after a panic on the same worker see freshly-initialized
    /// state, never the mid-mutation leftovers.
    #[test]
    fn state_is_rebuilt_after_a_panic() {
        hushed(|| {
            // Serial (1 thread) so one worker handles every item: state
            // counts items since (re)init; item 5 corrupts it and panics.
            let out = par_map_init_chunked_isolated(
                1,
                10,
                || 0usize,
                |seen, i| {
                    *seen += 1000; // corrupt first…
                    if i == 5 {
                        panic!("die mid-mutation");
                    }
                    *seen -= 999; // …then repair: net +1 per clean item
                    *seen
                },
            );
            // Items 0..5 count 1..=5; item 5 errors; items 6..10 restart
            // from rebuilt state, counting 1..=4 again.
            let want: Vec<Result<usize, ()>> = (1..=5)
                .map(Ok)
                .chain([Err(())])
                .chain((1..=4).map(Ok))
                .collect();
            let got: Vec<Result<usize, ()>> = out.into_iter().map(|r| r.map_err(|_| ())).collect();
            assert_eq!(got, want);
        });
    }

    #[test]
    fn non_string_panic_payloads_are_described() {
        hushed(|| {
            let out = par_map_init_chunked_isolated::<(), (), _, _>(
                1,
                1,
                || (),
                |(), _| std::panic::panic_any(42u32),
            );
            assert_eq!(
                out[0].as_ref().unwrap_err().message,
                "non-string panic payload"
            );
        });
    }

    #[test]
    fn bounded_queue_sheds_when_full_and_refuses_after_close() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(4), Err(PushError::Closed(4)));
        // Admitted items drain in FIFO order, then the closed queue ends.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_queue_zero_capacity_still_admits_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.try_push(7), Ok(()));
        assert_eq!(q.try_push(8), Err(PushError::Full(8)));
    }

    #[test]
    fn bounded_queue_wakes_blocked_consumers() {
        let q = std::sync::Arc::new(BoundedQueue::new(16));
        let total = 200u64;
        let consumed: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let q = std::sync::Arc::clone(&q);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = q.pop() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            let mut pushed = 0;
            while pushed < total {
                if q.try_push(pushed).is_ok() {
                    pushed += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            q.close();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = consumed;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn push_error_returns_the_item() {
        assert_eq!(PushError::Full("job").into_inner(), "job");
        assert_eq!(PushError::Closed(9).into_inner(), 9);
    }
}
