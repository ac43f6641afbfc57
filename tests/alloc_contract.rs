//! The estimator's allocation contract, counted by a global allocator.
//!
//! A warm estimate allocates nothing: not when the estimate cache answers
//! it, and not with the estimate cache off and every join served by the
//! estimator's join-cache front. A cold estimate stays under
//! [`COLD_ALLOCATIONS_PER_QUERY`], decoding a summary stays under
//! [`DECODE_ALLOCATIONS_PER_PID`], and an estimator that publishes no
//! join result — the naive reference kernel's — holds no more heap
//! after repeated passes over one workload than after the second. The
//! counts are process-wide, so this binary holds exactly one test and
//! runs every estimate and decode on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

use xpe::estimator::JoinKernel;
use xpe::prelude::*;

/// Heap allocations (including reallocations) so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated and not yet freed.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// statistics that order nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// XMark queries of the three shapes the estimator's formulas cover:
/// simple paths (Theorem 4.1), branches (Eq. 2) and sibling order
/// (Eqs. 3–5).
const QUERIES: &[&str] = &[
    "//open_auctions/open_auction/type",
    "/site/regions/europe/item/description/text/bold",
    "//namerica/item/shipping",
    "/site/open_auctions/open_auction/quantity",
    "//site/regions[/namerica/item]/europe/item/quantity",
    "//site[/regions/africa/item]/open_auctions/open_auction/annotation",
    "//site/regions[/australia/item/mailbox]/africa",
    "//site[/open_auctions]/regions/asia/item/incategory",
    "//site[/regions[/asia/item/payment]/folls::$categories]",
    "//site[/$regions/folls::people]",
    "//site[/people/folls::open_auctions[/open_auction/$quantity]]",
    "//regions[/europe[/item/description/parlist]/folls::samerica[/item/mailbox]]",
];

/// The cold bound. A fresh engine's first pass over [`QUERIES`] averages
/// 43.4 allocations a query: about 24 publish join results and estimates
/// to the caches, 11 build the containment relation, adjacency cells and
/// seed bitmaps the queries touch, and 9 grow the estimator's reused
/// buffers. Rebuilding every derived sub-query as a `Query` with a
/// string-keyed join-cache key took 162.3.
const COLD_ALLOCATIONS_PER_QUERY: f64 = 80.0;

/// The decode bound, per stored pid. `Summary::from_bytes` of the test's
/// summary (604 pids) makes 1,538 allocations (2.5 a pid), for what the
/// image stores — the tag dictionary, one tag list per path, one bit
/// sequence per pid, the histograms' buckets — plus one entry list per
/// p-histogram. Rebuilding the pid tree, a root-pid index, both
/// interning maps and a pid-to-bucket map per p-histogram on every
/// decode took 2,848 (4.7 a pid).
const DECODE_ALLOCATIONS_PER_PID: f64 = 3.5;

/// Allocations made while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Relaxed);
    f();
    ALLOCATIONS.load(Relaxed) - before
}

#[test]
fn warm_estimates_allocate_nothing_and_cold_ones_stay_bounded() {
    let doc = xpe::datagen::xmark::generate(0.02, 42);
    let summary = Summary::build(&doc, SummaryConfig::default());
    let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();

    let image = summary.to_bytes();
    let decode = allocations(|| {
        black_box(Summary::from_bytes(&image).unwrap());
    });
    let per_pid = decode as f64 / summary.pids.len() as f64;
    assert!(
        per_pid <= DECODE_ALLOCATIONS_PER_PID,
        "decoding made {per_pid:.1} allocations a pid"
    );
    let pass = |engine: &EstimationEngine<'_>| {
        for q in &queries {
            black_box(engine.estimate(q));
        }
    };

    let engine = EstimationEngine::new(&summary);
    let cold = allocations(|| pass(&engine));
    let per_query = cold as f64 / queries.len() as f64;
    assert!(
        per_query <= COLD_ALLOCATIONS_PER_QUERY,
        "a cold estimate made {per_query:.1} allocations"
    );

    let before = engine.kernel_stats();
    assert_eq!(allocations(|| pass(&engine)), 0, "estimate-cache hits");
    let after = engine.kernel_stats();
    assert_eq!(
        after.estimate_cache_hits - before.estimate_cache_hits,
        queries.len() as u64
    );

    let engine = EstimationEngine::new(&summary).with_estimate_cache_capacity(0);
    pass(&engine);
    let before = engine.kernel_stats();
    assert_eq!(allocations(|| pass(&engine)), 0, "join-cache front hits");
    let after = engine.kernel_stats();
    assert_eq!(after.join_cache_misses, before.join_cache_misses);
    assert!(after.join_cache_hits > before.join_cache_hits);

    // The naive kernel's join results are never published, so they must
    // be freed with their last use: after the first pass has grown the
    // estimator's reused buffers, further passes hold no more heap.
    let naive = Estimator::new(&summary).with_kernel(JoinKernel::Naive);
    let live: Vec<i64> = (0..4)
        .map(|_| {
            for q in &queries {
                black_box(naive.estimate(q));
            }
            LIVE_BYTES.load(Relaxed)
        })
        .collect();
    assert!(
        live[3] <= live[1],
        "a naive estimator's live heap grew over passes 2-4: {live:?} bytes after passes 1-4"
    );
}
