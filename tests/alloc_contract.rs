//! The estimator's allocation contract, counted by a global allocator.
//!
//! A warm estimate allocates nothing: not when the estimate cache answers
//! it, and not with the estimate cache off and every join served by the
//! estimator's join-cache front. A cold estimate stays under
//! [`COLD_ALLOCATIONS_PER_QUERY`]. The count is process-wide, so this
//! binary holds exactly one test and runs every estimate on the test's
//! own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use xpe::prelude::*;

/// Heap allocations (including reallocations) so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that orders nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
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
/// 43.5 allocations a query: about 24 publish join results and estimates
/// to the caches, 11 build the containment relation, adjacency cells and
/// seed bitmaps the queries touch, and 9 grow the estimator's reused
/// buffers. Rebuilding every derived sub-query as a `Query` with a
/// string-keyed join-cache key took 162.3.
const COLD_ALLOCATIONS_PER_QUERY: f64 = 80.0;

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
}
