//! Property tests pinning the bit-parallel join kernel to the naive
//! reference.
//!
//! `path_join` is the paper's Figure 3 verbatim. `path_join_bitmap`
//! replaces the per-node `(Pid, f64)` candidate lists with dense
//! pid-index bitmaps, resolves containment edges through the summary's
//! shared forward/reverse containment rows, pre-screens each semi-join
//! with the per-(tag,axis) candidate bitmap, and rebuilds the surviving
//! lists from the p-histogram at the end. Because the path join
//! converges to a greatest fixpoint, both kernels must agree
//! **bit-for-bit** — same pids, same order, same `f64` frequency bits.
//! These tests assert exactly that over random documents and random twig
//! queries (both axes, order constraints, and tags absent from the
//! document), cold, with pooled scratch over a warm adjacency index, and
//! under a budget it can never exhaust.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use xpe_core::{
    path_join, path_join_bitmap, Budget, BudgetState, EstimationEngine, Estimator, JoinCache,
    JoinKernel, JoinScratch, QueryPlan,
};
use xpe_datagen::{random_document, RandomDocConfig};
use xpe_diff::{random_query, tag_paths};
use xpe_pathid::{JoinIndexCache, Pid};

/// The oracle and the kernel it pins.
const KERNELS: [JoinKernel; 2] = [JoinKernel::Naive, JoinKernel::Bitmap];
use xpe_synopsis::{Summary, SummaryConfig};

/// One random `(document, queries)` scenario derived from a master seed —
/// the same sampling ranges the differential battery uses.
fn scenario(seed: u64) -> (Summary, Vec<xpe_xpath::Query>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let doc = random_document(&RandomDocConfig {
        seed: rng.gen::<u64>(),
        max_depth: rng.gen_range(2..=5),
        max_children: rng.gen_range(1..=4),
        tag_count: rng.gen_range(1..=3),
        layered: rng.gen_bool(0.5),
    });
    let summary = Summary::build(&doc, SummaryConfig::default());
    let paths = tag_paths(&doc);
    let queries = if paths.is_empty() {
        Vec::new()
    } else {
        (0..8).map(|_| random_query(&mut rng, &paths)).collect()
    };
    (summary, queries)
}

fn as_bits(lists: &[Vec<(Pid, f64)>]) -> Vec<Vec<(Pid, u64)>> {
    lists
        .iter()
        .map(|l| l.iter().map(|&(p, f)| (p, f.to_bits())).collect())
        .collect()
}

/// A deterministic document whose summary interner is wider than 4096
/// bits (> 64 `u64` words): 70 blocks of nested `m` elements, each with
/// 60 uniquely-tagged leaves, for 4200 distinct root-to-leaf paths. The
/// random scenarios above cap tag count and depth, so interner widths
/// stay far below 64 words; this is the regime where an earlier
/// relation build, which screened pairs by a one-word digest of each id,
/// once admitted false containment pairs between pids living in low and
/// high words.
fn wide_scenario() -> (Summary, Vec<xpe_xpath::Query>) {
    let mut leaf = 0usize;
    let mut block = |b: &mut xpe_xml::TreeBuilder| {
        b.begin_element("p");
        b.begin_element("q");
        for _ in 0..60 {
            b.begin_element(&format!("l{leaf}"));
            b.end_element().unwrap();
            leaf += 1;
        }
        b.end_element().unwrap();
        b.end_element().unwrap();
    };
    let mut b = xpe_xml::TreeBuilder::new();
    b.begin_element("r");
    // 69 x→p→q blocks: 4140 low-word encodings.
    for _ in 0..69 {
        b.begin_element("x");
        block(&mut b);
        b.end_element().unwrap();
    }
    // One x-less p→q block whose 60 encodings land entirely in words
    // ≥ 64 of the 4200-path id space. Under //x//p//q its q pid must be
    // pruned (no x ancestor, and no low-word p truly contains it) — a
    // truncated subset walk that ignores high words sees the pid as
    // contained in word-0/1 p pids and keeps it alive.
    block(&mut b);
    b.end_element().unwrap();
    let doc = b.finish().unwrap();
    let summary = Summary::build(&doc, SummaryConfig::default());
    assert!(
        summary.pids.width() > 4096,
        "scenario must exceed 64 words, got {} paths",
        summary.pids.width()
    );
    let queries = ["//x//p//q", "//p//q", "//p/q", "/r/x//q", "//q//l4185"]
        .iter()
        .map(|q| xpe_xpath::parse_query(q).expect(q))
        .collect();
    (summary, queries)
}

/// Asserts that every warm execution path — a reused estimator with its
/// filled adjacency index and reused plan buffers, and the engine's
/// shared join cache at 1/2/4 worker threads — reproduces the bit
/// pattern of a completely cold estimator, for both kernels, and that
/// the two kernels' cold estimates agree. The cold reference rebuilds
/// the `Estimator` per query so no index cell, buffer, or cache entry
/// survives between queries; the warm runs then replay the same batch
/// twice so the second pass hits every cache the first pass filled.
fn check_warm_paths(summary: &Summary, queries: &[xpe_xpath::Query]) {
    let mut naive_cold = Vec::new();
    for kernel in KERNELS {
        let cold: Vec<u64> = queries
            .iter()
            .map(|q| {
                Estimator::new(summary)
                    .with_kernel(kernel)
                    .estimate(q)
                    .to_bits()
            })
            .collect();
        // The bitmap kernel joins sub-queries derived from one resolution
        // of each query; the naive oracle rebuilds each as a `Query`.
        match kernel {
            JoinKernel::Naive => naive_cold = cold.clone(),
            JoinKernel::Bitmap => assert_eq!(cold, naive_cold, "bitmap vs naive, cold"),
        }
        // One reused serial estimator: a warm adjacency index, but no
        // join cache in front of the kernel.
        let est = Estimator::new(summary).with_kernel(kernel);
        for pass in 0..2 {
            for (query, &want) in queries.iter().zip(&cold) {
                assert_eq!(
                    est.estimate(query).to_bits(),
                    want,
                    "reused estimator, kernel {kernel:?}, pass {pass}, {query}"
                );
            }
        }
        // Engines add the skeleton-keyed join cache; parallel batches
        // add per-worker scratch over one shared adjacency index.
        for threads in [1usize, 2, 4] {
            let engine = EstimationEngine::new(summary)
                .with_kernel(kernel)
                .with_threads(threads);
            for pass in 0..2 {
                let got: Vec<u64> = engine
                    .estimate_batch(queries)
                    .iter()
                    .map(|f| f.to_bits())
                    .collect();
                assert_eq!(
                    got, cold,
                    "engine batch, kernel {kernel:?}, threads {threads}, pass {pass}"
                );
            }
        }
    }
}

/// Warm estimators and engines on the wide (> 64-word) interner: the
/// index's cells and the shared containment rows must index correctly
/// far past one word of pids.
#[test]
fn warm_estimators_and_engines_are_bit_identical_on_wide_interner() {
    let (summary, queries) = wide_scenario();
    check_warm_paths(&summary, &queries);
}

/// The bitmap kernel stays bit-identical to the naive oracle on an
/// interner wider than 64 words — deterministic coverage the random
/// scenarios (tag_count ≤ 3, max_depth ≤ 5) can never reach.
#[test]
fn wide_interner_kernels_match_naive() {
    let (summary, queries) = wide_scenario();
    let index = JoinIndexCache::new();
    let mut scratch = JoinScratch::new();
    for query in &queries {
        let reference = as_bits(&path_join(&summary, query).lists);
        let plan = QueryPlan::build(&summary, query);
        let bare = path_join_bitmap(&summary, &plan, &index, None, None);
        assert_eq!(as_bits(&bare.lists), reference, "bare {query}");
        let warm = path_join_bitmap(&summary, &plan, &index, Some(&mut scratch), None);
        assert_eq!(as_bits(&warm.lists), reference, "warm {query}");
        scratch.recycle(warm);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bitmap kernel returns exactly the reference kernel's lists on
    /// every random document and query: cold, with pooled scratch, and
    /// again over the index cells the earlier calls filled.
    #[test]
    fn bitmap_join_is_bit_identical_to_naive(seed in 0u64..1_000_000) {
        let (summary, queries) = scenario(seed);
        let index = JoinIndexCache::new();
        let mut scratch = JoinScratch::new();
        for query in &queries {
            let reference = as_bits(&path_join(&summary, query).lists);
            let plan = QueryPlan::build(&summary, query);
            let cold = path_join_bitmap(&summary, &plan, &index, None, None);
            prop_assert_eq!(&as_bits(&cold.lists), &reference, "cold, seed {}", seed);
            let pooled = path_join_bitmap(&summary, &plan, &index, Some(&mut scratch), None);
            prop_assert_eq!(&as_bits(&pooled.lists), &reference, "pooled, seed {}", seed);
            scratch.recycle(pooled);
            let warm = path_join_bitmap(&summary, &plan, &index, Some(&mut scratch), None);
            prop_assert_eq!(&as_bits(&warm.lists), &reference, "warm, seed {}", seed);
            scratch.recycle(warm);
        }
    }

    /// Under a budget it can never exhaust the kernel returns identical
    /// lists, with no exhaustion.
    #[test]
    fn bitmap_join_with_ample_budget_matches_naive(seed in 0u64..1_000_000) {
        let (summary, queries) = scenario(seed);
        let index = JoinIndexCache::new();
        let mut scratch = JoinScratch::new();
        for query in &queries {
            let reference = as_bits(&path_join(&summary, query).lists);
            let plan = QueryPlan::build(&summary, query);
            let budget = BudgetState::start(&Budget {
                deadline: None,
                max_join_edges: Some(1_000_000),
            });
            let got = path_join_bitmap(&summary, &plan, &index, Some(&mut scratch), Some(&budget));
            prop_assert!(budget.exhausted().is_none(), "seed {}", seed);
            prop_assert_eq!(&as_bits(&got.lists), &reference, "seed {}", seed);
            scratch.recycle(got);
        }
    }
}

/// Asserts the shared-cache seam directly: several estimators sharing one
/// [`JoinCache`] through their private fronts, with tally flushes forced
/// at adversarial points (after every single query, on another worker
/// than the one that ran it, and finally via drop), reproduce a bare
/// cache-free estimator bit for bit — and a fresh estimator served
/// purely from what the others published to the shared cache does too.
fn check_shared_join_cache_fronts(summary: &Summary, queries: &[xpe_xpath::Query]) {
    for kernel in KERNELS {
        let bare: Vec<u64> = queries
            .iter()
            .map(|q| {
                Estimator::new(summary)
                    .with_kernel(kernel)
                    .estimate(q)
                    .to_bits()
            })
            .collect();
        for workers in [1usize, 2, 4] {
            let shared = Arc::new(JoinCache::with_capacity(64));
            let adjacency = Arc::new(JoinIndexCache::new());
            let make = || {
                Estimator::with_caches(
                    summary,
                    Arc::default(),
                    Arc::clone(&adjacency),
                    Some(Arc::clone(&shared)),
                )
                .with_kernel(kernel)
            };
            let ests: Vec<Estimator> = (0..workers).map(|_| make()).collect();
            // Round-robin the queries across workers; after each query,
            // flush a *different* worker, so flushes interleave with
            // lookups in every order the engine could produce.
            for pass in 0..2 {
                for (i, (query, &want)) in queries.iter().zip(&bare).enumerate() {
                    let got = ests[i % workers].estimate(query).to_bits();
                    assert_eq!(
                        got, want,
                        "kernel {kernel:?}, workers {workers}, pass {pass}, {query}"
                    );
                    ests[(i + 1) % workers].flush_caches();
                }
            }
            // Drop flushes whatever is still pending; then serve a fresh
            // estimator entirely from the shared cache.
            drop(ests);
            let fresh = make();
            for (query, &want) in queries.iter().zip(&bare) {
                assert_eq!(
                    fresh.estimate(query).to_bits(),
                    want,
                    "fresh estimator on the shared cache, kernel {kernel:?}, workers {workers}, {query}"
                );
            }
        }
    }
}

/// Deterministic shared-cache coverage on the wide (> 64-word) interner.
#[test]
fn shared_join_cache_fronts_are_bit_identical_on_wide_interner() {
    let (summary, queries) = wide_scenario();
    check_shared_join_cache_fronts(&summary, &queries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A reused estimator over a warm adjacency index, and engines with
    /// the shared join cache, never perturb a single estimate bit, for
    /// both kernels and 1/2/4 worker threads, on random documents and
    /// twig queries.
    #[test]
    fn warm_estimators_and_engines_are_bit_identical(seed in 0u64..1_000_000) {
        let (summary, queries) = scenario(seed);
        check_warm_paths(&summary, &queries);
    }

    /// Estimator-private fronts over one shared join cache are pure
    /// speed: any interleaving of queries and flushes across 1/2/4
    /// workers, for both kernels, is bit-identical to the cache-free
    /// estimator.
    #[test]
    fn shared_join_cache_fronts_are_bit_identical(seed in 0u64..1_000_000) {
        let (summary, queries) = scenario(seed);
        check_shared_join_cache_fronts(&summary, &queries);
    }
}
