//! Property tests for the full-query estimate cache.
//!
//! The cache is pure memoization: its only contract is that a cached
//! answer is the bit-identical `f64` the kernel would have produced.
//! These tests drive random documents and random twig queries through
//! every join kernel at several worker counts, through warm repeat
//! passes and reused estimator fronts, and assert the cached path never
//! drifts from a cacheless reference engine. A second property derives
//! order-constraint variants that share a join skeleton (same tags,
//! same edges) and interleaves them through one shared cache: because
//! the cache key is the canonical query text — which renders order
//! constraints — variants must never collide on an entry, or one
//! variant would answer with another's value.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xpe_core::{EstimationEngine, JoinKernel};
use xpe_datagen::{random_document, RandomDocConfig};
use xpe_diff::{random_query, tag_paths};
use xpe_synopsis::{Summary, SummaryConfig};
use xpe_xpath::{Axis, OrderConstraint, OrderKind, Query};

/// Both kernels: the naive reference is cheap at these document sizes
/// and pins the cache against the paper's Figure-3 semantics too.
const KERNELS: [JoinKernel; 2] = [JoinKernel::Naive, JoinKernel::Bitmap];

/// One random `(document, queries)` scenario derived from a master seed —
/// the same sampling ranges the differential battery uses.
fn scenario(seed: u64) -> (Summary, Vec<Query>) {
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

/// Bitwise uncached reference values from a cacheless one-worker engine.
fn uncached_bits(summary: &Summary, kernel: JoinKernel, queries: &[Query]) -> Vec<u64> {
    let reference = EstimationEngine::new(summary)
        .with_threads(1)
        .with_kernel(kernel)
        .with_estimate_cache_capacity(0);
    reference
        .estimate_batch(queries)
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Order-constraint variants of `query` that share its join skeleton:
/// the constraint list of the first node with two or more edges is
/// rewritten (none, document order both ways, sibling order both ways
/// when both edges are child-axis). Returns an empty vector when no
/// node can own a constraint.
fn order_variants(query: &Query) -> Vec<Query> {
    let Some(owner) = query.nodes().iter().position(|n| n.edges.len() >= 2) else {
        return Vec::new();
    };
    let both_child = {
        let edges = &query.nodes()[owner].edges;
        edges[0].axis == Axis::Child && edges[1].axis == Axis::Child
    };
    let mut constraint_sets = vec![
        Vec::new(),
        vec![OrderConstraint {
            before: 0,
            after: 1,
            kind: OrderKind::Document,
        }],
        vec![OrderConstraint {
            before: 1,
            after: 0,
            kind: OrderKind::Document,
        }],
    ];
    if both_child {
        for (before, after) in [(0, 1), (1, 0)] {
            constraint_sets.push(vec![OrderConstraint {
                before,
                after,
                kind: OrderKind::Sibling,
            }]);
        }
    }
    constraint_sets
        .into_iter()
        .map(|constraints| {
            let mut nodes = query.nodes().to_vec();
            nodes[owner].constraints = constraints;
            Query::new(nodes, query.root_axis(), query.target())
                .expect("rewriting constraints keeps the query structurally valid")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached == uncached, bitwise, across every kernel, at one and two
    /// workers, on cold and warm passes, and through a reused
    /// estimator front sharing the engine's warm cache.
    #[test]
    fn cached_estimates_are_bit_identical_to_uncached(seed in 0u64..1_000_000) {
        let (summary, queries) = scenario(seed);
        if queries.is_empty() {
            return Ok(());
        }
        for kernel in KERNELS {
            let expected = uncached_bits(&summary, kernel, &queries);
            for threads in [1usize, 2] {
                let engine = EstimationEngine::new(&summary)
                    .with_threads(threads)
                    .with_kernel(kernel);
                // Pass 0 fills the cache, pass 1 is served from it.
                for pass in 0..2 {
                    let got = engine.estimate_batch(&queries);
                    for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
                        prop_assert_eq!(
                            got.to_bits(),
                            *want,
                            "seed {} kernel {:?} threads {} pass {} query {}",
                            seed,
                            kernel,
                            threads,
                            pass,
                            i
                        );
                    }
                }
                // A reused estimator front over the same warm cache.
                let est = engine.estimator();
                for (q, want) in queries.iter().zip(&expected) {
                    prop_assert_eq!(est.estimate(q).to_bits(), *want, "seed {}", seed);
                }
                drop(est);
                let stats = engine.kernel_stats();
                prop_assert!(
                    stats.estimate_cache_hits > 0,
                    "warm passes must hit: {:?}",
                    stats
                );
            }
        }
    }

    /// Order-constraint variants sharing a skeleton interleave through
    /// one shared cache without ever answering with each other's value.
    #[test]
    fn order_variants_never_share_a_cache_entry(seed in 0u64..1_000_000) {
        let (summary, queries) = scenario(seed);
        let variants: Vec<Query> = queries.iter().flat_map(order_variants).collect();
        if variants.is_empty() {
            return Ok(());
        }
        for kernel in KERNELS {
            let expected = uncached_bits(&summary, kernel, &variants);
            let engine = EstimationEngine::new(&summary)
                .with_threads(1)
                .with_kernel(kernel);
            let est = engine.estimator();
            // Three interleaved passes: every answer after the first is
            // a cache hit, and a collision between variants would
            // surface as one variant returning another's bits.
            for pass in 0..3 {
                for (i, (variant, want)) in variants.iter().zip(&expected).enumerate() {
                    prop_assert_eq!(
                        est.estimate(variant).to_bits(),
                        *want,
                        "seed {} kernel {:?} pass {} variant {} ({})",
                        seed,
                        kernel,
                        pass,
                        i,
                        variant
                    );
                }
            }
        }
    }
}
