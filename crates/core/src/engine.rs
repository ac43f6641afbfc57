//! The batched estimation engine — the throughput layer over
//! [`Estimator`].
//!
//! A single [`Estimator`] already memoizes containment adjacencies and
//! joins through a private [`JoinCache`]; the engine shares both across
//! estimators instead — one containment-adjacency index and one
//! workload-level join cache that every worker warms for the others —
//! and adds [`estimate_batch`](EstimationEngine::estimate_batch), which
//! fans a query slice across scoped worker threads. Each worker owns one
//! estimator (kernel scratch never crosses threads) while all of them
//! read the same summary and memo tables. Results come back in input
//! order and are bit-identical to a serial `estimate` loop — estimates
//! are pure functions of `(summary, query)`; the caches only change how
//! fast they are produced.

use std::cell::Cell;
use std::sync::Arc;

use xpe_pathid::{JoinIndexCache, RelationMaskCache};
use xpe_synopsis::Summary;
use xpe_xpath::{Query, QueryParseError};

use crate::estcache::EstimateCache;
use crate::estimator::Estimator;
use crate::join::JoinKernel;
use crate::joincache::JoinCache;
use crate::serve::{isolated_estimate, Budget, EstimateOutcome, OutcomeTally, QueryLimits};

/// Number of join results every engine's and serving generation's
/// workload cache retains. Sized to hold the full distinct-skeleton
/// working set of the paper's template workloads with headroom — XMark's
/// workload plus its derived spine queries reaches ~1.2k skeletons, and a
/// cache running just below its working set thrashes, re-running a full
/// join fixpoint for every evicted reuse — while still bounding memory on
/// adversarial ones.
pub const DEFAULT_JOIN_CACHE_CAPACITY: usize = 4096;

/// Default number of finished estimates the engine's full-query cache
/// retains. Estimates are keyed by the complete canonical query, not the
/// skeleton, so the distinct-key population is larger than the join
/// cache's; each entry is only a string key and an `f64`, so holding the
/// whole working set of a skewed production workload is cheap.
pub const DEFAULT_ESTIMATE_CACHE_CAPACITY: usize = 16384;

/// Kernel counters of one engine's lifetime, for benchmark reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Join-cache lookups that found a memoized result.
    pub join_cache_hits: u64,
    /// Join-cache lookups that ran the join kernel.
    pub join_cache_misses: u64,
    /// `hits / (hits + misses)`, or 0 before any lookup.
    pub join_cache_hit_rate: f64,
    /// Full-query estimate-cache lookups served from a published value —
    /// the skew-aware fast path that skips the join machinery entirely.
    pub estimate_cache_hits: u64,
    /// Full-query estimate-cache lookups that ran the estimate.
    pub estimate_cache_misses: u64,
    /// `hits / (hits + misses)` of the estimate cache, or 0 before any
    /// lookup.
    pub estimate_cache_hit_rate: f64,
    /// Finished `Ok` estimates published to the estimate cache (degraded,
    /// rejected, and budget-truncated answers are never published).
    pub estimate_cache_inserts: u64,
    /// Estimate-cache entries dropped by segment rotation — its only
    /// eviction path.
    pub estimate_cache_invalidations: u64,
    /// Containment adjacencies built (distinct `(tag, tag, axis)` triples).
    pub adjacency_builds: u64,
    /// Total wall-clock milliseconds spent building adjacencies.
    pub adjacency_build_ms: f64,
    /// Total compatible `(pid_u, pid_v)` pairs counted across all adjacencies.
    pub adjacency_pairs: u64,
    /// Lock (mutex) acquisitions across the engine's shared caches: the
    /// shards of the join and estimate caches. The adjacency index takes
    /// none — its cells are write-once, and a cold key's racers wait on
    /// the key's own cell. The warm-path contract is that this counter
    /// does **not** move between two
    /// [`kernel_stats`](EstimationEngine::kernel_stats) calls with only
    /// warm estimates in between — the adjacency index's filled cells
    /// and the estimators' private cache fronts serve everything
    /// lock-free.
    pub lock_acquisitions: u64,
}

/// Batch-capable estimation engine over a prebuilt [`Summary`].
pub struct EstimationEngine<'s> {
    summary: &'s Summary,
    /// Returned by [`mask_cache`](Self::mask_cache) for existing callers;
    /// no kernel reads it.
    masks: Arc<RelationMaskCache>,
    adjacency: Arc<JoinIndexCache>,
    join_cache: Arc<JoinCache>,
    est_cache: Option<Arc<EstimateCache>>,
    threads: usize,
    kernel: JoinKernel,
    local: Estimator<'s>,
    limits: QueryLimits,
    budget: Budget,
    /// Outcomes of the fallible entry points. They tally on the calling
    /// thread, and the engine is not `Sync`, so a `Cell` suffices.
    outcomes: Cell<OutcomeTally>,
}

impl<'s> EstimationEngine<'s> {
    /// Creates an engine with one worker per available core and the
    /// default estimate-cache capacity.
    pub fn new(summary: &'s Summary) -> Self {
        let masks = Arc::new(RelationMaskCache);
        let adjacency = Arc::new(JoinIndexCache::new());
        let join_cache = Arc::new(JoinCache::with_capacity(DEFAULT_JOIN_CACHE_CAPACITY));
        EstimationEngine {
            summary,
            masks: Arc::clone(&masks),
            adjacency: Arc::clone(&adjacency),
            join_cache: Arc::clone(&join_cache),
            est_cache: None,
            threads: 0,
            kernel: JoinKernel::default(),
            local: Estimator::with_caches(summary, masks, adjacency, Some(join_cache)),
            limits: QueryLimits::unlimited(),
            budget: Budget::unlimited(),
            outcomes: Cell::default(),
        }
        .with_estimate_cache_capacity(DEFAULT_ESTIMATE_CACHE_CAPACITY)
    }

    /// Sets the batch worker count: `0` uses one worker per available
    /// core, `1` runs batches serially, any other value is taken
    /// literally.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets how many finished estimates the full-query estimate cache
    /// retains; `0` disables the skew-aware fast path entirely (every
    /// arrival runs the join machinery, as before this cache existed).
    /// The estimate cache is replaced by an empty one, and the resident
    /// estimator's front with it; the join caches, the policy and the
    /// outcome tallies stay.
    pub fn with_estimate_cache_capacity(mut self, capacity: usize) -> Self {
        self.est_cache = (capacity > 0).then(|| Arc::new(EstimateCache::with_capacity(capacity)));
        self.local = self.local.with_estimate_cache(self.est_cache.clone());
        self
    }

    /// Selects the join kernel every estimator of this engine runs — the
    /// resident one and each batch worker (default:
    /// [`JoinKernel::Bitmap`]). Estimates are bit-identical across
    /// kernels; [`JoinKernel::Naive`] is the reference oracle the tests
    /// and the `perfbench` answer check compare against.
    pub fn with_kernel(mut self, kernel: JoinKernel) -> Self {
        self.kernel = kernel;
        self.local = self.local.with_kernel(kernel);
        self
    }

    /// The configured join kernel.
    pub fn kernel(&self) -> JoinKernel {
        self.kernel
    }

    /// Sets the admission policy the fallible entry points check; the
    /// default admits everything.
    pub fn with_limits(mut self, limits: QueryLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the per-query resource budget the fallible entry points run
    /// under; the default never exhausts.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured admission policy.
    pub fn limits(&self) -> &QueryLimits {
        &self.limits
    }

    /// The summary the engine estimates against.
    pub fn summary(&self) -> &'s Summary {
        self.summary
    }

    /// A relation-mask cache kept for existing callers. No kernel reads
    /// it, so it stays empty.
    pub fn mask_cache(&self) -> &Arc<RelationMaskCache> {
        &self.masks
    }

    /// The shared containment-adjacency index (grows as queries run).
    pub fn adjacency_cache(&self) -> &Arc<JoinIndexCache> {
        &self.adjacency
    }

    /// The workload-level join cache (always present; the `Option`
    /// stays for existing callers).
    pub fn join_cache(&self) -> Option<&Arc<JoinCache>> {
        Some(&self.join_cache)
    }

    /// The full-query estimate cache, if enabled.
    pub fn estimate_cache(&self) -> Option<&Arc<EstimateCache>> {
        self.est_cache.as_ref()
    }

    /// Kernel counters accumulated over this engine's lifetime.
    ///
    /// Flushes the resident estimator's private cache tallies first so
    /// single-query traffic through [`estimate`](Self::estimate) is
    /// visible; a batch worker's estimator flushes its tallies when the
    /// worker drops it, before the batch returns. Reads only atomics and
    /// never takes a shared lock itself, so `lock_acquisitions` deltas
    /// measure the estimates in between.
    pub fn kernel_stats(&self) -> KernelStats {
        self.local.flush_caches();
        let join = &self.join_cache;
        let (est_hits, est_misses, est_rate, est_inserts, est_invalidations, est_locks) =
            match &self.est_cache {
                Some(c) => (
                    c.hits(),
                    c.misses(),
                    c.hit_rate(),
                    c.inserts(),
                    c.evictions(),
                    c.lock_count(),
                ),
                None => (0, 0, 0.0, 0, 0, 0),
            };
        KernelStats {
            join_cache_hits: join.hits(),
            join_cache_misses: join.misses(),
            join_cache_hit_rate: join.hit_rate(),
            estimate_cache_hits: est_hits,
            estimate_cache_misses: est_misses,
            estimate_cache_hit_rate: est_rate,
            estimate_cache_inserts: est_inserts,
            estimate_cache_invalidations: est_invalidations,
            adjacency_builds: self.adjacency.builds(),
            adjacency_build_ms: self.adjacency.build_ms(),
            adjacency_pairs: self.adjacency.pair_total(),
            lock_acquisitions: join.lock_count() + est_locks,
        }
    }

    /// Outcomes of [`try_estimate`](Self::try_estimate) and the batch
    /// entry points over this engine's lifetime, counted through
    /// [`OutcomeTally::record`]; the transport counters stay zero.
    pub fn outcomes(&self) -> OutcomeTally {
        self.outcomes.get()
    }

    /// Counts one outcome into [`outcomes`](Self::outcomes).
    fn tally(&self, outcome: &EstimateOutcome) {
        let mut tally = self.outcomes.get();
        tally.record(&outcome.status);
        self.outcomes.set(tally);
    }

    /// A fresh estimator sharing this engine's caches — for callers that
    /// want to drive queries themselves (e.g. one per thread).
    pub fn estimator(&self) -> Estimator<'s> {
        self.estimator_factory()()
    }

    /// A `Sync` maker of [`estimator`](Self::estimator)s for batch
    /// workers: the engine itself is not `Sync`, because its resident
    /// estimator is not.
    fn estimator_factory(&self) -> impl Fn() -> Estimator<'s> + Sync + '_ {
        let (summary, kernel) = (self.summary, self.kernel);
        let (masks, adjacency) = (&self.masks, &self.adjacency);
        let (join_cache, est_cache) = (&self.join_cache, &self.est_cache);
        move || {
            Estimator::with_caches(
                summary,
                Arc::clone(masks),
                Arc::clone(adjacency),
                Some(Arc::clone(join_cache)),
            )
            .with_estimate_cache(est_cache.clone())
            .with_kernel(kernel)
        }
    }

    /// Estimates one query on the engine's resident estimator.
    pub fn estimate(&self, query: &Query) -> f64 {
        self.local.estimate(query)
    }

    /// Parses and estimates one query string.
    pub fn estimate_str(&self, query: &str) -> Result<f64, QueryParseError> {
        self.local.estimate_str(query)
    }

    /// Estimates every query, fanning across the configured worker count;
    /// `out[i]` is the estimate of `queries[i]`. Bit-identical to calling
    /// [`estimate`](Self::estimate) per query in order.
    ///
    /// Each worker owns one estimator, whose private cache fronts serve
    /// its warm lookups without touching a shared cache line, and fold
    /// their hit/miss tallies into the shared counters when the worker
    /// drops it, before this returns.
    pub fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        xpe_par::par_map_init(
            self.threads,
            queries.len(),
            self.estimator_factory(),
            |est, i| est.estimate(&queries[i]),
        )
    }

    /// Fallible estimation of one query under the engine's admission
    /// policy and budget, tallied into [`outcomes`](Self::outcomes).
    pub fn try_estimate(&self, query: &Query) -> EstimateOutcome {
        let out = self.local.try_estimate(query, &self.limits, &self.budget);
        self.tally(&out);
        out
    }

    /// Fallible batch estimation: every query runs under the engine's
    /// admission policy and budget with **panic isolation** — a panicking
    /// query yields a `Degraded(Panicked)` outcome in its slot while
    /// every other query still completes. No panic escapes this method.
    pub fn try_estimate_batch(&self, queries: &[Query]) -> Vec<EstimateOutcome> {
        let limits = &self.limits;
        let budget = &self.budget;
        self.try_estimate_batch_with(queries, move |est, q| est.try_estimate(q, limits, budget))
    }

    /// The isolation seam under [`try_estimate_batch`](Self::try_estimate_batch):
    /// fans `queries` across the configured workers and runs `f` per
    /// query on each worker's estimator under the panic guard the daemon
    /// also runs every estimate under. A caught panic
    /// becomes a `Degraded(Panicked)` outcome whose value is the query's
    /// `f(tag)` upper bound; the worker's estimator is dropped and
    /// rebuilt, so later queries on that worker never see mid-mutation
    /// state. Every outcome is tallied into [`outcomes`](Self::outcomes)
    /// on the calling thread. The fault harness injects through `f` to
    /// prove those properties hold.
    pub fn try_estimate_batch_with<F>(&self, queries: &[Query], f: F) -> Vec<EstimateOutcome>
    where
        F: Fn(&Estimator<'s>, &Query) -> EstimateOutcome + Sync,
    {
        let make = self.estimator_factory();
        let outcomes = xpe_par::par_map_init(
            self.threads,
            queries.len(),
            || None,
            |slot, i| isolated_estimate(slot, &make, &queries[i], &f),
        );
        for out in &outcomes {
            self.tally(out);
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::tests::hushed;
    use xpe_synopsis::SummaryConfig;
    use xpe_xpath::parse_query;

    const QUERIES: &[&str] = &[
        "//A//C",
        "//A[/C/F]/B/D",
        "//C[/$E]/F",
        "/Root//E",
        "//A[/C[/F]/folls::$B/D]",
        "//A/Zebra",
        "//D/A",
        "//A[/C/foll::$B]",
    ];

    fn summary() -> Summary {
        Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            SummaryConfig::default(),
        )
    }

    #[test]
    fn batch_matches_serial_estimates_bitwise() {
        let s = summary();
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(64)
            .map(|q| parse_query(q).unwrap())
            .collect();
        let reference = Estimator::new(&s);
        let serial: Vec<f64> = queries.iter().map(|q| reference.estimate(q)).collect();
        for threads in [0, 1, 2, 4] {
            let engine = EstimationEngine::new(&s).with_threads(threads);
            let batch = engine.estimate_batch(&queries);
            assert_eq!(
                batch.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn engine_estimate_agrees_with_plain_estimator() {
        let s = summary();
        let engine = EstimationEngine::new(&s);
        let est = Estimator::new(&s);
        for q in QUERIES {
            assert_eq!(
                engine.estimate_str(q).unwrap().to_bits(),
                est.estimate_str(q).unwrap().to_bits(),
                "{q}"
            );
        }
    }

    #[test]
    fn bitmap_kernel_matches_the_naive_oracle_bitwise() {
        let s = summary();
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(32)
            .map(|q| parse_query(q).unwrap())
            .collect();
        let reference: Vec<u64> = EstimationEngine::new(&s)
            .with_kernel(JoinKernel::Naive)
            .estimate_batch(&queries)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for threads in [1, 2] {
            let engine = EstimationEngine::new(&s).with_threads(threads);
            assert_eq!(engine.kernel(), JoinKernel::Bitmap);
            let got: Vec<u64> = engine
                .estimate_batch(&queries)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, reference, "threads={threads}");
        }
        // Resizing the estimate cache preserves the kernel selection.
        let resized = EstimationEngine::new(&s)
            .with_kernel(JoinKernel::Naive)
            .with_estimate_cache_capacity(8);
        assert_eq!(resized.kernel(), JoinKernel::Naive);
    }

    #[test]
    fn empty_batch_is_empty() {
        let s = summary();
        let engine = EstimationEngine::new(&s);
        assert!(engine.estimate_batch(&[]).is_empty());
    }

    #[test]
    fn join_cache_is_shared_across_batch_workers() {
        let s = summary();
        let engine = EstimationEngine::new(&s).with_threads(2);
        // Repeated skeletons across the batch must hit the shared cache.
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(48)
            .map(|q| parse_query(q).unwrap())
            .collect();
        engine.estimate_batch(&queries);
        let stats = engine.kernel_stats();
        assert!(stats.join_cache_hits > 0, "{stats:?}");
        assert!(stats.join_cache_hit_rate > 0.0);
        // The adjacency index builds each key once, however many
        // workers race on it: the same batch makes the same builds at
        // one worker and at two, one per distinct key.
        assert!(stats.adjacency_builds > 0, "{stats:?}");
        let serial = EstimationEngine::new(&s).with_threads(1);
        serial.estimate_batch(&queries);
        assert_eq!(
            stats.adjacency_builds,
            serial.kernel_stats().adjacency_builds,
            "{stats:?}"
        );
    }

    /// The headline concurrency contract: once every cache layer is warm,
    /// an estimate acquires **zero** shared locks — estimate and join
    /// lookups are served by the estimator's private cache fronts,
    /// adjacencies and seeds by the index's filled cells, and nothing
    /// gets published.
    #[test]
    fn warm_estimates_take_zero_locks() {
        let s = summary();
        let engine = EstimationEngine::new(&s);
        let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
        // Cold pass warms every layer through the resident estimator.
        for q in &queries {
            engine.estimate(q);
        }
        // This folds the cold pass's hit/miss tallies in and reads the
        // lock tally lock-free.
        let before = engine.kernel_stats();
        for q in &queries {
            engine.estimate(q);
        }
        let after = engine.kernel_stats();
        assert_eq!(
            after.lock_acquisitions, before.lock_acquisitions,
            "warm estimates must not take any shared-cache lock"
        );
        assert!(
            after.estimate_cache_hits > before.estimate_cache_hits,
            "the warm pass was served by the full-query cache"
        );
        assert_eq!(
            after.estimate_cache_misses, before.estimate_cache_misses,
            "nothing in the warm pass missed"
        );
    }

    /// The zero-lock warm-path contract holds one layer down as well:
    /// with the full-query cache disabled, warm traffic is served by the
    /// join cache through the estimator's private front without locking.
    #[test]
    fn warm_estimates_without_the_estimate_cache_still_take_zero_locks() {
        let s = summary();
        let engine = EstimationEngine::new(&s).with_estimate_cache_capacity(0);
        assert!(engine.estimate_cache().is_none());
        let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
        for q in &queries {
            engine.estimate(q);
        }
        let before = engine.kernel_stats();
        for q in &queries {
            engine.estimate(q);
        }
        let after = engine.kernel_stats();
        assert_eq!(
            after.lock_acquisitions, before.lock_acquisitions,
            "warm estimates must not take any shared-cache lock"
        );
        assert!(
            after.join_cache_hits > before.join_cache_hits,
            "the warm pass was served by the join cache"
        );
        assert_eq!(after.estimate_cache_hits, 0);
        assert_eq!(after.estimate_cache_misses, 0);
    }

    /// A cold engine over distinct queries inserts each one into the
    /// estimate cache exactly once and never hits it — at any worker
    /// count. The benchmark's `engine_unique` check and CI's workload
    /// smoke both rely on this.
    #[test]
    fn fresh_engine_inserts_each_distinct_query_once_and_never_hits() {
        let s = summary();
        let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
        for threads in [1, 2] {
            let engine = EstimationEngine::new(&s).with_threads(threads);
            engine.estimate_batch(&queries);
            let stats = engine.kernel_stats();
            assert_eq!(
                stats.estimate_cache_inserts,
                queries.len() as u64,
                "threads={threads}"
            );
            assert_eq!(stats.estimate_cache_hits, 0, "threads={threads}");
            assert_eq!(
                stats.estimate_cache_misses,
                queries.len() as u64,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn try_batch_matches_estimate_batch_when_unconstrained() {
        let s = summary();
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(32)
            .map(|q| parse_query(q).unwrap())
            .collect();
        for threads in [1, 4] {
            let engine = EstimationEngine::new(&s).with_threads(threads);
            let plain = engine.estimate_batch(&queries);
            let outcomes = engine.try_estimate_batch(&queries);
            assert_eq!(outcomes.len(), plain.len());
            for (out, v) in outcomes.iter().zip(&plain) {
                assert_eq!(out.status, crate::EstimateStatus::Ok);
                assert_eq!(out.value.to_bits(), v.to_bits());
            }
            let stats = engine.outcomes();
            assert_eq!(stats.ok, queries.len() as u64);
            assert_eq!(stats.degraded, 0);
            assert_eq!(stats.rejected, 0);
            assert_eq!(stats.panics, 0);
        }
    }

    #[test]
    fn one_poisoned_query_degrades_only_its_slot() {
        hushed(|| {
            let s = summary();
            let queries: Vec<Query> = QUERIES
                .iter()
                .cycle()
                .take(24)
                .map(|q| parse_query(q).unwrap())
                .collect();
            let poisoned = 7usize;
            for threads in [1, 4] {
                let engine = EstimationEngine::new(&s).with_threads(threads);
                let serial = engine.estimate_batch(&queries);
                let outcomes = engine.try_estimate_batch_with(&queries, |est, q| {
                    if std::ptr::eq(q, &queries[poisoned]) {
                        panic!("injected poison");
                    }
                    est.try_estimate(
                        q,
                        &crate::QueryLimits::unlimited(),
                        &crate::Budget::unlimited(),
                    )
                });
                assert_eq!(outcomes.len(), queries.len());
                for (i, out) in outcomes.iter().enumerate() {
                    if i == poisoned {
                        match &out.status {
                            crate::EstimateStatus::Degraded {
                                reason: crate::DegradedReason::Panicked { message },
                            } => assert!(message.contains("injected poison")),
                            other => panic!("slot {i}: expected panic outcome, got {other:?}"),
                        }
                        // Even the poisoned slot reports the f(tag) bound.
                        let cap = s.tag_total(&queries[i].node(queries[i].target()).tag);
                        assert_eq!(out.value, cap);
                    } else {
                        assert_eq!(out.status, crate::EstimateStatus::Ok, "slot {i}");
                        assert_eq!(
                            out.value.to_bits(),
                            serial[i].to_bits(),
                            "slot {i} must be bit-identical despite the poisoned neighbor"
                        );
                    }
                }
                let stats = engine.outcomes();
                assert_eq!(stats.panics, 1, "threads={threads}");
                assert_eq!(stats.degraded, 1);
            }
        });
    }

    #[test]
    fn no_panic_escapes_try_estimate_batch() {
        hushed(|| {
            let s = summary();
            let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
            let engine = EstimationEngine::new(&s).with_threads(2);
            let escaped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.try_estimate_batch_with(&queries, |_, _| panic!("every query dies"))
            }));
            let outcomes = escaped.expect("try_estimate_batch must never panic");
            assert_eq!(outcomes.len(), queries.len());
            assert!(outcomes.iter().all(|o| matches!(
                o.status,
                crate::EstimateStatus::Degraded {
                    reason: crate::DegradedReason::Panicked { .. }
                }
            )));
            assert_eq!(engine.outcomes().panics, queries.len() as u64);
        });
    }

    #[test]
    fn engine_limits_and_budget_flow_through_batch() {
        let s = summary();
        let engine = EstimationEngine::new(&s)
            .with_threads(2)
            .with_limits(crate::QueryLimits { max_nodes: Some(2) });
        let queries: Vec<Query> = ["//A//C", "//A[/C/F]/B/D"]
            .iter()
            .map(|q| parse_query(q).unwrap())
            .collect();
        let outcomes = engine.try_estimate_batch(&queries);
        assert_eq!(outcomes[0].status, crate::EstimateStatus::Ok);
        assert!(outcomes[1].status.is_rejected(), "{:?}", outcomes[1]);
        let stats = engine.outcomes();
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.rejected, 1);
        // Resizing the estimate cache keeps the policy.
        let resized = engine.with_estimate_cache_capacity(8);
        assert_eq!(resized.limits().max_nodes, Some(2));
    }

    #[test]
    fn starved_budget_degrades_but_never_pollutes_the_join_cache() {
        let s = summary();
        let engine = EstimationEngine::new(&s)
            .with_threads(1)
            .with_budget(crate::Budget {
                deadline: None,
                max_join_edges: Some(0),
            });
        let query = parse_query("//A[/C/F]/B/D").unwrap();
        let out = engine.try_estimate(&query);
        assert_eq!(
            out.status,
            crate::EstimateStatus::Degraded {
                reason: crate::DegradedReason::JoinBudget
            }
        );
        // The truncated join was never published: a healthy engine
        // sharing nothing still computes the exact value, and this
        // engine's own infallible path is unaffected by the stale cache.
        let exact = Estimator::new(&s).estimate(&query);
        assert_eq!(engine.estimate(&query).to_bits(), exact.to_bits());
    }

    #[test]
    fn cached_rerun_is_bitwise_stable() {
        // A warm join cache serves results computed in the first run; the
        // second run must still be bit-identical to the first. The
        // full-query cache is disabled so the rerun actually exercises
        // the join layer instead of being served above it.
        let s = summary();
        let engine = EstimationEngine::new(&s)
            .with_threads(2)
            .with_estimate_cache_capacity(0);
        let queries: Vec<Query> = QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
        let first = engine.estimate_batch(&queries);
        let second = engine.estimate_batch(&queries);
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert!(engine.kernel_stats().join_cache_hits > 0);
    }

    #[test]
    fn estimate_cache_serves_bit_identical_values() {
        // Cached reruns across every entry point agree bitwise with an
        // engine that has the full-query cache disabled.
        let s = summary();
        let queries: Vec<Query> = QUERIES
            .iter()
            .cycle()
            .take(32)
            .map(|q| parse_query(q).unwrap())
            .collect();
        for threads in [1, 2] {
            let cached = EstimationEngine::new(&s).with_threads(threads);
            let uncached = EstimationEngine::new(&s)
                .with_threads(threads)
                .with_estimate_cache_capacity(0);
            let cold = cached.estimate_batch(&queries);
            let warm = cached.estimate_batch(&queries);
            let plain = uncached.estimate_batch(&queries);
            assert_eq!(
                cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}: cold cached pass"
            );
            assert_eq!(
                warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}: warm cached pass"
            );
            let stats = cached.kernel_stats();
            assert!(stats.estimate_cache_hits > 0, "{stats:?}");
            assert!(stats.estimate_cache_inserts > 0, "{stats:?}");
            assert!(stats.estimate_cache_hit_rate > 0.0);
        }
    }

    #[test]
    fn estimate_cache_capacity_keeps_outcome_counters_and_policy() {
        let s = summary();
        let engine = EstimationEngine::new(&s)
            .with_kernel(JoinKernel::Naive)
            .with_limits(crate::QueryLimits { max_nodes: Some(8) });
        let q = parse_query("//A//C").unwrap();
        engine.try_estimate(&q);
        engine.try_estimate(&q);
        let resized = engine.with_estimate_cache_capacity(64);
        assert_eq!(
            resized.outcomes().ok,
            2,
            "lifetime outcome tallies survive a cache capacity change"
        );
        resized.try_estimate(&q);
        assert_eq!(resized.outcomes().ok, 3);
        assert_eq!(resized.kernel(), JoinKernel::Naive);
        assert_eq!(resized.limits().max_nodes, Some(8));
        assert_eq!(resized.estimate_cache().unwrap().capacity(), 64);
        assert_eq!(
            resized.join_cache().unwrap().capacity(),
            DEFAULT_JOIN_CACHE_CAPACITY
        );
    }
}
