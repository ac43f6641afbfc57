//! Equivalence property of the performance layer: parallelism and
//! caching must never change results.
//!
//! `EstimationEngine::estimate_batch` returns bit-identical estimates to a
//! serial `Estimator::estimate` loop, at any worker count, with cold or
//! warm caches.

use proptest::prelude::*;

use xpe::prelude::*;

fn random_doc(seed: u64) -> Document {
    DatasetSpec {
        dataset: Dataset::SSPlays,
        scale: 0.01,
        seed,
    }
    .generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched estimation is bit-identical to the serial per-query loop.
    #[test]
    fn estimate_batch_matches_serial_loop(seed in 0u64..1024) {
        let doc = random_doc(seed);
        let labeling = Labeling::compute(&doc);
        let workload = xpe::datagen::generate_workload(
            &doc,
            &labeling.encoding,
            &WorkloadConfig {
                seed,
                simple_attempts: 30,
                branch_attempts: 30,
                ..WorkloadConfig::default()
            },
        );
        let queries: Vec<Query> = workload
            .simple
            .iter()
            .chain(&workload.branch)
            .chain(&workload.order_branch)
            .chain(&workload.order_trunk)
            .map(|c| c.query.clone())
            .collect();
        let summary = Summary::build(
            &doc,
            SummaryConfig { p_variance: 1.0, o_variance: 1.0, },
        );
        let est = Estimator::new(&summary);
        let serial: Vec<u64> = queries.iter().map(|q| est.estimate(q).to_bits()).collect();
        for threads in [0usize, 1, 3] {
            let engine = EstimationEngine::new(&summary).with_threads(threads);
            // Two runs per engine: cold caches, then warm.
            for run in 0..2 {
                let batch: Vec<u64> = engine
                    .estimate_batch(&queries)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
                prop_assert!(
                    batch == serial,
                    "threads={} run={} diverged over {} queries",
                    threads, run, queries.len()
                );
            }
        }
    }
}
