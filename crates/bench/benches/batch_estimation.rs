//! Batched-estimation benchmarks: the `EstimationEngine` against the
//! serial per-query loop it replaces.
//!
//! One iteration processes the *whole* workload (≥500 queries), so the
//! numbers compare throughput shapes directly:
//!
//! * `serial_loop` — a plain `Estimator`, one query at a time (each run
//!   still benefits from its own adjacency memo and scratch);
//! * `batch_jobs1` — the engine pinned to one worker: the batching
//!   machinery without parallelism;
//! * `batch_auto` — the engine with one worker per core;
//! * `cold_cache` / `warm_cache` — engine construction inside vs outside
//!   the timed region, isolating what the engine's caches buy once warm
//!   (a warm batch is served from the full-query estimate cache).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use xpe_core::{EstimationEngine, Estimator};
use xpe_datagen::{generate_workload, Dataset, DatasetSpec, WorkloadConfig};
use xpe_pathid::Labeling;
use xpe_synopsis::{Summary, SummaryConfig};
use xpe_xpath::Query;

const SCALE: f64 = 0.02;

fn workload_queries(ds: Dataset) -> (Summary, Vec<Query>) {
    let doc = DatasetSpec {
        dataset: ds,
        scale: SCALE,
        seed: 7,
    }
    .generate();
    let labeling = Labeling::compute(&doc);
    let workload = generate_workload(
        &doc,
        &labeling.encoding,
        &WorkloadConfig {
            simple_attempts: 600,
            branch_attempts: 600,
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
    (Summary::build(&doc, SummaryConfig::default()), queries)
}

fn bench_batch_estimation(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_estimation");
    group.sample_size(10);
    for ds in Dataset::ALL {
        let (summary, queries) = workload_queries(ds);
        if queries.is_empty() {
            continue;
        }
        let label = format!("{}x{}", ds.name(), queries.len());

        group.bench_function(BenchmarkId::new("serial_loop", &label), |b| {
            b.iter(|| {
                let est = Estimator::new(&summary);
                queries.iter().map(|q| est.estimate(q)).sum::<f64>()
            })
        });
        group.bench_function(BenchmarkId::new("batch_jobs1", &label), |b| {
            let engine = EstimationEngine::new(&summary).with_threads(1);
            b.iter(|| engine.estimate_batch(&queries).iter().sum::<f64>())
        });
        group.bench_function(BenchmarkId::new("batch_auto", &label), |b| {
            let engine = EstimationEngine::new(&summary).with_threads(0);
            b.iter(|| engine.estimate_batch(&queries).iter().sum::<f64>())
        });
        group.bench_function(BenchmarkId::new("cold_cache", &label), |b| {
            b.iter(|| {
                let engine = EstimationEngine::new(&summary).with_threads(1);
                engine.estimate_batch(&queries).iter().sum::<f64>()
            })
        });
        group.bench_function(BenchmarkId::new("warm_cache", &label), |b| {
            let engine = EstimationEngine::new(&summary).with_threads(1);
            // Prime the estimate, join and adjacency caches.
            engine.estimate_batch(&queries);
            b.iter(|| engine.estimate_batch(&queries).iter().sum::<f64>())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_estimation);
criterion_main!(benches);
