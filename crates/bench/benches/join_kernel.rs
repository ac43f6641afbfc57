//! Join-kernel microbenchmarks: the naive reference join against the
//! bitmap kernel, isolated from the estimation formulas.
//!
//! One iteration runs the raw path join over every workload query on an
//! XMark-scale summary (the recursive, large-vocabulary dataset where
//! candidate lists are longest):
//!
//! * `naive` — [`path_join`]: fresh relation masks, nested-loop
//!   containment tests, all edges swept per fixpoint pass;
//! * `bitmap_cold` / `bitmap_warm` — the bit-parallel kernel
//!   ([`path_join_bitmap`]): dense pid-index bitmaps for the surviving
//!   sets, adjacency-row semi-joins, per-(tag, axis) candidate screens,
//!   worklist fixpoint — cold builds every adjacency inside the timed
//!   region (what the first workload pass pays), warm is the steady
//!   state with a warm scratch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use xpe_core::{path_join, path_join_bitmap, JoinScratch, QueryPlan};
use xpe_datagen::{generate_workload, Dataset, DatasetSpec, WorkloadConfig};
use xpe_pathid::{JoinIndexCache, Labeling};
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

fn join_all_bitmap(
    summary: &Summary,
    queries: &[Query],
    index: &JoinIndexCache,
    scratch: &mut JoinScratch,
) -> f64 {
    let mut sum = 0.0;
    for q in queries {
        let plan = QueryPlan::build(summary, q);
        let j = path_join_bitmap(summary, &plan, index, Some(scratch), None);
        sum += j.frequency(q.target());
    }
    sum
}

fn bench_join_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_kernel");
    group.sample_size(10);
    let (summary, queries) = workload_queries(Dataset::XMark);
    assert!(!queries.is_empty());
    let label = format!("xmark_x{}", queries.len());

    group.bench_function(BenchmarkId::new("naive", &label), |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| path_join(&summary, q).frequency(q.target()))
                .sum::<f64>()
        })
    });
    group.bench_function(BenchmarkId::new("bitmap_cold", &label), |b| {
        let mut scratch = JoinScratch::new();
        b.iter(|| {
            let index = JoinIndexCache::new();
            join_all_bitmap(&summary, &queries, &index, &mut scratch)
        })
    });
    group.bench_function(BenchmarkId::new("bitmap_warm", &label), |b| {
        let index = JoinIndexCache::new();
        let mut scratch = JoinScratch::new();
        join_all_bitmap(&summary, &queries, &index, &mut scratch);
        b.iter(|| join_all_bitmap(&summary, &queries, &index, &mut scratch))
    });
    group.finish();
}

criterion_group!(benches, bench_join_kernel);
criterion_main!(benches);
