//! Extension experiment (beyond the paper's figures): the proposed
//! path-id method versus the k-order Markov path table (§8's [10, 11]) on
//! simple queries, plus a coverage column showing how much of the full
//! workload each method can answer at all — the Markov model cannot
//! estimate branch or order queries, which is the gap the paper targets.

use xpe_bench::{err, kb, load, print_table, summary_at, workload_error, ExpContext};
use xpe_core::{mean_relative_error, EstimationEngine};
use xpe_datagen::Dataset;
use xpe_markov::MarkovEstimator;

fn main() {
    let ctx = ExpContext::from_env();
    println!("Markov baseline comparison (scale = {})", ctx.scale);
    let mut rows = Vec::new();
    for ds in Dataset::ALL {
        let b = load(&ctx, ds);
        let s = summary_at(&b, 0.0, 0.0);
        let engine = EstimationEngine::new(&s).with_threads(ctx.jobs);
        let ours_simple = workload_error(&engine, &b.workload.simple);

        for k in [1usize, 2, 3] {
            let markov = MarkovEstimator::build(&b.doc, k);
            let err_simple = mean_relative_error(
                b.workload
                    .simple
                    .iter()
                    .filter_map(|c| markov.estimate(&c.query).map(|e| (e, c.actual))),
            )
            .unwrap_or(f64::NAN);
            let total = b.workload.simple.len()
                + b.workload.branch.len()
                + b.workload.order_branch.len()
                + b.workload.order_trunk.len();
            let covered = b
                .workload
                .simple
                .iter()
                .chain(&b.workload.branch)
                .chain(&b.workload.order_branch)
                .chain(&b.workload.order_trunk)
                .filter(|c| markov.estimate(&c.query).is_some())
                .count();
            rows.push(vec![
                ds.name().to_owned(),
                format!("k={k}"),
                kb(markov.table().size_bytes()),
                err(err_simple),
                err(ours_simple),
                format!("{}/{}", covered, total),
            ]);
        }
    }
    print_table(
        "Proposed (v=0) vs Markov path table, simple queries",
        &[
            "Dataset",
            "Order",
            "Markov(KB)",
            "Err(markov)",
            "Err(ours)",
            "MarkovCoverage",
        ],
        &rows,
    );
    println!(
        "\n  The Markov table only covers simple path queries (the coverage\n  \
         column); branch and order-axis queries need the paper's machinery."
    );
}
