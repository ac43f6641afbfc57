//! End-to-end workload study on DBLP-like data: generate the corpus, the
//! §7 query workload, sweep the summary variance, and report accuracy per
//! query class — a miniature of the paper's Figures 10 and 12 for one
//! dataset, through the public API only.
//!
//! Run with: `cargo run --release --example dblp_analysis`

use xpe::datagen::generate_workload;
use xpe::prelude::*;

fn main() {
    let doc = DatasetSpec {
        dataset: Dataset::Dblp,
        scale: 0.02,
        seed: 1,
    }
    .generate();
    let labeling = Labeling::compute(&doc);
    println!(
        "DBLP-like corpus: {} elements, {} distinct paths, {} distinct pids",
        doc.len(),
        labeling.encoding.len(),
        labeling.interner.len()
    );

    let workload = generate_workload(
        &doc,
        &labeling.encoding,
        &WorkloadConfig {
            simple_attempts: 800,
            branch_attempts: 800,
            ..WorkloadConfig::default()
        },
    );
    println!(
        "workload: {} simple, {} branch, {} order (branch target), {} order (trunk target)",
        workload.simple.len(),
        workload.branch.len(),
        workload.order_branch.len(),
        workload.order_trunk.len()
    );

    println!(
        "\n{:>5} {:>5} {:>10} {:>10} {:>11} {:>11} {:>11}",
        "p.var", "o.var", "bytes", "simple", "branch", "order/brch", "order/trnk"
    );
    for (pv, ov) in [(0.0, 0.0), (0.0, 4.0), (1.0, 4.0), (5.0, 8.0), (10.0, 14.0)] {
        let summary = Summary::build(
            &doc,
            SummaryConfig {
                p_variance: pv,
                o_variance: ov,
            },
        );
        let est = Estimator::new(&summary);
        let mean = |cases: &[xpe::datagen::QueryCase]| {
            mean_relative_error(cases.iter().map(|c| (est.estimate(&c.query), c.actual)))
                .unwrap_or(f64::NAN)
        };
        println!(
            "{pv:>5} {ov:>5} {:>10} {:>10.4} {:>11.4} {:>11.4} {:>11.4}",
            summary.sizes().total(),
            mean(&workload.simple),
            mean(&workload.branch),
            mean(&workload.order_branch),
            mean(&workload.order_trunk),
        );
    }
    println!(
        "\nNote the first row: at variance 0 simple queries are exact\n\
         (Theorem 4.1) and branch/order errors stay in the low percent —\n\
         the paper's headline result."
    );
}
