//! Extension experiment: error *distributions* (median / p90 / max) per
//! dataset and query class at variance 0. The paper reports averages;
//! optimizers care about tails, and this profile shows where the
//! assumptions (Node Independence, Order Uniformity, recursion-blind pid
//! joins) concentrate their damage.

use xpe_bench::{load, print_table, ExpContext};
use xpe_core::{ErrorStats, EstimationEngine};
use xpe_datagen::{Dataset, QueryCase};
use xpe_xpath::Query;

fn main() {
    let ctx = ExpContext::from_env();
    println!("Error profiles at variance 0 (scale = {})", ctx.scale);
    let mut rows = Vec::new();
    for ds in Dataset::ALL {
        let b = load(&ctx, ds);
        let s = xpe_bench::summary_at(&b, 0.0, 0.0);
        let engine = EstimationEngine::new(&s).with_threads(ctx.jobs);
        let classes: [(&str, &[QueryCase]); 4] = [
            ("simple", &b.workload.simple),
            ("branch", &b.workload.branch),
            ("order/branch", &b.workload.order_branch),
            ("order/trunk", &b.workload.order_trunk),
        ];
        for (class, cases) in classes {
            let queries: Vec<Query> = cases.iter().map(|c| c.query.clone()).collect();
            let estimates = engine.estimate_batch(&queries);
            let Some(stats) =
                ErrorStats::compute(estimates.into_iter().zip(cases.iter().map(|c| c.actual)))
            else {
                continue;
            };
            rows.push(vec![
                ds.name().to_owned(),
                class.to_owned(),
                stats.count.to_string(),
                format!("{:.3}", stats.mean),
                format!("{:.3}", stats.median),
                format!("{:.3}", stats.p90),
                format!("{:.2}", stats.max),
            ]);
        }
    }
    print_table(
        "Relative-error distribution per class (v = 0)",
        &["Dataset", "Class", "N", "Mean", "Median", "P90", "Max"],
        &rows,
    );
    println!(
        "\n  Reading: a near-zero median with a large max means the residual\n  \
         is concentrated in a few pathological queries (recursive paths on\n  \
         XMark), not spread across the workload."
    );
}
