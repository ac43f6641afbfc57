//! Extension experiment: all four estimators side by side on the simple
//! query workload — the proposed path-id method and the three comparator
//! families of the paper's §8 (XSketch, Markov path tables, position
//! histograms) — plus what fraction of the *full* workload each model can
//! answer at all.

use xpe_bench::{
    err, kb, load, print_table, summary_at, workload_error, workload_error_with, ExpContext,
};
use xpe_core::{mean_relative_error, EstimationEngine};
use xpe_datagen::{Dataset, QueryCase};
use xpe_markov::MarkovEstimator;
use xpe_poshist::PositionEstimator;
use xpe_xsketch::XSketch;

fn main() {
    let ctx = ExpContext::from_env();
    println!(
        "Baseline comparison on simple queries (scale = {})",
        ctx.scale
    );
    let mut rows = Vec::new();
    for ds in Dataset::ALL {
        let b = load(&ctx, ds);
        let simple = &b.workload.simple;
        let total_queries = simple.len()
            + b.workload.branch.len()
            + b.workload.order_branch.len()
            + b.workload.order_trunk.len();
        let all: Vec<&QueryCase> = b
            .workload
            .simple
            .iter()
            .chain(&b.workload.branch)
            .chain(&b.workload.order_branch)
            .chain(&b.workload.order_trunk)
            .collect();

        // Proposed method at variance 0, scored through the batch engine.
        let s = summary_at(&b, 0.0, 0.0);
        let engine = EstimationEngine::new(&s).with_threads(ctx.jobs);
        rows.push(vec![
            ds.name().to_owned(),
            "proposed (v=0)".to_owned(),
            kb(s.sizes().path_total() + s.sizes().o_histograms),
            err(workload_error(&engine, simple)),
            format!("{total_queries}/{total_queries}"),
        ]);

        // XSketch at the matched budget.
        let sketch = XSketch::build(&b.doc, s.sizes().path_total());
        let e = workload_error_with(simple, |c| sketch.estimate(&c.query));
        let covered = all
            .iter()
            .filter(|c| !c.query.has_order_constraints())
            .count();
        rows.push(vec![
            ds.name().to_owned(),
            "xsketch".to_owned(),
            kb(sketch.size_bytes()),
            err(e),
            format!("{covered}/{total_queries}"),
        ]);

        // Markov path table, k = 2.
        let markov = MarkovEstimator::build(&b.doc, 2);
        let e = mean_relative_error(
            simple
                .iter()
                .filter_map(|c| markov.estimate(&c.query).map(|v| (v, c.actual))),
        )
        .unwrap_or(f64::NAN);
        let covered = all
            .iter()
            .filter(|c| markov.estimate(&c.query).is_some())
            .count();
        rows.push(vec![
            ds.name().to_owned(),
            "markov (k=2)".to_owned(),
            kb(markov.table().size_bytes()),
            err(e),
            format!("{covered}/{total_queries}"),
        ]);

        // Position histograms, 32×32 grid.
        let pos = PositionEstimator::build(&b.doc, 32);
        let e = mean_relative_error(
            simple
                .iter()
                .filter_map(|c| pos.estimate(&c.query).map(|v| (v, c.actual))),
        )
        .unwrap_or(f64::NAN);
        let covered = all
            .iter()
            .filter(|c| pos.estimate(&c.query).is_some())
            .count();
        rows.push(vec![
            ds.name().to_owned(),
            "poshist (32²)".to_owned(),
            kb(pos.size_bytes()),
            err(e),
            format!("{covered}/{total_queries}"),
        ]);
    }
    print_table(
        "Simple-query error and full-workload coverage per estimator",
        &[
            "Dataset",
            "Estimator",
            "Size(KB)",
            "Err(simple)",
            "Coverage",
        ],
        &rows,
    );
    println!(
        "\n  Position histograms conflate / with // (the paper's §8 critique)\n  \
         and Markov tables cover only simple paths; neither answers order\n  \
         queries. The proposed method covers everything."
    );
}
