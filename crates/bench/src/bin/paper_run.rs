//! One-shot reproduction driver: regenerates every table and figure of the
//! paper in sequence, printing to stdout the same tables as the
//! `tableN`/`figN` binaries in turn, but from one set of dataset bundles,
//! so a full sweep is much faster.
//!
//! ```sh
//! XPE_SCALE=0.1 XPE_ATTEMPTS=4000 cargo run --release -p xpe-bench --bin paper_run
//! ```

use std::time::Instant;

use xpe_bench::{load_all, paper, secs, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!(
        "Full reproduction run: scale = {}, attempts = {}, seed = {}, jobs = {}",
        ctx.scale, ctx.attempts, ctx.seed, ctx.jobs
    );
    let t0 = Instant::now();
    let bundles = load_all(&ctx);
    println!(
        "datasets + workloads ready in {} (workload eval: {})",
        secs(t0.elapsed().as_secs_f64()),
        secs(bundles.iter().map(|b| b.workload_secs).sum())
    );

    paper::table1(&bundles);
    paper::table2(&bundles);
    paper::table3(&bundles);
    paper::table4(&bundles);
    paper::table5(&bundles);
    paper::fig9(&bundles);
    paper::fig10(&bundles, ctx.jobs);
    paper::fig11(&bundles, ctx.jobs);
    paper::fig12(&bundles, ctx.jobs);
    paper::fig13(&bundles, ctx.jobs);
    println!("\ntotal wall time: {}", secs(t0.elapsed().as_secs_f64()));
}
