//! Figure 12: order-axis query error, target in the branch part.
//! Computed by [`xpe_bench::paper::fig12`].

use xpe_bench::{load_all, paper, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!(
        "Figure 12 reproduction (scale = {}; target in branch part)",
        ctx.scale
    );
    paper::fig12(&load_all(&ctx), ctx.jobs);
}
