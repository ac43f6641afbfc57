//! Figure 13: order-axis query error, target in the trunk part.
//! Computed by [`xpe_bench::paper::fig13`].

use xpe_bench::{load_all, paper, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!(
        "Figure 13 reproduction (scale = {}; target in trunk part)",
        ctx.scale
    );
    paper::fig13(&load_all(&ctx), ctx.jobs);
}
