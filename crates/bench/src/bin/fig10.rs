//! Figure 10: error of queries without order axes vs p-histogram memory.
//! Computed by [`xpe_bench::paper::fig10`].

use xpe_bench::{load_all, paper, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!("Figure 10 reproduction (scale = {})", ctx.scale);
    paper::fig10(&load_all(&ctx), ctx.jobs);
}
