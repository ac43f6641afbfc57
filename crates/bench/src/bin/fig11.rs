//! Figure 11: p-histogram vs XSketch error as a function of total memory.
//! Computed by [`xpe_bench::paper::fig11`].

use xpe_bench::{load_all, paper, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!("Figure 11 reproduction (scale = {})", ctx.scale);
    paper::fig11(&load_all(&ctx), ctx.jobs);
}
