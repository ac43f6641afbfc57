//! Table 4: path construction cost, ours vs XSketch at a matched budget.
//! Computed by [`xpe_bench::paper::table4`].

use xpe_bench::{load_all, paper, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!("Table 4 reproduction (scale = {})", ctx.scale);
    paper::table4(&load_all(&ctx));
}
