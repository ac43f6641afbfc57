//! Table 5: order-data construction cost.
//! Computed by [`xpe_bench::paper::table5`].

use xpe_bench::{load_all, paper, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!("Table 5 reproduction (scale = {})", ctx.scale);
    paper::table5(&load_all(&ctx));
}
