//! Figure 9: p- and o-histogram memory vs intra-bucket variance.
//! Computed by [`xpe_bench::paper::fig9`].

use xpe_bench::{load_all, paper, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!("Figure 9 reproduction (scale = {})", ctx.scale);
    paper::fig9(&load_all(&ctx));
}
