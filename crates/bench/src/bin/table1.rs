//! Table 1: dataset characteristics, ours vs the paper's corpora.
//! Computed by [`xpe_bench::paper::table1`].

use xpe_bench::{load_all, paper, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!(
        "Table 1 reproduction (scale = {}, paper scale = 1.0)",
        ctx.scale
    );
    paper::table1(&load_all(&ctx));
}
