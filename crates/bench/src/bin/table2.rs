//! Table 2: query workload counts per class, ours vs the paper's.
//! Computed by [`xpe_bench::paper::table2`].

use xpe_bench::{load_all, paper, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!(
        "Table 2 reproduction (scale = {}, {} attempts per class; paper: 4000)",
        ctx.scale, ctx.attempts
    );
    paper::table2(&load_all(&ctx));
}
