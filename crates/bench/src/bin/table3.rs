//! Table 3: encoding-table, pid-table and pid-tree sizes.
//! Computed by [`xpe_bench::paper::table3`].

use xpe_bench::{load_all, paper, ExpContext};

fn main() {
    let ctx = ExpContext::from_env();
    println!("Table 3 reproduction (scale = {})", ctx.scale);
    paper::table3(&load_all(&ctx));
}
