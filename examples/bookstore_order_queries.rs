//! Order-axis estimation on intrinsically ordered data — the motivating
//! scenario of the paper's introduction ("the chapter order of the book is
//! important and a query can ask for the second chapter").
//!
//! Generates a Shakespeare-like corpus (scenes within acts, speeches
//! within scenes — all order-significant), then compares estimates against
//! exact answers for a batch of order-axis queries at several summary
//! sizes.
//!
//! Run with: `cargo run --release --example bookstore_order_queries`

use xpe::prelude::*;

fn main() {
    let doc = DatasetSpec {
        dataset: Dataset::SSPlays,
        scale: 0.05,
        seed: 2026,
    }
    .generate();
    println!("corpus: {} elements", doc.len());

    let order = DocOrder::new(&doc);
    let eval = Evaluator::new(&doc, &order);

    // Order-sensitive questions an application over plays would ask.
    let queries = [
        // Scenes that still have scenes after them in the same act.
        "//ACT[/SCENE/folls::$SCENE]",
        // Speeches that follow a stage direction among their siblings.
        "//SCENE[/STAGEDIR/folls::$SPEECH]",
        // Stage directions that close a scene (some speech precedes them).
        "//SCENE[/SPEECH/folls::$STAGEDIR]",
        // Epilogue-like: lines preceded by a title in the same prologue.
        "//PROLOGUE[/TITLE/folls::$LINE]",
        // Acts whose title is followed (in document order) by a speaker.
        "//ACT[/TITLE/foll::$SPEAKER]",
    ];

    for (p_var, o_var) in [(0.0, 0.0), (1.0, 2.0), (10.0, 14.0)] {
        let summary = Summary::build(
            &doc,
            SummaryConfig {
                p_variance: p_var,
                o_variance: o_var,
            },
        );
        let est = Estimator::new(&summary);
        let sizes = summary.sizes();
        println!(
            "\n--- p-variance {p_var}, o-variance {o_var}: {} B total summary ---",
            sizes.total()
        );
        println!(
            "{:<42} {:>10} {:>8} {:>7}",
            "query", "estimate", "exact", "relerr"
        );
        for text in queries {
            let query = parse_query(text).expect("valid");
            let estimate = est.estimate(&query);
            let exact = eval.selectivity(&query);
            println!(
                "{text:<42} {estimate:>10.2} {exact:>8} {:>7.3}",
                relative_error(estimate, exact)
            );
        }
    }
    println!(
        "\nTighter variances cost more bytes and buy accuracy — the paper's\n\
         central memory/accuracy tradeoff (Figures 9 and 12)."
    );
}
