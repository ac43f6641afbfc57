//! The paper's evaluation (§7): one function per table and figure.
//!
//! Each function prints one experiment's tables for the bundles it is
//! given. The `tableN`/`figN` binaries print a header line and call one
//! of them; `paper_run` calls all ten on one set of bundles.

use std::time::Instant;

use xpe_core::EstimationEngine;
use xpe_pathid::PathIdTree;
use xpe_xml::stats::DocumentStats;
use xpe_xsketch::XSketch;

use crate::{
    err, kb, print_table, secs, summary_at, workload_error, workload_error_with, DatasetBundle,
    O_VARIANCES, P_VARIANCES,
};

/// Table 1: characteristics of datasets (size, #distinct tags,
/// #elements), ours vs the paper's real corpora.
pub fn table1(bundles: &[DatasetBundle]) {
    // Indexed by `Dataset as usize`, i.e. in `Dataset::ALL` order.
    const PAPER: [&str; 3] = [
        "7.5 MB / 21 / 179,690",
        "65.2 MB / 31 / 1,711,542",
        "20.4 MB / 74 / 319,815",
    ];
    let rows: Vec<Vec<String>> = bundles
        .iter()
        .map(|b| {
            let s = DocumentStats::compute(&b.doc);
            vec![
                b.dataset.name().to_owned(),
                format!("{} KB", kb(s.serialized_bytes)),
                s.distinct_tags.to_string(),
                s.elements.to_string(),
                s.distinct_paths.to_string(),
                PAPER[b.dataset as usize].to_owned(),
            ]
        })
        .collect();
    print_table(
        "Table 1: dataset characteristics",
        &[
            "Dataset",
            "Size",
            "#DistTags",
            "#Eles",
            "#DistPaths",
            "paper (size/#tags/#eles)",
        ],
        &rows,
    );
}

/// Table 2: query workload — positive, deduplicated query counts per
/// class (simple / branch / with order axes), ours vs the paper's.
pub fn table2(bundles: &[DatasetBundle]) {
    // Indexed by `Dataset as usize`, i.e. in `Dataset::ALL` order.
    const PAPER: [&str; 3] = [
        "188 / 2328 / 2516 / 1168",
        "202 / 1013 / 1215 / 646",
        "1358 / 2686 / 4044 / 1654",
    ];
    let rows: Vec<Vec<String>> = bundles
        .iter()
        .map(|b| {
            let w = &b.workload;
            vec![
                b.dataset.name().to_owned(),
                w.simple.len().to_string(),
                w.branch.len().to_string(),
                (w.simple.len() + w.branch.len()).to_string(),
                (w.order_branch.len() + w.order_trunk.len()).to_string(),
                PAPER[b.dataset as usize].to_owned(),
            ]
        })
        .collect();
    print_table(
        "Table 2: query workload",
        &[
            "Dataset",
            "Simple",
            "Branch",
            "Total",
            "WithOrder",
            "paper (S/B/T/O)",
        ],
        &rows,
    );
}

/// Table 3: space requirement of the encoding table, the flat path-id
/// table and the compressed path-id binary tree, plus pid length and
/// distinct-pid counts.
pub fn table3(bundles: &[DatasetBundle]) {
    // Indexed by `Dataset as usize`, i.e. in `Dataset::ALL` order.
    const PAPER: [&str; 3] = [
        "40 paths, 5 B pid, 115 pids; 0.24/0.92/0.93 KB",
        "87 paths, 11 B pid, 327 pids; 0.39/3.60/2.97 KB",
        "344 paths, 43 B pid, 6811 pids; 2.90/299.7/67.3 KB",
    ];
    let rows: Vec<Vec<String>> = bundles
        .iter()
        .map(|b| {
            let lab = &b.labeling;
            let tree = PathIdTree::new(&lab.interner);
            let table_bytes = lab.interner.table_size_bytes();
            vec![
                b.dataset.name().to_owned(),
                lab.encoding.len().to_string(),
                (lab.interner.width() as usize).div_ceil(8).to_string(),
                lab.interner.len().to_string(),
                kb(lab.encoding.size_bytes()),
                kb(table_bytes),
                kb(tree.size_bytes()),
                format!(
                    "{:.0}%",
                    100.0 * (1.0 - tree.size_bytes() as f64 / table_bytes as f64)
                ),
                PAPER[b.dataset as usize].to_owned(),
            ]
        })
        .collect();
    print_table(
        "Table 3: encoding table / pid table / pid binary tree",
        &[
            "Dataset",
            "#DistPaths",
            "PidSize(B)",
            "#DistPid",
            "EncTab(KB)",
            "PidTab(KB)",
            "BinTree(KB)",
            "TreeSaving",
            "paper",
        ],
        &rows,
    );
}

/// Table 4: construction cost for queries *without* order axes — the
/// proposed path-based solution (collection time, p-histogram size range
/// over the variance sweep, worst construction time) versus XSketch at a
/// matched memory budget.
pub fn table4(bundles: &[DatasetBundle]) {
    let mut ours = Vec::new();
    let mut theirs = Vec::new();
    for b in bundles {
        let mut min_p = usize::MAX;
        let mut max_p = 0usize;
        let mut max_build = 0.0f64;
        let mut total_budget = 0usize;
        for v in P_VARIANCES {
            let s = summary_at(b, v, 0.0);
            let sz = s.sizes();
            min_p = min_p.min(sz.p_histograms);
            max_p = max_p.max(sz.p_histograms);
            max_build = max_build.max(s.timings.build_p.as_secs_f64());
            total_budget = total_budget.max(sz.path_total());
        }
        ours.push(vec![
            b.dataset.name().to_owned(),
            secs(b.collect_path_secs),
            format!("{} ~ {} KB", kb(min_p), kb(max_p)),
            secs(max_build),
        ]);

        // XSketch at the same total budget (paper: "we ensure the summary
        // size of XSketch is approximately the same as the total memory
        // size of the encoding table, path id binary tree and p-histogram").
        let t0 = Instant::now();
        let sketch = XSketch::build(&b.doc, total_budget);
        let build = t0.elapsed().as_secs_f64();
        theirs.push(vec![
            b.dataset.name().to_owned(),
            format!("{} KB", kb(sketch.size_bytes())),
            sketch.refinement_steps.to_string(),
            secs(build),
        ]);
    }

    print_table(
        "Table 4a: proposed path-based solution",
        &[
            "Dataset",
            "CollectPathTime",
            "P-HistoSize",
            "P-HistoBuildTime",
        ],
        &ours,
    );
    println!(
        "  paper: SSPlays 1.6s / 0.55~0.75 KB / <1ms; DBLP 78.4s / 1.4~2.1 KB / <1ms; \
         XMark 246.2s / 20.4~24.6 KB / <1ms"
    );

    print_table(
        "Table 4b: XSketch at a matched budget",
        &["Dataset", "StatSize", "RefineSteps", "BuildTime"],
        &theirs,
    );
    println!(
        "  paper: SSPlays 1.6~2 KB / 2~3s; DBLP 4.8~5.8 KB / 19~30s; XMark 90~95 KB / >1 week"
    );
    println!(
        "\n  Shape check: p-histogram construction must be orders of magnitude\n  \
         faster than XSketch's greedy refinement at every budget."
    );
}

/// Table 5: construction cost for the order data — order-information
/// collection time and o-histogram size range / construction time over
/// the variance sweep.
pub fn table5(bundles: &[DatasetBundle]) {
    let mut rows = Vec::new();
    for b in bundles {
        let mut min_o = usize::MAX;
        let mut max_o = 0usize;
        let mut min_t = f64::MAX;
        let mut max_t = 0.0f64;
        for v in O_VARIANCES {
            let s = summary_at(b, 0.0, v);
            let sz = s.sizes();
            min_o = min_o.min(sz.o_histograms);
            max_o = max_o.max(sz.o_histograms);
            let t = s.timings.build_o.as_secs_f64();
            min_t = min_t.min(t);
            max_t = max_t.max(t);
        }
        rows.push(vec![
            b.dataset.name().to_owned(),
            secs(b.collect_order_secs),
            format!("{} ~ {} KB", kb(min_o), kb(max_o)),
            format!("{} ~ {}", secs(min_t), secs(max_t)),
        ]);
    }
    print_table(
        "Table 5: construction time for order data",
        &[
            "Dataset",
            "CollectOrderTime",
            "O-HistoSize",
            "O-HistoBuildTime",
        ],
        &rows,
    );
    println!(
        "  paper: SSPlays 2.2s / 1.2~1.8 KB / 2~3ms; DBLP 4574.8s / 7.4~12.7 KB / 20~30ms; \
         XMark 2347.2s / 11~21.3 KB / 1.2~2.1s"
    );
    println!(
        "\n  Shape check: collecting order data costs far more than collecting\n  \
         path data (compare Table 4a), especially for the wide DBLP."
    );
}

/// Figure 9: p-histogram and o-histogram memory usage as the
/// intra-bucket variance grows, per dataset. Expected shape: both curves
/// decrease monotonically with the variance; DBLP's o-histogram dwarfs
/// its p-histogram (wide sibling structure ⇒ much more order
/// information).
pub fn fig9(bundles: &[DatasetBundle]) {
    for b in bundles {
        let rows: Vec<Vec<String>> = P_VARIANCES
            .iter()
            .zip(O_VARIANCES.iter())
            .map(|(&pv, &ov)| {
                let sz = summary_at(b, pv, ov).sizes();
                vec![format!("{pv}"), kb(sz.p_histograms), kb(sz.o_histograms)]
            })
            .collect();
        print_table(
            &format!(
                "Figure 9 ({}): memory vs intra-bucket variance",
                b.dataset.name()
            ),
            &["Variance", "P-Histo (KB)", "O-Histo (KB)"],
            &rows,
        );
    }
    println!(
        "\n  Shape check: both series decrease with variance; for the DBLP-like\n  \
         dataset the o-histogram needs much more space than the p-histogram."
    );
}

/// Figure 10: estimation error of queries *without* order axes versus
/// p-histogram memory (series: simple queries, branch queries, all),
/// scored on `jobs` engine workers. Expected shape: error falls as
/// memory grows (variance shrinks); simple queries reach zero error at
/// variance 0 (Theorem 4.1); branch queries keep a small residual from
/// the Node Independence Assumption.
pub fn fig10(bundles: &[DatasetBundle], jobs: usize) {
    for b in bundles {
        let all = b.without_order();
        let rows: Vec<Vec<String>> = P_VARIANCES
            .iter()
            .rev()
            .map(|&pv| {
                let s = summary_at(b, pv, 0.0);
                let engine = EstimationEngine::new(&s).with_threads(jobs);
                vec![
                    format!("{pv}"),
                    kb(s.sizes().p_histograms),
                    err(workload_error(&engine, &b.workload.simple)),
                    err(workload_error(&engine, &b.workload.branch)),
                    err(workload_error(&engine, &all)),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Figure 10 ({}): error vs p-histogram memory (no order axes)",
                b.dataset.name()
            ),
            &[
                "P-Var",
                "P-Histo (KB)",
                "Err(simple)",
                "Err(branch)",
                "Err(all)",
            ],
            &rows,
        );
    }
    println!(
        "\n  Shape check: error decreases toward the last row (variance 0),\n  \
         where simple queries are exact and branch error is small (<7% in\n  \
         the paper)."
    );
}

/// Figure 11: the proposed p-histogram method versus XSketch, error as a
/// function of total memory on queries without order axes, ours scored
/// on `jobs` engine workers. Expected shape: XSketch is competitive at
/// very small budgets; with enough memory the p-histogram (whose floor is
/// the encoding table + pid tree) wins and converges to near-zero error.
pub fn fig11(bundles: &[DatasetBundle], jobs: usize) {
    for b in bundles {
        let all = b.without_order();
        let rows: Vec<Vec<String>> = P_VARIANCES
            .iter()
            .rev()
            .map(|&pv| {
                let s = summary_at(b, pv, 0.0);
                let total = s.sizes().path_total();
                let engine = EstimationEngine::new(&s).with_threads(jobs);
                let sketch = XSketch::build(&b.doc, total);
                vec![
                    format!("{pv}"),
                    kb(total),
                    err(workload_error(&engine, &all)),
                    kb(sketch.size_bytes()),
                    err(workload_error_with(&all, |c| sketch.estimate(&c.query))),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 11 ({}): p-histogram vs XSketch", b.dataset.name()),
            &[
                "P-Var",
                "OursTotal(KB)",
                "Err(ours)",
                "XSketch(KB)",
                "Err(xsketch)",
            ],
            &rows,
        );
    }
    println!(
        "\n  Shape check: with sufficient memory the proposed method's error\n  \
         drops below XSketch's; XSketch holds up at the smallest budgets."
    );
}

/// Figure 12: estimation error of order-axis queries with the target in
/// the **branch** part, versus o-histogram memory, one curve per
/// p-histogram variance (0, 1, 5, 10), scored on `jobs` engine workers.
/// Expected shape: error falls with o-histogram memory when the
/// p-histogram is accurate; at high p-variance the curves flatten
/// (inaccurate path information caps what better order information can
/// buy — paper §7.3).
pub fn fig12(bundles: &[DatasetBundle], jobs: usize) {
    order_figure(bundles, jobs, false);
}

/// Figure 13: like [`fig12`] but with the target in the **trunk** part.
/// Expected shape: lower error than Figure 12 at low p-variance even
/// with coarse o-histograms — Eq. 5 takes the minimum of one order-free
/// and two order-based estimates, so accurate path information
/// compensates for lost order detail (paper §7.3).
pub fn fig13(bundles: &[DatasetBundle], jobs: usize) {
    order_figure(bundles, jobs, true);
}

/// Figures 12 and 13: error of order-axis queries versus o-histogram
/// memory, one column per p-histogram variance.
fn order_figure(bundles: &[DatasetBundle], jobs: usize, trunk: bool) {
    for b in bundles {
        let cases = if trunk {
            &b.workload.order_trunk
        } else {
            &b.workload.order_branch
        };
        let rows: Vec<Vec<String>> = O_VARIANCES
            .iter()
            .rev()
            .map(|&ov| {
                let mut row = vec![format!("{ov}")];
                let mut mem = String::new();
                for pv in [0.0, 1.0, 5.0, 10.0] {
                    let s = summary_at(b, pv, ov);
                    if pv == 0.0 {
                        mem = kb(s.sizes().o_histograms);
                    }
                    let engine = EstimationEngine::new(&s).with_threads(jobs);
                    row.push(err(workload_error(&engine, cases)));
                }
                row.insert(1, mem);
                row
            })
            .collect();
        print_table(
            &format!(
                "Figure {} ({}): {} queries, error vs o-histogram memory",
                if trunk { 13 } else { 12 },
                b.dataset.name(),
                cases.len()
            ),
            &["O-Var", "O-Histo(KB)", "p.v=0", "p.v=1", "p.v=5", "p.v=10"],
            &rows,
        );
    }
    println!(
        "\n  Shape check: at p.v=0 the error falls as the o-histogram grows\n  \
         (last row = o-variance 0); higher p-variance curves sit above and\n  \
         flatten out."
    );
}
