//! Property tests of the estimator across random documents and queries.
//!
//! The estimator is approximate by design, so properties assert *structure*
//! rather than exactness — except where the paper proves exactness
//! (Theorem 4.1 on non-recursive data at variance 0).

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use xpe::estimator::JoinKernel;
use xpe::prelude::*;
use xpe::xpath::{Axis, QueryEdge, QueryNode, QueryNodeId};

/// Random non-recursive document: the tag at depth `d` is always drawn
/// from a depth-specific alphabet, so no tag repeats along any root path
/// and Theorem 4.1's premise holds.
#[derive(Debug, Clone)]
struct LayerSpec {
    tag: u8,
    children: Vec<LayerSpec>,
}

fn arb_layered_doc() -> impl Strategy<Value = LayerSpec> {
    let leaf = (0u8..3).prop_map(|t| LayerSpec {
        tag: t,
        children: vec![],
    });
    leaf.prop_recursive(3, 40, 4, |inner| {
        (0u8..3, prop::collection::vec(inner, 0..4))
            .prop_map(|(tag, children)| LayerSpec { tag, children })
    })
}

fn build_layered(spec: &LayerSpec) -> Document {
    let mut b = TreeBuilder::new();
    fn rec(b: &mut TreeBuilder, s: &LayerSpec, depth: usize) {
        // Depth-qualified tags guarantee non-recursive paths.
        b.begin_element(&format!("d{depth}t{}", s.tag));
        for c in &s.children {
            rec(b, c, depth + 1);
        }
        b.end_element().unwrap();
    }
    b.begin_element("root");
    rec(&mut b, spec, 1);
    b.end_element().unwrap();
    b.finish().unwrap()
}

/// A random simple path query over the depth-qualified vocabulary.
fn arb_path_query() -> impl Strategy<Value = (Vec<(bool, u8)>, bool)> {
    (
        prop::collection::vec((any::<bool>(), 0u8..3), 1..4),
        any::<bool>(),
    )
}

fn build_path_query(steps: &[(bool, u8)], root_desc: bool) -> Query {
    let mut nodes = Vec::new();
    for (i, &(child_axis, tag)) in steps.iter().enumerate() {
        nodes.push(QueryNode {
            // Depth-aligned tags when using child axes keeps positives
            // plentiful; the property holds either way.
            tag: format!("d{}t{}", i + 1, tag),
            edges: Vec::new(),
            constraints: Vec::new(),
        });
        if i > 0 {
            let axis = if child_axis {
                Axis::Child
            } else {
                Axis::Descendant
            };
            let to = QueryNodeId::from_index(i);
            nodes[i - 1].edges.push(QueryEdge { axis, to });
        }
    }
    let root_axis = if root_desc {
        Axis::Descendant
    } else {
        Axis::Child
    };
    let target = QueryNodeId::from_index(nodes.len() - 1);
    Query::new(nodes, root_axis, target).unwrap()
}

/// `query` with its non-root nodes renumbered by a random permutation
/// drawn from `rng`: the same tree, tags, edge order, constraints and
/// target, under other ids, so a child's id often falls below its
/// parent's.
fn renumbered(query: &Query, rng: &mut StdRng) -> Query {
    let n = query.len();
    let mut new_id: Vec<usize> = (0..n).collect();
    for i in (2..n).rev() {
        let j = rng.gen_range(1..=i);
        new_id.swap(i, j);
    }
    let id = |old: QueryNodeId| QueryNodeId::from_index(new_id[old.index()]);
    let mut slots: Vec<Option<QueryNode>> = vec![None; n];
    for old in query.node_ids() {
        let src = query.node(old);
        slots[new_id[old.index()]] = Some(QueryNode {
            tag: src.tag.clone(),
            edges: src
                .edges
                .iter()
                .map(|e| QueryEdge {
                    axis: e.axis,
                    to: id(e.to),
                })
                .collect(),
            constraints: src.constraints.clone(),
        });
    }
    let nodes = slots
        .into_iter()
        .map(|s| s.expect("a permutation"))
        .collect();
    Query::new(nodes, query.root_axis(), id(query.target())).expect("same tree, other ids")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Node ids are names, not shape: a query renumbered by a random
    /// permutation of its non-root nodes renders the same text, selects
    /// the same number of nodes, and estimates bit for bit alike under
    /// both join kernels. Covers every workload query class and the
    /// differential harness's random twigs (branches, sibling and
    /// document chains, unknown tags).
    #[test]
    fn renumbered_queries_answer_alike(seed in 0u64..32) {
        let doc = DatasetSpec {
            dataset: Dataset::SSPlays,
            scale: 0.01,
            seed,
        }
        .generate();
        let labeling = Labeling::compute(&doc);
        let workload = xpe::datagen::generate_workload(
            &doc,
            &labeling.encoding,
            &WorkloadConfig {
                seed,
                simple_attempts: 20,
                branch_attempts: 40,
                ..WorkloadConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let paths = xpe::diff::tag_paths(&doc);
        let mut queries: Vec<Query> = (0..20)
            .map(|_| xpe::diff::random_query(&mut rng, &paths))
            .collect();
        queries.extend(
            workload
                .simple
                .iter()
                .chain(&workload.branch)
                .chain(&workload.order_branch)
                .chain(&workload.order_trunk)
                .map(|case| case.query.clone()),
        );
        let summary = Summary::build(&doc, SummaryConfig::default());
        let order = DocOrder::new(&doc);
        let evaluator = Evaluator::new(&doc, &order);
        let estimators = [JoinKernel::Naive, JoinKernel::Bitmap]
            .map(|kernel| Estimator::new(&summary).with_kernel(kernel));
        for query in &queries {
            let other = renumbered(query, &mut rng);
            let text = query.to_string();
            prop_assert_eq!(other.to_string(), text.clone());
            prop_assert_eq!(
                evaluator.selectivity(&other),
                evaluator.selectivity(query),
                "{}", text
            );
            for est in &estimators {
                prop_assert_eq!(
                    est.estimate(&other).to_bits(),
                    est.estimate(query).to_bits(),
                    "{} {:?}", text, est.kernel()
                );
            }
        }
    }

    /// Theorem 4.1: simple path queries estimate exactly at variance 0 on
    /// non-recursive documents — but only when each query tag occurs at a
    /// single depth, which the layered construction guarantees.
    #[test]
    fn theorem_4_1_exact_on_layered_docs(
        spec in arb_layered_doc(),
        (steps, root_desc) in arb_path_query(),
    ) {
        let doc = build_layered(&spec);
        let query = build_path_query(&steps, root_desc);
        let summary = Summary::build(&doc, SummaryConfig::default());
        let est = Estimator::new(&summary);
        let order = DocOrder::new(&doc);
        let exact = selectivity(&doc, &order, &query) as f64;
        let estimate = est.estimate(&query);
        prop_assert!(
            (estimate - exact).abs() < 1e-9,
            "query {} estimate {} exact {}", query, estimate, exact
        );
    }

    /// Estimates are always finite and non-negative, for every dataset
    /// query class the workload generator emits.
    #[test]
    fn estimates_are_finite_and_nonnegative(seed in 0u64..32) {
        let doc = DatasetSpec {
            dataset: Dataset::SSPlays,
            scale: 0.01,
            seed,
        }
        .generate();
        let labeling = Labeling::compute(&doc);
        let workload = xpe::datagen::generate_workload(
            &doc,
            &labeling.encoding,
            &WorkloadConfig {
                seed,
                simple_attempts: 40,
                branch_attempts: 40,
                ..WorkloadConfig::default()
            },
        );
        let summary = Summary::build(
            &doc,
            SummaryConfig { p_variance: 2.0, o_variance: 2.0, },
        );
        let est = Estimator::new(&summary);
        for case in workload
            .simple
            .iter()
            .chain(&workload.branch)
            .chain(&workload.order_branch)
            .chain(&workload.order_trunk)
        {
            let e = est.estimate(&case.query);
            prop_assert!(e.is_finite(), "{}", case.text);
            prop_assert!(e >= 0.0, "{}", case.text);
        }
    }

    /// Eq. 5's min-bound: a trunk-target order query never estimates above
    /// its order-free counterpart.
    #[test]
    fn order_trunk_estimates_bounded_by_plain(seed in 0u64..16) {
        let doc = DatasetSpec {
            dataset: Dataset::SSPlays,
            scale: 0.01,
            seed,
        }
        .generate();
        let labeling = Labeling::compute(&doc);
        let workload = xpe::datagen::generate_workload(
            &doc,
            &labeling.encoding,
            &WorkloadConfig {
                seed,
                simple_attempts: 0,
                branch_attempts: 80,
                ..WorkloadConfig::default()
            },
        );
        let summary = Summary::build(&doc, SummaryConfig::default());
        let est = Estimator::new(&summary);
        for case in &workload.order_trunk {
            let ordered = est.estimate(&case.query);
            let plain = est.estimate_plain(
                &xpe::estimator::without_constraints(&case.query).query,
                case.query.target(),
            );
            prop_assert!(
                ordered <= plain + 1e-6,
                "{}: ordered {} plain {}", case.text, ordered, plain
            );
        }
    }
}
