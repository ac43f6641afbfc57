//! Property tests cross-validating the optimized twig evaluator against a
//! naive brute-force embedding enumerator, and checking that `Display`
//! output is semantically equivalent to its source query.

use proptest::prelude::*;
use std::collections::HashSet;

use xpe_xml::{nav::DocOrder, Document, NodeId, TreeBuilder};
use xpe_xpath::{
    evaluate, parse_query, Axis, OrderConstraint, OrderKind, Query, QueryEdge, QueryNode,
    QueryNodeId,
};

// ---------------------------------------------------------------------------
// Naive oracle: enumerate every embedding by backtracking.
// ---------------------------------------------------------------------------

fn naive_match_sets(doc: &Document, order: &DocOrder, q: &Query) -> Vec<HashSet<NodeId>> {
    let mut sets = vec![HashSet::new(); q.len()];
    let mut assignment: Vec<Option<NodeId>> = vec![None; q.len()];
    backtrack(doc, order, q, 0, &mut assignment, &mut sets);
    sets
}

fn backtrack(
    doc: &Document,
    order: &DocOrder,
    q: &Query,
    idx: usize,
    assignment: &mut Vec<Option<NodeId>>,
    sets: &mut Vec<HashSet<NodeId>>,
) {
    if idx == q.len() {
        for (i, a) in assignment.iter().enumerate() {
            sets[i].insert(a.expect("complete assignment"));
        }
        return;
    }
    // Assign in pre-order, so a node's parent is always assigned first.
    let qid = q.preorder().nth(idx).expect("idx < q.len()");
    let qnode = q.node(qid);
    for d in doc.node_ids() {
        if doc.tag_name(d) != qnode.tag {
            continue;
        }
        if !structurally_ok(doc, order, q, qid, d, assignment) {
            continue;
        }
        assignment[qid.index()] = Some(d);
        if constraints_ok_so_far(doc, order, q, assignment) {
            backtrack(doc, order, q, idx + 1, assignment, sets);
        }
        assignment[qid.index()] = None;
    }
}

fn structurally_ok(
    doc: &Document,
    _order: &DocOrder,
    q: &Query,
    qid: QueryNodeId,
    d: NodeId,
    assignment: &[Option<NodeId>],
) -> bool {
    match q.parent_of(qid) {
        None => match q.root_axis() {
            Axis::Child => d == doc.root(),
            _ => true,
        },
        Some((p, ei)) => {
            let pm = assignment[p.index()].expect("pre-order assigns parents first");
            match q.node(p).edges[ei].axis {
                Axis::Child => doc.parent(d) == Some(pm),
                Axis::Descendant => doc.is_ancestor(pm, d),
                _ => unreachable!("structural edges only"),
            }
        }
    }
}

fn constraints_ok_so_far(
    doc: &Document,
    order: &DocOrder,
    q: &Query,
    assignment: &[Option<NodeId>],
) -> bool {
    for owner in q.node_ids() {
        let qnode = q.node(owner);
        for c in &qnode.constraints {
            let b = assignment[qnode.edges[c.before].to.index()];
            let a = assignment[qnode.edges[c.after].to.index()];
            let (b, a) = match (b, a) {
                (Some(b), Some(a)) => (b, a),
                _ => continue, // check once both ends are assigned
            };
            let ok = match c.kind {
                OrderKind::Sibling => doc.parent(b) == doc.parent(a) && order.pre(b) < order.pre(a),
                OrderKind::Document => order.is_following(b, a),
            };
            if !ok {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Random documents and queries.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct TreeSpec {
    tag: u8,
    children: Vec<TreeSpec>,
}

fn arb_doc() -> impl Strategy<Value = TreeSpec> {
    let leaf = (0u8..4).prop_map(|t| TreeSpec {
        tag: t,
        children: vec![],
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (0u8..4, prop::collection::vec(inner, 0..4))
            .prop_map(|(tag, children)| TreeSpec { tag, children })
    })
}

fn build_doc(spec: &TreeSpec) -> Document {
    let mut b = TreeBuilder::new();
    fn rec(b: &mut TreeBuilder, s: &TreeSpec) {
        b.begin_element(&format!("t{}", s.tag));
        for c in &s.children {
            rec(b, c);
        }
        b.end_element().unwrap();
    }
    // Wrap in a fixed root so sibling structure at top level is exercised.
    b.begin_element("R");
    rec(&mut b, spec);
    b.end_element().unwrap();
    b.finish().unwrap()
}

/// Plan for a small random query: a trunk of 1–2 nodes, the last of which
/// has 2–3 child branches, optionally with a sibling or document constraint
/// chain over the first two.
#[derive(Debug, Clone)]
struct QuerySpec {
    root_desc: bool,
    trunk: Vec<u8>,
    branches: Vec<(bool, u8, Option<u8>)>, // (desc axis, head tag, optional child tag)
    constraint: Option<(OrderKind, bool)>, // kind, reversed
    target_choice: u8,
}

fn arb_query() -> impl Strategy<Value = QuerySpec> {
    (
        any::<bool>(),
        prop::collection::vec(0u8..4, 1..3),
        prop::collection::vec((any::<bool>(), 0u8..4, proptest::option::of(0u8..4)), 2..4),
        proptest::option::of((
            prop_oneof![Just(OrderKind::Sibling), Just(OrderKind::Document)],
            any::<bool>(),
        )),
        any::<u8>(),
    )
        .prop_map(
            |(root_desc, trunk, branches, constraint, target_choice)| QuerySpec {
                root_desc,
                trunk,
                branches,
                constraint,
                target_choice,
            },
        )
}

fn build_query(spec: &QuerySpec) -> Option<Query> {
    let mut nodes: Vec<QueryNode> = Vec::new();
    let push = |nodes: &mut Vec<QueryNode>, tag: u8| -> u32 {
        nodes.push(QueryNode {
            tag: format!("t{tag}"),
            edges: Vec::new(),
            constraints: Vec::new(),
        });
        (nodes.len() - 1) as u32
    };
    let mut trunk_ids = Vec::new();
    for &t in &spec.trunk {
        let id = push(&mut nodes, t);
        if let Some(&prev) = trunk_ids.last() {
            let prev: u32 = prev;
            nodes[prev as usize].edges.push(QueryEdge {
                axis: Axis::Child,
                to: node_id(id),
            });
        }
        trunk_ids.push(id);
    }
    let owner = *trunk_ids.last().expect("trunk nonempty");
    let sibling_constraint = matches!(spec.constraint, Some((OrderKind::Sibling, _)));
    let mut branch_heads = Vec::new();
    for (i, &(desc, head, child)) in spec.branches.iter().enumerate() {
        let hid = push(&mut nodes, head);
        // Sibling constraints require child edges on the first two branches.
        let axis = if desc && !(sibling_constraint && i < 2) {
            Axis::Descendant
        } else {
            Axis::Child
        };
        nodes[owner as usize].edges.push(QueryEdge {
            axis,
            to: node_id(hid),
        });
        branch_heads.push(hid);
        if let Some(ct) = child {
            let cid = push(&mut nodes, ct);
            nodes[hid as usize].edges.push(QueryEdge {
                axis: Axis::Child,
                to: node_id(cid),
            });
        }
    }
    if let Some((kind, reversed)) = spec.constraint {
        let (before, after) = if reversed { (1, 0) } else { (0, 1) };
        nodes[owner as usize].constraints.push(OrderConstraint {
            before,
            after,
            kind,
        });
    }
    let target_idx = (spec.target_choice as usize) % nodes.len();
    let root_axis = if spec.root_desc {
        Axis::Descendant
    } else {
        Axis::Child
    };
    Query::new(nodes, root_axis, QueryNodeId::from_index(target_idx)).ok()
}

fn node_id(raw: u32) -> QueryNodeId {
    QueryNodeId::from_index(raw as usize)
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimized_matches_naive(doc_spec in arb_doc(), q_spec in arb_query()) {
        let doc = build_doc(&doc_spec);
        let query = match build_query(&q_spec) {
            Some(q) => q,
            None => return Ok(()),
        };
        let order = DocOrder::new(&doc);
        let fast = evaluate(&doc, &order, &query);
        let naive = naive_match_sets(&doc, &order, &query);
        for (i, naive_set) in naive.iter().enumerate() {
            let fast_set: HashSet<NodeId> = fast.match_sets[i].iter().copied().collect();
            prop_assert_eq!(
                &fast_set, naive_set,
                "query {} node {} (doc {:?})", query, i, xpe_xml::to_string(&doc)
            );
        }
    }

    #[test]
    fn display_round_trip_is_semantically_equivalent(
        doc_spec in arb_doc(),
        q_spec in arb_query(),
    ) {
        let doc = build_doc(&doc_spec);
        let query = match build_query(&q_spec) {
            Some(q) => q,
            None => return Ok(()),
        };
        let rendered = query.to_string();
        let reparsed = parse_query(&rendered).expect("display output parses");
        let order = DocOrder::new(&doc);
        let r1 = evaluate(&doc, &order, &query);
        let r2 = evaluate(&doc, &order, &reparsed);
        // Same target match set (node numbering may differ).
        let t1: HashSet<NodeId> = r1.target_matches(&query).iter().copied().collect();
        let t2: HashSet<NodeId> = r2.target_matches(&reparsed).iter().copied().collect();
        prop_assert_eq!(t1, t2, "query {} rendered {}", query, rendered);
    }
}
