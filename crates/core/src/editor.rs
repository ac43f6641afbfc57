//! Query surgery for the estimation formulas.
//!
//! §4 and §5 of the paper derive auxiliary queries from the input: the
//! order-free counterpart `Q`, the spine query `Q' = q1/q2`, and the
//! trimmed query `Q̃' = q1[/ni1/folls::q3]`. This module rebuilds a
//! [`Query`] from a kept subset of nodes, remapping ids and dropping order
//! constraints (every derived query the formulas evaluate is order-free;
//! order information enters only through o-histogram lookups). The
//! estimator's bitmap kernel joins such subsets without rebuilding them;
//! its reference kernel, the optimizer helpers and the differential
//! harness rebuild them here.

use xpe_xpath::{Query, QueryEdge, QueryNode, QueryNodeId};

/// A derived query plus the id mapping from the original.
#[derive(Clone, Debug)]
pub struct Rebuilt {
    /// The derived (always constraint-free) query.
    pub query: Query,
    /// `map[old.index()]` is the node's id in the derived query, `None` if
    /// it was dropped.
    pub map: Vec<Option<QueryNodeId>>,
}

impl Rebuilt {
    /// The new id of `old`.
    ///
    /// # Panics
    ///
    /// Panics if `old` was dropped by the rebuild.
    pub fn remap(&self, old: QueryNodeId) -> QueryNodeId {
        self.map[old.index()].expect("node kept by rebuild")
    }
}

/// Rebuilds `q` keeping exactly the nodes with `keep[id.index()]`, with
/// `target` (which must be kept) as the new target. Order constraints are
/// dropped. A kept node's parent must also be kept — the formulas only ever
/// remove whole subtrees. Kept nodes are numbered in id order.
pub fn rebuild(q: &Query, keep: &[bool], target: QueryNodeId) -> Rebuilt {
    debug_assert!(keep[target.index()], "target must survive");
    debug_assert!(
        q.nodes()
            .iter()
            .zip(keep)
            .all(|(node, &kept)| kept || node.edges.iter().all(|e| !keep[e.to.index()])),
        "kept node's parent must be kept"
    );
    let mut map: Vec<Option<QueryNodeId>> = vec![None; q.len()];
    let mut next = 0u32;
    for old in q.node_ids() {
        if keep[old.index()] {
            map[old.index()] = Some(QueryNodeId::from_index(next as usize));
            next += 1;
        }
    }
    let mut nodes: Vec<QueryNode> = Vec::with_capacity(next as usize);
    for old in q.node_ids() {
        if !keep[old.index()] {
            continue;
        }
        let src = q.node(old);
        let edges: Vec<QueryEdge> = src
            .edges
            .iter()
            .filter(|e| keep[e.to.index()])
            .map(|e| QueryEdge {
                axis: e.axis,
                to: map[e.to.index()].expect("kept child mapped"),
            })
            .collect();
        nodes.push(QueryNode {
            tag: src.tag.clone(),
            edges,
            constraints: Vec::new(),
        });
    }
    let query = Query::new(
        nodes,
        q.root_axis(),
        map[target.index()].expect("target mapped"),
    )
    .expect("subset of a valid query is valid");
    Rebuilt { query, map }
}

/// The order-free counterpart `Q` of `Q̃` (paper §5): same structure, no
/// constraints, same target.
pub fn without_constraints(q: &Query) -> Rebuilt {
    rebuild(q, &vec![true; q.len()], q.target())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_xpath::parse_query;

    #[test]
    fn without_constraints_preserves_structure() {
        let q = parse_query("//A[/C/folls::$B/D]").unwrap();
        let r = without_constraints(&q);
        assert_eq!(r.query.len(), q.len());
        assert!(!r.query.has_order_constraints());
        assert_eq!(r.query.node(r.query.target()).tag, "B");
    }

    #[test]
    fn rebuild_drops_a_whole_branch_and_renumbers_in_id_order() {
        let q = parse_query("//A[/C/F]/B/D").unwrap();
        let c = q.node_ids().find(|&n| q.node(n).tag == "C").unwrap();
        let mut keep = vec![true; q.len()];
        for dropped in q.subtree(c) {
            keep[dropped.index()] = false;
        }
        let r = rebuild(&q, &keep, q.target());
        assert_eq!(r.query.len(), 3); // A, B, D
        assert_eq!(r.query.to_string(), "//A/B/D");
        assert!(r.map[c.index()].is_none());
        let kept: Vec<usize> = r.map.iter().flatten().map(|n| n.index()).collect();
        assert_eq!(kept, [0, 1, 2]);
    }

    #[test]
    fn remap_panics_on_dropped_node() {
        let q = parse_query("//A[/C]/B").unwrap();
        let c = q.node_ids().find(|&n| q.node(n).tag == "C").unwrap();
        let keep: Vec<bool> = q.node_ids().map(|n| n != c).collect();
        let r = rebuild(&q, &keep, q.target());
        let result = std::panic::catch_unwind(|| r.remap(c));
        assert!(result.is_err());
    }
}
