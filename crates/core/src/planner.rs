//! Optimizer-facing helpers and the prepared query plan.
//!
//! The paper's motivation is query optimization, so the estimator exposes
//! the two decisions a structural-join planner actually makes — which
//! predicate to apply first, and per-step cardinalities along the main
//! path. [`QueryPlan`] is the other side of that coin: a query's
//! join-relevant structure (resolved tags, structural edges, root
//! pinning) in the one form the bitmap kernel reads.

use xpe_synopsis::Summary;
use xpe_xml::TagId;
use xpe_xpath::{Axis, Query, QueryNodeId};

use crate::editor;
use crate::estimator::Estimator;

/// One structural query edge with its endpoint tags resolved against a
/// summary's tag interner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanEdge {
    /// Ancestor-side query node.
    pub u: QueryNodeId,
    /// Descendant-side query node.
    pub v: QueryNodeId,
    /// `true` for a child-axis edge, `false` for descendant.
    pub child: bool,
    /// `(tag_u, tag_v)` when both endpoint tags occur in the summary;
    /// `None` when either is absent — such an edge empties both endpoint
    /// candidate sets outright (nothing in a shrinking fixpoint can
    /// resurrect them).
    pub tags: Option<(TagId, TagId)>,
}

/// A query's join-relevant structure resolved against one summary: all
/// that [`path_join_bitmap`](crate::path_join_bitmap) reads of a query.
///
/// The plan's nodes are numbered `0..len()`. A plan of a whole query
/// keeps its node ids; the estimator fills plans of the sub-queries it
/// derives (the order-free query, spines, trimmed queries) from the
/// query's one resolution, numbering the kept nodes in id order — the
/// numbering [`rebuild`](crate::rebuild) gives the same sub-query, so
/// both kernels' results index alike. Since the kernel reads nothing
/// else, two equal plans join identically, which is what lets
/// [`SkeletonKey`](crate::SkeletonKey) encode the plan as the join-cache
/// key.
///
/// Plans are only valid against the summary they were built from — the
/// estimator guarantees that pairing by construction.
#[derive(Clone, Debug, Default)]
pub struct QueryPlan {
    /// Per plan node: its tag resolved in the summary, or `None` for a
    /// tag the document never contained.
    tags: Vec<Option<TagId>>,
    /// Every structural edge between kept nodes, in `(node id, edge
    /// order)` order.
    edges: Vec<PlanEdge>,
    /// The node pinned to the document root (`Some` iff the root axis is
    /// `Child`).
    rooted: Option<QueryNodeId>,
    /// Fill scratch: each query node's plan number, `u32::MAX` if dropped.
    local: Vec<u32>,
}

impl QueryPlan {
    /// Resolves `query` against `summary`: one tag-interner probe per
    /// node, one pass over the structural edges.
    pub fn build(summary: &Summary, query: &Query) -> Self {
        let tags: Vec<Option<TagId>> = query
            .node_ids()
            .map(|q| summary.tags.get(&query.node(q).tag))
            .collect();
        let mut plan = QueryPlan::default();
        plan.fill(query, &tags, |_| true);
        plan
    }

    /// Refills this plan, reusing its buffers, with the sub-query of
    /// `query` on the nodes `keep` accepts. `tags[i]` is node `i`'s
    /// resolved tag. The kept set must hold the root and every kept
    /// node's parent, as every sub-query the formulas derive does.
    pub(crate) fn fill(
        &mut self,
        query: &Query,
        tags: &[Option<TagId>],
        keep: impl Fn(QueryNodeId) -> bool,
    ) {
        debug_assert!(keep(query.root()), "sub-queries keep the root");
        self.tags.clear();
        self.edges.clear();
        self.local.clear();
        for id in query.node_ids() {
            if keep(id) {
                self.local.push(self.tags.len() as u32);
                self.tags.push(tags[id.index()]);
            } else {
                self.local.push(u32::MAX);
            }
        }
        for id in query.node_ids() {
            let u = self.local[id.index()];
            if u == u32::MAX {
                continue;
            }
            for e in &query.node(id).edges {
                let v = self.local[e.to.index()];
                if v == u32::MAX {
                    continue;
                }
                let child = match e.axis {
                    Axis::Child => true,
                    Axis::Descendant => false,
                    _ => unreachable!("structural edges only"),
                };
                let (u, v) = (u as usize, v as usize);
                let pair = match (self.tags[u], self.tags[v]) {
                    (Some(tu), Some(tv)) => Some((tu, tv)),
                    _ => None,
                };
                self.edges.push(PlanEdge {
                    u: QueryNodeId::from_index(u),
                    v: QueryNodeId::from_index(v),
                    child,
                    tags: pair,
                });
            }
        }
        self.rooted = (query.root_axis() == Axis::Child).then(|| QueryNodeId::from_index(0));
    }

    /// Every plan node's resolved tag, by node number (`None` for a tag
    /// the summary lacks).
    #[inline]
    pub fn tags(&self) -> &[Option<TagId>] {
        &self.tags
    }

    /// Every structural edge with resolved endpoint tags.
    #[inline]
    pub fn edges(&self) -> &[PlanEdge] {
        &self.edges
    }

    /// The plan node pinned to the document root, if any.
    #[inline]
    pub fn rooted(&self) -> Option<QueryNodeId> {
        self.rooted
    }

    /// Number of plan nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the plan covers no nodes (never true for a valid query).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

/// The estimated selectivity of one predicate branch of a node.
#[derive(Clone, Debug)]
pub struct PredicateRank {
    /// Edge index at the branching node.
    pub edge: usize,
    /// The branch head.
    pub head: QueryNodeId,
    /// Estimated matches of the branching node if only this predicate is
    /// kept (smaller = more selective = apply first).
    pub estimated_card: f64,
}

/// Per-step cardinality estimates along the path from the query root to
/// the target — what a pipelined plan would materialize at each step.
#[derive(Clone, Debug)]
pub struct PathCardinalities {
    /// `(node, estimated matches)` from root to target, inclusive.
    pub steps: Vec<(QueryNodeId, f64)>,
}

impl<'s> Estimator<'s> {
    /// Ranks the predicate branches of `node` from most to least selective
    /// under the order-free interpretation: for each branch, the query is
    /// reduced to the root→`node` path plus that single branch, and
    /// `node`'s cardinality is estimated.
    ///
    /// Branches on the path to the target are not predicates and are
    /// excluded.
    pub fn rank_predicates(&self, query: &Query, node: QueryNodeId) -> Vec<PredicateRank> {
        let plain = editor::without_constraints(query);
        let q = &plain.query;
        let node = plain.remap(node);
        let target_path = q.path_to(q.target());
        let on_target_path = |to: QueryNodeId| target_path.contains(&to);

        let mut ranks = Vec::new();
        for (i, e) in q.node(node).edges.iter().enumerate() {
            // The continuation toward the target is not a predicate.
            if on_target_path(e.to) {
                continue;
            }
            // Reduced query: path to `node`, `node`, and this branch only.
            let mut keep = vec![false; q.len()];
            for a in q.path_to(node).into_iter().chain(q.subtree(e.to)) {
                keep[a.index()] = true;
            }
            let reduced = editor::rebuild(q, &keep, node);
            let estimated_card = self.estimate_plain(&reduced.query, reduced.remap(node));
            ranks.push(PredicateRank {
                edge: i,
                head: e.to,
                estimated_card,
            });
        }
        ranks.sort_by(|a, b| a.estimated_card.total_cmp(&b.estimated_card));
        ranks
    }

    /// Estimated cardinality of every step on the root→target path of
    /// `query` (order constraints ignored): the sizes a pipelined
    /// structural-join plan would see.
    pub fn path_cardinalities(&self, query: &Query) -> PathCardinalities {
        let plain = editor::without_constraints(query);
        let q = &plain.query;
        let steps = q
            .path_to(q.target())
            .into_iter()
            .map(|n| (n, self.estimate_plain(q, n)))
            .collect();
        PathCardinalities { steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_synopsis::{Summary, SummaryConfig};
    use xpe_xpath::parse_query;

    fn summary(xml: &str) -> Summary {
        Summary::build(
            &xpe_xml::parse_document(xml).unwrap(),
            SummaryConfig::default(),
        )
    }

    #[test]
    fn ranks_by_selectivity() {
        // `rare` appears under one p, `common` under three.
        let xml = "<r>\
            <p><rare/><common/></p>\
            <p><common/></p>\
            <p><common/></p>\
            <p/>\
         </r>";
        let s = summary(xml);
        let est = Estimator::new(&s);
        let q = parse_query("//$p[/rare][/common]").unwrap();
        let ranks = est.rank_predicates(&q, q.target());
        assert_eq!(ranks.len(), 2);
        assert!(ranks[0].estimated_card <= ranks[1].estimated_card);
        assert_eq!(q.node(ranks[0].head).tag, "rare");
        assert_eq!(ranks[0].estimated_card, 1.0);
        assert_eq!(ranks[1].estimated_card, 3.0);
    }

    #[test]
    fn continuation_branch_excluded() {
        let xml = "<r><p><a/><b><c/></b></p></r>";
        let s = summary(xml);
        let est = Estimator::new(&s);
        // Target is c, below b: the b-branch is the continuation, only
        // the a-branch is a predicate of p.
        let q = parse_query("//p[/a]/b/c").unwrap();
        let p = q.root();
        let ranks = est.rank_predicates(&q, p);
        assert_eq!(ranks.len(), 1);
        assert_eq!(q.node(ranks[0].head).tag, "a");
    }

    #[test]
    fn path_cardinalities_walk_the_spine() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let s = Summary::build(&doc, SummaryConfig::default());
        let est = Estimator::new(&s);
        let q = parse_query("//A/B/D").unwrap();
        let cards = est.path_cardinalities(&q);
        assert_eq!(cards.steps.len(), 3);
        let values: Vec<f64> = cards.steps.iter().map(|&(_, c)| c).collect();
        assert_eq!(values, vec![3.0, 4.0, 4.0]);
    }

    #[test]
    fn query_plan_resolves_tags_edges_and_root_pinning() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let s = Summary::build(&doc, SummaryConfig::default());

        // Rooted query, all tags known.
        let q = parse_query("/Root/A//C").unwrap();
        let plan = crate::QueryPlan::build(&s, &q);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.rooted(), Some(q.root()));
        for n in q.node_ids() {
            assert_eq!(plan.tags()[n.index()], s.tags.get(&q.node(n).tag));
            assert!(
                plan.tags()[n.index()].is_some(),
                "all tags occur in the document"
            );
        }
        assert_eq!(plan.edges().len(), 2);
        assert!(plan.edges()[0].child);
        assert!(!plan.edges()[1].child);
        for e in plan.edges() {
            assert_eq!(
                e.tags,
                Some((
                    plan.tags()[e.u.index()].unwrap(),
                    plan.tags()[e.v.index()].unwrap()
                ))
            );
        }

        // Unrooted query with an unknown tag: no pinning, dead edge.
        let q = parse_query("//A/Zebra").unwrap();
        let plan = crate::QueryPlan::build(&s, &q);
        assert_eq!(plan.rooted(), None);
        assert_eq!(plan.tags()[q.target().index()], None);
        assert_eq!(plan.edges().len(), 1);
        assert_eq!(plan.edges()[0].tags, None);
    }

    #[test]
    fn order_constraints_are_ignored_for_planning() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let s = Summary::build(&doc, SummaryConfig::default());
        let est = Estimator::new(&s);
        let q = parse_query("//$A[/C/folls::B]").unwrap();
        let ranks = est.rank_predicates(&q, q.target());
        assert_eq!(ranks.len(), 2, "both chain branches rank as predicates");
        for r in &ranks {
            assert!(r.estimated_card.is_finite());
        }
    }
}
