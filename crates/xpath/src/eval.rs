//! Exact twig-query evaluation.
//!
//! This is the ground-truth oracle the experiments compare estimates
//! against: given a document and a [`Query`], it computes the *exact* match
//! set of every query node (in particular the target's selectivity).
//!
//! # Algorithm
//!
//! Two passes over the query tree, along the pre-order [`Query::new`]
//! records, so node ids may come in any order:
//!
//! 1. **Bottom-up**: for each query node `q` (children first) compute
//!    `B(q)` — document nodes with `q`'s tag whose subtree can embed `q`'s
//!    subtree, including the order-constraint chains at `q`.
//! 2. **Top-down**: starting from the root (filtered by the query's root
//!    axis), refine each `B` set to `R(q)` — the nodes that participate in
//!    at least one *full* embedding. At a constrained node, the refinement
//!    keeps exactly the *usable* candidates of each chain position:
//!    those for which the chain prefix can still be placed strictly before
//!    and the suffix strictly after.
//!
//! Chains make this exact: feasibility and usability of a chain of
//! candidate sets under a total order (sibling position) or the
//! document-order partial order (`pre`/`post` dominance) are computed with
//! forward/backward greedy sweeps — `O(n log n)` per owner match instead of
//! backtracking.

use std::collections::HashMap;

use xpe_xml::{nav::DocOrder, Document, NodeId};

use crate::ast::{Axis, OrderKind, Query, QueryNode};

/// Match sets of every query node after full evaluation.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// `match_sets[q.index()]` lists, in document order, the nodes to which
    /// query node `q` maps in at least one full embedding.
    pub match_sets: Vec<Vec<NodeId>>,
}

impl EvalResult {
    /// Match set of the query's target node.
    pub fn target_matches<'s>(&'s self, query: &Query) -> &'s [NodeId] {
        &self.match_sets[query.target().index()]
    }
}

/// Counts the exact selectivity of the query's target node.
pub fn selectivity(doc: &Document, order: &DocOrder, query: &Query) -> u64 {
    evaluate(doc, order, query).target_matches(query).len() as u64
}

/// Evaluates `query` against `doc`, returning all match sets.
pub fn evaluate(doc: &Document, order: &DocOrder, query: &Query) -> EvalResult {
    Evaluator::new(doc, order).run(query)
}

/// Reusable evaluation context: per-tag node lists and subtree extents are
/// computed once per document and shared across many queries (the workload
/// generator evaluates thousands).
pub struct Evaluator<'d> {
    doc: &'d Document,
    order: &'d DocOrder,
    /// Document nodes per tag id, ascending (= document order, because node
    /// ids are assigned in pre-order).
    by_tag: Vec<Vec<NodeId>>,
    /// `subtree_end[i]` is one past the last arena index of `i`'s subtree.
    subtree_end: Vec<u32>,
}

impl<'d> Evaluator<'d> {
    /// Builds the context for a document.
    pub fn new(doc: &'d Document, order: &'d DocOrder) -> Self {
        let mut by_tag = vec![Vec::new(); doc.tags().len()];
        for id in doc.node_ids() {
            by_tag[doc.tag(id).index()].push(id);
        }
        let n = doc.len();
        let mut subtree_end: Vec<u32> = (1..=n as u32).collect();
        // Children have larger arena indices than parents, so a reverse scan
        // accumulates subtree extents in one pass.
        for i in (0..n).rev() {
            let id = NodeId::from_index(i);
            if let Some(&last) = doc.children(id).last() {
                subtree_end[i] = subtree_end[last.index()];
            }
        }
        Evaluator {
            doc,
            order,
            by_tag,
            subtree_end,
        }
    }

    /// Runs the two-pass evaluation.
    pub fn run(&self, query: &Query) -> EvalResult {
        let b_sets = self.bottom_up(query);
        let match_sets = self.top_down(query, &b_sets);
        EvalResult { match_sets }
    }

    /// Exact selectivity of the target using this context.
    pub fn selectivity(&self, query: &Query) -> u64 {
        self.run(query).target_matches(query).len() as u64
    }

    fn tag_nodes(&self, tag: &str) -> &[NodeId] {
        self.doc
            .tags()
            .get(tag)
            .map(|t| self.by_tag[t.index()].as_slice())
            .unwrap_or(&[])
    }

    /// Candidates of `child_b` under `d` for the given axis; `buckets` is
    /// the child-axis parent index of `child_b`.
    fn edge_candidates<'a>(
        &self,
        d: NodeId,
        axis: Axis,
        child_b: &'a [NodeId],
        buckets: &'a HashMap<NodeId, Vec<NodeId>>,
    ) -> &'a [NodeId] {
        match axis {
            Axis::Child => buckets.get(&d).map(Vec::as_slice).unwrap_or(&[]),
            Axis::Descendant => {
                let lo = child_b.partition_point(|&c| c.index() <= d.index());
                let hi =
                    child_b.partition_point(|&c| (c.index() as u32) < self.subtree_end[d.index()]);
                &child_b[lo..hi]
            }
            _ => unreachable!("structural edges only"),
        }
    }

    fn bottom_up(&self, query: &Query) -> Vec<Vec<NodeId>> {
        let mut b_sets: Vec<Vec<NodeId>> = vec![Vec::new(); query.len()];
        for qid in query.preorder().rev() {
            let qnode = query.node(qid);
            let candidates = self.tag_nodes(&qnode.tag);
            if qnode.edges.is_empty() {
                b_sets[qid.index()] = candidates.to_vec();
                continue;
            }
            let buckets = self.child_buckets(qnode, &b_sets);
            let mut keep = Vec::new();
            'cand: for &d in candidates {
                // Unchained edges: each just needs a candidate.
                for (i, edge) in qnode.edges.iter().enumerate() {
                    if query.is_chained(qid, i) {
                        continue;
                    }
                    if self
                        .edge_candidates(d, edge.axis, &b_sets[edge.to.index()], &buckets[i])
                        .is_empty()
                    {
                        continue 'cand;
                    }
                }
                // Chains: forward greedy feasibility.
                for chain in query.chains_at(qid) {
                    let sets: Vec<&[NodeId]> = chain
                        .links
                        .iter()
                        .map(|&(e, head)| {
                            self.edge_candidates(
                                d,
                                qnode.edges[e].axis,
                                &b_sets[head.index()],
                                &buckets[e],
                            )
                        })
                        .collect();
                    if !self.chain_feasible(chain.kind, d, &sets) {
                        continue 'cand;
                    }
                }
                keep.push(d);
            }
            b_sets[qid.index()] = keep;
        }
        b_sets
    }

    /// For each child-axis edge, buckets the child's B set by parent.
    fn child_buckets(
        &self,
        qnode: &QueryNode,
        b_sets: &[Vec<NodeId>],
    ) -> Vec<HashMap<NodeId, Vec<NodeId>>> {
        qnode
            .edges
            .iter()
            .map(|edge| {
                let mut m: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
                if edge.axis == Axis::Child {
                    for &c in &b_sets[edge.to.index()] {
                        if let Some(p) = self.doc.parent(c) {
                            m.entry(p).or_default().push(c);
                        }
                    }
                }
                m
            })
            .collect()
    }

    fn top_down(&self, query: &Query, b_sets: &[Vec<NodeId>]) -> Vec<Vec<NodeId>> {
        let mut r_sets: Vec<Vec<NodeId>> = vec![Vec::new(); query.len()];
        r_sets[query.root().index()] = match query.root_axis() {
            Axis::Child => b_sets[query.root().index()]
                .iter()
                .copied()
                .filter(|&d| d == self.doc.root())
                .collect(),
            _ => b_sets[query.root().index()].clone(),
        };
        // Marks to deduplicate the union over owner matches.
        let mut mark = vec![u32::MAX; self.doc.len()];
        for qid in query.preorder() {
            let qnode = query.node(qid);
            if qnode.edges.is_empty() {
                continue;
            }
            let buckets = self.child_buckets(qnode, b_sets);
            for (i, edge) in qnode.edges.iter().enumerate() {
                if query.is_chained(qid, i) {
                    continue;
                }
                let child = edge.to.index();
                let stamp = (qid.index() * query.len() + i) as u32;
                let mut out = Vec::new();
                for &m in &r_sets[qid.index()] {
                    for &c in self.edge_candidates(m, edge.axis, &b_sets[child], &buckets[i]) {
                        if mark[c.index()] != stamp {
                            mark[c.index()] = stamp;
                            out.push(c);
                        }
                    }
                }
                out.sort_unstable();
                r_sets[child] = out;
            }
            // Chains: usable candidates per position.
            for chain in query.chains_at(qid) {
                let mut outs: Vec<Vec<NodeId>> = vec![Vec::new(); chain.links.len()];
                for &m in &r_sets[qid.index()] {
                    let sets: Vec<&[NodeId]> = chain
                        .links
                        .iter()
                        .map(|&(e, head)| {
                            self.edge_candidates(
                                m,
                                qnode.edges[e].axis,
                                &b_sets[head.index()],
                                &buckets[e],
                            )
                        })
                        .collect();
                    let usable = self.chain_usable(chain.kind, m, &sets);
                    for (t, u) in usable.into_iter().enumerate() {
                        outs[t].extend(u);
                    }
                }
                for (&(_, head), mut v) in chain.links.iter().zip(outs) {
                    v.sort_unstable();
                    v.dedup();
                    r_sets[head.index()] = v;
                }
            }
        }
        r_sets
    }

    /// Whether one element per set can be picked in strictly increasing
    /// order (sibling position or document-order dominance).
    fn chain_feasible(&self, kind: OrderKind, owner: NodeId, sets: &[&[NodeId]]) -> bool {
        match kind {
            OrderKind::Sibling => {
                let pos = self.sibling_positions(owner);
                let mut prev: i64 = -1;
                for set in sets {
                    let next = set
                        .iter()
                        .map(|c| pos[c] as i64)
                        .filter(|&p| p > prev)
                        .min();
                    match next {
                        Some(p) => prev = p,
                        None => return false,
                    }
                }
                true
            }
            OrderKind::Document => {
                // Forward dominance sweep; sets are in ascending id = pre
                // order already.
                let mut frontier: Vec<NodeId> = sets[0].to_vec();
                for set in &sets[1..] {
                    frontier = self.dominated_by_some(&frontier, set);
                    if frontier.is_empty() {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Per chain position, the candidates that participate in at least one
    /// valid chain assignment.
    fn chain_usable(&self, kind: OrderKind, owner: NodeId, sets: &[&[NodeId]]) -> Vec<Vec<NodeId>> {
        let k = sets.len();
        match kind {
            OrderKind::Sibling => {
                let pos = self.sibling_positions(owner);
                // Forward minimal placements.
                let mut fmin: Vec<i64> = Vec::with_capacity(k);
                let mut prev: i64 = -1;
                for set in sets {
                    let next = set
                        .iter()
                        .map(|c| pos[c] as i64)
                        .filter(|&p| p > prev)
                        .min();
                    match next {
                        Some(p) => {
                            fmin.push(p);
                            prev = p;
                        }
                        None => return vec![Vec::new(); k],
                    }
                }
                // Backward maximal placements.
                let mut bmax: Vec<i64> = vec![0; k];
                let mut next: i64 = i64::MAX;
                for t in (0..k).rev() {
                    let prevmax = sets[t]
                        .iter()
                        .map(|c| pos[c] as i64)
                        .filter(|&p| p < next)
                        .max();
                    match prevmax {
                        Some(p) => {
                            bmax[t] = p;
                            next = p;
                        }
                        None => return vec![Vec::new(); k],
                    }
                }
                (0..k)
                    .map(|t| {
                        let lo = if t == 0 { -1 } else { fmin[t - 1] };
                        let hi = if t + 1 == k { i64::MAX } else { bmax[t + 1] };
                        sets[t]
                            .iter()
                            .copied()
                            .filter(|c| {
                                let p = pos[c] as i64;
                                p > lo && p < hi
                            })
                            .collect()
                    })
                    .collect()
            }
            OrderKind::Document => {
                // F[t]: candidates reachable from the left; G[t]: from the right.
                let mut f: Vec<Vec<NodeId>> = Vec::with_capacity(k);
                f.push(sets[0].to_vec());
                for t in 1..k {
                    let next = self.dominated_by_some(&f[t - 1], sets[t]);
                    f.push(next);
                }
                let mut g: Vec<Vec<NodeId>> = vec![Vec::new(); k];
                g[k - 1] = sets[k - 1].to_vec();
                for t in (0..k.saturating_sub(1)).rev() {
                    g[t] = self.dominates_some(&g[t + 1], sets[t]);
                }
                (0..k)
                    .map(|t| {
                        let in_g: std::collections::HashSet<NodeId> =
                            g[t].iter().copied().collect();
                        f[t].iter().copied().filter(|c| in_g.contains(c)).collect()
                    })
                    .collect()
            }
        }
    }

    /// Elements of `set` that are document-order-dominated by (strictly
    /// follow) some element of `frontier`.
    fn dominated_by_some(&self, frontier: &[NodeId], set: &[NodeId]) -> Vec<NodeId> {
        // frontier sorted by pre (ascending id); prefix-min of post.
        let pres: Vec<u32> = frontier.iter().map(|&d| self.order.pre(d)).collect();
        let mut prefix_min_post = Vec::with_capacity(frontier.len());
        let mut m = u32::MAX;
        for &d in frontier {
            m = m.min(self.order.post(d));
            prefix_min_post.push(m);
        }
        set.iter()
            .copied()
            .filter(|&c| {
                let i = pres.partition_point(|&p| p < self.order.pre(c));
                i > 0 && prefix_min_post[i - 1] < self.order.post(c)
            })
            .collect()
    }

    /// Elements of `set` that strictly precede some element of `frontier`.
    fn dominates_some(&self, frontier: &[NodeId], set: &[NodeId]) -> Vec<NodeId> {
        let pres: Vec<u32> = frontier.iter().map(|&d| self.order.pre(d)).collect();
        let n = frontier.len();
        let mut suffix_max_post = vec![0u32; n];
        let mut m = 0u32;
        for i in (0..n).rev() {
            m = m.max(self.order.post(frontier[i]));
            suffix_max_post[i] = m;
        }
        set.iter()
            .copied()
            .filter(|&c| {
                let i = pres.partition_point(|&p| p <= self.order.pre(c));
                i < n && suffix_max_post[i] > self.order.post(c)
            })
            .collect()
    }

    fn sibling_positions(&self, owner: NodeId) -> HashMap<NodeId, usize> {
        self.doc
            .children(owner)
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use xpe_xml::parse as parse_xml;

    fn fig1() -> Document {
        xpe_xml::fixtures::paper_figure1()
    }

    fn sel(doc: &Document, q: &str) -> u64 {
        let order = DocOrder::new(doc);
        selectivity(doc, &order, &parse_query(q).unwrap())
    }

    #[test]
    fn simple_queries_on_figure1() {
        let doc = fig1();
        assert_eq!(sel(&doc, "//A"), 3);
        assert_eq!(sel(&doc, "//A//C"), 2); // paper Example 4.2
        assert_eq!(sel(&doc, "/Root/A/B"), 4);
        assert_eq!(sel(&doc, "/Root/A/B/D"), 4);
        assert_eq!(sel(&doc, "//E"), 3);
        assert_eq!(sel(&doc, "//Missing"), 0);
    }

    #[test]
    fn branch_queries_on_figure1() {
        let doc = fig1();
        // Q1 = //A[/C/F]/B/D : only the middle A qualifies; its two B/D
        // pairs both count.
        assert_eq!(sel(&doc, "//A[/C/F]/B/D"), 2);
        // Q2 = //C[/E]/F with target E (paper Example 4.3): exact answer 1.
        assert_eq!(sel(&doc, "//C[/$E]/F"), 1);
        // Target C in the same query: exact answer 1.
        assert_eq!(sel(&doc, "//$C[/E]/F"), 1);
    }

    #[test]
    fn root_axis_child_restricts_to_document_root() {
        let doc = fig1();
        assert_eq!(sel(&doc, "/Root"), 1);
        assert_eq!(sel(&doc, "/A"), 0); // A is not the document root
        assert_eq!(sel(&doc, "//Root"), 1);
    }

    #[test]
    fn order_query_paper_example_5_1() {
        let doc = fig1();
        // Q̃1 = //A[/C[/F]/folls::B/D], target B: the middle A has
        // C(E,F) followed by a sibling B(D) — exactly one B, matching the
        // paper's estimate of 1 (Example 5.1).
        assert_eq!(sel(&doc, "//A[/C[/F]/folls::$B/D]"), 1);
        // Without the F condition the last A's trailing B also matches.
        assert_eq!(sel(&doc, "//A[/C/folls::$B/D]"), 2);
        assert_eq!(sel(&doc, "//A[/C/folls::B/$D]"), 2);
    }

    #[test]
    fn preceding_sibling_matches_reversed_order() {
        let doc = fig1();
        // C after some B: only the middle A (the last A's C comes first).
        assert_eq!(sel(&doc, "//A[/B/folls::$C]"), 1);
        // C before some B: middle and last A.
        assert_eq!(sel(&doc, "//A[/B/pres::$C]"), 2);
        // B after C: the middle A's trailing B plus the last A's B.
        assert_eq!(sel(&doc, "//A[/C/folls::$B]"), 2);
    }

    #[test]
    fn following_axis_document_scope() {
        let doc = fig1();
        // //A[/C/foll::D]: D following C within the same A — the middle A's
        // trailing B/D and the last A's B/D.
        assert_eq!(sel(&doc, "//A[/C/foll::$D]"), 2);
        // E following a B within the same A: only the middle A's C/E (the
        // first A's E sits *inside* its B and descendants don't follow).
        assert_eq!(sel(&doc, "//A[/B/foll::$E]"), 1);
        // prec: D preceding C — only the middle A's first B/D (the last A's
        // D comes after its C).
        assert_eq!(sel(&doc, "//A[/C/prec::$D]"), 1);
    }

    #[test]
    fn trunk_target_with_order_constraint() {
        let doc = fig1();
        // Target A: how many As have C followed by a sibling B (with D)?
        assert_eq!(sel(&doc, "//$A[/C/folls::B/D]"), 2);
        assert_eq!(sel(&doc, "//$A[/C/folls::B]"), 2);
        assert_eq!(sel(&doc, "//$A[/B/folls::C]"), 1);
    }

    #[test]
    fn chain_of_three_siblings() {
        let doc = parse_xml("<r><a><x/><y/><z/></a><a><y/><x/><z/></a></r>").unwrap();
        // Only the first `a` has x, then y, then z in order (the second has
        // y before x, so no y follows its x).
        assert_eq!(sel(&doc, "//a[/x/folls::y/folls::$z]"), 1);
        assert_eq!(sel(&doc, "//$a[/x/folls::y/folls::z]"), 1);
        assert_eq!(sel(&doc, "//$a[/y/folls::x/folls::z]"), 1);
        assert_eq!(sel(&doc, "//$a[/z/folls::x]"), 0);
    }

    #[test]
    fn usable_filtering_is_exact() {
        // Two x children; only the first can satisfy "x before y".
        let doc = parse_xml("<r><a><x/><y/><x/></a></r>").unwrap();
        assert_eq!(sel(&doc, "//a[/$x/folls::y]"), 1);
        // Both x's qualify as "after y"? Only the second.
        assert_eq!(sel(&doc, "//a[/y/folls::$x]"), 1);
        // x on either side: pres picks the first.
        assert_eq!(sel(&doc, "//a[/y/pres::$x]"), 1);
    }

    #[test]
    fn deep_target_below_constrained_head() {
        let doc = parse_xml("<r><a><c/><b><d/></b></a><a><b><d/></b><c/></a></r>").unwrap();
        // b after c: first a only; its d counts.
        assert_eq!(sel(&doc, "//a[/c/folls::b/$d]"), 1);
        // b before c: second a; its d counts.
        assert_eq!(sel(&doc, "//a[/c/pres::b/$d]"), 1);
    }

    #[test]
    fn evaluator_reuse_across_queries() {
        let doc = fig1();
        let order = DocOrder::new(&doc);
        let ev = Evaluator::new(&doc, &order);
        assert_eq!(ev.selectivity(&parse_query("//A//C").unwrap()), 2);
        assert_eq!(ev.selectivity(&parse_query("//A[/C/F]/B/D").unwrap()), 2);
        assert_eq!(ev.selectivity(&parse_query("//B/D").unwrap()), 4);
    }

    #[test]
    fn match_sets_are_sorted_and_deduped() {
        let doc = fig1();
        let order = DocOrder::new(&doc);
        let q = parse_query("//A/B/D").unwrap();
        let r = evaluate(&doc, &order, &q);
        for set in &r.match_sets {
            let mut sorted = set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(&sorted, set);
        }
    }
}

#[cfg(test)]
mod document_chain_tests {
    use super::*;
    use crate::parse::parse_query;
    use xpe_xml::parse as parse_xml;

    fn sel(xml: &str, q: &str) -> u64 {
        let doc = parse_xml(xml).unwrap();
        let order = DocOrder::new(&doc);
        selectivity(&doc, &order, &parse_query(q).unwrap())
    }

    #[test]
    fn following_skips_descendants_and_ancestors() {
        // d inside c is NOT following c; d after c's subtree is.
        let xml = "<r><a><c><d/></c><d/></a></r>";
        assert_eq!(sel(xml, "//a[/c/foll::$d]"), 1);
        // The inner d precedes nothing relative to c.
        assert_eq!(sel(xml, "//a[/c/prec::$d]"), 0);
    }

    #[test]
    fn following_within_owner_subtree_only() {
        // Paper §5 scoping: the second a's d follows the first a's c in
        // document order, but the constraint is owned by `a`, so it
        // does not count.
        let xml = "<r><a><c/></a><a><d/></a></r>";
        assert_eq!(sel(xml, "//a[/c/foll::$d]"), 0);
    }

    #[test]
    fn chained_document_constraints() {
        // c then (somewhere later) m then (later still) z, all within a.
        let xml = "<r>\
            <a><c/><b><m/></b><b><z/></b></a>\
            <a><c/><b><z/></b><b><m/></b></a>\
         </r>";
        assert_eq!(sel(xml, "//$a[/c/foll::m/foll::z]"), 1);
        assert_eq!(sel(xml, "//$a[/c/foll::z/foll::m]"), 1);
    }

    #[test]
    fn document_chain_with_deep_heads() {
        // The moving head is deep below the owner.
        let xml = "<r><a><c/><x><y><d/></y></x></a><a><x><y><d/></y></x><c/></a></r>";
        assert_eq!(sel(xml, "//a[/c/foll::$d]"), 1);
        assert_eq!(sel(xml, "//a[/c/prec::$d]"), 1);
    }
}
