//! Twig-query representation.
//!
//! A [`Query`] is a tree of named steps connected by `child` / `descendant`
//! edges, with *order constraints* attached to branching nodes — the
//! structural form of the paper's
//! `q1[/q2/folls::q3]` / `q1[/q2/pres::q3]` patterns (§5). One node is the
//! *target*: the node whose selectivity is being asked for.
//!
//! Order constraints at a node must form disjoint **chains** over distinct
//! edges of that node (`e1` before `e2` before ...). This covers every query
//! shape the paper defines (a single before/after pair per branching node,
//! or a sequence of them) while keeping exact evaluation tractable.

use std::fmt;

/// An XPath axis supported by the estimation system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `/` — parent-child.
    Child,
    /// `//` — ancestor-descendant.
    Descendant,
    /// `following-sibling::` (paper shorthand `folls::`).
    FollowingSibling,
    /// `preceding-sibling::` (paper shorthand `pres::`).
    PrecedingSibling,
    /// `following::` (paper shorthand `foll::`), scoped — as in the paper's
    /// §5 conversion — to the subtree of the query node that owns the
    /// constraint.
    Following,
    /// `preceding::` (paper shorthand `prec::`), scoped like [`Axis::Following`].
    Preceding,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Axis::Child => "/",
            Axis::Descendant => "//",
            Axis::FollowingSibling => "/folls::",
            Axis::PrecedingSibling => "/pres::",
            Axis::Following => "/foll::",
            Axis::Preceding => "/prec::",
        };
        f.write_str(s)
    }
}

/// Index of a node within a [`Query`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryNodeId(pub(crate) u32);

impl QueryNodeId {
    /// Dense index into [`Query::nodes`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index — node ids are positions in the
    /// `Vec<QueryNode>` handed to [`Query::new`], so callers assembling
    /// queries programmatically mint ids this way.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        QueryNodeId(u32::try_from(index).expect("query node index overflows u32"))
    }
}

impl fmt::Debug for QueryNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A structural edge of the query tree. Only `Child` and `Descendant` appear
/// here; order axes are normalized into [`OrderConstraint`]s at lowering
/// time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryEdge {
    /// `Child` or `Descendant`.
    pub axis: Axis,
    /// The child query node.
    pub to: QueryNodeId,
}

/// How the two constrained branch heads must relate in the document.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OrderKind {
    /// Heads are siblings (children of the same match of the owner node) and
    /// the `before` head occurs earlier among those siblings
    /// (`following-sibling` / `preceding-sibling`).
    Sibling,
    /// Heads are descendants of the owner match and the `before` head
    /// precedes the `after` head in document order without being its
    /// ancestor (`following` / `preceding`, subtree-scoped per the paper).
    Document,
}

/// An ordering requirement between two edges of the same query node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderConstraint {
    /// Index (into the owner's edge list) of the branch whose head must
    /// occur first.
    pub before: usize,
    /// Index of the branch whose head must occur later.
    pub after: usize,
    /// Sibling-level or document-order requirement.
    pub kind: OrderKind,
}

/// One step of the query tree.
#[derive(Clone, Debug)]
pub struct QueryNode {
    /// Element tag this step matches (no wildcards: the estimation tables
    /// are keyed by concrete tags).
    pub tag: String,
    /// Outgoing structural edges, in syntactic order.
    pub edges: Vec<QueryEdge>,
    /// Order constraints among this node's edges.
    pub constraints: Vec<OrderConstraint>,
}

/// Errors detected while assembling a [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// An order constraint referenced an edge index that does not exist.
    BadEdgeIndex,
    /// A constraint relates an edge to itself.
    SelfConstraint,
    /// Constraints at one node do not form disjoint chains, or mix
    /// [`OrderKind`]s within a chain.
    NotAChain,
    /// A `Sibling` constraint was placed on a non-`Child` edge.
    SiblingNeedsChildEdge,
    /// The query has no nodes.
    Empty,
    /// An order axis appeared where no owner (parent step) exists.
    OrderAxisWithoutOwner,
    /// More than one node was marked as the target.
    MultipleTargets,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QueryError::BadEdgeIndex => "order constraint references a nonexistent edge",
            QueryError::SelfConstraint => "order constraint relates an edge to itself",
            QueryError::NotAChain => {
                "order constraints at a node must form disjoint single-kind chains"
            }
            QueryError::SiblingNeedsChildEdge => {
                "sibling order constraints require child-axis edges"
            }
            QueryError::Empty => "query has no steps",
            QueryError::OrderAxisWithoutOwner => {
                "order axis requires a preceding step with an explicit parent"
            }
            QueryError::MultipleTargets => "query marks more than one target node",
        };
        f.write_str(s)
    }
}

impl std::error::Error for QueryError {}

/// A validated twig query.
#[derive(Clone, Debug)]
pub struct Query {
    nodes: Vec<QueryNode>,
    root_axis: Axis,
    target: QueryNodeId,
    /// `links[i][e]`: where edge `e` of node `i` sits in the node's order
    /// chains, found while validating. Empty for a query without order
    /// constraints, and for each node without them.
    links: Vec<Box<[ChainLink]>>,
}

/// Where one edge sits in its node's order chains.
#[derive(Clone, Copy, Debug, Default)]
struct ChainLink {
    /// The chain's next edge, with the kind of the constraint to it.
    next: Option<(usize, OrderKind)>,
    /// Whether a chain's previous edge leads here.
    has_prev: bool,
}

impl Query {
    /// Assembles and validates a query.
    ///
    /// `root_axis` is the axis connecting the document root to node 0:
    /// `Child` for queries written `/a/...`, `Descendant` for `//a/...`.
    pub fn new(
        nodes: Vec<QueryNode>,
        root_axis: Axis,
        target: QueryNodeId,
    ) -> Result<Self, QueryError> {
        if nodes.is_empty() {
            return Err(QueryError::Empty);
        }
        debug_assert!(matches!(root_axis, Axis::Child | Axis::Descendant));
        let mut links = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            let node_links = validate_constraints(node)?;
            if !node_links.is_empty() {
                if links.is_empty() {
                    links.resize_with(nodes.len(), Box::default);
                }
                links[i] = node_links;
            }
        }
        Ok(Query {
            nodes,
            root_axis,
            target,
            links,
        })
    }

    /// The query node matched against the document root's position.
    #[inline]
    pub fn root(&self) -> QueryNodeId {
        QueryNodeId(0)
    }

    /// Axis between the document root and the first step.
    #[inline]
    pub fn root_axis(&self) -> Axis {
        self.root_axis
    }

    /// The node whose selectivity is asked for.
    #[inline]
    pub fn target(&self) -> QueryNodeId {
        self.target
    }

    /// Number of steps.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the query is empty (never true for a validated query).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    #[inline]
    pub fn node(&self, id: QueryNodeId) -> &QueryNode {
        &self.nodes[id.index()]
    }

    /// All nodes, indexable by [`QueryNodeId::index`]. Useful for callers
    /// (like the estimator) that derive modified queries.
    #[inline]
    pub fn nodes(&self) -> &[QueryNode] {
        &self.nodes
    }

    /// Iterate over node ids, parents before children.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = QueryNodeId> {
        (0..self.nodes.len() as u32).map(QueryNodeId)
    }

    /// The parent of `id` together with the connecting edge index, if any.
    pub fn parent_of(&self, id: QueryNodeId) -> Option<(QueryNodeId, usize)> {
        for p in self.node_ids() {
            if let Some(i) = self.nodes[p.index()].edges.iter().position(|e| e.to == id) {
                return Some((p, i));
            }
        }
        None
    }

    /// True when any node carries an order constraint.
    pub fn has_order_constraints(&self) -> bool {
        self.nodes.iter().any(|n| !n.constraints.is_empty())
    }

    fn links(&self, id: QueryNodeId) -> &[ChainLink] {
        self.links.get(id.index()).map_or(&[], |l| l)
    }

    /// Whether edge `e` of node `id` belongs to one of its order chains.
    pub fn is_chained(&self, id: QueryNodeId, e: usize) -> bool {
        self.links(id)
            .get(e)
            .is_some_and(|l| l.next.is_some() || l.has_prev)
    }

    /// The edge after edge `e` of node `id` in its order chain, with the
    /// chain's kind.
    pub fn chain_next(&self, id: QueryNodeId, e: usize) -> Option<(usize, OrderKind)> {
        self.links(id).get(e).and_then(|l| l.next)
    }

    /// The first edge of each order chain at node `id`, in ascending edge
    /// order: the chains of [`constraint_chains`], walked with
    /// [`chain_next`](Self::chain_next) and without allocating.
    pub fn chain_starts(&self, id: QueryNodeId) -> impl Iterator<Item = usize> + '_ {
        self.links(id)
            .iter()
            .enumerate()
            .filter(|(_, l)| l.next.is_some() && !l.has_prev)
            .map(|(e, _)| e)
    }

    /// Nodes on the path from the query root to `id`, inclusive.
    pub fn path_to(&self, id: QueryNodeId) -> Vec<QueryNodeId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some((p, _)) = self.parent_of(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

/// Checks that a node's constraints form disjoint, kind-homogeneous chains
/// over valid edges, and returns each edge's chain link (nothing for a
/// node without constraints).
fn validate_constraints(node: &QueryNode) -> Result<Box<[ChainLink]>, QueryError> {
    if node.constraints.is_empty() {
        return Ok(Box::default());
    }
    let n = node.edges.len();
    let mut links = vec![ChainLink::default(); n];
    for c in &node.constraints {
        if c.before >= n || c.after >= n {
            return Err(QueryError::BadEdgeIndex);
        }
        if c.before == c.after {
            return Err(QueryError::SelfConstraint);
        }
        match c.kind {
            OrderKind::Sibling => {
                if node.edges[c.before].axis != Axis::Child
                    || node.edges[c.after].axis != Axis::Child
                {
                    return Err(QueryError::SiblingNeedsChildEdge);
                }
            }
            OrderKind::Document => {}
        }
        if links[c.before].next.is_some() || links[c.after].has_prev {
            return Err(QueryError::NotAChain);
        }
        links[c.before].next = Some((c.after, c.kind));
        links[c.after].has_prev = true;
    }
    // Reject cycles: follow each chain from its head; every constrained edge
    // must be reached from a head (an edge with no predecessor).
    let mut reached = vec![false; n];
    for start in 0..n {
        if links[start].has_prev {
            continue;
        }
        reached[start] = true;
        let mut kind: Option<OrderKind> = None;
        let mut cur = start;
        while let Some((next, k)) = links[cur].next {
            match kind {
                None => kind = Some(k),
                Some(prev) if prev == k => {}
                Some(_) => return Err(QueryError::NotAChain),
            }
            reached[next] = true;
            cur = next;
        }
    }
    for c in &node.constraints {
        if !reached[c.before] || !reached[c.after] {
            return Err(QueryError::NotAChain); // cycle
        }
    }
    Ok(links.into_boxed_slice())
}

/// The chains of order-constrained edges at one query node, in constraint
/// order. Used by both the exact evaluator and the estimator.
pub fn constraint_chains(node: &QueryNode) -> Vec<(OrderKind, Vec<usize>)> {
    let n = node.edges.len();
    let mut succ: Vec<Option<(usize, OrderKind)>> = vec![None; n];
    let mut has_pred = vec![false; n];
    for c in &node.constraints {
        succ[c.before] = Some((c.after, c.kind));
        has_pred[c.after] = true;
    }
    let mut chains = Vec::new();
    for start in 0..n {
        if has_pred[start] || succ[start].is_none() {
            continue;
        }
        let mut chain = vec![start];
        let mut kind = None;
        let mut cur = start;
        while let Some((next, k)) = succ[cur] {
            kind = Some(k);
            chain.push(next);
            cur = next;
        }
        chains.push((kind.expect("chain has at least one constraint"), chain));
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(tag: &str, edges: Vec<QueryEdge>, constraints: Vec<OrderConstraint>) -> QueryNode {
        QueryNode {
            tag: tag.to_owned(),
            edges,
            constraints,
        }
    }

    fn edge(axis: Axis, to: u32) -> QueryEdge {
        QueryEdge {
            axis,
            to: QueryNodeId(to),
        }
    }

    #[test]
    fn simple_query_validates() {
        let q = Query::new(
            vec![
                node("A", vec![edge(Axis::Child, 1)], vec![]),
                node("B", vec![], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(1),
        )
        .unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.parent_of(QueryNodeId(1)), Some((QueryNodeId(0), 0)));
        assert!(!q.has_order_constraints());
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            Query::new(vec![], Axis::Child, QueryNodeId(0)).unwrap_err(),
            QueryError::Empty
        );
    }

    #[test]
    fn sibling_constraint_validates() {
        let q = Query::new(
            vec![
                node(
                    "A",
                    vec![edge(Axis::Child, 1), edge(Axis::Child, 2)],
                    vec![OrderConstraint {
                        before: 0,
                        after: 1,
                        kind: OrderKind::Sibling,
                    }],
                ),
                node("C", vec![], vec![]),
                node("B", vec![], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(2),
        )
        .unwrap();
        assert!(q.has_order_constraints());
        let chains = constraint_chains(q.node(q.root()));
        assert_eq!(chains, vec![(OrderKind::Sibling, vec![0, 1])]);
    }

    /// The allocation-free chain walk lists the chains of
    /// `constraint_chains`, in the same order.
    #[test]
    fn chain_walk_matches_constraint_chains() {
        let c = |before, after, kind| OrderConstraint {
            before,
            after,
            kind,
        };
        let mut nodes = vec![node(
            "A",
            (1..=6).map(|i| edge(Axis::Child, i)).collect(),
            vec![
                c(4, 1, OrderKind::Sibling),
                c(5, 3, OrderKind::Document),
                c(1, 2, OrderKind::Sibling),
            ],
        )];
        nodes.extend((1..=6).map(|_| node("B", vec![], vec![])));
        let q = Query::new(nodes, Axis::Descendant, QueryNodeId(1)).unwrap();
        let root = q.root();
        let walked: Vec<(OrderKind, Vec<usize>)> = q
            .chain_starts(root)
            .map(|start| {
                let kind = q.chain_next(root, start).unwrap().1;
                let mut chain = vec![start];
                while let Some((next, _)) = q.chain_next(root, *chain.last().unwrap()) {
                    chain.push(next);
                }
                (kind, chain)
            })
            .collect();
        assert_eq!(walked, constraint_chains(q.node(root)));
        assert_eq!(
            walked,
            vec![
                (OrderKind::Sibling, vec![4, 1, 2]),
                (OrderKind::Document, vec![5, 3])
            ]
        );
        let chained: Vec<bool> = (0..6).map(|e| q.is_chained(root, e)).collect();
        assert_eq!(chained, [false, true, true, true, true, true]);
        let leaf = QueryNodeId(1);
        assert!(!q.is_chained(leaf, 0));
        assert_eq!(q.chain_starts(leaf).count(), 0);
    }

    #[test]
    fn sibling_constraint_on_descendant_edge_rejected() {
        let err = Query::new(
            vec![
                node(
                    "A",
                    vec![edge(Axis::Descendant, 1), edge(Axis::Child, 2)],
                    vec![OrderConstraint {
                        before: 0,
                        after: 1,
                        kind: OrderKind::Sibling,
                    }],
                ),
                node("C", vec![], vec![]),
                node("B", vec![], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(2),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::SiblingNeedsChildEdge);
    }

    #[test]
    fn cycle_rejected() {
        let err = Query::new(
            vec![
                node(
                    "A",
                    vec![edge(Axis::Child, 1), edge(Axis::Child, 2)],
                    vec![
                        OrderConstraint {
                            before: 0,
                            after: 1,
                            kind: OrderKind::Sibling,
                        },
                        OrderConstraint {
                            before: 1,
                            after: 0,
                            kind: OrderKind::Sibling,
                        },
                    ],
                ),
                node("C", vec![], vec![]),
                node("B", vec![], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(2),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::NotAChain);
    }

    #[test]
    fn branching_constraint_rejected() {
        // Two constraints sharing a `before` edge are not a chain.
        let err = Query::new(
            vec![
                node(
                    "A",
                    vec![
                        edge(Axis::Child, 1),
                        edge(Axis::Child, 2),
                        edge(Axis::Child, 3),
                    ],
                    vec![
                        OrderConstraint {
                            before: 0,
                            after: 1,
                            kind: OrderKind::Sibling,
                        },
                        OrderConstraint {
                            before: 0,
                            after: 2,
                            kind: OrderKind::Sibling,
                        },
                    ],
                ),
                node("B", vec![], vec![]),
                node("C", vec![], vec![]),
                node("D", vec![], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(1),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::NotAChain);
    }

    #[test]
    fn mixed_kind_chain_rejected() {
        let err = Query::new(
            vec![
                node(
                    "A",
                    vec![
                        edge(Axis::Child, 1),
                        edge(Axis::Child, 2),
                        edge(Axis::Child, 3),
                    ],
                    vec![
                        OrderConstraint {
                            before: 0,
                            after: 1,
                            kind: OrderKind::Sibling,
                        },
                        OrderConstraint {
                            before: 1,
                            after: 2,
                            kind: OrderKind::Document,
                        },
                    ],
                ),
                node("B", vec![], vec![]),
                node("C", vec![], vec![]),
                node("D", vec![], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(1),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::NotAChain);
    }

    #[test]
    fn path_to_walks_spine() {
        let q = Query::new(
            vec![
                node("A", vec![edge(Axis::Child, 1)], vec![]),
                node("B", vec![edge(Axis::Descendant, 2)], vec![]),
                node("C", vec![], vec![]),
            ],
            Axis::Child,
            QueryNodeId(2),
        )
        .unwrap();
        let path = q.path_to(QueryNodeId(2));
        assert_eq!(path, vec![QueryNodeId(0), QueryNodeId(1), QueryNodeId(2)]);
    }

    #[test]
    fn bad_edge_index_rejected() {
        let err = Query::new(
            vec![node(
                "A",
                vec![edge(Axis::Child, 0)],
                vec![OrderConstraint {
                    before: 0,
                    after: 7,
                    kind: OrderKind::Sibling,
                }],
            )],
            Axis::Child,
            QueryNodeId(0),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::BadEdgeIndex);
    }
}
