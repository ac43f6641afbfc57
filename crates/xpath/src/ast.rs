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
//!
//! [`Query::new`] is the one place that reads a query's shape: one walk
//! from node 0 checks that the edges form a tree over every node, and
//! records each node's parent, the pre-order with each subtree's span in
//! it, and the order chains, which every reader then takes from the query.

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

/// One order chain of a [`Query`], as [`Query::chains`] lists it: edges
/// of one owner node whose heads must occur in the chain's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderChain<'q> {
    /// The node whose edges the chain orders.
    pub owner: QueryNodeId,
    /// The kind every constraint of the chain has.
    pub kind: OrderKind,
    /// The chain's links, first to last: each is an edge index at the
    /// owner with the head node that edge leads to. A chain has at least
    /// two.
    pub links: &'q [(usize, QueryNodeId)],
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
    /// An edge leads to a node index past the node list.
    EdgeOutOfRange,
    /// The target is a node index past the node list.
    TargetOutOfRange,
    /// Two edges lead to the same node, which would have two parents.
    TwoParents,
    /// An edge leads back to node 0, the query root, closing a cycle.
    Cycle,
    /// A node is not reachable from node 0 along the edges.
    Unreachable,
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
            QueryError::EdgeOutOfRange => "an edge leads to a node past the node list",
            QueryError::TargetOutOfRange => "the target is a node past the node list",
            QueryError::TwoParents => "two edges lead to the same query node",
            QueryError::Cycle => "an edge leads back to the query root",
            QueryError::Unreachable => "a query node is not reachable from the root",
        };
        f.write_str(s)
    }
}

impl std::error::Error for QueryError {}

/// A validated twig query: a tree over all of its nodes, rooted at node
/// 0, with its shape recorded by [`Query::new`].
#[derive(Clone, Debug)]
pub struct Query {
    nodes: Vec<QueryNode>,
    root_axis: Axis,
    target: QueryNodeId,
    /// Entry `i`: node `i`'s place in the tree, and the node at position
    /// `i` of the pre-order: one allocation of 20 bytes a node, which
    /// every clone of the query copies.
    shape: Box<[NodeShape]>,
    /// Every order chain: owners in id order, each owner's chains by
    /// first edge.
    chains: Box<[ChainSpan]>,
    /// The `(edge, head)` links of every chain, first to last; each
    /// chain span owns one range.
    links: Box<[(usize, QueryNodeId)]>,
}

/// Entry `i` of a query's shape.
#[derive(Clone, Copy, Debug)]
struct NodeShape {
    /// Node `i`'s parent, `NO_PARENT` for the root.
    parent: u32,
    /// The index of the parent's edge to node `i`.
    edge: u32,
    /// Node `i`'s position in the pre-order.
    pre: u32,
    /// One past the last pre-order position of node `i`'s subtree.
    end: u32,
    /// The node at position `i` of the pre-order: a parent before its
    /// children, and a node's children in edge order.
    at: QueryNodeId,
}

/// One order chain: its owner, its kind and its range of the query's
/// `links`.
#[derive(Clone, Copy, Debug)]
struct ChainSpan {
    owner: QueryNodeId,
    kind: OrderKind,
    start: usize,
    end: usize,
}

impl Query {
    /// Assembles and validates a query.
    ///
    /// `root_axis` is the axis connecting the document root to node 0:
    /// `Child` for queries written `/a/...`, `Descendant` for `//a/...`.
    ///
    /// Node 0 is the query root. The edges must form a tree over every
    /// node: each edge leads to a node in the list
    /// ([`QueryError::EdgeOutOfRange`]), none leads back to node 0
    /// ([`QueryError::Cycle`]), no two lead to the same node
    /// ([`QueryError::TwoParents`]), and every node is reached from node
    /// 0 ([`QueryError::Unreachable`]). The target must be in the list
    /// ([`QueryError::TargetOutOfRange`]), and each node's order
    /// constraints must form disjoint single-kind chains over its edges.
    /// Node ids may come in any order; the walk that checks the tree runs
    /// without recursion, so a query of any depth is accepted.
    pub fn new(
        nodes: Vec<QueryNode>,
        root_axis: Axis,
        target: QueryNodeId,
    ) -> Result<Self, QueryError> {
        if nodes.is_empty() {
            return Err(QueryError::Empty);
        }
        debug_assert!(matches!(root_axis, Axis::Child | Axis::Descendant));
        let (mut chains, mut links) = (Vec::new(), Vec::new());
        for (i, node) in nodes.iter().enumerate() {
            push_chains(QueryNodeId::from_index(i), node, &mut chains, &mut links)?;
        }
        if target.index() >= nodes.len() {
            return Err(QueryError::TargetOutOfRange);
        }
        let shape = walk(&nodes)?;
        Ok(Query {
            nodes,
            root_axis,
            target,
            shape,
            chains: chains.into_boxed_slice(),
            links: links.into_boxed_slice(),
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

    /// Iterate over node ids in id order. Ids come as the node list gave
    /// them, so a child may precede its parent; walk
    /// [`preorder`](Self::preorder) for parents first.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = QueryNodeId> {
        (0..self.nodes.len() as u32).map(QueryNodeId)
    }

    /// Every node once, in pre-order from the root: each parent before
    /// its children, and a node's children in edge order. Walk it
    /// backwards for children before parents.
    pub fn preorder(
        &self,
    ) -> impl DoubleEndedIterator<Item = QueryNodeId> + ExactSizeIterator + '_ {
        self.shape.iter().map(|s| s.at)
    }

    /// `id` and its descendants, in pre-order: one run of
    /// [`preorder`](Self::preorder).
    pub fn subtree(
        &self,
        id: QueryNodeId,
    ) -> impl DoubleEndedIterator<Item = QueryNodeId> + ExactSizeIterator + '_ {
        let s = self.shape[id.index()];
        self.shape[s.pre as usize..s.end as usize]
            .iter()
            .map(|s| s.at)
    }

    /// Whether `x` lies in the subtree rooted at `a`, `a` included.
    #[inline]
    pub fn in_subtree(&self, x: QueryNodeId, a: QueryNodeId) -> bool {
        let s = self.shape[a.index()];
        (s.pre..s.end).contains(&self.shape[x.index()].pre)
    }

    /// The parent of `id` together with the connecting edge index, if any.
    #[inline]
    pub fn parent_of(&self, id: QueryNodeId) -> Option<(QueryNodeId, usize)> {
        let s = self.shape[id.index()];
        (s.parent != NO_PARENT).then_some((QueryNodeId(s.parent), s.edge as usize))
    }

    /// True when any node carries an order constraint.
    pub fn has_order_constraints(&self) -> bool {
        !self.chains.is_empty()
    }

    fn chain(&self, span: &ChainSpan) -> OrderChain<'_> {
        OrderChain {
            owner: span.owner,
            kind: span.kind,
            links: &self.links[span.start..span.end],
        }
    }

    /// Every order chain of the query: owners in id order, and each
    /// owner's chains by first edge.
    pub fn chains(&self) -> impl ExactSizeIterator<Item = OrderChain<'_>> + '_ {
        self.chains.iter().map(|span| self.chain(span))
    }

    /// The order chains of node `owner`, by first edge.
    pub fn chains_at(&self, owner: QueryNodeId) -> impl Iterator<Item = OrderChain<'_>> + '_ {
        let start = self.chains.partition_point(|c| c.owner < owner);
        let end = self.chains.partition_point(|c| c.owner <= owner);
        self.chains[start..end].iter().map(|span| self.chain(span))
    }

    /// Whether edge `e` of node `id` belongs to one of its order chains.
    pub fn is_chained(&self, id: QueryNodeId, e: usize) -> bool {
        self.chains_at(id)
            .any(|c| c.links.iter().any(|&(edge, _)| edge == e))
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

/// The parent of the root, and of a node not yet reached by `walk`.
const NO_PARENT: u32 = u32::MAX;

/// The pre-order position of a node not yet reached by `walk`.
const UNSEEN: u32 = u32::MAX;

/// Walks the edges from node 0 depth-first, following each node's edges
/// in order, and returns the query's shape. The walk keeps no stack: it
/// climbs back through the parent links it records. Fails on an edge
/// past the node list, an edge back to node 0, a node reached twice, or
/// a node never reached.
fn walk(nodes: &[QueryNode]) -> Result<Box<[NodeShape]>, QueryError> {
    let unseen = NodeShape {
        parent: NO_PARENT,
        edge: 0,
        pre: UNSEEN,
        end: UNSEEN,
        at: QueryNodeId(0),
    };
    let mut shape = vec![unseen; nodes.len()];
    let root = QueryNodeId(0);
    shape[0].pre = 0;
    let mut reached = 1;
    // The node being walked and the index of its next edge to follow.
    let (mut cur, mut next) = (root, 0);
    loop {
        if let Some(edge) = nodes[cur.index()].edges.get(next) {
            let child = edge.to;
            let place = shape
                .get_mut(child.index())
                .ok_or(QueryError::EdgeOutOfRange)?;
            if child == root {
                return Err(QueryError::Cycle);
            }
            if place.pre != UNSEEN {
                return Err(QueryError::TwoParents);
            }
            place.parent = cur.0;
            place.edge = next as u32;
            place.pre = reached;
            shape[reached as usize].at = child;
            reached += 1;
            (cur, next) = (child, 0);
        } else {
            let place = &mut shape[cur.index()];
            place.end = reached;
            if place.parent == NO_PARENT {
                break;
            }
            (cur, next) = (QueryNodeId(place.parent), place.edge as usize + 1);
        }
    }
    if (reached as usize) < nodes.len() {
        return Err(QueryError::Unreachable);
    }
    Ok(shape.into_boxed_slice())
}

/// Checks that a node's constraints form disjoint, kind-homogeneous chains
/// over valid edges, and appends its chains, by first edge, to `chains`
/// and `links`.
fn push_chains(
    owner: QueryNodeId,
    node: &QueryNode,
    chains: &mut Vec<ChainSpan>,
    links: &mut Vec<(usize, QueryNodeId)>,
) -> Result<(), QueryError> {
    if node.constraints.is_empty() {
        return Ok(());
    }
    let n = node.edges.len();
    // Per edge: the chain's next edge with the constraint's kind, and
    // whether a constraint leads here.
    let mut next: Vec<Option<(usize, OrderKind)>> = vec![None; n];
    let mut has_prev = vec![false; n];
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
        if next[c.before].is_some() || has_prev[c.after] {
            return Err(QueryError::NotAChain);
        }
        next[c.before] = Some((c.after, c.kind));
        has_prev[c.after] = true;
    }
    // Follow each chain from its first edge, the one no constraint leads
    // to. A constraint on a cycle is never followed.
    let mut followed = 0;
    for first in 0..n {
        let Some((_, kind)) = next[first].filter(|_| !has_prev[first]) else {
            continue;
        };
        let start = links.len();
        let mut cur = first;
        links.push((cur, node.edges[cur].to));
        while let Some((after, k)) = next[cur] {
            if k != kind {
                return Err(QueryError::NotAChain);
            }
            followed += 1;
            cur = after;
            links.push((cur, node.edges[cur].to));
        }
        chains.push(ChainSpan {
            owner,
            kind,
            start,
            end: links.len(),
        });
    }
    if followed < node.constraints.len() {
        return Err(QueryError::NotAChain); // cycle
    }
    Ok(())
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
        let chains: Vec<OrderChain<'_>> = q.chains().collect();
        assert_eq!(
            chains,
            [OrderChain {
                owner: q.root(),
                kind: OrderKind::Sibling,
                links: &[(0, QueryNodeId(1)), (1, QueryNodeId(2))],
            }]
        );
    }

    /// The chain list holds each owner's chains by first edge, whatever
    /// order the constraints come in, and owners in id order.
    #[test]
    fn chain_list_orders_owners_by_id_and_chains_by_first_edge() {
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
        // Node 1 owns a chain too, over two new leaves.
        nodes[1] = node(
            "B",
            vec![edge(Axis::Child, 7), edge(Axis::Descendant, 8)],
            vec![c(1, 0, OrderKind::Document)],
        );
        nodes.extend((7..=8).map(|_| node("C", vec![], vec![])));
        let q = Query::new(nodes, Axis::Descendant, QueryNodeId(1)).unwrap();
        let root = q.root();
        let edges_of = |chain: OrderChain<'_>| -> (QueryNodeId, OrderKind, Vec<usize>) {
            for &(e, head) in chain.links {
                assert_eq!(head, q.node(chain.owner).edges[e].to);
            }
            let edges = chain.links.iter().map(|&(e, _)| e).collect();
            (chain.owner, chain.kind, edges)
        };
        let listed: Vec<_> = q.chains().map(edges_of).collect();
        assert_eq!(
            listed,
            vec![
                (root, OrderKind::Sibling, vec![4, 1, 2]),
                (root, OrderKind::Document, vec![5, 3]),
                (QueryNodeId(1), OrderKind::Document, vec![1, 0]),
            ]
        );
        let at_root: Vec<_> = q.chains_at(root).map(edges_of).collect();
        assert_eq!(at_root, listed[..2]);
        let chained: Vec<bool> = (0..6).map(|e| q.is_chained(root, e)).collect();
        assert_eq!(chained, [false, true, true, true, true, true]);
        let leaf = QueryNodeId(2);
        assert!(!q.is_chained(leaf, 0));
        assert_eq!(q.chains_at(leaf).count(), 0);
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

    /// `//A/C/B` with `B`'s id below `C`'s: ids stay as given, and the
    /// recorded shape walks parents first.
    #[test]
    fn shape_is_recorded_whatever_the_id_order() {
        let q = Query::new(
            vec![
                node("A", vec![edge(Axis::Child, 2)], vec![]),
                node("B", vec![], vec![]),
                node("C", vec![edge(Axis::Child, 1)], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(1),
        )
        .unwrap();
        let (a, b, c) = (QueryNodeId(0), QueryNodeId(1), QueryNodeId(2));
        assert_eq!(q.node(q.target()).tag, "B");
        assert_eq!(q.preorder().collect::<Vec<_>>(), [a, c, b]);
        assert_eq!(q.parent_of(b), Some((c, 0)));
        assert_eq!(q.parent_of(c), Some((a, 0)));
        assert_eq!(q.parent_of(a), None);
        assert_eq!(q.subtree(c).collect::<Vec<_>>(), [c, b]);
        assert_eq!(q.subtree(b).collect::<Vec<_>>(), [b]);
        assert!(q.in_subtree(b, c) && q.in_subtree(b, a) && q.in_subtree(c, c));
        assert!(!q.in_subtree(c, b) && !q.in_subtree(a, c));
        assert_eq!(q.path_to(b), [a, c, b]);
        assert_eq!(q.to_string(), "//A/C/B");
    }

    /// Pre-order follows each node's edges in order, and a subtree is
    /// one contiguous run of it.
    #[test]
    fn preorder_follows_edges_in_order() {
        // A[/B[/D][/E]]/C, numbered A 0, C 1, B 2, E 3, D 4.
        let q = Query::new(
            vec![
                node(
                    "A",
                    vec![edge(Axis::Child, 2), edge(Axis::Child, 1)],
                    vec![],
                ),
                node("C", vec![], vec![]),
                node(
                    "B",
                    vec![edge(Axis::Child, 4), edge(Axis::Descendant, 3)],
                    vec![],
                ),
                node("E", vec![], vec![]),
                node("D", vec![], vec![]),
            ],
            Axis::Child,
            QueryNodeId(1),
        )
        .unwrap();
        let tags: Vec<&str> = q.preorder().map(|n| &*q.node(n).tag).collect();
        assert_eq!(tags, ["A", "B", "D", "E", "C"]);
        let sub: Vec<&str> = q.subtree(QueryNodeId(2)).map(|n| &*q.node(n).tag).collect();
        assert_eq!(sub, ["B", "D", "E"]);
        assert_eq!(q.parent_of(QueryNodeId(3)), Some((QueryNodeId(2), 1)));
        assert_eq!(q.parent_of(QueryNodeId(1)), Some((QueryNodeId(0), 1)));
    }

    #[test]
    fn edge_out_of_range_rejected() {
        let err = Query::new(
            vec![
                node(
                    "A",
                    vec![edge(Axis::Child, 1), edge(Axis::Child, 2)],
                    vec![],
                ),
                node("B", vec![], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(1),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::EdgeOutOfRange);
    }

    #[test]
    fn target_out_of_range_rejected() {
        let err = Query::new(
            vec![
                node("A", vec![edge(Axis::Child, 1)], vec![]),
                node("B", vec![], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(2),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::TargetOutOfRange);
    }

    #[test]
    fn node_with_two_parents_rejected() {
        // A/B and A/C/B share their B.
        let err = Query::new(
            vec![
                node(
                    "A",
                    vec![edge(Axis::Child, 1), edge(Axis::Child, 2)],
                    vec![],
                ),
                node("B", vec![], vec![]),
                node("C", vec![edge(Axis::Child, 1)], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(1),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::TwoParents);
    }

    #[test]
    fn cycle_through_the_root_rejected() {
        let err = Query::new(
            vec![
                node("A", vec![edge(Axis::Child, 1)], vec![]),
                node("B", vec![edge(Axis::Child, 0)], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(1),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::Cycle);
    }

    #[test]
    fn unreachable_node_rejected() {
        let err = Query::new(
            vec![
                node("A", vec![edge(Axis::Child, 1)], vec![]),
                node("B", vec![], vec![]),
                node("C", vec![], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(1),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::Unreachable);
        // A cycle away from the root is never reached either.
        let err = Query::new(
            vec![
                node("A", vec![], vec![]),
                node("B", vec![edge(Axis::Child, 2)], vec![]),
                node("C", vec![edge(Axis::Child, 1)], vec![]),
            ],
            Axis::Descendant,
            QueryNodeId(0),
        )
        .unwrap_err();
        assert_eq!(err, QueryError::Unreachable);
    }

    /// The walk keeps no stack and does not recurse: a 100,000-node chain
    /// validates on a 256 KiB thread stack.
    #[test]
    fn deep_chain_validates_on_a_small_stack() {
        const N: usize = 100_000;
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let nodes = (0..N)
                    .map(|i| {
                        let edges = if i + 1 < N {
                            vec![edge(Axis::Child, (i + 1) as u32)]
                        } else {
                            vec![]
                        };
                        node("a", edges, vec![])
                    })
                    .collect();
                let q = Query::new(nodes, Axis::Child, QueryNodeId::from_index(N - 1)).unwrap();
                assert_eq!(q.preorder().len(), N);
                assert_eq!(q.subtree(q.root()).len(), N);
                let last = q.target();
                assert_eq!(q.parent_of(last), Some((QueryNodeId::from_index(N - 2), 0)));
                assert!(q.in_subtree(last, q.root()));
            })
            .unwrap();
        handle.join().unwrap();
    }
}
