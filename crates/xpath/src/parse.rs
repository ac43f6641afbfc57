//! Parser for the paper's XPath subset.
//!
//! Grammar (whitespace-insensitive between tokens):
//!
//! ```text
//! query     := ('/' | '//') steps
//! steps     := step ( sep step )*
//! sep       := '/' | '//'
//! step      := [ axis '::' ] [ '$' ] name predicate*
//! axis      := 'folls' | 'pres' | 'foll' | 'prec'
//!            | 'following-sibling' | 'preceding-sibling'
//!            | 'following' | 'preceding' | 'child' | 'descendant'
//! predicate := '[' [ sep ] steps ']'
//! ```
//!
//! `$` marks the *target* node (the paper "explicitly specifies the target
//! node"; the marker is ours). Without a marker, the last node of the
//! top-level path is the target — matching the paper's default of
//! estimating the final step.
//!
//! Order axes are normalized at lowering time into [`OrderConstraint`]s on
//! the owning (parent) step, exactly as §5 of the paper frames them:
//! `//A[/C/folls::B]` becomes node `A` with child edges to `C` and `B` and a
//! sibling constraint *C before B*.
//!
//! No root-to-leaf path of a parsed query has more than
//! [`MAX_DEPTH`] nodes (see [`QueryParseErrorKind::TooDeep`]), which bounds
//! the parser's own recursion and every later walk of the query tree.

use std::fmt;

use xpe_xml::MAX_DEPTH;

use crate::ast::{
    Axis, OrderConstraint, OrderKind, Query, QueryEdge, QueryError, QueryNode, QueryNodeId,
};

/// Position-annotated query parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Failure category.
    pub kind: QueryParseErrorKind,
}

/// The category of a [`QueryParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryParseErrorKind {
    /// Query must start with `/` or `//`.
    MissingLeadingSlash,
    /// A step name was expected.
    ExpectedName,
    /// An unknown axis name appeared before `::`.
    UnknownAxis(String),
    /// Order axes must be introduced with `/`, not `//`.
    OrderAxisAfterDescendant,
    /// A `]` or end-of-input was expected.
    Expected(char),
    /// Trailing characters after the query.
    TrailingInput,
    /// A root-to-leaf query path has more than [`MAX_DEPTH`] nodes. Every
    /// step on such a path is a strictly deeper element (order axes hang
    /// their node below the owning step), so the query selects nothing in
    /// any document the XML parser accepts.
    TooDeep,
    /// A structural error found while assembling the query.
    Query(QueryError),
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath parse error at byte {}: ", self.offset)?;
        match &self.kind {
            QueryParseErrorKind::MissingLeadingSlash => {
                write!(f, "query must start with '/' or '//'")
            }
            QueryParseErrorKind::ExpectedName => write!(f, "expected a step name"),
            QueryParseErrorKind::UnknownAxis(a) => write!(f, "unknown axis '{a}'"),
            QueryParseErrorKind::OrderAxisAfterDescendant => {
                write!(f, "order axes must be introduced with '/', not '//'")
            }
            QueryParseErrorKind::Expected(c) => write!(f, "expected {c:?}"),
            QueryParseErrorKind::TrailingInput => write!(f, "unexpected trailing input"),
            QueryParseErrorKind::TooDeep => {
                write!(f, "a query path nests more than {MAX_DEPTH} steps")
            }
            QueryParseErrorKind::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryParseError {}

/// Parses a query string.
///
/// # Examples
///
/// ```
/// use xpe_xpath::parse_query;
///
/// // The paper's branch query Q1 (Example 4.1).
/// let q1 = parse_query("//A[/C/F]/B/D").unwrap();
/// assert_eq!(q1.len(), 5);
///
/// // The paper's order query Q̃1 (Example 5.1), with explicit target B.
/// let q2 = parse_query("//A[/C[/F]/folls::$B/D]").unwrap();
/// assert!(q2.has_order_constraints());
/// assert_eq!(q2.node(q2.target()).tag, "B");
/// ```
pub fn parse_query(input: &str) -> Result<Query, QueryParseError> {
    let mut p = QueryParser {
        bytes: input.as_bytes(),
        pos: 0,
        nodes: Vec::new(),
        depths: Vec::new(),
        target: None,
    };
    let root_axis = p.leading_sep()?;
    let last = p.steps(None)?;
    if p.pos < p.bytes.len() {
        return Err(p.err(QueryParseErrorKind::TrailingInput));
    }
    let target = p.target.unwrap_or(last);
    let offset = p.pos;
    Query::new(p.nodes, root_axis, target).map_err(|e| QueryParseError {
        offset,
        kind: QueryParseErrorKind::Query(e),
    })
}

/// Axis parsed in front of a step name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StepAxis {
    Structural(Axis), // Child or Descendant
    Order(Axis),      // the four order-based axes
}

struct QueryParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    nodes: Vec<QueryNode>,
    /// Per node: its number of nodes on the path from the query root.
    depths: Vec<usize>,
    target: Option<QueryNodeId>,
}

impl<'a> QueryParser<'a> {
    fn err(&self, kind: QueryParseErrorKind) -> QueryParseError {
        QueryParseError {
            offset: self.pos,
            kind,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn leading_sep(&mut self) -> Result<Axis, QueryParseError> {
        self.skip_ws();
        match self.sep() {
            Some(a) => Ok(a),
            None => Err(self.err(QueryParseErrorKind::MissingLeadingSlash)),
        }
    }

    /// Consumes `/` or `//` if present.
    fn sep(&mut self) -> Option<Axis> {
        self.skip_ws();
        if self.peek() == Some(b'/') {
            self.pos += 1;
            if self.peek() == Some(b'/') {
                self.pos += 1;
                Some(Axis::Descendant)
            } else {
                Some(Axis::Child)
            }
        } else {
            None
        }
    }

    fn name(&mut self) -> Result<String, QueryParseError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.') || c >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err(QueryParseErrorKind::ExpectedName));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    /// Parses an optional `axis::` prefix plus the step name and target
    /// marker; `structural` is the `/` vs `//` separator that preceded.
    fn step_head(&mut self, structural: Axis) -> Result<(StepAxis, String), QueryParseError> {
        self.skip_ws();
        let mark_target_early = if self.peek() == Some(b'$') {
            self.pos += 1;
            true
        } else {
            false
        };
        let first = self.name()?;
        self.skip_ws();
        let (axis, name, marked) = if self.bytes[self.pos..].starts_with(b"::") {
            if mark_target_early {
                // `$folls::B` is ambiguous; require `$` on the name.
                return Err(self.err(QueryParseErrorKind::ExpectedName));
            }
            self.pos += 2;
            let axis = match first.as_str() {
                "folls" | "following-sibling" => StepAxis::Order(Axis::FollowingSibling),
                "pres" | "preceding-sibling" => StepAxis::Order(Axis::PrecedingSibling),
                "foll" | "following" => StepAxis::Order(Axis::Following),
                "prec" | "preceding" => StepAxis::Order(Axis::Preceding),
                "child" => StepAxis::Structural(Axis::Child),
                "descendant" => StepAxis::Structural(Axis::Descendant),
                other => return Err(self.err(QueryParseErrorKind::UnknownAxis(other.to_owned()))),
            };
            if matches!(axis, StepAxis::Order(_)) && structural == Axis::Descendant {
                return Err(self.err(QueryParseErrorKind::OrderAxisAfterDescendant));
            }
            self.skip_ws();
            let marked = if self.peek() == Some(b'$') {
                self.pos += 1;
                true
            } else {
                false
            };
            (axis, self.name()?, marked)
        } else {
            (StepAxis::Structural(structural), first, mark_target_early)
        };
        if marked {
            if self.target.is_some() {
                return Err(self.err(QueryParseErrorKind::Query(QueryError::MultipleTargets)));
            }
            // The marked node is created by the caller immediately after
            // this returns, so its id is the current node count.
            self.target = Some(QueryNodeId(self.nodes.len() as u32));
        }
        Ok((axis, name))
    }

    /// Creates the node of one step, to hang below `parent` (`None` for
    /// the query root). The depth check runs here, before any predicate
    /// of the node is parsed, so the `steps → predicates → steps`
    /// recursion never goes deeper than [`MAX_DEPTH`] levels.
    fn new_node(
        &mut self,
        tag: String,
        parent: Option<QueryNodeId>,
    ) -> Result<QueryNodeId, QueryParseError> {
        let depth = parent.map_or(1, |p| self.depths[p.index()] + 1);
        if depth > MAX_DEPTH {
            return Err(self.err(QueryParseErrorKind::TooDeep));
        }
        let id = QueryNodeId(self.nodes.len() as u32);
        self.nodes.push(QueryNode {
            tag,
            edges: Vec::new(),
            constraints: Vec::new(),
        });
        self.depths.push(depth);
        Ok(id)
    }

    fn attach(&mut self, parent: QueryNodeId, axis: Axis, child: QueryNodeId) -> usize {
        let edges = &mut self.nodes[parent.index()].edges;
        edges.push(QueryEdge { axis, to: child });
        edges.len() - 1
    }

    /// Parses a step sequence. `ctx` is the node the first step attaches to
    /// (`None` at top level, where the first node becomes the query root).
    /// Returns the last main-path node.
    fn steps(&mut self, ctx: Option<(QueryNodeId, Axis)>) -> Result<QueryNodeId, QueryParseError> {
        // State for order-axis lowering: the current node, plus its owner
        // and the index of its incoming edge in the owner's edge list.
        let (mut cur, mut owner): (QueryNodeId, Option<(QueryNodeId, usize)>);

        let first_structural = match ctx {
            Some((_, axis)) => axis,
            None => Axis::Child, // placeholder; top-level root axis handled by caller
        };
        let (axis, name) = self.step_head(first_structural)?;
        match axis {
            StepAxis::Structural(a) => {
                let id = self.new_node(name, ctx.map(|(parent, _)| parent))?;
                owner = ctx.map(|(parent, _)| (parent, self.attach(parent, a, id)));
                cur = id;
            }
            StepAxis::Order(_) => {
                return Err(self.err(QueryParseErrorKind::Query(
                    QueryError::OrderAxisWithoutOwner,
                )));
            }
        }
        self.predicates(cur)?;

        while let Some(sep_axis) = self.sep() {
            let (axis, name) = self.step_head(sep_axis)?;
            match axis {
                StepAxis::Structural(a) => {
                    let id = self.new_node(name, Some(cur))?;
                    owner = Some((cur, self.attach(cur, a, id)));
                    cur = id;
                }
                StepAxis::Order(order_axis) => {
                    let (own, cur_edge) = owner.ok_or_else(|| {
                        self.err(QueryParseErrorKind::Query(
                            QueryError::OrderAxisWithoutOwner,
                        ))
                    })?;
                    let id = self.new_node(name, Some(own))?;
                    let (edge_axis, kind) = match order_axis {
                        Axis::FollowingSibling | Axis::PrecedingSibling => {
                            (Axis::Child, OrderKind::Sibling)
                        }
                        Axis::Following | Axis::Preceding => {
                            (Axis::Descendant, OrderKind::Document)
                        }
                        _ => unreachable!("structural axes handled above"),
                    };
                    let new_edge = self.attach(own, edge_axis, id);
                    let (before, after) = match order_axis {
                        Axis::FollowingSibling | Axis::Following => (cur_edge, new_edge),
                        _ => (new_edge, cur_edge),
                    };
                    self.nodes[own.index()].constraints.push(OrderConstraint {
                        before,
                        after,
                        kind,
                    });
                    owner = Some((own, new_edge));
                    cur = id;
                }
            }
            self.predicates(cur)?;
        }
        Ok(cur)
    }

    fn predicates(&mut self, node: QueryNodeId) -> Result<(), QueryParseError> {
        loop {
            self.skip_ws();
            if self.peek() != Some(b'[') {
                return Ok(());
            }
            self.pos += 1;
            let axis = self.sep().unwrap_or(Axis::Child);
            self.steps(Some((node, axis)))?;
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
            } else {
                return Err(self.err(QueryParseErrorKind::Expected(']')));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_path() {
        let q = parse_query("/Root/A/B").unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.root_axis(), Axis::Child);
        assert_eq!(q.node(q.target()).tag, "B");
        assert_eq!(q.node(q.root()).edges[0].axis, Axis::Child);
    }

    #[test]
    fn descendant_path() {
        let q = parse_query("//A//C").unwrap();
        assert_eq!(q.root_axis(), Axis::Descendant);
        assert_eq!(q.node(q.root()).edges[0].axis, Axis::Descendant);
    }

    #[test]
    fn branch_query_paper_q1() {
        // //A[/C/F]/B/D : A has two edges (C, B); C has F, B has D.
        let q = parse_query("//A[/C/F]/B/D").unwrap();
        assert_eq!(q.len(), 5);
        let a = q.node(q.root());
        assert_eq!(a.tag, "A");
        assert_eq!(a.edges.len(), 2);
        assert_eq!(q.node(a.edges[0].to).tag, "C");
        assert_eq!(q.node(a.edges[1].to).tag, "B");
        // Default target: last node of top-level path = D.
        assert_eq!(q.node(q.target()).tag, "D");
    }

    #[test]
    fn bare_name_predicate_means_child() {
        let q = parse_query("//A[B]/C").unwrap();
        let a = q.node(q.root());
        assert_eq!(a.edges[0].axis, Axis::Child);
        assert_eq!(q.node(a.edges[0].to).tag, "B");
    }

    #[test]
    fn following_sibling_lowered_to_constraint() {
        let q = parse_query("//A[/C/folls::B/D]").unwrap();
        let a = q.node(q.root());
        assert_eq!(a.edges.len(), 2);
        assert_eq!(a.constraints.len(), 1);
        let c = a.constraints[0];
        assert_eq!(c.kind, OrderKind::Sibling);
        assert_eq!(q.node(a.edges[c.before].to).tag, "C");
        assert_eq!(q.node(a.edges[c.after].to).tag, "B");
        // D hangs below B.
        let b = q.node(a.edges[c.after].to);
        assert_eq!(q.node(b.edges[0].to).tag, "D");
    }

    #[test]
    fn preceding_sibling_reverses_direction() {
        let q = parse_query("//A[/C/pres::B]").unwrap();
        let a = q.node(q.root());
        let c = a.constraints[0];
        assert_eq!(c.kind, OrderKind::Sibling);
        assert_eq!(q.node(a.edges[c.before].to).tag, "B");
        assert_eq!(q.node(a.edges[c.after].to).tag, "C");
    }

    #[test]
    fn following_axis_lowered_to_document_constraint() {
        let q = parse_query("//A[/C/foll::D]").unwrap();
        let a = q.node(q.root());
        let c = a.constraints[0];
        assert_eq!(c.kind, OrderKind::Document);
        assert_eq!(a.edges[c.after].axis, Axis::Descendant);
        assert_eq!(q.node(a.edges[c.after].to).tag, "D");
    }

    #[test]
    fn preceding_axis_lowered_reversed() {
        let q = parse_query("//A[/C/prec::D]").unwrap();
        let a = q.node(q.root());
        let c = a.constraints[0];
        assert_eq!(c.kind, OrderKind::Document);
        assert_eq!(q.node(a.edges[c.before].to).tag, "D");
        assert_eq!(q.node(a.edges[c.after].to).tag, "C");
    }

    #[test]
    fn long_axis_names_accepted() {
        let q = parse_query("//A[/C/following-sibling::B]").unwrap();
        assert!(q.has_order_constraints());
        let q2 = parse_query("//A[/C/preceding-sibling::B]").unwrap();
        assert!(q2.has_order_constraints());
    }

    #[test]
    fn explicit_target_marker() {
        let q = parse_query("//A[/$C/F]/B/D").unwrap();
        assert_eq!(q.node(q.target()).tag, "C");
        let q2 = parse_query("//A[/C[/F]/folls::$B/D]").unwrap();
        assert_eq!(q2.node(q2.target()).tag, "B");
    }

    #[test]
    fn chained_order_axes() {
        let q = parse_query("//A[/B/folls::C/folls::D]").unwrap();
        let a = q.node(q.root());
        assert_eq!(a.constraints.len(), 2);
        assert_eq!(q.chains().len(), 1);
        let chain = q.chains().next().unwrap();
        assert_eq!(chain.owner, q.root());
        assert_eq!(chain.links.len(), 3);
    }

    #[test]
    fn nested_predicates() {
        let q = parse_query("//A[/B[/C][/D]]/E").unwrap();
        assert_eq!(q.len(), 5);
        let a = q.node(q.root());
        let b = q.node(a.edges[0].to);
        assert_eq!(b.edges.len(), 2);
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            parse_query("A/B").unwrap_err().kind,
            QueryParseErrorKind::MissingLeadingSlash
        ));
        assert!(matches!(
            parse_query("//A[").unwrap_err().kind,
            QueryParseErrorKind::ExpectedName
        ));
        assert!(matches!(
            parse_query("//A[/B").unwrap_err().kind,
            QueryParseErrorKind::Expected(']')
        ));
        assert!(matches!(
            parse_query("//A]").unwrap_err().kind,
            QueryParseErrorKind::TrailingInput
        ));
        assert!(matches!(
            parse_query("//bogus::A").unwrap_err().kind,
            QueryParseErrorKind::UnknownAxis(_)
        ));
        assert!(matches!(
            parse_query("//folls::A").unwrap_err().kind,
            QueryParseErrorKind::Query(QueryError::OrderAxisWithoutOwner)
        ));
        assert!(matches!(
            parse_query("//A//folls::B").unwrap_err().kind,
            QueryParseErrorKind::OrderAxisAfterDescendant
        ));
    }

    #[test]
    fn order_axis_at_top_level_with_owner() {
        // /Root/C/folls::B — owner of C is Root, so this lowers fine.
        let q = parse_query("/Root/C/folls::B").unwrap();
        let root = q.node(q.root());
        assert_eq!(root.edges.len(), 2);
        assert_eq!(root.constraints.len(), 1);
        assert_eq!(q.node(q.target()).tag, "B");
    }

    /// A chain of `n` child steps: `/a/a/…/a`.
    fn chain(n: usize) -> String {
        "/a".repeat(n)
    }

    /// `n` nodes on one path through nested predicates: `//a[a[…[a]…]]`.
    fn nested(n: usize) -> String {
        format!("//a{}{}", "[a".repeat(n - 1), "]".repeat(n - 1))
    }

    #[test]
    fn query_depth_matches_the_xml_nesting_cap() {
        for deep in [chain, nested] {
            assert_eq!(parse_query(&deep(MAX_DEPTH)).unwrap().len(), MAX_DEPTH);
            assert_eq!(
                parse_query(&deep(MAX_DEPTH + 1)).unwrap_err().kind,
                QueryParseErrorKind::TooDeep
            );
        }
        // Order steps hang below their owner, so they count as one level.
        let q = format!("{}/b/folls::c", chain(MAX_DEPTH - 2));
        assert_eq!(parse_query(&q).unwrap().len(), MAX_DEPTH);
        let q = format!("{}/b/foll::c/d", chain(MAX_DEPTH - 2));
        assert_eq!(parse_query(&q).unwrap().len(), MAX_DEPTH + 1);
        let q = format!("{}/b/foll::c/d/e", chain(MAX_DEPTH - 2));
        assert_eq!(
            parse_query(&q).unwrap_err().kind,
            QueryParseErrorKind::TooDeep
        );
        // Width is not depth: many sibling predicates stay legal.
        let wide = format!("//a{}", "[b]".repeat(4 * MAX_DEPTH));
        assert_eq!(parse_query(&wide).unwrap().len(), 4 * MAX_DEPTH + 1);
    }

    /// Far past the cap, the parser still answers with a typed error on a
    /// 1 MiB thread stack instead of recursing once per nesting level (an
    /// unoptimized build needs several KiB per level, so 8,000 levels
    /// would not fit).
    #[test]
    fn hostile_depth_is_rejected_on_a_small_stack() {
        let handle = std::thread::Builder::new()
            .stack_size(1024 * 1024)
            .spawn(|| {
                for q in [nested(8_000), chain(60_000)] {
                    let e = parse_query(&q).unwrap_err();
                    assert_eq!(e.kind, QueryParseErrorKind::TooDeep);
                    assert!(!e.to_string().contains('\n'));
                }
            })
            .unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn whitespace_tolerated() {
        let q = parse_query(" //A[ /C / folls::B ] / D ").unwrap();
        assert_eq!(q.len(), 4);
    }
}
