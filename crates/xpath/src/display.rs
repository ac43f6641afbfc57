//! Canonical string rendering of queries.
//!
//! `Display` produces a string in the grammar of [`crate::parse_query`] that
//! parses back to a *semantically equivalent* query (same match sets, same
//! target) — a property-tested invariant. The rendering is canonical rather
//! than source-faithful: `preceding(-sibling)` constraints are emitted in
//! their `foll(s)::` orientation, and branch order may differ from the
//! original text.

use std::fmt;

use crate::ast::{Axis, OrderKind, Query, QueryNodeId};

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.root_axis() {
            Axis::Child => "/",
            _ => "//",
        })?;
        // The parser defaults the target to the last node of the top-level
        // path; omit the `$` marker when it would be redundant.
        let mark_target = self.target() != default_target(self);
        write_node(self, self.root(), true, mark_target, f)
    }
}

/// The last edge of node `id` outside every order chain: the one a
/// rendered path may continue through.
fn last_unchained(q: &Query, id: QueryNodeId) -> Option<usize> {
    (0..q.node(id).edges.len())
        .rev()
        .find(|&i| !q.is_chained(id, i))
}

/// The node the parser would pick as target if no `$` marker is present:
/// follow the rendered spine (last unchained edge) from the root.
fn default_target(q: &Query) -> QueryNodeId {
    let mut cur = q.root();
    while let Some(i) = last_unchained(q, cur) {
        cur = q.node(cur).edges[i].to;
    }
    cur
}

/// Renders `id` and its subtree. When `allow_spine` is set, one edge may be
/// rendered as a path continuation (`/x` / `//x`); otherwise every edge
/// becomes a predicate, which is required for chain elements so that a
/// subsequent `folls::` attaches to the element itself.
fn write_node(
    q: &Query,
    id: QueryNodeId,
    allow_spine: bool,
    mark_target: bool,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    let node = q.node(id);
    if mark_target && id == q.target() {
        f.write_str("$")?;
    }
    f.write_str(&node.tag)?;

    // Spine: the last unchained edge, when permitted.
    let spine = if allow_spine {
        last_unchained(q, id)
    } else {
        None
    };

    // Unchained, non-spine edges become plain predicates.
    for (i, edge) in node.edges.iter().enumerate() {
        if Some(i) == spine || q.is_chained(id, i) {
            continue;
        }
        f.write_str("[")?;
        f.write_str(axis_str(edge.axis))?;
        write_node(q, edge.to, true, mark_target, f)?;
        f.write_str("]")?;
    }

    // Each chain becomes one predicate: head, then folls::/foll:: hops.
    for chain in q.chains_at(id) {
        f.write_str("[")?;
        for (i, &(e, head)) in chain.links.iter().enumerate() {
            f.write_str(match (i, chain.kind) {
                (0, _) => axis_str(node.edges[e].axis),
                (_, OrderKind::Sibling) => "/folls::",
                (_, OrderKind::Document) => "/foll::",
            })?;
            write_node(q, head, false, mark_target, f)?;
        }
        f.write_str("]")?;
    }

    if let Some(i) = spine {
        let edge = node.edges[i];
        f.write_str(axis_str(edge.axis))?;
        write_node(q, edge.to, true, mark_target, f)?;
    }
    Ok(())
}

fn axis_str(axis: Axis) -> &'static str {
    match axis {
        Axis::Child => "/",
        Axis::Descendant => "//",
        // Chain connectors are emitted by the caller; structural edges into
        // chains are Child (sibling) or Descendant (document).
        _ => unreachable!("structural edges only"),
    }
}

#[cfg(test)]
mod tests {
    use crate::parse::parse_query;

    /// Parse → display → parse must preserve the node count, target tag and
    /// constraint count (full semantic equivalence is property-tested
    /// against the evaluator in `tests/proptest_eval.rs`).
    fn round(s: &str) -> String {
        let q = parse_query(s).unwrap();
        let rendered = q.to_string();
        let q2 = parse_query(&rendered)
            .unwrap_or_else(|e| panic!("rendered {rendered:?} failed to parse: {e}"));
        assert_eq!(q.len(), q2.len(), "{rendered}");
        assert_eq!(q.node(q.target()).tag, q2.node(q2.target()).tag);
        let c1: usize = q.node_ids().map(|n| q.node(n).constraints.len()).sum();
        let c2: usize = q2.node_ids().map(|n| q2.node(n).constraints.len()).sum();
        assert_eq!(c1, c2);
        rendered
    }

    #[test]
    fn simple_paths_round_trip_verbatim() {
        assert_eq!(round("/Root/A/B"), "/Root/A/B");
        assert_eq!(round("//A//C"), "//A//C");
    }

    #[test]
    fn branch_queries_round_trip() {
        assert_eq!(round("//A[/C/F]/B/D"), "//A[/C/F]/B/D");
        round("//A[/B[/C][/D]]/E");
    }

    #[test]
    fn order_queries_round_trip() {
        // Chain elements render their subtrees as predicates so that the
        // connector re-attaches to the element itself.
        assert_eq!(round("//A[/C/folls::B/D]"), "//A[/C/folls::B[/D]]");
        round("//A[/C[/F]/folls::$B/D]");
        round("//A[/C/foll::D]");
    }

    #[test]
    fn preceding_is_canonicalized_to_following() {
        let rendered = round("//A[/C/pres::B]");
        assert!(rendered.contains("folls::"), "{rendered}");
        assert!(!rendered.contains("pres::"), "{rendered}");
    }

    #[test]
    fn target_marker_preserved() {
        let rendered = round("//A[/$C/F]/B");
        assert!(rendered.contains("$C"), "{rendered}");
    }

    #[test]
    fn chained_constraints_round_trip() {
        round("//A[/B/folls::C/folls::D]");
    }
}
