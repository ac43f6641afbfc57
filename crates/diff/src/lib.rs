//! Differential testing of the estimator against the exact evaluator.
//!
//! The estimator is *approximate by design*, which makes its bugs
//! insidious: a sign flip, an unguarded `0/0`, or a dropped join predicate
//! does not crash anything — it just quietly corrupts every experiment
//! figure downstream. The defense is an oracle the estimator must agree
//! with *where agreement is provable*, plus numeric invariants that hold
//! for **every** estimate:
//!
//! | invariant | statement |
//! |---|---|
//! | `finite` | estimates are never `NaN` or `±inf` |
//! | `non-negative` | estimates are never below zero |
//! | `tag-bound` | an estimate never exceeds the target tag's total frequency |
//! | `exact-simple` | simple path queries on non-recursive documents at variance 0 match the exact evaluator (Theorem 4.1) |
//! | `batch-identical` | [`EstimationEngine::estimate_batch`] is bit-identical to serial estimation |
//!
//! [`run_diff`] drives the battery over seeded random documents
//! ([`xpe_datagen::random_document`]) and random positive-and-negative
//! twig queries spanning child/descendant edges and all four order axes.
//! Failures are shrunk to a minimal failing query and collected into a
//! [`DiffReport`] with per-invariant tallies and a machine-readable JSON
//! rendering (`xpe diff --json`, archived by CI's `diff-smoke` step).
//!
//! [`run_diff_with`] accepts the estimate function as a closure so tests
//! can *inject faults* (e.g. reintroduce an unguarded division) and prove
//! the harness catches them — a differential harness that has never seen
//! a failure is itself untested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;

pub use faults::{run_faults, FaultClass, FaultFailure, FaultPlan, FaultReport, FaultTally};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xpe_core::{EstimationEngine, Estimator};
use xpe_datagen::{random_document, RandomDocConfig};
use xpe_pathid::Labeling;
use xpe_synopsis::{Summary, SummaryConfig};
use xpe_xml::nav::DocOrder;
use xpe_xml::Document;
use xpe_xpath::{
    Axis, Evaluator, OrderConstraint, OrderKind, Query, QueryEdge, QueryNode, QueryNodeId,
};

/// Tolerance for the `exact-simple` comparison: Theorem 4.1 equality is
/// over real arithmetic; the implementation accumulates f64 rounding.
const EXACT_TOL: f64 = 1e-6;

/// At most this many violations keep their full repro record; the tallies
/// count every one regardless.
const MAX_RECORDED: usize = 50;

/// Queries generated per random document (a fresh document costs a
/// labeling, two summaries and an evaluator, so cases are batched).
const QUERIES_PER_DOC: u64 = 6;

/// Harness parameters.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Master seed; equal configs replay identical runs.
    pub seed: u64,
    /// Number of query cases. Each case is checked against two summaries
    /// (lossless and coarse), so the check count is a multiple of this.
    pub cases: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            seed: 0,
            cases: 100,
        }
    }
}

/// The invariants the harness checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Estimates are finite (no `NaN`, no `±inf`).
    Finite,
    /// Estimates are `≥ 0`.
    NonNegative,
    /// Estimates never exceed the target tag's total frequency.
    TagBound,
    /// Theorem 4.1: simple path queries on non-recursive documents at
    /// variance 0 equal the exact selectivity.
    ExactSimple,
    /// Batched estimation is bit-identical to serial estimation.
    BatchIdentical,
}

impl Invariant {
    /// Every invariant, in report order.
    pub const ALL: [Invariant; 5] = [
        Invariant::Finite,
        Invariant::NonNegative,
        Invariant::TagBound,
        Invariant::ExactSimple,
        Invariant::BatchIdentical,
    ];

    /// Stable machine-readable name (used in the JSON report).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Finite => "finite",
            Invariant::NonNegative => "non-negative",
            Invariant::TagBound => "tag-bound",
            Invariant::ExactSimple => "exact-simple",
            Invariant::BatchIdentical => "batch-identical",
        }
    }

    fn idx(self) -> usize {
        match self {
            Invariant::Finite => 0,
            Invariant::NonNegative => 1,
            Invariant::TagBound => 2,
            Invariant::ExactSimple => 3,
            Invariant::BatchIdentical => 4,
        }
    }
}

/// One invariant failure, with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: Invariant,
    /// Global case index (0-based) at which it failed.
    pub case: u64,
    /// Seed of the [`RandomDocConfig`] that generated the document.
    pub doc_seed: u64,
    /// Whether the document was layered (non-recursive by construction).
    pub layered: bool,
    /// p-histogram variance of the summary in use.
    pub p_variance: f64,
    /// The failing query, in the paper's XPath notation.
    pub query: String,
    /// The smallest derived query that still fails the same invariant.
    pub minimized: String,
    /// The offending estimate.
    pub estimate: f64,
    /// The exact selectivity of the original query.
    pub exact: u64,
    /// Human-readable description of the failure.
    pub detail: String,
}

/// Per-invariant check/violation counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct InvariantTally {
    /// Times the invariant was evaluated.
    pub checks: u64,
    /// Times it failed.
    pub violations: u64,
}

/// Outcome of a differential run.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Seed the run used.
    pub seed: u64,
    /// Cases the run executed.
    pub cases: u64,
    /// Counters, indexed as [`Invariant::ALL`].
    pub tallies: [InvariantTally; 5],
    /// Recorded failures (capped at an internal limit; tallies count all).
    pub violations: Vec<Violation>,
}

impl DiffReport {
    fn new(cfg: &DiffConfig) -> Self {
        DiffReport {
            seed: cfg.seed,
            cases: cfg.cases,
            tallies: [InvariantTally::default(); 5],
            violations: Vec::new(),
        }
    }

    /// Counters for one invariant.
    pub fn tally(&self, inv: Invariant) -> InvariantTally {
        self.tallies[inv.idx()]
    }

    /// Total number of invariant evaluations.
    pub fn total_checks(&self) -> u64 {
        self.tallies.iter().map(|t| t.checks).sum()
    }

    /// Total number of failures (including unrecorded ones).
    pub fn total_violations(&self) -> u64 {
        self.tallies.iter().map(|t| t.violations).sum()
    }

    fn record(&mut self, inv: Invariant, make: impl FnOnce() -> Violation) {
        self.tallies[inv.idx()].violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(make());
        }
    }

    /// Machine-readable JSON rendering (hand-rolled: the workspace has no
    /// serialization dependency). Non-finite estimates are encoded as
    /// strings, since JSON has no `NaN`/`inf` literals.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str("  \"tool\": \"xpe-diff\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"cases\": {},\n", self.cases));
        s.push_str(&format!("  \"total_checks\": {},\n", self.total_checks()));
        s.push_str(&format!(
            "  \"total_violations\": {},\n",
            self.total_violations()
        ));
        s.push_str("  \"invariants\": [\n");
        for (i, inv) in Invariant::ALL.iter().enumerate() {
            let t = self.tally(*inv);
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"checks\": {}, \"violations\": {}}}{}\n",
                inv.name(),
                t.checks,
                t.violations,
                if i + 1 < Invariant::ALL.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"invariant\": \"{}\", \"case\": {}, \"doc_seed\": {}, \
                 \"layered\": {}, \"p_variance\": {}, \"query\": \"{}\", \
                 \"minimized\": \"{}\", \"estimate\": {}, \"exact\": {}, \
                 \"detail\": \"{}\"}}{}\n",
                v.invariant.name(),
                v.case,
                v.doc_seed,
                v.layered,
                json_num(v.p_variance),
                json_escape(&v.query),
                json_escape(&v.minimized),
                json_num(v.estimate),
                v.exact,
                json_escape(&v.detail),
                if i + 1 < self.violations.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("\"{v}\"")
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs the full battery with the production estimator.
pub fn run_diff(cfg: &DiffConfig) -> DiffReport {
    run_diff_with(cfg, |est, q| est.estimate(q))
}

/// Runs the battery with a caller-supplied estimate function.
///
/// Production callers use [`run_diff`]; tests inject faulty closures here
/// to demonstrate that each invariant actually detects the failure class
/// it exists for.
pub fn run_diff_with<F>(cfg: &DiffConfig, est_fn: F) -> DiffReport
where
    F: Fn(&Estimator<'_>, &Query) -> f64,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4449_4646_5845_5245);
    let mut report = DiffReport::new(cfg);
    let mut case = 0u64;

    while case < cfg.cases {
        let layered = rng.gen_bool(0.5);
        let doc_cfg = RandomDocConfig {
            seed: rng.gen::<u64>(),
            max_depth: rng.gen_range(2..=5),
            max_children: rng.gen_range(1..=4),
            tag_count: rng.gen_range(1..=3),
            layered,
        };
        let doc = random_document(&doc_cfg);
        let order = DocOrder::new(&doc);
        let evaluator = Evaluator::new(&doc, &order);
        let paths = tag_paths(&doc);
        if paths.is_empty() {
            continue;
        }

        // One lossless summary (Theorem 4.1 territory) and one coarse
        // summary (the invariants must survive histogram approximation).
        let summaries = [
            Summary::build(&doc, SummaryConfig::default()),
            Summary::build(
                &doc,
                SummaryConfig {
                    p_variance: 2.0,
                    o_variance: 4.0,
                },
            ),
        ];

        let n = QUERIES_PER_DOC.min(cfg.cases - case);
        let queries: Vec<Query> = (0..n).map(|_| random_query(&mut rng, &paths)).collect();

        for summary in &summaries {
            let est = Estimator::new(summary);
            let mut serial = Vec::with_capacity(queries.len());
            for (qi, q) in queries.iter().enumerate() {
                let case_id = case + qi as u64;
                let estimate = est_fn(&est, q);
                let exact = evaluator.selectivity(q);
                serial.push(estimate);
                check_pointwise(
                    &mut report,
                    &est,
                    &est_fn,
                    &evaluator,
                    summary,
                    &doc_cfg,
                    case_id,
                    q,
                    estimate,
                    exact,
                );
            }

            // Batch path must agree with the serial path bit-for-bit:
            // estimates are pure functions of (summary, query), so any
            // divergence means nondeterminism or state leakage.
            let engine = EstimationEngine::new(summary).with_threads(2);
            let batch = engine.estimate_batch(&queries);
            for (qi, (s, b)) in serial.iter().zip(&batch).enumerate() {
                report.tallies[Invariant::BatchIdentical.idx()].checks += 1;
                if s.to_bits() != b.to_bits() {
                    let q = &queries[qi];
                    let exact = evaluator.selectivity(q);
                    report.record(Invariant::BatchIdentical, || Violation {
                        invariant: Invariant::BatchIdentical,
                        case: case + qi as u64,
                        doc_seed: doc_cfg.seed,
                        layered,
                        p_variance: summary.config.p_variance,
                        query: q.to_string(),
                        minimized: q.to_string(),
                        estimate: *b,
                        exact,
                        detail: format!("serial {s} != batch {b}"),
                    });
                }
            }
        }
        case += n;
    }
    report
}

/// Distinct root-to-leaf paths of `doc` as tag-name sequences — the
/// vocabulary the query generator draws from, so most queries are
/// satisfiable (negative queries still arise from depth-mismatched
/// branches and deliberately bogus tags).
pub fn tag_paths(doc: &Document) -> Vec<Vec<String>> {
    let labeling = Labeling::compute(doc);
    labeling
        .encoding
        .iter()
        .map(|(_, tags)| {
            tags.iter()
                .map(|&t| doc.tags().name(t).to_string())
                .collect()
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn check_pointwise<F>(
    report: &mut DiffReport,
    est: &Estimator<'_>,
    est_fn: &F,
    evaluator: &Evaluator<'_>,
    summary: &Summary,
    doc_cfg: &RandomDocConfig,
    case_id: u64,
    q: &Query,
    estimate: f64,
    exact: u64,
) where
    F: Fn(&Estimator<'_>, &Query) -> f64,
{
    let violation = |inv: Invariant, minimized: String, detail: String| Violation {
        invariant: inv,
        case: case_id,
        doc_seed: doc_cfg.seed,
        layered: doc_cfg.layered,
        p_variance: summary.config.p_variance,
        query: q.to_string(),
        minimized,
        estimate,
        exact,
        detail,
    };

    report.tallies[Invariant::Finite.idx()].checks += 1;
    if !estimate.is_finite() {
        let min = minimize(q, |c| !est_fn(est, c).is_finite());
        report.record(Invariant::Finite, || {
            violation(
                Invariant::Finite,
                min.to_string(),
                format!("estimate is {estimate}"),
            )
        });
    }

    report.tallies[Invariant::NonNegative.idx()].checks += 1;
    if estimate < 0.0 {
        let min = minimize(q, |c| est_fn(est, c) < 0.0);
        report.record(Invariant::NonNegative, || {
            violation(
                Invariant::NonNegative,
                min.to_string(),
                format!("estimate is {estimate}"),
            )
        });
    }

    report.tallies[Invariant::TagBound.idx()].checks += 1;
    let over_bound = |c: &Query, e: f64| {
        let cap = summary.tag_total(&c.node(c.target()).tag);
        e > cap * (1.0 + 1e-9) + 1e-9
    };
    if over_bound(q, estimate) {
        let min = minimize(q, |c| over_bound(c, est_fn(est, c)));
        let cap = summary.tag_total(&q.node(q.target()).tag);
        report.record(Invariant::TagBound, || {
            violation(
                Invariant::TagBound,
                min.to_string(),
                format!("estimate {estimate} exceeds tag total {cap}"),
            )
        });
    }

    // Theorem 4.1 gate: lossless histograms, a non-recursive document,
    // and a simple path query whose target is its last step.
    if doc_cfg.layered && summary.config.p_variance == 0.0 && is_simple_chain(q) {
        report.tallies[Invariant::ExactSimple.idx()].checks += 1;
        let differs = |c: &Query, e: f64| {
            let x = evaluator.selectivity(c) as f64;
            (e - x).abs() > EXACT_TOL * x.max(1.0)
        };
        if differs(q, estimate) {
            let min = minimize(q, |c| is_simple_chain(c) && differs(c, est_fn(est, c)));
            report.record(Invariant::ExactSimple, || {
                violation(
                    Invariant::ExactSimple,
                    min.to_string(),
                    format!("estimate {estimate} but exact selectivity is {exact}"),
                )
            });
        }
    }
}

/// A simple path query in the sense of Theorem 4.1: a single chain of
/// child/descendant steps, no order constraints, target at the end.
pub fn is_simple_chain(q: &Query) -> bool {
    q.nodes()
        .iter()
        .all(|n| n.edges.len() <= 1 && n.constraints.is_empty())
        && q.node(q.target()).edges.is_empty()
}

/// Generates one random twig query over the document's path vocabulary:
/// a spine sampled from a real root-to-leaf path (so positives are
/// plentiful), optional branches (possibly from a *different* path, which
/// yields negatives), optional sibling/document order constraints in both
/// directions, a random target, and occasional bogus tags.
pub fn random_query(rng: &mut StdRng, paths: &[Vec<String>]) -> Query {
    let p = &paths[rng.gen_range(0..paths.len())];
    let start = rng.gen_range(0..p.len());
    let want = rng.gen_range(1..=4usize);

    // Strictly increasing indices into `p`: step 1 is a child edge, a
    // longer stride becomes a descendant edge.
    let mut idxs = vec![start];
    let mut i = start;
    while idxs.len() < want && i + 1 < p.len() {
        // The loop guard ensures at least one step remains, so the clamp
        // bounds are always ordered.
        let max_step = (p.len() - 1 - i).clamp(1, 2);
        i += rng.gen_range(1..=max_step);
        idxs.push(i);
    }

    let mut nodes: Vec<QueryNode> = idxs
        .iter()
        .map(|&ix| QueryNode {
            tag: p[ix].clone(),
            edges: Vec::new(),
            constraints: Vec::new(),
        })
        .collect();
    for k in 1..idxs.len() {
        let axis = if idxs[k] == idxs[k - 1] + 1 {
            Axis::Child
        } else {
            Axis::Descendant
        };
        nodes[k - 1].edges.push(QueryEdge {
            axis,
            to: QueryNodeId::from_index(k),
        });
    }
    let root_axis = if start == 0 {
        Axis::Child
    } else {
        Axis::Descendant
    };

    // Branches: extra single-node edges off one spine node. Drawing the
    // branch tag from a random (possibly different) path makes both
    // positive and negative branch predicates common.
    let spine_len = nodes.len();
    if rng.gen_bool(0.5) {
        let owner = rng.gen_range(0..spine_len);
        let owner_depth = idxs[owner];
        for _ in 0..rng.gen_range(1..=2usize) {
            let src = &paths[rng.gen_range(0..paths.len())];
            let (tag, axis) = if owner_depth + 1 < src.len() && rng.gen_bool(0.8) {
                if rng.gen_bool(0.7) {
                    (src[owner_depth + 1].clone(), Axis::Child)
                } else {
                    let ix = rng.gen_range(owner_depth + 1..src.len());
                    (src[ix].clone(), Axis::Descendant)
                }
            } else {
                (src[rng.gen_range(0..src.len())].clone(), Axis::Descendant)
            };
            let id = QueryNodeId::from_index(nodes.len());
            nodes.push(QueryNode {
                tag,
                edges: Vec::new(),
                constraints: Vec::new(),
            });
            nodes[owner].edges.push(QueryEdge { axis, to: id });
        }

        // An order constraint between two of the owner's edges. Sibling
        // constraints are only valid over child-axis edges (they compare
        // positions among one parent's children); any pair supports a
        // document-order constraint. `before`/`after` are drawn in both
        // directions, covering folls/pres and foll/prec respectively.
        let edges = &nodes[owner].edges;
        if edges.len() >= 2 && rng.gen_bool(0.6) {
            let a = rng.gen_range(0..edges.len());
            let mut b = rng.gen_range(0..edges.len() - 1);
            if b >= a {
                b += 1;
            }
            let both_child = edges[a].axis == Axis::Child && edges[b].axis == Axis::Child;
            let kind = if both_child && rng.gen_bool(0.7) {
                OrderKind::Sibling
            } else {
                OrderKind::Document
            };
            nodes[owner].constraints.push(OrderConstraint {
                before: a,
                after: b,
                kind,
            });
        }
    }

    // Bogus tags probe the absent-tag paths (selectivity must be 0, and
    // the estimator must not divide by the resulting empty populations).
    if rng.gen_bool(0.1) {
        let victim = rng.gen_range(0..nodes.len());
        nodes[victim].tag = format!("zz{}", rng.gen_range(0..3u32));
    }

    let target = QueryNodeId::from_index(rng.gen_range(0..nodes.len()));
    Query::new(nodes, root_axis, target).expect("generated query is structurally valid")
}

/// Shrinks a failing query: repeatedly drop all order constraints or
/// remove one non-target leaf node, keeping each reduction only if
/// `still_fails` holds, until no reduction applies.
pub fn minimize<P>(q: &Query, still_fails: P) -> Query
where
    P: Fn(&Query) -> bool,
{
    let mut cur = q.clone();
    loop {
        let mut progressed = false;

        if cur.nodes().iter().any(|n| !n.constraints.is_empty()) {
            let stripped = xpe_core::without_constraints(&cur).query;
            if still_fails(&stripped) {
                cur = stripped;
                progressed = true;
            }
        }

        for victim in cur.node_ids() {
            if victim == cur.target() || !cur.node(victim).edges.is_empty() {
                continue;
            }
            if let Some(smaller) = remove_leaf(&cur, victim) {
                if still_fails(&smaller) {
                    cur = smaller;
                    progressed = true;
                    break;
                }
            }
        }

        if !progressed {
            return cur;
        }
    }
}

/// Removes leaf node `victim`, remapping node ids and the parent's
/// constraint edge indices (constraints touching the removed edge are
/// dropped; later edge indices shift down). `None` when the reduction is
/// not applicable (last node, or the result fails validation).
fn remove_leaf(q: &Query, victim: QueryNodeId) -> Option<Query> {
    if q.len() <= 1 || victim == q.target() || !q.node(victim).edges.is_empty() {
        return None;
    }
    let vi = victim.index();
    let remap = |id: QueryNodeId| {
        let i = id.index();
        QueryNodeId::from_index(if i > vi { i - 1 } else { i })
    };

    let mut nodes = Vec::with_capacity(q.len() - 1);
    for old in q.node_ids() {
        if old == victim {
            continue;
        }
        let src = q.node(old);
        let mut removed_edge = None;
        let mut edges = Vec::with_capacity(src.edges.len());
        for (ei, e) in src.edges.iter().enumerate() {
            if e.to == victim {
                removed_edge = Some(ei);
                continue;
            }
            edges.push(QueryEdge {
                axis: e.axis,
                to: remap(e.to),
            });
        }
        let constraints = src
            .constraints
            .iter()
            .filter(|c| removed_edge != Some(c.before) && removed_edge != Some(c.after))
            .map(|c| {
                let shift = |ei: usize| match removed_edge {
                    Some(rm) if ei > rm => ei - 1,
                    _ => ei,
                };
                OrderConstraint {
                    before: shift(c.before),
                    after: shift(c.after),
                    kind: c.kind,
                }
            })
            .collect();
        nodes.push(QueryNode {
            tag: src.tag.clone(),
            edges,
            constraints,
        });
    }
    Query::new(nodes, q.root_axis(), remap(q.target())).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(tags: &[&str]) -> Query {
        let mut nodes: Vec<QueryNode> = tags
            .iter()
            .map(|t| QueryNode {
                tag: t.to_string(),
                edges: Vec::new(),
                constraints: Vec::new(),
            })
            .collect();
        for k in 1..nodes.len() {
            nodes[k - 1].edges.push(QueryEdge {
                axis: Axis::Child,
                to: QueryNodeId::from_index(k),
            });
        }
        let target = QueryNodeId::from_index(tags.len() - 1);
        Query::new(nodes, Axis::Descendant, target).unwrap()
    }

    #[test]
    fn remove_leaf_shrinks_and_remaps() {
        let q = chain(&["a", "b", "c"]);
        // Target is "c"; only removable leaf is nothing (b, a have edges,
        // c is the target) — so removal must refuse.
        for id in q.node_ids() {
            assert!(remove_leaf(&q, id).is_none());
        }

        // Branching query: //a[/b]/c with target c — leaf b removable.
        let mut nodes = vec![
            QueryNode {
                tag: "a".into(),
                edges: vec![
                    QueryEdge {
                        axis: Axis::Child,
                        to: QueryNodeId::from_index(1),
                    },
                    QueryEdge {
                        axis: Axis::Child,
                        to: QueryNodeId::from_index(2),
                    },
                ],
                constraints: vec![OrderConstraint {
                    before: 0,
                    after: 1,
                    kind: OrderKind::Sibling,
                }],
            },
            QueryNode {
                tag: "b".into(),
                edges: Vec::new(),
                constraints: Vec::new(),
            },
            QueryNode {
                tag: "c".into(),
                edges: Vec::new(),
                constraints: Vec::new(),
            },
        ];
        nodes[0].tag = "a".into();
        let q = Query::new(nodes, Axis::Descendant, QueryNodeId::from_index(2)).unwrap();
        let smaller = remove_leaf(&q, QueryNodeId::from_index(1)).unwrap();
        assert_eq!(smaller.len(), 2);
        // The constraint referenced the removed edge, so it is gone.
        assert!(smaller.nodes().iter().all(|n| n.constraints.is_empty()));
        assert_eq!(smaller.node(smaller.target()).tag, "c");
    }

    #[test]
    fn minimize_reaches_fixpoint() {
        let q = chain(&["a", "b", "c"]);
        // Predicate that always fails: minimization bottoms out at the
        // target-only spine it cannot legally shrink further.
        let min = minimize(&q, |_| true);
        assert!(min.len() <= q.len());
        assert!(is_simple_chain(&min));
    }

    #[test]
    fn generated_queries_are_valid_and_diverse() {
        let doc = random_document(&RandomDocConfig {
            seed: 11,
            max_depth: 5,
            max_children: 4,
            tag_count: 3,
            layered: false,
        });
        let paths = tag_paths(&doc);
        let mut rng = StdRng::seed_from_u64(5);
        let mut saw_constraint = false;
        let mut saw_branch = false;
        let mut saw_descendant = false;
        for _ in 0..200 {
            let q = random_query(&mut rng, &paths);
            assert!(!q.is_empty());
            saw_constraint |= q.has_order_constraints();
            saw_branch |= q.nodes().iter().any(|n| n.edges.len() > 1);
            saw_descendant |= q
                .nodes()
                .iter()
                .flat_map(|n| &n.edges)
                .any(|e| e.axis == Axis::Descendant);
        }
        assert!(saw_constraint, "generator never emitted order constraints");
        assert!(saw_branch, "generator never emitted branches");
        assert!(saw_descendant, "generator never emitted descendant edges");
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = run_diff(&DiffConfig { seed: 1, cases: 6 });
        let json = report.to_json();
        assert!(json.contains("\"tool\": \"xpe-diff\""));
        assert!(json.contains("\"exact-simple\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
