//! The path id join (paper §4, Figure 3).
//!
//! Every query node starts with the full `(pid, frequency)` list of its tag
//! from the p-histogram; path ids that cannot satisfy the containment and
//! tag-relationship test along some query edge are removed, iterating to a
//! fixpoint. The surviving frequencies are the `f_Q(n)` values the
//! estimation formulas consume.
//!
//! Two kernels produce that fixpoint (selected by [`JoinKernel`]):
//!
//! * [`path_join`] — the reference kernel: per-edge relation masks and an
//!   iterate-all-edges-until-stable loop, exactly the paper's Figure 3.
//!   No caches, no indexes; the proptests pin the fast kernel against it
//!   bit for bit.
//! * [`path_join_bitmap`] — the bit-parallel kernel the estimator runs:
//!   each node's surviving set is a pid-index *bitmap*, each edge step is
//!   a word-parallel semi-join over the summary's shared containment
//!   rows screened by the edge's [`ContainmentAdjacency`] candidate
//!   bitmap, a **worklist fixpoint** re-examines only edges whose
//!   endpoint sets shrank, and the final `(pid, f)` lists are rebuilt from
//!   the bitmaps in histogram order.
//!
//! Neither kernel keeps what it returns: the caller owns each
//! [`JoinResult`], and a [`JoinScratch`] holds only the bitmap kernel's
//! working buffers between joins.
//!
//! The fixpoint both kernels compute is the *greatest* set of surviving
//! pids closed under every edge constraint. Each pruning step is monotone
//! (it only removes pids, and removing pids can only enable more
//! removals), so the fixpoint is unique regardless of the order edges are
//! examined in — which is what makes the worklist schedule, the adjacency
//! rows, and the naive scan interchangeable bit for bit: both kernels
//! keep histogram order, so identical surviving sets sum to identical
//! `f64`s.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use xpe_pathid::{
    axis_compatible_masked, relation_mask, words, ContainmentAdjacency, JoinIndexCache, PathIdBits,
    Pid,
};
use xpe_synopsis::Summary;
use xpe_xml::TagId;
use xpe_xpath::{Axis, Query, QueryNodeId};

use crate::planner::QueryPlan;
use crate::serve::BudgetState;

/// Which fixpoint kernel an [`Estimator`](crate::Estimator) runs. Both
/// compute the same greatest fixpoint bit for bit (pinned by the
/// diff-harness proptests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum JoinKernel {
    /// The reference Figure-3 kernel: fresh masks, nested-loop
    /// containment, sweep-all-edges fixpoint. No caches and no budget
    /// cooperation — kept as the oracle the bitmap kernel is checked
    /// against.
    Naive,
    /// Word-parallel semi-join over pid-index bitmaps with a worklist
    /// schedule ([`path_join_bitmap`]).
    #[default]
    Bitmap,
}

/// Cumulative per-phase wall-clock breakdown of the bitmap kernel, in
/// nanoseconds. Collected only when a [`JoinScratch`] has timing enabled
/// (an `Instant::now` pair per phase is measurable on µs-scale joins, so
/// it is off by default); the bench harness turns it on to report where
/// join time goes. A cold join builds what its lookups miss — the
/// summary's containment relation, adjacencies and seed bitmaps — inside
/// the screen lap, so `screen_ns` includes those builds.
/// [`JoinIndexCache`] also times the per-key adjacency builds on its own
/// ([`build_ms`](JoinIndexCache::build_ms)), a subset of the screen
/// phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinPhaseStats {
    /// Resolving each query's tag names against the summary and filling
    /// the [`QueryPlan`] of every sub-query it joins. Lapped by the
    /// estimator, which does this outside the kernel.
    pub plan_ns: u64,
    /// Seeding candidate bitmaps, root pinning, and edge resolution
    /// (adjacency lookups, with the builds of cold ones).
    pub screen_ns: u64,
    /// The worklist fixpoint itself.
    pub fixpoint_ns: u64,
    /// Rebuilding `(pid, frequency)` lists from the final bitmaps.
    pub finalize_ns: u64,
}

/// Starts-on-demand phase stopwatch: `None` when timing is disabled, so
/// the kernel pays nothing in the common case.
struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    fn start(enabled: bool) -> Self {
        PhaseTimer(enabled.then(Instant::now))
    }

    /// Adds the time since the last lap to `slot` and restarts.
    fn lap(&mut self, slot: &mut u64) {
        if let Some(t) = self.0 {
            let now = Instant::now();
            *slot += now.duration_since(t).as_nanos() as u64;
            self.0 = Some(now);
        }
    }
}

/// Per-query-node surviving `(pid, estimated frequency)` lists.
#[derive(Clone, Debug)]
pub struct JoinResult {
    /// `lists[q.index()]`: surviving pids of each query node.
    pub lists: Vec<Vec<(Pid, f64)>>,
}

/// The bitmap kernel's working buffers, kept between joins.
///
/// A join needs one bitmap per query node and a handful of fixpoint
/// bookkeeping structures — incident lists, queued flags, the worklist
/// deque, population counts and the resolved-edge vector. The scratch
/// holds all of them from one join to the next, so the kernel's own
/// state allocates only when a plan outgrows every earlier one. The
/// [`JoinResult`] a join returns is not scratch: the caller owns it.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// The semi-join's union accumulator, reused across edges.
    acc: Vec<u64>,
    /// The semi-join's source set screened by the edge's candidates,
    /// reused across edges.
    screened: Vec<u64>,
    /// Hoisted worklist state: per-node incident edge indices.
    incident: Vec<Vec<usize>>,
    /// Hoisted worklist state: per-edge queued flags.
    queued: Vec<bool>,
    /// Hoisted worklist state: the edge worklist itself.
    worklist: VecDeque<usize>,
    /// Hoisted state: per-node population counts.
    counts: Vec<usize>,
    /// Hoisted state: one pid-index bitmap per plan node, reset in
    /// place by each join; it only grows, to the largest plan joined.
    node_bits: Vec<Vec<u64>>,
    /// Hoisted state: the resolved edge vector.
    edges: Vec<BitEdge>,
    /// When set, the kernel accumulates a per-phase wall-clock breakdown
    /// into `phases` (see [`JoinPhaseStats`]).
    timing: bool,
    phases: JoinPhaseStats,
}

impl JoinScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables per-phase timing (off by default).
    pub fn set_timing(&mut self, on: bool) {
        self.timing = on;
    }

    /// Whether per-phase timing is enabled.
    pub(crate) fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// Adds plan-construction time to the phase breakdown (the estimator
    /// laps this — plans are built outside the kernel).
    pub(crate) fn add_plan_ns(&mut self, ns: u64) {
        self.phases.plan_ns += ns;
    }

    /// The accumulated per-phase breakdown (all zero unless timing was
    /// enabled).
    pub fn phase_stats(&self) -> JoinPhaseStats {
        self.phases
    }
}

/// Builds the `(tag, rooted)` seed bitmap: every pid of `tag`'s
/// p-histogram, restricted when `rooted` to the pids holding a
/// root-to-leaf path that starts with `tag`. The summary's index runs
/// this once per `(tag, rooted)` cell, with one mask of those paths.
fn build_seed_bitmap(summary: &Summary, tag: TagId, rooted: bool, set_words: usize) -> Vec<u64> {
    let roots = rooted.then(|| {
        let mut mask = PathIdBits::zero(summary.pids.width());
        for (enc, path) in summary.encoding.iter() {
            if path.first() == Some(&tag) {
                mask.set(enc);
            }
        }
        mask
    });
    let mut s = vec![0u64; set_words];
    for &(pid, _) in summary.phist.histogram(tag).entries_slice() {
        if roots
            .as_ref()
            .map_or(true, |mask| summary.pids.bits(pid).intersects(mask))
        {
            words::set_bit(&mut s, pid.index());
        }
    }
    s
}

impl JoinResult {
    /// `f_Q(n)`: the summed frequency of `n`'s surviving path ids.
    pub fn frequency(&self, n: QueryNodeId) -> f64 {
        self.lists[n.index()].iter().map(|&(_, f)| f).sum()
    }

    /// The surviving pids of `n`.
    pub fn pids(&self, n: QueryNodeId) -> impl Iterator<Item = Pid> + '_ {
        self.lists[n.index()].iter().map(|&(p, _)| p)
    }
}

/// Runs the reference path join of `query` against `summary`: a fresh
/// relation mask per edge, nested-loop containment tests, all edges
/// re-swept until a pass changes nothing. Kept unoptimized on purpose —
/// it is the oracle the bitmap kernel is property-tested against.
pub fn path_join(summary: &Summary, query: &Query) -> JoinResult {
    let mut lists = seed_lists(summary, query);

    // A `/`-rooted query pins its first step to the document root: keep
    // only ids whose paths carry the step's tag at depth 0. The reference
    // kernel re-derives this from the encoding table per pid; the bitmap
    // kernel tests each pid once against a mask of those paths, in its
    // rooted seed.
    if query.root_axis() == Axis::Child {
        let root_node = query.root();
        if let Some(tag) = summary.tags.get(&query.node(root_node).tag) {
            lists[root_node.index()].retain(|&(pid, _)| {
                summary
                    .pids
                    .bits(pid)
                    .ones()
                    .any(|enc| summary.encoding.path(enc).first() == Some(&tag))
            });
        } else {
            lists[root_node.index()].clear();
        }
    }

    // One relation mask per structural edge. An edge with an endpoint tag
    // absent from the summary kills both endpoint lists outright (nothing
    // in a shrinking fixpoint can resurrect them), so it drops out here.
    let plan = QueryPlan::build(summary, query);
    let mut edges = Vec::new();
    for e in plan.edges() {
        match e.tags {
            Some((tag_u, tag_v)) => {
                let mask = relation_mask(&summary.encoding, tag_u, tag_v, e.child);
                edges.push((e.u, e.v, mask));
            }
            None => {
                lists[e.u.index()].clear();
                lists[e.v.index()].clear();
            }
        }
    }

    // Nested-loop containment tests per edge, iterated to a fixpoint. The
    // loop terminates because every pass can only shrink the lists.
    loop {
        let mut changed = false;
        for (u, v, mask) in &edges {
            let (u_list, v_list) = two_lists(&mut lists, u.index(), v.index());
            let compatible = |pu: Pid, pv: Pid| axis_compatible_masked(&summary.pids, pu, pv, mask);
            let before_u = u_list.len();
            u_list.retain(|&(pu, _)| v_list.iter().any(|&(pv, _)| compatible(pu, pv)));
            let before_v = v_list.len();
            v_list.retain(|&(pv, _)| u_list.iter().any(|&(pu, _)| compatible(pu, pv)));
            changed |= u_list.len() != before_u || v_list.len() != before_v;
        }
        if !changed {
            break;
        }
    }
    JoinResult { lists }
}

/// The bit-parallel join kernel: each query node's surviving set is a
/// pid-index bitmap and each edge examination is a word-parallel
/// semi-join over the summary's containment rows, screened by the
/// adjacency's candidate bitmap. Final `(pid, frequency)` lists are
/// rebuilt by filtering the p-histogram entries through the final
/// bitmaps — histogram order is exactly the order the reference
/// kernel's `retain` preserves, so the lists (and every downstream `f64`
/// sum) are bit-identical to [`path_join`].
///
/// The kernel reads nothing of the query but `plan`, and the result's
/// lists are indexed by plan node. `plan` must have been built from this
/// `summary`, and `index` must only ever be used with this `summary`;
/// the estimator guarantees both by construction. With the index's cells
/// filled and the scratch warm, the screen phase is pure word moves: one
/// bitmap copy per node and one `Vec` push per edge.
///
/// Under a cooperative [`BudgetState`] every worklist edge examination
/// charges the budget, and on exhaustion the fixpoint stops where it
/// stands. The interrupted result is a *superset* of the true fixpoint
/// (pruning only ever removes pids), so its frequencies are
/// over-estimates — callers treat any budget-exhausted join as degraded
/// and fall back to the `f(tag)` bound rather than trusting the partial
/// lists, and never publish it to a shared cache.
pub fn path_join_bitmap(
    summary: &Summary,
    plan: &QueryPlan,
    index: &JoinIndexCache,
    scratch: Option<&mut JoinScratch>,
    budget: Option<&BudgetState>,
) -> JoinResult {
    let mut local = JoinScratch::new();
    let scratch = match scratch {
        Some(s) => s,
        None => &mut local,
    };
    let mut timer = PhaseTimer::start(scratch.timing);
    let (mut screen_ns, mut fixpoint_ns, mut finalize_ns) = (0u64, 0u64, 0u64);

    let set_words = summary.pids.len().div_ceil(64);
    let tags = summary.tags.len();

    // Seed one bitmap per query node from the memoized per-(tag, rooted)
    // seed bitmaps — root pinning is baked into the rooted seeds, so a
    // warm seed turns per-entry seeding + pinning into one word copy.
    let mut node_bits = std::mem::take(&mut scratch.node_bits);
    let mut counts = std::mem::take(&mut scratch.counts);
    if node_bits.len() < plan.len() {
        node_bits.resize_with(plan.len(), Vec::new);
    }
    counts.clear();
    for (i, &tag) in plan.tags().iter().enumerate() {
        let bm = &mut node_bits[i];
        bm.clear();
        bm.resize(set_words, 0);
        let rooted = plan.rooted().is_some_and(|r| r.index() == i);
        if let Some(tag) = tag {
            bm.copy_from_slice(index.seed_bitmap(tags, tag, rooted, || {
                build_seed_bitmap(summary, tag, rooted, set_words)
            }));
        }
        counts.push(words::count_ones(bm) as usize);
    }

    // Resolve each structural edge to its containment adjacency; an
    // unknown tag kills both endpoints outright, exactly like the
    // reference kernel.
    let mut edges = std::mem::take(&mut scratch.edges);
    edges.clear();
    for e in plan.edges() {
        let Some((tag_u, tag_v)) = e.tags else {
            node_bits[e.u.index()].fill(0);
            counts[e.u.index()] = 0;
            node_bits[e.v.index()].fill(0);
            counts[e.v.index()] = 0;
            continue;
        };
        let adj = index.get(
            &summary.encoding,
            &summary.pids,
            tags,
            tag_u,
            tag_v,
            e.child,
        );
        edges.push(BitEdge {
            u: e.u,
            v: e.v,
            adj: Arc::clone(adj),
        });
    }

    // Worklist fixpoint: seeded with every edge in FIFO order, an edge
    // re-enqueued only when an endpoint set strictly shrank, one budget
    // charge per pop. Termination is bounded by the total seed
    // population, since every re-enqueue follows a strict shrink.
    let mut incident = std::mem::take(&mut scratch.incident);
    let mut queued = std::mem::take(&mut scratch.queued);
    let mut worklist = std::mem::take(&mut scratch.worklist);
    if incident.len() < plan.len() {
        incident.resize_with(plan.len(), Vec::new);
    }
    for l in incident[..plan.len()].iter_mut() {
        l.clear();
    }
    for (ei, e) in edges.iter().enumerate() {
        incident[e.u.index()].push(ei);
        incident[e.v.index()].push(ei);
    }
    queued.clear();
    queued.resize(edges.len(), true);
    worklist.clear();
    worklist.extend(0..edges.len());
    let mut acc = std::mem::take(&mut scratch.acc);
    acc.clear();
    acc.resize(set_words, 0);
    let mut screened = std::mem::take(&mut scratch.screened);
    screened.clear();
    screened.resize(set_words, 0);
    timer.lap(&mut screen_ns);
    while let Some(ei) = worklist.pop_front() {
        if let Some(b) = budget {
            if !b.charge_edge() {
                break;
            }
        }
        queued[ei] = false;
        let edge = &edges[ei];
        let (ub, vb) = two_lists(&mut node_bits, edge.u.index(), edge.v.index());
        let before_u = counts[edge.u.index()];
        let before_v = counts[edge.v.index()];
        counts[edge.u.index()] = semi_join_bits(
            ub,
            before_u,
            vb,
            before_v,
            &edge.adj,
            true,
            &mut screened,
            &mut acc,
        );
        counts[edge.v.index()] = semi_join_bits(
            vb,
            before_v,
            ub,
            counts[edge.u.index()],
            &edge.adj,
            false,
            &mut screened,
            &mut acc,
        );
        // Re-enqueue neighbors of shrunk endpoints — including this edge:
        // pruning v against the already-pruned u can strand pids in u.
        for (node, before) in [(edge.u, before_u), (edge.v, before_v)] {
            if counts[node.index()] == before {
                continue;
            }
            for &other in &incident[node.index()] {
                if !queued[other] {
                    queued[other] = true;
                    worklist.push_back(other);
                }
            }
        }
    }
    timer.lap(&mut fixpoint_ns);

    // Rebuild the (pid, frequency) lists by filtering each node's
    // histogram entries through its final bitmap. The reference kernel's
    // `retain` calls preserve histogram order, so this produces the same
    // entries in the same order — downstream f64 sums are bit-identical.
    let mut lists = Vec::new();
    for (i, &tag) in plan.tags().iter().enumerate() {
        let mut list = Vec::new();
        if counts[i] > 0 {
            if let Some(tag) = tag {
                let bm = &node_bits[i];
                list.extend(
                    summary
                        .phist
                        .histogram(tag)
                        .entries_slice()
                        .iter()
                        .filter(|(p, _)| words::test_bit(bm, p.index()))
                        .copied(),
                );
            }
        }
        lists.push(list);
    }
    timer.lap(&mut finalize_ns);

    // Hand the hoisted structures back; the edge vector is cleared so
    // stale `Arc`s never outlive this call's summary.
    scratch.acc = acc;
    scratch.screened = screened;
    scratch.node_bits = node_bits;
    scratch.counts = counts;
    edges.clear();
    scratch.edges = edges;
    scratch.incident = incident;
    scratch.queued = queued;
    scratch.worklist = worklist;
    scratch.phases.screen_ns += screen_ns;
    scratch.phases.fixpoint_ns += fixpoint_ns;
    scratch.phases.finalize_ns += finalize_ns;
    JoinResult { lists }
}

/// One structural query edge resolved to its containment adjacency (the
/// adjacency folds the relation-mask test into its candidates).
#[derive(Debug)]
struct BitEdge {
    u: QueryNodeId,
    v: QueryNodeId,
    adj: Arc<ContainmentAdjacency>,
}

/// One direction of the bitmap semi-join: keep in `dst` only candidate
/// pids whose containment row (forward rows when `forward`, else reverse)
/// holds a candidate of `src`. Both sides are screened by the edge's
/// candidates first — `dst` in place, `src` into `screened` — so the
/// shared, unmasked relation rows give exactly the edge's pairs. Two
/// strategies then compute the identical set — test each surviving `dst`
/// pid's row against the screened source, or union the screened source
/// pids' opposite-side rows into `acc` and intersect — and the smaller
/// side picks which, so the work tracks `min(|dst|, |src|)` row touches.
/// Returns `dst`'s new population count.
#[allow(clippy::too_many_arguments)]
fn semi_join_bits(
    dst: &mut [u64],
    dst_count: usize,
    src: &[u64],
    src_count: usize,
    adj: &ContainmentAdjacency,
    forward: bool,
    screened: &mut [u64],
    acc: &mut [u64],
) -> usize {
    // Candidate screen: a pid outside the candidates pairs with nothing,
    // on either side; one word-parallel AND per side clears them all.
    let relation = adj.relation();
    words::and_assign(dst, adj.candidates());
    screened.copy_from_slice(src);
    words::and_assign(screened, adj.candidates());
    if dst_count <= src_count {
        for (wi, word) in dst.iter_mut().enumerate() {
            let mut w = *word;
            let mut keep = w;
            while w != 0 {
                let b = w.trailing_zeros();
                w &= w - 1;
                let pid = wi * 64 + b as usize;
                let row = if forward {
                    relation.forward_row(pid)
                } else {
                    relation.reverse_row(pid)
                };
                if !words::intersects(row, screened) {
                    keep &= !(1u64 << b);
                }
            }
            *word = keep;
        }
    } else {
        acc.fill(0);
        for pid in words::ones(screened) {
            let row = if forward {
                relation.reverse_row(pid)
            } else {
                relation.forward_row(pid)
            };
            words::or_assign(acc, row);
        }
        words::and_assign(dst, acc);
    }
    words::count_ones(dst) as usize
}

/// Seeds each query node's candidate list from its tag's p-histogram
/// (the reference kernel's string-keyed shape; the bitmap kernel seeds
/// through the plan's resolved tags instead).
fn seed_lists(summary: &Summary, query: &Query) -> Vec<Vec<(Pid, f64)>> {
    query
        .node_ids()
        .map(|q| {
            let mut list = Vec::new();
            if let Some(h) = summary.phistogram(&query.node(q).tag) {
                list.extend_from_slice(h.entries_slice());
            }
            list
        })
        .collect()
}

fn two_lists<T>(v: &mut [Vec<T>], a: usize, b: usize) -> (&mut Vec<T>, &mut Vec<T>) {
    assert_ne!(a, b, "query edges never self-loop");
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Budget;
    use xpe_synopsis::SummaryConfig;
    use xpe_xpath::parse_query;

    fn summary() -> Summary {
        Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            SummaryConfig::default(),
        )
    }

    /// The surviving pid bit strings of a query node, sorted.
    fn pids_of(s: &Summary, j: &JoinResult, q: &Query, tag: &str) -> Vec<String> {
        let node = q
            .node_ids()
            .find(|&n| q.node(n).tag == tag)
            .expect("tag in query");
        let mut v: Vec<String> = j.pids(node).map(|p| s.pids.bits(p).to_string()).collect();
        v.sort();
        v
    }

    /// Lists with frequencies as raw bits, for bit-for-bit comparison.
    fn bits(j: &JoinResult) -> Vec<Vec<(Pid, u64)>> {
        j.lists
            .iter()
            .map(|l| l.iter().map(|&(p, f)| (p, f.to_bits())).collect())
            .collect()
    }

    #[test]
    fn paper_example_4_1_join() {
        // Q1 = //A[/C/F]/B/D (Figure 3): after the join A = {p7},
        // C = {p3}, F = {p1}, B = {p5}, D = {p5}.
        let s = summary();
        let q = parse_query("//A[/C/F]/B/D").unwrap();
        let j = path_join(&s, &q);
        assert_eq!(pids_of(&s, &j, &q, "A"), vec!["1011"]); // p7
        assert_eq!(pids_of(&s, &j, &q, "C"), vec!["0011"]); // p3
        assert_eq!(pids_of(&s, &j, &q, "F"), vec!["0001"]); // p1
        assert_eq!(pids_of(&s, &j, &q, "B"), vec!["1000"]); // p5
        assert_eq!(pids_of(&s, &j, &q, "D"), vec!["1000"]); // p5
                                                            // Frequencies: f(A)=1, f(B)=3, f(D)=4 (Figure 3(b)).
        let a = q.root();
        assert_eq!(j.frequency(a), 1.0);
    }

    #[test]
    fn paper_example_4_2_simple_query() {
        // //A//C: A keeps {p6, p7}, C keeps {p2, p3}; both selectivities 2.
        let s = summary();
        let q = parse_query("//A//C").unwrap();
        let j = path_join(&s, &q);
        assert_eq!(pids_of(&s, &j, &q, "A"), vec!["1010", "1011"]); // p6, p7
        assert_eq!(pids_of(&s, &j, &q, "C"), vec!["0010", "0011"]); // p2, p3
        assert_eq!(j.frequency(q.root()), 2.0);
        assert_eq!(j.frequency(q.target()), 2.0);
    }

    #[test]
    fn paper_example_4_3_branch_overestimate() {
        // Q2 = //C[/E]/F: E keeps {(p2, 2)} — the join's known
        // over-estimate the branch formula later corrects to 1.
        let s = summary();
        let q = parse_query("//C[/$E]/F").unwrap();
        let j = path_join(&s, &q);
        assert_eq!(pids_of(&s, &j, &q, "E"), vec!["0010"]);
        assert_eq!(j.frequency(q.target()), 2.0);
        // C itself is exact: {p3} with frequency 1.
        assert_eq!(j.frequency(q.root()), 1.0);
    }

    #[test]
    fn unknown_tag_empties_the_query() {
        let s = summary();
        let q = parse_query("//A/Zebra").unwrap();
        let j = path_join(&s, &q);
        assert_eq!(j.frequency(q.root()), 0.0);
        assert_eq!(j.frequency(q.target()), 0.0);
    }

    #[test]
    fn incompatible_axis_prunes_everything() {
        // D is never a parent of A.
        let s = summary();
        let q = parse_query("//D/A").unwrap();
        let j = path_join(&s, &q);
        assert_eq!(j.frequency(q.target()), 0.0);
    }

    #[test]
    fn child_vs_descendant_pruning_differs() {
        // //Root/E: E is never a child of Root → empty.
        let s = summary();
        let child = parse_query("/Root/E").unwrap();
        assert_eq!(path_join(&s, &child).frequency(child.target()), 0.0);
        // //Root//E: all three E's survive.
        let desc = parse_query("/Root//E").unwrap();
        assert_eq!(path_join(&s, &desc).frequency(desc.target()), 3.0);
    }

    #[test]
    fn join_ignores_order_constraints() {
        let s = summary();
        let plain = parse_query("//A[/C]/B").unwrap();
        let ordered = parse_query("//A[/C/folls::$B]").unwrap();
        let jp = path_join(&s, &plain);
        let jo = path_join(&s, &ordered);
        // Same structural pruning on B regardless of the constraint.
        assert_eq!(
            pids_of(&s, &jp, &plain, "B"),
            pids_of(&s, &jo, &ordered, "B")
        );
    }

    /// The bitmap kernel — bare, with a scratch, and with a warm scratch
    /// over a warm index — agrees with the reference kernel bit for bit
    /// on every test query.
    #[test]
    fn bitmap_kernel_matches_reference_on_all_shapes() {
        let s = summary();
        let queries = [
            "//A[/C/F]/B/D",
            "//A//C",
            "//C[/$E]/F",
            "//A/Zebra",
            "//D/A",
            "/Root/E",
            "/Root//E",
            "//A[/C]/B",
            "/Root/A/C/F",
            "//Root[/A]//E",
            // Rooted queries whose first tag is not the document root:
            // their rooted seeds are empty.
            "/A//C",
            "/C/F",
            "/Zebra/A",
        ];
        let index = JoinIndexCache::new();
        let mut scratch = JoinScratch::new();
        scratch.set_timing(true);
        for q in queries {
            let query = parse_query(q).unwrap();
            let plan = QueryPlan::build(&s, &query);
            let reference = bits(&path_join(&s, &query));
            let bare = path_join_bitmap(&s, &plan, &index, None, None);
            assert_eq!(bits(&bare), reference, "{q} bare");
            for pass in ["scratch", "warm scratch"] {
                let got = path_join_bitmap(&s, &plan, &index, Some(&mut scratch), None);
                assert_eq!(bits(&got), reference, "{q} {pass}");
            }
        }
        // Timing was enabled: the phase breakdown accumulated something.
        let phases = scratch.phase_stats();
        assert!(
            phases.screen_ns + phases.fixpoint_ns + phases.finalize_ns > 0,
            "{phases:?}"
        );
    }

    /// The budget contract of the bitmap kernel: with `P` the edge charge
    /// of an unlimited run, a cap `b` charges `min(P, b + 1)` edges (the
    /// charge that crosses the cap counts), exhausts iff `P > b`, and an
    /// unexhausted run returns the reference kernel's lists bit for bit.
    #[test]
    fn bitmap_budget_charges_min_of_full_run_and_cap_plus_one() {
        let s = summary();
        let index = JoinIndexCache::new();
        for q in ["//A[/C/F]/B/D", "//A//C", "/Root//E", "//Root[/A]//E"] {
            let query = parse_query(q).unwrap();
            let plan = QueryPlan::build(&s, &query);
            let reference = bits(&path_join(&s, &query));
            let unlimited = BudgetState::start(&Budget::unlimited());
            path_join_bitmap(&s, &plan, &index, None, Some(&unlimited));
            let full = unlimited.edges_charged();
            assert!(full > 0, "{q}: every query here has a join edge");
            assert!(unlimited.exhausted().is_none());
            for cap in [0u64, 1, 2, 3, 5, 1_000] {
                let state = BudgetState::start(&Budget {
                    deadline: None,
                    max_join_edges: Some(cap),
                });
                let got = path_join_bitmap(&s, &plan, &index, None, Some(&state));
                assert_eq!(state.edges_charged(), full.min(cap + 1), "{q} cap={cap}");
                assert_eq!(state.exhausted().is_some(), full > cap, "{q} cap={cap}");
                if state.exhausted().is_none() {
                    assert_eq!(bits(&got), reference, "{q} cap={cap}");
                }
            }
        }
    }
}
