//! The selectivity estimator (paper §4–§5).
//!
//! * Simple queries: `S_Q(n) = f_Q(n)` after the path join (Theorem 4.1).
//! * Branch queries with the target on a branch: Eq. 2 under the Node
//!   Independence Assumption,
//!   `S_Q(n) ≈ f_Q'(n) · f_Q(ni) / f_Q'(ni)` with `Q'` the spine query and
//!   `ni` the branching trunk node.
//! * Order queries (`folls`/`pres`): Eqs. 3–5 under the Node Order
//!   Uniformity and Node Containment Uniformity Assumptions, with the
//!   order-restricted selectivity of a sibling head read from the
//!   o-histogram.
//! * `foll`/`prec` queries: converted into sibling-axis queries by path-id
//!   decomposition (§5 "Preceding/Following Axis") and summed.
//!
//! Generalizations beyond the paper's canonical `q1[/q2]/q3` shape (multiple
//! predicates, chains longer than two, multiple constrained nodes) are
//! documented inline and in DESIGN.md; on the paper's query shapes the
//! implementation reproduces the worked examples digit for digit.

use std::cell::RefCell;
use std::convert::Infallible;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use xpe_pathid::{JoinIndexCache, RelationMaskCache};
use xpe_synopsis::{Region, Summary};
use xpe_xml::TagId;
use xpe_xpath::{
    parse_query, Axis, OrderConstraint, OrderKind, Query, QueryNodeId, QueryParseError,
};

use crate::editor;
use crate::estcache::{EstimateCache, EstimateCacheReader, EstimateKey};
use crate::invariant::{finalize_estimate, safe_div};
use crate::join::{
    path_join, path_join_bitmap, JoinKernel, JoinPhaseStats, JoinResult, JoinScratch,
};
use crate::joincache::{JoinCache, SkeletonKey, WorkerJoinCache};
use crate::planner::QueryPlan;
use crate::serve::{
    Budget, BudgetExhausted, BudgetState, DegradedReason, EstimateOutcome, EstimateStatus,
    QueryLimits,
};

/// Selectivity estimator over a prebuilt [`Summary`].
///
/// Every estimator memoizes the containment adjacencies its joins compute
/// (keyed by `(tag_u, tag_v, axis)` — pure functions of the summary's
/// encoding table) in a [`JoinIndexCache`] of write-once cells, which a
/// warm join reads without a lock or a hash, and recycles the joins'
/// per-node allocations. Estimators built by
/// [`EstimationEngine`](crate::EstimationEngine) share one adjacency
/// index and one workload-level [`JoinCache`], so a batch warms both for
/// every worker.
///
/// An estimate resolves its query against the summary once — tag ids,
/// parent links, subtree spans and order chains — and derives every
/// sub-query the formulas join as a set of the resolved query's nodes.
/// The buffers for all of that are the estimator's own and are reused,
/// so a warm estimate allocates nothing.
pub struct Estimator<'s> {
    summary: &'s Summary,
    adjacency: Arc<JoinIndexCache>,
    /// Worker-private front for the shared workload-level [`JoinCache`]:
    /// warm lookups probe this estimator's own map without a lock.
    join_cache: Option<RefCell<WorkerJoinCache>>,
    /// Worker-private front for the shared full-query
    /// [`EstimateCache`]: warm hits are served above all join machinery
    /// without a lock (see `estcache`).
    est_cache: Option<RefCell<EstimateCacheReader>>,
    scratch: RefCell<JoinScratch>,
    /// Which join kernel [`join`](Self::join) dispatches to. Both are
    /// bit-identical; `Naive` is the reference oracle and opts out of
    /// caches and budget cooperation.
    kernel: JoinKernel,
    /// Live budget of the in-flight [`try_estimate`](Self::try_estimate)
    /// call, threaded into every join it runs; `None` outside one.
    budget: RefCell<Option<BudgetState>>,
    /// Idle resolution buffers: one is in use per query being estimated,
    /// which is more than one only while a §5 conversion recurses.
    resolutions: RefCell<Vec<Resolution>>,
    /// The plan of the sub-query being joined.
    plan: RefCell<QueryPlan>,
    /// The join-cache key of that plan.
    skeleton: RefCell<SkeletonKey>,
    /// The estimate-cache key of the query being estimated.
    est_key: RefCell<EstimateKey>,
}

/// A join result that is either owned by this estimator or aliased out of
/// the shared [`JoinCache`]. Derefs to [`JoinResult`] either way; only
/// owned results give their allocations back to the scratch pool.
enum Joined {
    Owned(JoinResult),
    Shared(Arc<JoinResult>),
}

impl Deref for Joined {
    type Target = JoinResult;

    fn deref(&self) -> &JoinResult {
        match self {
            Joined::Owned(j) => j,
            Joined::Shared(j) => j,
        }
    }
}

/// A query resolved against the estimator's summary: everything the
/// formulas and the plans of its sub-queries read besides the query's
/// own edges, in buffers the estimator reuses from query to query.
#[derive(Debug, Default)]
struct Resolution {
    /// Per node: its tag's id, or `None` for a tag the summary lacks.
    tags: Vec<Option<TagId>>,
    /// Per node: its parent, `None` for the root.
    parent: Vec<Option<QueryNodeId>>,
    /// Per node: its pre-order number and the number just past its
    /// subtree, so `x` lies in `a`'s subtree iff `x`'s number falls in
    /// `a`'s span.
    span: Vec<(u32, u32)>,
    /// The order-constraint chains, owners in id order and each owner's
    /// chains by first edge.
    chains: Vec<Chain>,
    /// Every chain's `(edge index at the owner, head)` links, before to
    /// after; each [`Chain`] owns one range.
    links: Vec<(usize, QueryNodeId)>,
    /// Walk scratch: the depth-first stack.
    stack: Vec<QueryNodeId>,
    /// Walk scratch: the nodes in pre-order.
    preorder: Vec<QueryNodeId>,
}

/// One order-constraint chain: its owner, its kind, and its range of
/// [`Resolution::links`].
#[derive(Clone, Copy, Debug)]
struct Chain {
    owner: QueryNodeId,
    kind: OrderKind,
    start: usize,
    end: usize,
}

/// A node no pre-order walk reached.
const UNREACHED: u32 = u32::MAX;

impl Resolution {
    /// Resolves `query` against `summary`, reusing the buffers.
    fn fill(&mut self, summary: &Summary, query: &Query) {
        let n = query.len();
        self.tags.clear();
        self.tags
            .extend(query.nodes().iter().map(|node| summary.tags.get(&node.tag)));
        self.parent.clear();
        self.parent.resize(n, None);
        self.span.clear();
        self.span.resize(n, (UNREACHED, UNREACHED));

        // Pre-order numbers from one depth-first walk, then each
        // subtree's end from the children's, deepest first.
        self.stack.clear();
        self.preorder.clear();
        self.stack.push(query.root());
        while let Some(x) = self.stack.pop() {
            if self.span[x.index()].0 != UNREACHED {
                continue;
            }
            let pre = self.preorder.len() as u32;
            self.span[x.index()] = (pre, pre + 1);
            self.preorder.push(x);
            for e in query.node(x).edges.iter().rev() {
                if self.span[e.to.index()].0 == UNREACHED {
                    self.parent[e.to.index()] = Some(x);
                    self.stack.push(e.to);
                }
            }
        }
        for &x in self.preorder.iter().rev() {
            if let Some(p) = self.parent[x.index()] {
                let end = self.span[x.index()].1;
                let parent = &mut self.span[p.index()].1;
                *parent = (*parent).max(end);
            }
        }

        self.chains.clear();
        self.links.clear();
        for owner in query.node_ids() {
            for first in query.chain_starts(owner) {
                let start = self.links.len();
                let (_, kind) = query
                    .chain_next(owner, first)
                    .expect("a chain starts with a constraint");
                let mut cur = Some(first);
                while let Some(e) = cur {
                    self.links.push((e, query.node(owner).edges[e].to));
                    cur = query.chain_next(owner, e).map(|(next, _)| next);
                }
                self.chains.push(Chain {
                    owner,
                    kind,
                    start,
                    end: self.links.len(),
                });
            }
        }
    }
}

/// A query with its resolution: the frame every formula reads.
#[derive(Clone, Copy)]
struct Resolved<'a> {
    query: &'a Query,
    res: &'a Resolution,
}

impl<'a> Resolved<'a> {
    /// Whether `x` lies in the subtree rooted at `a`, `a` included.
    fn within(self, x: QueryNodeId, a: QueryNodeId) -> bool {
        let (start, end) = self.res.span[a.index()];
        let pre = self.res.span[x.index()].0;
        start <= pre && pre < end
    }

    fn tag(self, n: QueryNodeId) -> Option<TagId> {
        self.res.tags[n.index()]
    }

    /// The `(edge, head)` links of `chain`, before to after.
    fn links(self, chain: &Chain) -> &'a [(usize, QueryNodeId)] {
        &self.res.links[chain.start..chain.end]
    }

    /// The deepest proper ancestor of `n` with an edge into `sub` that
    /// leaves the root-to-`n` path (the paper's `ni`, the trunk end).
    fn lowest_branching_ancestor(self, sub: Sub, n: QueryNodeId) -> Option<QueryNodeId> {
        let mut on_path = n;
        while let Some(anc) = self.res.parent[on_path.index()] {
            let branches = self
                .query
                .node(anc)
                .edges
                .iter()
                .any(|e| e.to != on_path && sub.contains(self, e.to));
            if branches {
                return Some(anc);
            }
            on_path = anc;
        }
        None
    }
}

/// An order-free sub-query the formulas join, as a set of the resolved
/// query's nodes: every node but the proper descendants of `cut`, and,
/// with `spine` set, only those on the path from the root to `spine` or
/// in `spine`'s subtree. The kept nodes keep their edges among
/// themselves, and are numbered in id order — as
/// [`rebuild`](crate::rebuild) numbers the same sub-query — so a join
/// result of the sub-query is read through [`local`](Self::local).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Sub {
    cut: Option<QueryNodeId>,
    spine: Option<QueryNodeId>,
}

impl Sub {
    /// `Q`: the order-free query itself (paper §5), which keeps every
    /// node id.
    const ALL: Sub = Sub {
        cut: None,
        spine: None,
    };

    /// `Q'` of Eqs. 3–5: the order-free query with `head`'s branch
    /// trimmed to its first node.
    fn trimmed_below(head: QueryNodeId) -> Sub {
        Sub {
            cut: Some(head),
            spine: None,
        }
    }

    /// `Q'` of Eq. 2: the path from the root to `n` plus `n`'s subtree,
    /// within this sub-query.
    fn spine_to(self, n: QueryNodeId) -> Sub {
        debug_assert!(self.spine.is_none(), "spines are taken once");
        Sub {
            spine: Some(n),
            ..self
        }
    }

    fn contains(self, r: Resolved<'_>, x: QueryNodeId) -> bool {
        !self.cut.is_some_and(|c| c != x && r.within(x, c))
            && self
                .spine
                .map_or(true, |s| r.within(x, s) || r.within(s, x))
    }

    /// Node `x`'s number in this sub-query: how many kept nodes precede
    /// it in id order.
    fn local(self, r: Resolved<'_>, x: QueryNodeId) -> QueryNodeId {
        debug_assert!(self.contains(r, x), "only kept nodes are numbered");
        let before = r
            .query
            .node_ids()
            .take(x.index())
            .filter(|&y| self.contains(r, y))
            .count();
        QueryNodeId::from_index(before)
    }
}

impl<'s> Estimator<'s> {
    /// Creates an estimator reading from `summary`.
    pub fn new(summary: &'s Summary) -> Self {
        Self::with_caches(
            summary,
            Arc::default(),
            Arc::new(JoinIndexCache::new()),
            None,
        )
    }

    /// Creates an estimator sharing the kernel caches: containment
    /// adjacency and (optionally) the workload-level join cache. Neither
    /// changes any estimate — joins are pure functions of `(summary,
    /// query skeleton)` — only how fast the estimate is produced.
    ///
    /// `_masks` is not read: the bitmap kernel's adjacencies fold the
    /// relation-mask test in, and the reference kernel computes its masks
    /// fresh. The parameter stays for existing callers.
    pub fn with_caches(
        summary: &'s Summary,
        _masks: Arc<RelationMaskCache>,
        adjacency: Arc<JoinIndexCache>,
        join_cache: Option<Arc<JoinCache>>,
    ) -> Self {
        Estimator {
            summary,
            adjacency,
            join_cache: join_cache.map(|c| RefCell::new(WorkerJoinCache::new(c))),
            est_cache: None,
            scratch: RefCell::new(JoinScratch::new()),
            kernel: JoinKernel::default(),
            budget: RefCell::new(None),
            resolutions: RefCell::default(),
            plan: RefCell::default(),
            skeleton: RefCell::default(),
            est_key: RefCell::default(),
        }
    }

    /// Attaches (or detaches, with `None`) a shared full-query
    /// [`EstimateCache`]. A finished `Ok` estimate is published under
    /// the query's canonical text; a later arrival of the same canonical
    /// query — through this estimator or any other sharing the cache —
    /// is served without touching the join machinery.
    /// Estimates are pure functions of `(summary, canonical query)`, so
    /// the cache changes nothing observable except speed; a cache built
    /// with capacity 0 is dropped here and disables the fast path
    /// entirely.
    pub fn with_estimate_cache(mut self, cache: Option<Arc<EstimateCache>>) -> Self {
        self.est_cache = cache
            .filter(|c| c.capacity() > 0)
            .map(|c| RefCell::new(EstimateCacheReader::new(c)));
        self
    }

    /// Sizes this estimator's private cache fronts for `fronts`
    /// estimators over the same shared caches: each front keeps at most
    /// `1 / fronts` of its shared cache's capacity, so all of them
    /// together hold no more entries than the shared caches do. Call it
    /// after [`with_estimate_cache`](Self::with_estimate_cache). The
    /// daemon, which runs one estimator per open connection, passes its
    /// connection cap.
    pub(crate) fn with_front_share(self, fronts: usize) -> Self {
        if let Some(front) = &self.join_cache {
            front.borrow_mut().share(fronts);
        }
        if let Some(front) = &self.est_cache {
            front.borrow_mut().share(fronts);
        }
        self
    }

    /// Selects the join kernel (default: [`JoinKernel::Bitmap`]). Both
    /// kernels produce bit-identical estimates; the naive kernel also
    /// ignores the join cache and join budgets, by design, and joins
    /// every derived sub-query as a [`rebuild`](crate::rebuild)
    /// [`Query`].
    pub fn with_kernel(mut self, kernel: JoinKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The configured join kernel.
    pub fn kernel(&self) -> JoinKernel {
        self.kernel
    }

    /// Enables or disables the per-phase join timing breakdown (off by
    /// default; costs a few `Instant::now` calls per join when on).
    pub fn set_join_timing(&self, on: bool) {
        self.scratch.borrow_mut().set_timing(on);
    }

    /// The accumulated per-phase join breakdown (zeros unless
    /// [`set_join_timing`](Self::set_join_timing) enabled collection).
    pub fn join_phase_stats(&self) -> JoinPhaseStats {
        self.scratch.borrow().phase_stats()
    }

    /// Runs `f`, lapping its time into the plan phase when join timing is
    /// on.
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.scratch.borrow().timing_enabled() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.scratch
            .borrow_mut()
            .add_plan_ns(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Resolves `query` into an idle resolution buffer, runs `f` on it,
    /// and returns the buffer.
    fn with_resolution<T>(&self, query: &Query, f: impl FnOnce(Resolved<'_>) -> T) -> T {
        let mut res = self.resolutions.borrow_mut().pop().unwrap_or_default();
        self.timed(|| res.fill(self.summary, query));
        let out = f(Resolved { query, res: &res });
        self.resolutions.borrow_mut().push(res);
        out
    }

    /// Joins the sub-query `sub` of `r`; the result's lists are indexed
    /// by [`Sub::local`] numbers.
    ///
    /// The bitmap kernel fills the sub-query's plan from the resolution
    /// and goes through the worker-private join-cache front first, keyed
    /// by the plan (the front probes the shared memo once on a local
    /// miss), publishing a completed result through the front. The naive
    /// kernel rebuilds the sub-query as a [`Query`] and runs the
    /// reference join on it, with no cache.
    fn join(&self, r: Resolved<'_>, sub: Sub) -> Joined {
        if self.kernel == JoinKernel::Naive {
            let keep: Vec<bool> = r.query.node_ids().map(|x| sub.contains(r, x)).collect();
            let derived = editor::rebuild(r.query, &keep, r.query.root());
            return Joined::Owned(path_join(self.summary, &derived.query));
        }
        let mut plan = self.plan.borrow_mut();
        self.timed(|| plan.fill(r.query, &r.res.tags, |x| sub.contains(r, x)));
        let Some(cache) = &self.join_cache else {
            return Joined::Owned(self.run_bitmap(&plan));
        };
        let mut key = self.skeleton.borrow_mut();
        key.set(&plan);
        let hit = cache.borrow_mut().lookup(&key);
        if let Some(result) = hit {
            return Joined::Shared(result);
        }
        let result = self.run_bitmap(&plan);
        // A budget-truncated join is not the fixpoint — never publish it
        // to the cache, where an unbudgeted estimator (or a later
        // healthy query) would mistake it for the real result.
        if self.budget_exhausted() {
            return Joined::Owned(result);
        }
        let result = Arc::new(result);
        cache.borrow_mut().publish(key.clone(), Arc::clone(&result));
        Joined::Shared(result)
    }

    fn run_bitmap(&self, plan: &QueryPlan) -> JoinResult {
        let budget = self.budget.borrow();
        path_join_bitmap(
            self.summary,
            plan,
            &self.adjacency,
            Some(&mut self.scratch.borrow_mut()),
            budget.as_ref(),
        )
    }

    /// Folds the hit/miss tallies of every shared-cache front this
    /// estimator holds into the shared counters (entries are published
    /// immediately; only the counters are batched). Takes no lock. Also
    /// runs on drop.
    pub fn flush_caches(&self) {
        if let Some(front) = &self.join_cache {
            front.borrow_mut().flush();
        }
        if let Some(front) = &self.est_cache {
            front.borrow_mut().flush();
        }
    }

    fn budget_exhausted(&self) -> bool {
        self.budget
            .borrow()
            .as_ref()
            .is_some_and(|b| b.exhausted().is_some())
    }

    /// Returns an owned join's allocations to the scratch pool; shared
    /// (cache-resident) joins just drop their reference.
    fn recycle(&self, join: Joined) {
        if let Joined::Owned(j) = join {
            self.scratch.borrow_mut().recycle(j);
        }
    }

    /// Estimates the selectivity of the target node of `query`.
    ///
    /// The raw formula output passes through
    /// [`finalize_estimate`](crate::finalize_estimate): the result is
    /// always finite, non-negative, and at most the target tag's total
    /// frequency in the summary.
    pub fn estimate(&self, query: &Query) -> f64 {
        let computed = self
            .through_estimate_cache(query, || Ok::<_, Infallible>(self.estimate_uncached(query)));
        computed.unwrap_or_else(|never| match never {})
    }

    /// The full-query cache wrap of every estimate: serves `query` from
    /// the estimate-cache front on a hit; on a miss runs `compute` and
    /// publishes the value it returns, while an `Err` (a budget-truncated
    /// answer) is passed through unpublished. Without a front it only
    /// runs `compute`.
    fn through_estimate_cache<E>(
        &self,
        query: &Query,
        compute: impl FnOnce() -> Result<f64, E>,
    ) -> Result<f64, E> {
        let Some(front) = &self.est_cache else {
            return compute();
        };
        // The key buffer stays borrowed until the publish: nothing below
        // renders another key into it.
        let mut key = self.est_key.borrow_mut();
        key.set(query);
        let hit = front.borrow_mut().lookup(&key);
        if let Some(v) = hit {
            return Ok(v);
        }
        let v = compute()?;
        front.borrow_mut().publish(key.clone(), v);
        Ok(v)
    }

    /// [`estimate`](Self::estimate) without the full-query cache wrap —
    /// always runs the join machinery.
    fn estimate_uncached(&self, query: &Query) -> f64 {
        let raw = self.estimate_depth(query, 0);
        finalize_estimate(raw, self.tag_cap(query))
    }

    /// Parses and estimates a query string.
    pub fn estimate_str(&self, query: &str) -> Result<f64, QueryParseError> {
        Ok(self.estimate(&parse_query(query)?))
    }

    /// The `[0, f(tag)]` clamp ceiling for `query` — the target tag's
    /// total frequency, which is both the upper bound every estimate is
    /// clamped to and the value degraded/rejected outcomes report.
    pub fn tag_cap(&self, query: &Query) -> f64 {
        self.summary.tag_total(&query.node(query.target()).tag)
    }

    /// Fallible estimation under an admission policy and a resource
    /// budget. Always returns a usable value inside `[0, f(tag)]`:
    ///
    /// * `Rejected` — `limits` refused the query before any kernel work;
    ///   the value is the `f(tag)` upper bound.
    /// * `Degraded` — the budget ran out mid-estimation (the join
    ///   fixpoint stopped cooperatively); the value is the `f(tag)` upper
    ///   bound, since a truncated join's frequencies are not trustworthy.
    /// * `Ok` — the value is bit-identical to [`estimate`](Self::estimate).
    pub fn try_estimate(
        &self,
        query: &Query,
        limits: &QueryLimits,
        budget: &Budget,
    ) -> EstimateOutcome {
        let cap = self.tag_cap(query);
        let bound = finalize_estimate(cap, cap);
        if let Err(reason) = limits.admit(self.summary, query) {
            return EstimateOutcome {
                value: bound,
                status: EstimateStatus::Rejected { reason },
            };
        }
        if !budget.is_bounded() {
            // `estimate` carries the full-query cache wrap itself.
            return EstimateOutcome {
                value: self.estimate(query),
                status: EstimateStatus::Ok,
            };
        }
        // Admission ran above, so a cached hit cannot resurrect a query
        // the limits would reject. A hit costs no budget at all — the
        // stored value is a finished, untruncated `Ok` by construction:
        // only an estimate the budget let finish is published, and it is
        // bit-identical to `estimate` by the `Ok` contract.
        let computed = self.through_estimate_cache(query, || {
            *self.budget.borrow_mut() = Some(BudgetState::start(budget));
            let raw = self.estimate_depth(query, 0);
            let state = self
                .budget
                .borrow_mut()
                .take()
                .expect("budget installed above");
            match state.exhausted() {
                None => Ok(finalize_estimate(raw, cap)),
                Some(exhausted) => Err(exhausted),
            }
        });
        let reason = match computed {
            Ok(value) => {
                return EstimateOutcome {
                    value,
                    status: EstimateStatus::Ok,
                }
            }
            Err(BudgetExhausted::Deadline) => DegradedReason::Deadline,
            Err(BudgetExhausted::JoinEdges) => DegradedReason::JoinBudget,
        };
        EstimateOutcome {
            value: bound,
            status: EstimateStatus::Degraded { reason },
        }
    }

    fn estimate_depth(&self, query: &Query, depth: usize) -> f64 {
        // Conversions strictly reduce the number of Document chains, but
        // cap the recursion as a defensive bound.
        if depth > 8 {
            return 0.0;
        }
        self.with_resolution(query, |r| {
            let chains = &r.res.chains;
            if let Some(doc_chain) = chains.iter().find(|c| c.kind == OrderKind::Document) {
                return self.estimate_via_conversion(r, doc_chain, depth);
            }
            if chains.is_empty() {
                return self.plain(r, Sub::ALL, query.target());
            }
            self.estimate_sibling(r)
        })
    }

    // ------------------------------------------------------------------
    // §4: queries without order axes.
    // ------------------------------------------------------------------

    /// Estimates node `n` of the (structurally interpreted) `query`,
    /// ignoring any order constraints.
    pub fn estimate_plain(&self, query: &Query, n: QueryNodeId) -> f64 {
        self.with_resolution(query, |r| self.plain(r, Sub::ALL, n))
    }

    /// Estimates node `n` of the sub-query `sub` (§4).
    fn plain(&self, r: Resolved<'_>, sub: Sub, n: QueryNodeId) -> f64 {
        let join = self.join(r, sub);
        let s = self.plain_with_join(r, sub, &join, n);
        self.recycle(join);
        s
    }

    fn plain_with_join(&self, r: Resolved<'_>, sub: Sub, join: &JoinResult, n: QueryNodeId) -> f64 {
        let f_n = join.frequency(sub.local(r, n));
        if f_n == 0.0 {
            return 0.0;
        }
        // The lowest proper ancestor of `n` with branches off the path —
        // the paper's `ni` (trunk end). No such node ⇒ `n` is in the trunk
        // and Theorem 4.1 applies.
        let Some(b) = r.lowest_branching_ancestor(sub, n) else {
            return f_n;
        };
        // Eq. 2 with Q' the spine query.
        let spine = sub.spine_to(n);
        let join_spine = self.join(r, spine);
        let f_spine_n = join_spine.frequency(spine.local(r, n));
        let f_spine_b = join_spine.frequency(spine.local(r, b));
        self.recycle(join_spine);
        let f_b = join.frequency(sub.local(r, b));
        safe_div(f_spine_n * f_b, f_spine_b)
    }

    // ------------------------------------------------------------------
    // §5: preceding-sibling / following-sibling.
    // ------------------------------------------------------------------

    fn estimate_sibling(&self, r: Resolved<'_>) -> f64 {
        let target = r.query.target();

        // Case 1: the target is a chain head or below one (Eqs. 3 and 4).
        for chain in &r.res.chains {
            for (pos, &(_, head)) in r.links(chain).iter().enumerate() {
                if !r.within(target, head) {
                    continue;
                }
                let parts = self.head_parts(r, chain, pos);
                if head == target {
                    // Eq. 3: S_Q̃(h) ≈ S_Q̃'(h) · S_Q(h) / S_Q'(h).
                    let s_plain = self.plain(r, Sub::ALL, head);
                    return safe_div(parts.s_tilde_prime * s_plain, parts.s_prime);
                }
                // Eq. 4: S_Q̃(n) ≈ S_Q(n) · S_Q̃'(h) / S_Q'(h).
                let s_plain_n = self.plain(r, Sub::ALL, target);
                return safe_div(s_plain_n * parts.s_tilde_prime, parts.s_prime);
            }
        }

        // Case 2 (Eq. 5): target in the trunk — minimum of the order-free
        // estimate and the order-restricted selectivity of every head.
        let mut s = self.plain(r, Sub::ALL, target);
        for chain in &r.res.chains {
            for (pos, &(_, head)) in r.links(chain).iter().enumerate() {
                let parts = self.head_parts(r, chain, pos);
                let s_plain_h = self.plain(r, Sub::ALL, head);
                let s_head = safe_div(parts.s_tilde_prime * s_plain_h, parts.s_prime);
                s = s.min(s_head);
            }
        }
        s
    }

    /// The two §5 ingredients for chain head at `pos`:
    /// `S_Q̃'(h)` (order-restricted, from the o-histogram after the join on
    /// `Q'`) and `S_Q'(h)` (the order-free estimate on `Q'`), where `Q'`
    /// trims the *neighbor* branch to its head.
    fn head_parts(&self, r: Resolved<'_>, chain: &Chain, pos: usize) -> HeadParts {
        let links = r.links(chain);
        let head = links[pos].1;
        // Neighbor: predecessor if any (head occurs After it), else the
        // successor (head occurs Before it). Chains longer than two use the
        // immediate predecessor — a documented generalization.
        let (nb, region) = if pos > 0 {
            (links[pos - 1].1, Region::After)
        } else if let Some(&(_, next)) = links.get(pos + 1) {
            (next, Region::Before)
        } else {
            // Unreachable by construction: a chain is assembled from
            // before/after constraint pairs whose edges `Query::new`
            // validation requires to be distinct (`before == after` is
            // rejected), so every chain carries at least two heads. If
            // that invariant ever breaks, degrade to a neutral ratio —
            // `S_Q̃'/S_Q'` of 1 collapses Eq. 3 to the order-free bound
            // and Eq. 5 to `min(s, s_plain_h)` — instead of panicking.
            debug_assert!(false, "order chain with a single head");
            return HeadParts {
                s_tilde_prime: 1.0,
                s_prime: 1.0,
            };
        };

        let q_prime = Sub::trimmed_below(nb);
        let s_prime = self.plain(r, q_prime, head);

        // S_Q̃'(h): sum g(pid, nb_tag) over the head's surviving pids.
        let join_prime = self.join(r, q_prime);
        let (Some(tag_h), Some(tag_nb)) = (r.tag(head), r.tag(nb)) else {
            self.recycle(join_prime);
            return HeadParts {
                s_tilde_prime: 0.0,
                s_prime,
            };
        };
        let s_tilde_prime: f64 = join_prime
            .pids(q_prime.local(r, head))
            .map(|pid| self.summary.order_count(tag_h, pid, tag_nb, region))
            .sum();
        self.recycle(join_prime);
        HeadParts {
            s_tilde_prime,
            s_prime,
        }
    }

    // ------------------------------------------------------------------
    // §5: preceding / following conversion.
    // ------------------------------------------------------------------

    fn estimate_via_conversion(&self, r: Resolved<'_>, chain: &Chain, depth: usize) -> f64 {
        let (query, links) = (r.query, r.links(chain));
        if links.len() != 2 {
            // The paper defines the conversion for one before/after pair;
            // longer document chains fall back to the order-free upper
            // bound (documented in DESIGN.md).
            return self.plain(r, Sub::ALL, query.target());
        }
        let owner = chain.owner;
        let axes = [links[0], links[1]].map(|(e, _)| query.node(owner).edges[e].axis);

        // Both heads are children of the owner: document order between
        // siblings *is* sibling order, so rewrite the kind in place.
        if axes[0] == Axis::Child && axes[1] == Axis::Child {
            let converted = replace_chain_kind(query, owner, links, OrderKind::Sibling);
            return self.estimate_depth(&converted, depth + 1);
        }

        // Identify the mover (descendant-axis head) and the anchor.
        let (mover_pos, anchor_pos) = if axes[1] == Axis::Descendant {
            (1, 0)
        } else {
            (0, 1)
        };
        if axes[anchor_pos] != Axis::Child {
            // Exotic shape (both heads descendant-axis): order-free bound.
            return self.plain(r, Sub::ALL, query.target());
        }
        let mover = links[mover_pos].1;

        // Decompose the mover's surviving pids into owner→child→…→mover
        // label chains (paper Example 5.3). The order-free query keeps
        // every node id.
        let join = self.join(r, Sub::ALL);
        let (Some(tag_owner), Some(tag_mover)) = (r.tag(owner), r.tag(mover)) else {
            // An unknown tag means no conversion can match — but the join
            // above still borrowed scratch vectors that must go back to
            // the pool, not be dropped with this early return.
            self.recycle(join);
            return 0.0;
        };
        let mut conversions: Vec<Vec<String>> = Vec::new();
        for pid in join.pids(mover) {
            for enc in self.summary.pids.bits(pid).ones() {
                let path = self.summary.encoding.path(enc);
                for i in 0..path.len() {
                    if path[i] != tag_owner {
                        continue;
                    }
                    for j in i + 1..path.len() {
                        if path[j] != tag_mover {
                            continue;
                        }
                        let labels: Vec<String> = path[i + 1..=j]
                            .iter()
                            .map(|&t| self.summary.tags.name(t).to_owned())
                            .collect();
                        if !conversions.contains(&labels) {
                            conversions.push(labels);
                        }
                    }
                }
            }
        }

        self.recycle(join);
        conversions
            .into_iter()
            .map(|labels| {
                let converted = materialize_conversion(query, owner, links, mover_pos, &labels);
                self.estimate_depth(&converted, depth + 1)
            })
            .sum()
    }
}

struct HeadParts {
    /// `S_Q̃'(h)`: o-histogram selectivity of the head under the order
    /// restriction.
    s_tilde_prime: f64,
    /// `S_Q'(h)`: order-free estimate of the head on the trimmed query.
    s_prime: f64,
}

/// Copy of `query` with the constraints of one chain, given by its
/// `(edge, head)` links at `owner`, re-kinded.
fn replace_chain_kind(
    query: &Query,
    owner: QueryNodeId,
    links: &[(usize, QueryNodeId)],
    kind: OrderKind,
) -> Query {
    let in_chain = |e: usize| links.iter().any(|&(edge, _)| edge == e);
    let mut nodes: Vec<_> = query.nodes().to_vec();
    for c in &mut nodes[owner.index()].constraints {
        if in_chain(c.before) && in_chain(c.after) {
            c.kind = kind;
        }
    }
    Query::new(nodes, query.root_axis(), query.target()).expect("re-kinded query stays valid")
}

/// Builds the sibling-axis conversion of a `foll`/`prec` query: the mover's
/// descendant edge is replaced by a child-axis chain of intermediate labels
/// `labels[0..k-1]` ending at the mover (whose own subtree is preserved),
/// and the Document constraint becomes a Sibling constraint between the
/// anchor edge and the new child edge.
fn materialize_conversion(
    query: &Query,
    owner: QueryNodeId,
    links: &[(usize, QueryNodeId)],
    mover_pos: usize,
    labels: &[String],
) -> Query {
    let (mover_edge, mover) = links[mover_pos];
    debug_assert_eq!(
        labels.last().map(String::as_str),
        Some(query.node(mover).tag.as_str())
    );
    let mut nodes: Vec<_> = query.nodes().to_vec();

    // Insert intermediates (all labels but the last, which is the mover).
    let mut attach_to = mover;
    for label in labels[..labels.len() - 1].iter().rev() {
        let new_id = QueryNodeId::from_index(nodes.len());
        nodes.push(xpe_xpath::QueryNode {
            tag: label.clone(),
            edges: vec![xpe_xpath::QueryEdge {
                axis: Axis::Child,
                to: attach_to,
            }],
            constraints: Vec::new(),
        });
        attach_to = new_id;
    }
    // Rewire the owner's mover edge to the top of the chain, child axis.
    nodes[owner.index()].edges[mover_edge] = xpe_xpath::QueryEdge {
        axis: Axis::Child,
        to: attach_to,
    };
    // Re-kind the constraint.
    for c in &mut nodes[owner.index()].constraints {
        if c.before == mover_edge || c.after == mover_edge {
            debug_assert_eq!(c.kind, OrderKind::Document);
            *c = OrderConstraint {
                before: c.before,
                after: c.after,
                kind: OrderKind::Sibling,
            };
        }
    }
    Query::new(nodes, query.root_axis(), query.target()).expect("conversion stays valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_synopsis::SummaryConfig;

    fn summary() -> Summary {
        Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            SummaryConfig::default(),
        )
    }

    /// The tags of `sub`'s nodes, in its own numbering.
    fn kept(s: &Summary, q: &str, sub: impl Fn(&Query) -> Sub) -> Vec<String> {
        let query = parse_query(q).unwrap();
        let mut res = Resolution::default();
        res.fill(s, &query);
        let r = Resolved {
            query: &query,
            res: &res,
        };
        let sub = sub(&query);
        // Numbered in id order, exactly as `rebuild` numbers the subset.
        let keep: Vec<bool> = query.node_ids().map(|x| sub.contains(r, x)).collect();
        let rebuilt = editor::rebuild(&query, &keep, query.root());
        for x in query.node_ids().filter(|&x| keep[x.index()]) {
            assert_eq!(rebuilt.remap(x), sub.local(r, x), "{q} {x:?}");
        }
        rebuilt
            .query
            .node_ids()
            .map(|n| rebuilt.query.node(n).tag.clone())
            .collect()
    }

    fn node(q: &Query, tag: &str) -> QueryNodeId {
        q.node_ids().find(|&n| q.node(n).tag == tag).unwrap()
    }

    #[test]
    fn spine_keeps_the_root_path_and_the_targets_subtree() {
        let s = summary();
        // Q2 = //C[/E]/F with target E: the spine is C/E.
        let spine = |q: &Query| Sub::ALL.spine_to(q.target());
        assert_eq!(kept(&s, "//C[/$E]/F", spine), ["C", "E"]);
        // //A[/B/X]/C/D with target B: A, B and B's child X.
        assert_eq!(kept(&s, "//A[/$B/X]/C/D", spine), ["A", "B", "X"]);
        // Within a trimmed sub-query the spine stays inside it.
        let trimmed_spine = |q: &Query| Sub::trimmed_below(node(q, "C")).spine_to(node(q, "A"));
        assert_eq!(
            kept(&s, "//R/A[/C/F]/B", trimmed_spine),
            ["R", "A", "C", "B"]
        );
    }

    #[test]
    fn trimming_keeps_the_head_and_drops_its_descendants() {
        let s = summary();
        let trim = |q: &Query| Sub::trimmed_below(node(q, "C"));
        assert_eq!(kept(&s, "//A[/C/F[/G]]/B", trim), ["A", "C", "B"]);
        assert_eq!(kept(&s, "//A[/C/F]/B", |_| Sub::ALL), ["A", "C", "F", "B"]);
    }

    #[test]
    fn resolution_reads_chains_in_constraint_order() {
        let s = summary();
        let q = parse_query("//A[/C/folls::B/folls::$D][/E/foll::F]/G").unwrap();
        let mut res = Resolution::default();
        res.fill(&s, &q);
        let r = Resolved {
            query: &q,
            res: &res,
        };
        let chains: Vec<(OrderKind, Vec<&str>)> = res
            .chains
            .iter()
            .map(|c| {
                let heads = r.links(c).iter().map(|&(_, h)| q.node(h).tag.as_str());
                (c.kind, heads.collect())
            })
            .collect();
        let expected: Vec<(OrderKind, Vec<&str>)> = xpe_xpath::constraint_chains(q.node(q.root()))
            .into_iter()
            .map(|(kind, edges)| {
                let heads = edges
                    .iter()
                    .map(|&e| q.node(q.node(q.root()).edges[e].to).tag.as_str());
                (kind, heads.collect())
            })
            .collect();
        assert_eq!(chains, expected);
        assert_eq!(r.tag(node(&q, "A")), s.tags.get("A"));
        assert_eq!(r.tag(node(&q, "G")), None, "G is not in Figure 1");
        assert!(r.within(node(&q, "D"), q.root()));
        assert!(!r.within(node(&q, "D"), node(&q, "C")));
    }

    /// The unknown-tag early return in `estimate_via_conversion` runs a
    /// join first; its scratch vectors must come back to the pool, not be
    /// dropped with the `0.0`.
    #[test]
    fn conversion_unknown_tag_returns_join_scratch_to_the_pool() {
        let s = summary();
        let est = Estimator::new(&s);
        // Document chain (C before B), both heads known, owner tag absent
        // from the document: the conversion join runs, then bails on the
        // unknown owner tag.
        let q = parse_query("//Zebra[/C/foll::$B]").unwrap();
        assert_eq!(est.estimate(&q), 0.0);
        assert_eq!(
            est.scratch.borrow().pooled(),
            q.len(),
            "every join list recycled"
        );
    }

    /// Warm index cells and reused plan buffers change nothing
    /// observable: a reused estimator reproduces a fresh estimator's
    /// results bit for bit.
    #[test]
    fn warm_memos_are_bit_identical_to_cold() {
        let s = summary();
        let queries = [
            "//A[/C/F]/B/D",
            "//A//C",
            "//C[/$E]/F",
            "/Root/A/C/F",
            "//A[/C/folls::$B]",
        ];
        for kernel in [JoinKernel::Naive, JoinKernel::Bitmap] {
            let warm = Estimator::new(&s).with_kernel(kernel);
            for q in queries {
                let query = parse_query(q).unwrap();
                let cold = Estimator::new(&s).with_kernel(kernel);
                let a = cold.estimate(&query);
                // Twice through the same estimator: cold cells, then warm.
                let b = warm.estimate(&query);
                let c = warm.estimate(&query);
                assert_eq!(a.to_bits(), b.to_bits(), "{q} {kernel:?}");
                assert_eq!(b.to_bits(), c.to_bits(), "{q} {kernel:?}");
            }
        }
    }
}
