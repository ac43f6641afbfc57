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
use std::ops::Deref;
use std::sync::Arc;

use xpe_pathid::{JoinIndexCache, RelationMaskCache};
use xpe_synopsis::{Region, Summary};
use xpe_xpath::{
    constraint_chains, parse_query, Axis, OrderConstraint, OrderKind, Query, QueryNodeId,
    QueryParseError,
};

use crate::editor::{self, subtree_of};
use crate::estcache::{estimate_key, EstimateCache, EstimateCacheReader};
use crate::invariant::{finalize_estimate, safe_div};
use crate::join::{
    path_join, path_join_bitmap, JoinKernel, JoinMemo, JoinPhaseStats, JoinResult, JoinScratch,
};
use crate::joincache::{skeleton_key, JoinCache, WorkerJoinCache};
use crate::planner::QueryPlan;
use crate::serve::{
    Budget, BudgetExhausted, BudgetState, DegradedReason, EstimateOutcome, EstimateStatus,
    QueryLimits,
};

/// Selectivity estimator over a prebuilt [`Summary`].
///
/// Every estimator memoizes the containment adjacencies its joins compute
/// (keyed by `(tag_u, tag_v, axis)` — pure functions of the summary's
/// encoding table) and recycles the joins' per-node allocations. On top
/// of the shared caches each estimator keeps a private lock-free
/// [`JoinMemo`] — flat `Vec`-indexed adjacency and seed-bitmap tables
/// filled on first miss — so a warm join never takes a lock or hashes a
/// key. Estimators built by [`EstimationEngine`](crate::EstimationEngine)
/// share one adjacency index and one workload-level [`JoinCache`], so a
/// batch warms both for every worker.
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
    /// Flat per-estimator mirror of the shared adjacency/seed caches —
    /// valid for this estimator's `(summary, adjacency)` pairing, which
    /// both live as long as the estimator by construction.
    memo: RefCell<JoinMemo>,
    /// Which join kernel [`run_join`](Self::run_join) dispatches to. Both
    /// are bit-identical; `Naive` is the reference oracle and opts out of
    /// caches and budget cooperation.
    kernel: JoinKernel,
    /// Live budget of the in-flight [`try_estimate`](Self::try_estimate)
    /// call, threaded into every join it runs; `None` outside one.
    budget: RefCell<Option<BudgetState>>,
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

/// One order-constraint chain with its owner, resolved to head nodes.
#[derive(Clone, Debug)]
struct Chain {
    owner: QueryNodeId,
    kind: OrderKind,
    /// Edge indices at the owner, in before→after order.
    edges: Vec<usize>,
    /// The chain heads (branch first nodes), in before→after order.
    heads: Vec<QueryNodeId>,
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
            memo: RefCell::new(JoinMemo::new()),
            kernel: JoinKernel::default(),
            budget: RefCell::new(None),
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

    /// Selects the join kernel (default: [`JoinKernel::Bitmap`]). Both
    /// kernels produce bit-identical estimates; the naive kernel also
    /// ignores caches and join budgets, by design.
    pub fn with_kernel(mut self, kernel: JoinKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The configured join kernel.
    pub fn kernel(&self) -> JoinKernel {
        self.kernel
    }

    /// Enables or disables the per-phase join timing breakdown (off by
    /// default; costs two `Instant::now` pairs per join when on).
    pub fn set_join_timing(&self, on: bool) {
        self.scratch.borrow_mut().set_timing(on);
    }

    /// The accumulated per-phase join breakdown (zeros unless
    /// [`set_join_timing`](Self::set_join_timing) enabled collection).
    pub fn join_phase_stats(&self) -> JoinPhaseStats {
        self.scratch.borrow().phase_stats()
    }

    /// Resets the per-phase join breakdown.
    pub fn reset_join_phase_stats(&self) {
        self.scratch.borrow_mut().reset_phase_stats();
    }

    /// The shared containment-adjacency index.
    pub fn adjacency_cache(&self) -> &Arc<JoinIndexCache> {
        &self.adjacency
    }

    /// Runs the path join through this estimator's caches: the
    /// worker-private join-cache front first (keyed by the query's
    /// structural skeleton; it probes the shared memo once on a local
    /// miss), then the selected kernel, publishing the completed result
    /// through the front.
    fn join(&self, query: &Query) -> Joined {
        let Some(cache) = &self.join_cache else {
            return Joined::Owned(self.run_join(query));
        };
        let key = skeleton_key(query);
        if let Some(result) = cache.borrow_mut().lookup(&key) {
            return Joined::Shared(result);
        }
        let result = self.run_join(query);
        // A budget-truncated join is not the fixpoint — never publish it
        // to the cache, where an unbudgeted estimator (or a later
        // healthy query) would mistake it for the real result.
        if self.budget_exhausted() {
            return Joined::Owned(result);
        }
        let result = Arc::new(result);
        cache.borrow_mut().publish(key, Arc::clone(&result));
        Joined::Shared(result)
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

    /// Builds the prepared plan for `query`, lapping the build into the
    /// phase breakdown when join timing is on.
    fn build_plan(&self, query: &Query) -> QueryPlan {
        if !self.scratch.borrow().timing_enabled() {
            return QueryPlan::build(self.summary, query);
        }
        let t0 = std::time::Instant::now();
        let plan = QueryPlan::build(self.summary, query);
        self.scratch
            .borrow_mut()
            .add_plan_ns(t0.elapsed().as_nanos() as u64);
        plan
    }

    fn run_join(&self, query: &Query) -> JoinResult {
        if self.kernel == JoinKernel::Naive {
            return path_join(self.summary, query);
        }
        let plan = self.build_plan(query);
        let budget = self.budget.borrow();
        path_join_bitmap(
            self.summary,
            query,
            &plan,
            &self.adjacency,
            Some(&mut self.memo.borrow_mut()),
            Some(&mut self.scratch.borrow_mut()),
            budget.as_ref(),
        )
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
        let Some(front) = &self.est_cache else {
            return self.estimate_uncached(query);
        };
        let key = estimate_key(query);
        if let Some(v) = front.borrow_mut().lookup(&key) {
            return v;
        }
        // Compute outside the borrow: the formulas below never re-enter
        // `estimate` (recursion goes through `estimate_depth`), but the
        // discipline costs nothing and keeps the RefCell panic-safe.
        let v = self.estimate_uncached(query);
        front.borrow_mut().publish(key, v);
        v
    }

    /// [`estimate`](Self::estimate) without the full-query cache wrap —
    /// always runs the join machinery.
    fn estimate_uncached(&self, query: &Query) -> f64 {
        let raw = self.estimate_depth(query, 0);
        let cap = self.summary.tag_total(&query.node(query.target()).tag);
        finalize_estimate(raw, cap)
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
        // stored value is a finished, untruncated `Ok` by construction
        // (degraded answers are never published).
        let key = self.est_cache.as_ref().map(|front| {
            let key = estimate_key(query);
            (front, key)
        });
        if let Some((front, key)) = &key {
            if let Some(v) = front.borrow_mut().lookup(key) {
                return EstimateOutcome {
                    value: v,
                    status: EstimateStatus::Ok,
                };
            }
        }
        *self.budget.borrow_mut() = Some(BudgetState::start(budget));
        let raw = self.estimate_depth(query, 0);
        let state = self
            .budget
            .borrow_mut()
            .take()
            .expect("budget installed above");
        match state.exhausted() {
            None => {
                let value = finalize_estimate(raw, cap);
                // Only a finished, untruncated estimate is published —
                // it is bit-identical to `estimate` by the `Ok`
                // contract, so cached and uncached paths agree exactly.
                if let Some((front, key)) = key {
                    front.borrow_mut().publish(key, value);
                }
                EstimateOutcome {
                    value,
                    status: EstimateStatus::Ok,
                }
            }
            Some(BudgetExhausted::Deadline) => EstimateOutcome {
                value: bound,
                status: EstimateStatus::Degraded {
                    reason: DegradedReason::Deadline,
                },
            },
            Some(BudgetExhausted::JoinEdges) => EstimateOutcome {
                value: bound,
                status: EstimateStatus::Degraded {
                    reason: DegradedReason::JoinBudget,
                },
            },
        }
    }

    fn estimate_depth(&self, query: &Query, depth: usize) -> f64 {
        // Conversions strictly reduce the number of Document chains, but
        // cap the recursion as a defensive bound.
        if depth > 8 {
            return 0.0;
        }
        let chains = collect_chains(query);
        if let Some(doc_chain) = chains.iter().find(|c| c.kind == OrderKind::Document) {
            return self.estimate_via_conversion(query, doc_chain, depth);
        }
        if chains.is_empty() {
            return self.estimate_plain(query, query.target());
        }
        self.estimate_sibling(query, &chains)
    }

    // ------------------------------------------------------------------
    // §4: queries without order axes.
    // ------------------------------------------------------------------

    /// Estimates node `n` of the (structurally interpreted) `query`,
    /// ignoring any order constraints.
    pub fn estimate_plain(&self, query: &Query, n: QueryNodeId) -> f64 {
        let join = self.join(query);
        let s = self.plain_with_join(query, &join, n);
        self.recycle(join);
        s
    }

    fn plain_with_join(&self, query: &Query, join: &JoinResult, n: QueryNodeId) -> f64 {
        let f_n = join.frequency(n);
        if f_n == 0.0 {
            return 0.0;
        }
        // The lowest proper ancestor of `n` with branches off the path —
        // the paper's `ni` (trunk end). No such node ⇒ `n` is in the trunk
        // and Theorem 4.1 applies.
        let Some(b) = lowest_branching_ancestor(query, n) else {
            return f_n;
        };
        // Eq. 2 with Q' the spine query.
        let spine = editor::spine_query(query, n);
        let join_spine = self.join(&spine.query);
        let f_spine_n = join_spine.frequency(spine.remap(n));
        let f_spine_b = join_spine.frequency(spine.remap(b));
        self.recycle(join_spine);
        let f_b = join.frequency(b);
        safe_div(f_spine_n * f_b, f_spine_b)
    }

    // ------------------------------------------------------------------
    // §5: preceding-sibling / following-sibling.
    // ------------------------------------------------------------------

    fn estimate_sibling(&self, query: &Query, chains: &[Chain]) -> f64 {
        let plain = editor::without_constraints(query);
        let target = query.target();

        // Case 1: the target is a chain head or below one (Eqs. 3 and 4).
        for chain in chains {
            for (pos, &head) in chain.heads.iter().enumerate() {
                if !subtree_of(query, head)[target.index()] {
                    continue;
                }
                let parts = self.head_parts(query, chain, pos);
                if head == target {
                    // Eq. 3: S_Q̃(h) ≈ S_Q̃'(h) · S_Q(h) / S_Q'(h).
                    let s_plain = self.estimate_plain(&plain.query, plain.remap(head));
                    return safe_div(parts.s_tilde_prime * s_plain, parts.s_prime);
                }
                // Eq. 4: S_Q̃(n) ≈ S_Q(n) · S_Q̃'(h) / S_Q'(h).
                let s_plain_n = self.estimate_plain(&plain.query, plain.remap(target));
                return safe_div(s_plain_n * parts.s_tilde_prime, parts.s_prime);
            }
        }

        // Case 2 (Eq. 5): target in the trunk — minimum of the order-free
        // estimate and the order-restricted selectivity of every head.
        let mut s = self.estimate_plain(&plain.query, plain.remap(target));
        for chain in chains {
            for pos in 0..chain.heads.len() {
                let parts = self.head_parts(query, chain, pos);
                let s_plain_h = self.estimate_plain(&plain.query, plain.remap(chain.heads[pos]));
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
    fn head_parts(&self, query: &Query, chain: &Chain, pos: usize) -> HeadParts {
        let head = chain.heads[pos];
        // Neighbor: predecessor if any (head occurs After it), else the
        // successor (head occurs Before it). Chains longer than two use the
        // immediate predecessor — a documented generalization.
        let (nb, region) = if pos > 0 {
            (chain.heads[pos - 1], Region::After)
        } else if let Some(&next) = chain.heads.get(pos + 1) {
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

        let plain = editor::without_constraints(query);
        let q_prime = editor::trim_below(&plain.query, plain.remap(nb), plain.remap(head));
        let head_in_prime = q_prime.remap(plain.remap(head));
        let s_prime = self.estimate_plain(&q_prime.query, head_in_prime);

        // S_Q̃'(h): sum g(pid, nb_tag) over the head's surviving pids.
        let join_prime = self.join(&q_prime.query);
        let (Some(tag_h), Some(tag_nb)) = (
            self.summary.tags.get(&query.node(head).tag),
            self.summary.tags.get(&query.node(nb).tag),
        ) else {
            self.recycle(join_prime);
            return HeadParts {
                s_tilde_prime: 0.0,
                s_prime,
            };
        };
        let s_tilde_prime: f64 = join_prime
            .pids(head_in_prime)
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

    fn estimate_via_conversion(&self, query: &Query, chain: &Chain, depth: usize) -> f64 {
        if chain.heads.len() != 2 {
            // The paper defines the conversion for one before/after pair;
            // longer document chains fall back to the order-free upper
            // bound (documented in DESIGN.md).
            let plain = editor::without_constraints(query);
            return self.estimate_plain(&plain.query, plain.remap(query.target()));
        }
        let owner = chain.owner;
        let axes: Vec<Axis> = chain
            .edges
            .iter()
            .map(|&e| query.node(owner).edges[e].axis)
            .collect();

        // Both heads are children of the owner: document order between
        // siblings *is* sibling order, so rewrite the kind in place.
        if axes[0] == Axis::Child && axes[1] == Axis::Child {
            let converted = replace_chain_kind(query, owner, chain, OrderKind::Sibling);
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
            let plain = editor::without_constraints(query);
            return self.estimate_plain(&plain.query, plain.remap(query.target()));
        }
        let mover = chain.heads[mover_pos];

        // Decompose the mover's surviving pids into owner→child→…→mover
        // label chains (paper Example 5.3).
        let join = self.join(query);
        let (Some(tag_owner), Some(tag_mover)) = (
            self.summary.tags.get(&query.node(owner).tag),
            self.summary.tags.get(&query.node(mover).tag),
        ) else {
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
                let converted = materialize_conversion(query, owner, chain, mover_pos, &labels);
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

fn collect_chains(query: &Query) -> Vec<Chain> {
    let mut out = Vec::new();
    for owner in query.node_ids() {
        let node = query.node(owner);
        for (kind, edges) in constraint_chains(node) {
            let heads = edges.iter().map(|&e| node.edges[e].to).collect();
            out.push(Chain {
                owner,
                kind,
                edges,
                heads,
            });
        }
    }
    out
}

/// The deepest proper ancestor of `n` that has edges leaving the
/// root-to-`n` path (the paper's `ni`).
fn lowest_branching_ancestor(query: &Query, n: QueryNodeId) -> Option<QueryNodeId> {
    let path = query.path_to(n);
    for w in path.windows(2).rev() {
        let (anc, on_path) = (w[0], w[1]);
        if query.node(anc).edges.iter().any(|e| e.to != on_path) {
            return Some(anc);
        }
    }
    None
}

/// Copy of `query` with one chain's constraints re-kinded.
fn replace_chain_kind(query: &Query, owner: QueryNodeId, chain: &Chain, kind: OrderKind) -> Query {
    let mut nodes: Vec<_> = query.nodes().to_vec();
    for c in &mut nodes[owner.index()].constraints {
        if chain.edges.contains(&c.before) && chain.edges.contains(&c.after) {
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
    chain: &Chain,
    mover_pos: usize,
    labels: &[String],
) -> Query {
    debug_assert_eq!(
        labels.last().map(String::as_str),
        Some(query.node(chain.heads[mover_pos]).tag.as_str())
    );
    let mut nodes: Vec<_> = query.nodes().to_vec();
    let mover = chain.heads[mover_pos];
    let mover_edge = chain.edges[mover_pos];

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

    /// Warm private memos and plans change nothing observable: a reused
    /// estimator reproduces a fresh estimator's results bit for bit.
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
                // Twice through the same estimator: cold memo, then warm.
                let b = warm.estimate(&query);
                let c = warm.estimate(&query);
                assert_eq!(a.to_bits(), b.to_bits(), "{q} {kernel:?}");
                assert_eq!(b.to_bits(), c.to_bits(), "{q} {kernel:?}");
            }
        }
    }
}
