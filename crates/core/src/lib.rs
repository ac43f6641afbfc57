//! The XPath selectivity estimator of *An Estimation System for XPath
//! Expressions* (ICDE 2006) — the paper's primary contribution.
//!
//! Given a [`Summary`](xpe_synopsis::Summary) built from a document, the
//! [`Estimator`] answers "how many nodes will this XPath expression's
//! target step select?" without touching the document:
//!
//! * the **path join** ([`path_join`]) prunes each query node's candidate
//!   path ids by bitwise containment plus tag-relationship checks (§4);
//! * **simple** queries are then exact in the surviving frequencies
//!   (Theorem 4.1), **branch** queries use the Node Independence
//!   Assumption (Eq. 2);
//! * **order-axis** queries combine the order-free estimates with
//!   o-histogram lookups under the Node Order / Node Containment
//!   Uniformity Assumptions (Eqs. 3–5), and `following`/`preceding` are
//!   reduced to sibling-axis queries by path-id decomposition (§5).
//!
//! # Example
//!
//! ```
//! use xpe_core::Estimator;
//! use xpe_synopsis::{Summary, SummaryConfig};
//!
//! let doc = xpe_xml::fixtures::paper_figure1();
//! let summary = Summary::build(&doc, SummaryConfig::default());
//! let est = Estimator::new(&summary);
//!
//! // Paper Example 4.2: //A//C has selectivity 2 — exact after the join.
//! assert_eq!(est.estimate_str("//A//C").unwrap(), 2.0);
//!
//! // Paper Example 5.1: the order query Q̃1 estimates to exactly 1.
//! let s = est.estimate_str("//A[/C[/F]/folls::$B/D]").unwrap();
//! assert!((s - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod editor;
mod engine;
mod estcache;
mod estimator;
mod invariant;
mod join;
mod joincache;
mod memo;
mod metrics;
mod planner;
mod serve;
pub mod server;

pub use editor::{rebuild, without_constraints, Rebuilt};
pub use engine::{
    EstimationEngine, KernelStats, DEFAULT_ESTIMATE_CACHE_CAPACITY, DEFAULT_JOIN_CACHE_CAPACITY,
};
pub use estcache::{estimate_key, EstimateCache, EstimateCacheReader, EstimateKey};
pub use estimator::Estimator;
pub use invariant::{finalize_estimate, safe_div};
pub use join::{path_join, path_join_bitmap, JoinKernel, JoinPhaseStats, JoinResult, JoinScratch};
pub use joincache::{skeleton_key, JoinCache, SkeletonKey, WorkerJoinCache};
pub use memo::{MemoFront, MemoKey, SharedMemo};
pub use metrics::{mean_relative_error, relative_error, ErrorStats};
pub use planner::{PathCardinalities, PlanEdge, PredicateRank, QueryPlan};
pub use serve::{
    AdmissionError, Budget, BudgetExhausted, BudgetState, DegradedReason, EstimateOutcome,
    EstimateStatus, OutcomeTally, QueryLimits,
};
pub use server::{Server, ServerConfig};
