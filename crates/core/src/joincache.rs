//! Workload-level join memoization.
//!
//! The join's output depends only on a query's *structural skeleton* —
//! the tags and the child/descendant axes connecting them. The target
//! node and order constraints play no role: the join prunes on structural
//! edges alone (§5's formulas layer order corrections on top afterwards),
//! and the target merely selects which surviving list downstream formulas
//! read. Workloads repeat skeletons constantly — template-generated
//! queries differ in their order predicates, and even a single estimate
//! joins several derived queries (plain spine, trimmed spine) sharing
//! structure — so memoizing `skeleton → JoinResult` across a batch
//! removes whole join fixpoints, not just per-edge work.
//!
//! [`SkeletonKey`] encodes that skeleton as the [`QueryPlan`] the kernel
//! would run, tag ids and all, with its 64-bit hash computed **once**:
//! shard selection and the in-shard map probe both reuse it. The
//! estimator refills one key buffer per join and clones it only to
//! publish. [`JoinCache`] is a [`SharedMemo`] keyed by it, shared by
//! every worker of an [`EstimationEngine`](crate::EstimationEngine)
//! batch and read through one [`WorkerJoinCache`] front per estimator
//! (see [`crate::memo`]). It holds completed join results only: a
//! budget-truncated join is not the fixpoint, so it publishes nothing.

use std::hash::Hasher;
use std::sync::Arc;

use crate::join::JoinResult;
use crate::memo::{MemoFront, MemoKey, SharedMemo};
use crate::planner::QueryPlan;

/// Canonical encoding of a query's structural skeleton: its
/// [`QueryPlan`] — root pinning, each node's tag id, and each structural
/// edge as `(u, v, axis)`. The kernel reads nothing but the plan, so
/// equal keys join identically; order constraints and the target node
/// are not in the plan. Every tag the summary lacks encodes as one
/// sentinel id: a plan holding one joins to empty lists at every node
/// (the unknown node's edges empty its neighbours, and the fixpoint
/// carries that through the connected tree), so plans of one shape that
/// differ only in which tags are unknown join identically too.
///
/// The key carries the hash of its bytes, computed once at construction;
/// `Hash` forwards that value (the hash is a pure function of the bytes,
/// so equal keys always agree) and equality compares the bytes.
#[derive(Clone, Debug, Default)]
pub struct SkeletonKey {
    bytes: Vec<u8>,
    hash: u64,
}

impl PartialEq for SkeletonKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for SkeletonKey {}

impl std::hash::Hash for SkeletonKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl MemoKey for SkeletonKey {
    /// The precomputed 64-bit hash of the key bytes.
    #[inline]
    fn hash64(&self) -> u64 {
        self.hash
    }
}

impl SkeletonKey {
    /// Re-encodes this key as `plan`'s skeleton, reusing its buffer.
    pub(crate) fn set(&mut self, plan: &QueryPlan) {
        let buf = &mut self.bytes;
        buf.clear();
        buf.push(u8::from(plan.rooted().is_some()));
        buf.extend_from_slice(&(plan.len() as u32).to_le_bytes());
        for tag in plan.tags() {
            let id = tag.map_or(u32::MAX, |t| t.index() as u32);
            buf.extend_from_slice(&id.to_le_bytes());
        }
        for e in plan.edges() {
            buf.extend_from_slice(&(e.u.index() as u32).to_le_bytes());
            buf.extend_from_slice(&(e.v.index() as u32).to_le_bytes());
            buf.push(u8::from(e.child));
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write(buf);
        self.hash = h.finish();
    }
}

/// Builds the [`SkeletonKey`] of `plan`, hashing its bytes once.
pub fn skeleton_key(plan: &QueryPlan) -> SkeletonKey {
    let mut key = SkeletonKey::default();
    key.set(plan);
    key
}

/// The shared skeleton-keyed cache of completed join results. Its
/// hit/miss counters feed the benchmark report's `join_cache_hit_rate`.
pub type JoinCache = SharedMemo<SkeletonKey, Arc<JoinResult>>;

/// One estimator's private front for a shared [`JoinCache`].
pub type WorkerJoinCache = MemoFront<SkeletonKey, Arc<JoinResult>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::PrehashedHasher;
    use std::hash::Hash;
    use xpe_synopsis::{Summary, SummaryConfig};
    use xpe_xpath::parse_query;

    fn summary() -> Summary {
        Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            SummaryConfig::default(),
        )
    }

    fn key(s: &Summary, q: &str) -> SkeletonKey {
        skeleton_key(&QueryPlan::build(s, &parse_query(q).unwrap()))
    }

    #[test]
    fn order_constraints_and_target_do_not_change_the_key() {
        let s = summary();
        let plain = key(&s, "//A[/C]/B");
        let ordered = key(&s, "//A[/C/folls::$B]");
        assert_eq!(plain, ordered);
        assert_eq!(plain.hash64(), ordered.hash64());
    }

    #[test]
    fn structure_changes_the_key() {
        let s = summary();
        let base = key(&s, "//A[/C]/B");
        for other in ["//A[/D]/B", "//A[//C]/B", "/A[/C]/B", "//A/C/B"] {
            assert_ne!(base, key(&s, other), "{other}");
        }
    }

    /// Unknown tags share one id: the join empties every node of such a
    /// query, so the key may ignore which tag it was.
    #[test]
    fn unknown_tags_share_one_key() {
        let s = summary();
        assert_eq!(key(&s, "//A[/Zebra]/B"), key(&s, "//A[/Yak]/B"));
        assert_ne!(key(&s, "//A[/Zebra]/B"), key(&s, "//A[/C]/B"));
    }

    #[test]
    fn key_hashes_through_its_precomputed_value() {
        let key = key(&summary(), "//A[/C]/B");
        let mut h = PrehashedHasher::default();
        key.hash(&mut h);
        assert_eq!(h.finish(), key.hash64());
    }
}
