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
//! [`SkeletonKey`] is the canonical byte encoding of that skeleton, with
//! its 64-bit hash computed **once** at construction: shard selection and
//! the in-shard map probe both reuse it. [`JoinCache`] is a
//! [`SharedMemo`] keyed by it, shared by every worker of an
//! [`EstimationEngine`](crate::EstimationEngine) batch and read through
//! one [`WorkerJoinCache`] front per estimator (see [`crate::memo`]). It
//! holds completed join results only: a budget-truncated join is not the
//! fixpoint, so it publishes nothing.

use std::hash::Hasher;
use std::sync::Arc;

use crate::join::JoinResult;
use crate::memo::{MemoFront, MemoKey, SharedMemo};
use xpe_xpath::{Axis, Query};

/// Canonical encoding of a query's structural skeleton: the root axis,
/// then per node (in id order) its length-prefixed tag and its structural
/// edges as `(axis, target-index)` pairs. Two queries get equal keys iff
/// the join treats them identically — order constraints and the target
/// node are deliberately excluded.
///
/// The key carries the hash of its bytes, computed once at construction;
/// `Hash` forwards that value (the hash is a pure function of the bytes,
/// so equal keys always agree) and equality compares the bytes.
#[derive(Clone, Debug)]
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

/// Builds the [`SkeletonKey`] of `query`, hashing its bytes once.
pub fn skeleton_key(query: &Query) -> SkeletonKey {
    let mut buf = Vec::with_capacity(16 + 8 * query.len());
    buf.push(match query.root_axis() {
        Axis::Child => 0u8,
        Axis::Descendant => 1,
        _ => unreachable!("root axis is structural"),
    });
    for id in query.node_ids() {
        let node = query.node(id);
        buf.extend_from_slice(&(node.tag.len() as u32).to_le_bytes());
        buf.extend_from_slice(node.tag.as_bytes());
        buf.extend_from_slice(&(node.edges.len() as u32).to_le_bytes());
        for e in &node.edges {
            buf.push(match e.axis {
                Axis::Child => 0u8,
                Axis::Descendant => 1,
                _ => unreachable!("structural edges only"),
            });
            buf.extend_from_slice(&(e.to.index() as u32).to_le_bytes());
        }
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(&buf);
    SkeletonKey {
        hash: h.finish(),
        bytes: buf,
    }
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
    use xpe_xpath::parse_query;

    #[test]
    fn order_constraints_and_target_do_not_change_the_key() {
        let plain = parse_query("//A[/C]/B").unwrap();
        let ordered = parse_query("//A[/C/folls::$B]").unwrap();
        assert_eq!(skeleton_key(&plain), skeleton_key(&ordered));
        assert_eq!(
            skeleton_key(&plain).hash64(),
            skeleton_key(&ordered).hash64()
        );
    }

    #[test]
    fn structure_changes_the_key() {
        let base = parse_query("//A[/C]/B").unwrap();
        for other in ["//A[/D]/B", "//A[//C]/B", "/A[/C]/B", "//A/C/B"] {
            let q = parse_query(other).unwrap();
            assert_ne!(skeleton_key(&base), skeleton_key(&q), "{other}");
        }
    }

    #[test]
    fn key_hashes_through_its_precomputed_value() {
        let key = skeleton_key(&parse_query("//A[/C]/B").unwrap());
        let mut h = PrehashedHasher::default();
        key.hash(&mut h);
        assert_eq!(h.finish(), key.hash64());
    }
}
