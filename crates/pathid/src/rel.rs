//! The path-join pruning test, decoupled from [`Labeling`](crate::Labeling).
//!
//! The estimator keeps only the summary (encoding table + interned ids),
//! not the per-node labels, so the §2 relationship test is exposed as a
//! free function over those two structures.

use xpe_xml::TagId;

use crate::encoding::EncodingTable;
use crate::interner::{Pid, PidInterner};

/// Whether `(pid_u, tag_u)` can be an ancestor (or, with `child_axis`, the
/// parent) of `(pid_v, tag_v)`: `u`'s id must contain or equal `v`'s, and
/// the tags must relate on at least one root-to-leaf path of `v`'s id
/// (paper §2, Cases 1 and 2).
pub fn axis_compatible(
    encoding: &EncodingTable,
    pids: &PidInterner,
    pid_u: Pid,
    tag_u: TagId,
    pid_v: Pid,
    tag_v: TagId,
    child_axis: bool,
) -> bool {
    let bu = pids.bits(pid_u);
    let bv = pids.bits(pid_v);
    if !bu.contains_or_equal(bv) {
        return false;
    }
    bv.ones()
        .any(|enc| encoding.axis_holds(enc, tag_u, tag_v, child_axis))
}

/// Precomputed bitset over path encodings where the `(tag_u, tag_v)`
/// relation holds — the join's fast path.
///
/// With the mask in hand, the §2 test collapses to pure bit operations:
/// `(pid_u ⊇ pid_v) ∧ (pid_v ∩ mask ≠ ∅)`. Building a mask is
/// `O(#paths × path length)`; one mask serves every pid pair of a query
/// edge, which turns the nested-loop join from path-scans per pair into a
/// few word ANDs per pair. See [`axis_compatible_masked`].
pub fn relation_mask(
    encoding: &EncodingTable,
    tag_u: TagId,
    tag_v: TagId,
    child_axis: bool,
) -> crate::bits::PathIdBits {
    let width = encoding.len() as u32;
    let mut mask = crate::bits::PathIdBits::zero(width);
    for (enc, _) in encoding.iter() {
        if encoding.axis_holds(enc, tag_u, tag_v, child_axis) {
            mask.set(enc);
        }
    }
    mask
}

/// An immutable view of every relation mask published so far. Probed
/// lock-free by readers holding it; see [`RelationMaskCache`].
#[derive(Debug, Default)]
pub struct RelationMaskSnapshot {
    masks: std::collections::HashMap<(TagId, TagId, bool), std::sync::Arc<crate::bits::PathIdBits>>,
}

impl RelationMaskSnapshot {
    /// The published mask for `(tag_u, tag_v, child_axis)`, if any.
    #[inline]
    pub fn get(
        &self,
        tag_u: TagId,
        tag_v: TagId,
        child_axis: bool,
    ) -> Option<&std::sync::Arc<crate::bits::PathIdBits>> {
        self.masks.get(&(tag_u, tag_v, child_axis))
    }

    /// Number of published masks.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether no mask has been published.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }
}

/// Epoch-published memo table over [`relation_mask`].
///
/// A mask depends only on `(tag_u, tag_v, child_axis)` and the encoding
/// table, which is immutable once a summary is built, so one cache can
/// serve every query over a summary. No join kernel in this workspace
/// reads it: [`ContainmentAdjacency`](crate::ContainmentAdjacency) rows
/// fold the mask test in, and the reference join computes its masks
/// fresh.
///
/// Like [`JoinIndexCache`](crate::JoinIndexCache), reads go through an
/// immutable [`RelationMaskSnapshot`]: take it once, revalidate with one
/// [`epoch`](Self::epoch) load, probe lock-free. The mutex guards
/// publication only — a miss computes its mask *outside* the lock, then
/// rechecks and swaps in a fresh `Arc` (first publication wins; a racing
/// duplicate is dropped), so cold builds on different keys proceed in
/// parallel and never stall readers refreshing their snapshots.
#[derive(Debug, Default)]
pub struct RelationMaskCache {
    published: std::sync::Mutex<std::sync::Arc<RelationMaskSnapshot>>,
    epoch: std::sync::atomic::AtomicU64,
    locks: std::sync::atomic::AtomicU64,
}

impl RelationMaskCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current publication epoch; bumped (release) after every
    /// publication, so a reader whose held snapshot matches this epoch
    /// can skip the refresh entirely.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// The current snapshot (one mutex acquisition; probe the returned
    /// `Arc` lock-free afterwards).
    pub fn snapshot(&self) -> std::sync::Arc<RelationMaskSnapshot> {
        std::sync::Arc::clone(&self.lock_published())
    }

    fn lock_published(&self) -> std::sync::MutexGuard<'_, std::sync::Arc<RelationMaskSnapshot>> {
        self.locks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.published
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The mask for `(tag_u, tag_v, child_axis)`, computing and publishing
    /// it on first use.
    pub fn get(
        &self,
        encoding: &EncodingTable,
        tag_u: TagId,
        tag_v: TagId,
        child_axis: bool,
    ) -> std::sync::Arc<crate::bits::PathIdBits> {
        let key = (tag_u, tag_v, child_axis);
        let snap = self.snapshot();
        if let Some(m) = snap.get(tag_u, tag_v, child_axis) {
            return std::sync::Arc::clone(m);
        }
        // Compute outside the publish lock: the mutex guards publication
        // only, so a slow mask build never convoys other workers'
        // snapshot refreshes, and misses on different keys compute in
        // parallel. Two workers racing on the *same* key may both
        // compute it; the recheck below keeps the first publication and
        // the loser's copy is dropped — masks are pure functions of the
        // key and the encoding table, so either copy is correct.
        let computed = std::sync::Arc::new(relation_mask(encoding, tag_u, tag_v, child_axis));
        let mut published = self.lock_published();
        if let Some(m) = published.get(tag_u, tag_v, child_axis) {
            return std::sync::Arc::clone(m);
        }
        let mut next = RelationMaskSnapshot {
            masks: published.masks.clone(),
        };
        next.masks.insert(key, std::sync::Arc::clone(&computed));
        *published = std::sync::Arc::new(next);
        self.epoch
            .fetch_add(1, std::sync::atomic::Ordering::Release);
        computed
    }

    /// Number of published masks.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether no mask has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of publish-mutex acquisitions so far (snapshot refreshes,
    /// cold publications, and introspection all count).
    pub fn lock_count(&self) -> u64 {
        self.locks.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// The §2 test against a precomputed [`relation_mask`].
#[inline]
pub fn axis_compatible_masked(
    pids: &PidInterner,
    pid_u: Pid,
    pid_v: Pid,
    mask: &crate::bits::PathIdBits,
) -> bool {
    let bu = pids.bits(pid_u);
    let bv = pids.bits(pid_v);
    bu.contains_or_equal(bv) && bv.intersects(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeling;

    #[test]
    fn masked_path_agrees_with_direct_path() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        for (tu, _) in doc.tags().iter() {
            for (tv, _) in doc.tags().iter() {
                for child in [true, false] {
                    let mask = relation_mask(&lab.encoding, tu, tv, child);
                    for (pu, _) in lab.interner.iter() {
                        for (pv, _) in lab.interner.iter() {
                            assert_eq!(
                                axis_compatible(
                                    &lab.encoding,
                                    &lab.interner,
                                    pu,
                                    tu,
                                    pv,
                                    tv,
                                    child
                                ),
                                axis_compatible_masked(&lab.interner, pu, pv, &mask),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cache_returns_identical_masks() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let cache = RelationMaskCache::new();
        assert!(cache.is_empty());
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        for &tu in &tags {
            for &tv in &tags {
                for child in [true, false] {
                    let cached = cache.get(&lab.encoding, tu, tv, child);
                    let fresh = relation_mask(&lab.encoding, tu, tv, child);
                    assert_eq!(*cached, fresh);
                    // Second lookup hits the memo and agrees.
                    let again = cache.get(&lab.encoding, tu, tv, child);
                    assert_eq!(*again, fresh);
                }
            }
        }
        assert_eq!(cache.len(), tags.len() * tags.len() * 2);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        let cache = std::sync::Arc::new(RelationMaskCache::new());
        let tags: Vec<TagId> = doc.tags().iter().map(|(t, _)| t).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for &tu in &tags {
                        for &tv in &tags {
                            let m = cache.get(&lab.encoding, tu, tv, true);
                            assert_eq!(*m, relation_mask(&lab.encoding, tu, tv, true));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), tags.len() * tags.len());
    }

    #[test]
    fn matches_labeling_method() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let lab = Labeling::compute(&doc);
        for x in doc.node_ids() {
            for y in doc.node_ids() {
                for child in [true, false] {
                    assert_eq!(
                        axis_compatible(
                            &lab.encoding,
                            &lab.interner,
                            lab.pid(x),
                            doc.tag(x),
                            lab.pid(y),
                            doc.tag(y),
                            child,
                        ),
                        lab.axis_compatible(lab.pid(x), doc.tag(x), lab.pid(y), doc.tag(y), child),
                    );
                }
            }
        }
    }
}
