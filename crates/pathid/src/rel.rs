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

/// An empty placeholder: no join kernel reads a relation-mask cache any
/// more ([`ContainmentAdjacency`](crate::ContainmentAdjacency) candidates fold
/// the mask test in, and the reference join computes its masks fresh).
/// It stays only because `perfbench/src/replay.rs` compiles against it,
/// and goes with the next benchmark change.
#[derive(Debug, Default)]
pub struct RelationMaskCache;

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
