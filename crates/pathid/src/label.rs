//! Assigning path ids to every element of a document (paper §2).
//!
//! The document's open/close events drive the one-pass [`StreamLabeler`]:
//! each open steps the labeler's label-path trie by the node's own
//! [`TagId`], a leaf takes the single-bit id of its root-to-leaf path, an
//! internal node the OR of its children's ids, and every id is interned —
//! the same labeler `xpe build` runs on the tokenizer's events.

use xpe_xml::{Document, NodeId, TagId};

use crate::encoding::EncodingTable;
use crate::interner::{Pid, PidInterner};
use crate::stream::StreamLabeler;

/// The complete path-id labeling of one document.
#[derive(Clone, Debug)]
pub struct Labeling {
    /// Distinct root-to-leaf paths and their encodings.
    pub encoding: EncodingTable,
    /// Distinct path ids.
    pub interner: PidInterner,
    /// `node_pids[node.index()]` is the path id of each element.
    pub node_pids: Vec<Pid>,
}

impl Labeling {
    /// Labels `doc` (paper Figure 1).
    pub fn compute(doc: &Document) -> Self {
        let mut labeler = StreamLabeler::new();
        let mut temp = vec![Pid::from_index(0); doc.len()];
        // Node ids are pre-order, so the events are: close every open
        // element that is not the next node's parent, then open the node.
        let mut open: Vec<NodeId> = Vec::new();
        for node in doc.node_ids() {
            let parent = doc.parent(node);
            while open.last().copied() != parent {
                let done = open.pop().expect("a node's parent is open");
                temp[done.index()] = labeler.close().pid;
            }
            let path = labeler.child(doc.tag(node));
            labeler.open(path);
            open.push(node);
        }
        while let Some(done) = open.pop() {
            temp[done.index()] = labeler.close().pid;
        }
        let labeling = labeler.finish();
        Labeling {
            node_pids: temp.into_iter().map(|p| labeling.resolve(p)).collect(),
            encoding: labeling.encoding,
            interner: labeling.interner,
        }
    }

    /// The path id of an element.
    #[inline]
    pub fn pid(&self, node: NodeId) -> Pid {
        self.node_pids[node.index()]
    }

    /// Whether a pair of (pid, tag) annotations can stand in the given
    /// relationship: `u`'s id must contain (or equal) `v`'s, and the tags
    /// must relate accordingly on at least one shared root-to-leaf path
    /// (paper §2, Cases 1 and 2 — the test the path join applies per edge).
    pub fn axis_compatible(
        &self,
        pid_u: Pid,
        tag_u: TagId,
        pid_v: Pid,
        tag_v: TagId,
        child_axis: bool,
    ) -> bool {
        crate::rel::axis_compatible(
            &self.encoding,
            &self.interner,
            pid_u,
            tag_u,
            pid_v,
            tag_v,
            child_axis,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_xml::parse;

    fn fig1() -> Document {
        xpe_xml::fixtures::paper_figure1()
    }

    /// Collects the pid bit string of every element with `tag`.
    fn pids_of(doc: &Document, lab: &Labeling, tag: &str) -> Vec<String> {
        doc.node_ids()
            .filter(|&n| doc.tag_name(n) == tag)
            .map(|n| lab.interner.bits(lab.pid(n)).to_string())
            .collect()
    }

    #[test]
    fn figure1_encodings_match_paper() {
        let doc = fig1();
        let lab = Labeling::compute(&doc);
        assert_eq!(lab.encoding.len(), 4);
        let tags = doc.tags();
        let (root, a, b, c, d, e, f) = (
            tags.get("Root").unwrap(),
            tags.get("A").unwrap(),
            tags.get("B").unwrap(),
            tags.get("C").unwrap(),
            tags.get("D").unwrap(),
            tags.get("E").unwrap(),
            tags.get("F").unwrap(),
        );
        // First-encounter document order reproduces the paper's Figure 1(b)
        // exactly: 1 = Root/A/B/D, 2 = Root/A/B/E, 3 = Root/A/C/E,
        // 4 = Root/A/C/F.
        assert_eq!(lab.encoding.path(1), [root, a, b, d]);
        assert_eq!(lab.encoding.path(2), [root, a, b, e]);
        assert_eq!(lab.encoding.path(3), [root, a, c, e]);
        assert_eq!(lab.encoding.path(4), [root, a, c, f]);
    }

    #[test]
    fn figure1_pid_structure_matches_paper() {
        let doc = fig1();
        let lab = Labeling::compute(&doc);
        // 9 distinct pids, as in Figure 1(c).
        assert_eq!(lab.interner.len(), 9);
        // Pid width = 4 distinct paths.
        assert_eq!(lab.interner.width(), 4);
        // Root's pid is all ones (it covers every path).
        let root_bits = lab.interner.bits(lab.pid(doc.root()));
        assert_eq!(root_bits.to_string(), "1111");
        // Every D has a single-bit pid on the B/D path; all Ds share it.
        let d_pids = pids_of(&doc, &lab, "D");
        assert_eq!(d_pids.len(), 4);
        assert!(d_pids.iter().all(|p| p == &d_pids[0]));
        assert_eq!(d_pids[0].matches('1').count(), 1);
        // The three As have three distinct pids (paper: p6, p7, p8).
        let mut a_pids = pids_of(&doc, &lab, "A");
        a_pids.sort();
        a_pids.dedup();
        assert_eq!(a_pids.len(), 3);
        // The two Cs have two distinct pids (p2 and p3).
        let mut c_pids = pids_of(&doc, &lab, "C");
        c_pids.sort();
        c_pids.dedup();
        assert_eq!(c_pids.len(), 2);
    }

    #[test]
    fn parent_pid_contains_or_equals_child_pid() {
        let doc = fig1();
        let lab = Labeling::compute(&doc);
        for n in doc.node_ids() {
            if let Some(p) = doc.parent(n) {
                assert!(
                    lab.interner.contains_or_equal(lab.pid(p), lab.pid(n)),
                    "parent pid must cover child pid"
                );
            }
        }
    }

    #[test]
    fn axis_compatible_matches_paper_examples() {
        let doc = fig1();
        let lab = Labeling::compute(&doc);
        let tags = doc.tags();
        let (a, b, c, e) = (
            tags.get("A").unwrap(),
            tags.get("B").unwrap(),
            tags.get("C").unwrap(),
            tags.get("E").unwrap(),
        );
        // Example 2.3: C with p3 contains E with p2; C is parent of E.
        let c_nodes: Vec<NodeId> = doc.node_ids().filter(|&n| doc.tag(n) == c).collect();
        let e_under_c = doc.children(c_nodes[0])[0];
        assert_eq!(doc.tag(e_under_c), e);
        assert!(lab.axis_compatible(lab.pid(c_nodes[0]), c, lab.pid(e_under_c), e, true));
        assert!(lab.axis_compatible(lab.pid(c_nodes[0]), c, lab.pid(e_under_c), e, false));
        // Example 2.2: A and B with the same pid (second A subtree): A is
        // parent of B.
        let second_a = doc.children(doc.root())[1];
        let b_under = doc.children(second_a)[0];
        assert_eq!(doc.tag(b_under), b);
        // Reverse direction never holds.
        assert!(!lab.axis_compatible(lab.pid(b_under), b, lab.pid(second_a), a, false));
    }

    #[test]
    fn single_node_document() {
        let doc = parse("<only/>").unwrap();
        let lab = Labeling::compute(&doc);
        assert_eq!(lab.encoding.len(), 1);
        assert_eq!(lab.interner.len(), 1);
        assert_eq!(lab.interner.bits(lab.pid(doc.root())).to_string(), "1");
    }

    #[test]
    fn leaf_pid_has_exactly_one_bit() {
        let doc = fig1();
        let lab = Labeling::compute(&doc);
        for n in doc.node_ids() {
            if doc.children(n).is_empty() {
                assert_eq!(lab.interner.bits(lab.pid(n)).count_ones(), 1);
            }
        }
    }
}
