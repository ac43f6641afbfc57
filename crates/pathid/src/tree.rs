//! The compressed path-id binary tree (paper §6, Figure 6).
//!
//! The tree indexes every distinct path id: leaves, left to right, are the
//! ids in ascending bit-string order, numbered 1..N (their *ordinal*); each
//! internal node stores the largest ordinal in its left subtree (or one
//! less than the smallest ordinal of its right subtree when the left is
//! empty), so navigation by ordinal recovers the full bit sequence by
//! concatenating edge bits (left = 0, right = 1).
//!
//! Compression: a subtree whose remaining suffix is all zeros (all ones) is
//! removed together with its incoming edge — the suffix is reconstructed
//! during lookup. The paper reports this saves ~78% for XMark, whose long
//! (344-bit) sparse ids leave large all-zero tails.

use crate::bits::PathIdBits;
use crate::interner::{Pid, PidInterner};

/// A child slot of an internal node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Child {
    /// No pid under this side.
    Empty,
    /// A materialized internal node.
    Node(u32),
    /// A leaf at full depth.
    Leaf { ord: u32 },
    /// A trimmed subtree: one pid whose remaining suffix is all `fill`.
    Trimmed { ord: u32, fill: bool },
}

#[derive(Clone, Debug)]
struct TreeNode {
    /// Largest ordinal in the left subtree (or `min(right) - 1` if the left
    /// subtree is empty), as in the paper's Figure 6.
    split: u32,
    left: Child,
    right: Child,
}

/// The compressed binary tree over all distinct path ids of a document.
#[derive(Clone, Debug)]
pub struct PathIdTree {
    nodes: Vec<TreeNode>,
    root: Child,
    nbits: u32,
    /// `ords[pid.index()]` is the 1-based ordinal of each pid.
    ords: Vec<u32>,
    /// `pids_by_ord[ord - 1]` is the pid with that ordinal.
    pids_by_ord: Vec<Pid>,
}

impl PathIdTree {
    /// Builds the tree over every id in `interner`.
    pub fn new(interner: &PidInterner) -> Self {
        let mut sorted: Vec<(Pid, &PathIdBits)> = interner.iter().collect();
        sorted.sort_by(|a, b| a.1.cmp(b.1));
        let nbits = interner.width();
        let mut ords = vec![0u32; interner.len()];
        let mut pids_by_ord = Vec::with_capacity(sorted.len());
        for (i, (pid, _)) in sorted.iter().enumerate() {
            ords[pid.index()] = (i + 1) as u32;
            pids_by_ord.push(*pid);
        }
        let mut builder = Builder {
            nodes: Vec::new(),
            nbits,
        };
        let items: Vec<(u32, &PathIdBits)> = sorted
            .iter()
            .enumerate()
            .map(|(i, (_, b))| ((i + 1) as u32, *b))
            .collect();
        let root = builder.build(&items, 0);
        PathIdTree {
            nodes: builder.nodes,
            root,
            nbits,
            ords,
            pids_by_ord,
        }
    }

    /// Width of the indexed ids.
    pub fn nbits(&self) -> u32 {
        self.nbits
    }

    /// Number of indexed path ids.
    pub fn len(&self) -> usize {
        self.pids_by_ord.len()
    }

    /// True when the tree indexes no ids.
    pub fn is_empty(&self) -> bool {
        self.pids_by_ord.is_empty()
    }

    /// The 1-based ordinal of `pid` (its leaf number in the paper's
    /// Figure 6).
    pub fn ord(&self, pid: Pid) -> u32 {
        self.ords[pid.index()]
    }

    /// The pid with the given ordinal.
    ///
    /// # Panics
    ///
    /// Panics if `ord` is 0 or out of range.
    pub fn pid_of_ord(&self, ord: u32) -> Pid {
        self.pids_by_ord[(ord - 1) as usize]
    }

    /// Reconstructs the bit sequence of the id with ordinal `ord` by
    /// navigating the tree (paper: "After reaching the leaf node, the
    /// concatenation of the bits of all edges traversed is the bit sequence
    /// of the given path id").
    pub fn bits_of_ord(&self, ord: u32) -> Option<PathIdBits> {
        if ord == 0 || ord as usize > self.pids_by_ord.len() {
            return None;
        }
        let mut bits = PathIdBits::zero(self.nbits);
        let mut depth = 0u32; // bits consumed so far
        let mut cur = self.root;
        loop {
            match cur {
                Child::Empty => return None,
                Child::Leaf { ord: o } => {
                    debug_assert_eq!(o, ord);
                    debug_assert_eq!(depth, self.nbits);
                    return Some(bits);
                }
                Child::Trimmed { ord: o, fill } => {
                    debug_assert_eq!(o, ord);
                    if fill {
                        for p in depth + 1..=self.nbits {
                            bits.set(p);
                        }
                    }
                    return Some(bits);
                }
                Child::Node(idx) => {
                    let node = &self.nodes[idx as usize];
                    depth += 1;
                    if ord <= node.split {
                        cur = node.left;
                    } else {
                        bits.set(depth);
                        cur = node.right;
                    }
                }
            }
        }
    }

    /// Finds the ordinal of a bit sequence by navigating the tree.
    pub fn ord_of_bits(&self, bits: &PathIdBits) -> Option<u32> {
        if bits.nbits() != self.nbits {
            return None;
        }
        let mut depth = 0u32;
        let mut cur = self.root;
        loop {
            match cur {
                Child::Empty => return None,
                Child::Leaf { ord } => return Some(ord),
                Child::Trimmed { ord, fill } => {
                    for p in depth + 1..=self.nbits {
                        if bits.get(p) != fill {
                            return None;
                        }
                    }
                    return Some(ord);
                }
                Child::Node(idx) => {
                    let node = &self.nodes[idx as usize];
                    depth += 1;
                    cur = if bits.get(depth) {
                        node.right
                    } else {
                        node.left
                    };
                }
            }
        }
    }

    /// Number of materialized internal nodes.
    pub fn internal_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf slots (plain + trimmed).
    pub fn leaf_nodes(&self) -> usize {
        let mut leaves = 0;
        let mut count_child = |c: &Child| {
            if matches!(c, Child::Leaf { .. } | Child::Trimmed { .. }) {
                leaves += 1;
            }
        };
        count_child(&self.root);
        for n in &self.nodes {
            count_child(&n.left);
            count_child(&n.right);
        }
        leaves
    }

    /// Byte size under our accounting model: 8 bytes per internal node
    /// (4-byte split ordinal plus two packed child references) and 4 bytes
    /// per leaf (ordinal plus fill flag). Documented in DESIGN.md; the
    /// *relative* saving versus the flat pid table is what Table 3 checks.
    pub fn size_bytes(&self) -> usize {
        self.internal_nodes() * 8 + self.leaf_nodes() * 4
    }
}

struct Builder {
    nodes: Vec<TreeNode>,
    nbits: u32,
}

impl Builder {
    /// Builds the subtree for `items` (ascending by bits, with ordinals),
    /// all of which agree on the first `depth` bits.
    fn build(&mut self, items: &[(u32, &PathIdBits)], depth: u32) -> Child {
        match items {
            [] => Child::Empty,
            // Items left at full depth are equal ids. A labeling never
            // repeats one, but a decoded image may: the repeats share the
            // first one's leaf.
            [(ord, _), ..] if depth == self.nbits => Child::Leaf { ord: *ord },
            [(ord, bits)] => {
                for fill in [false, true] {
                    if bits.suffix_is(depth + 1, fill) {
                        return Child::Trimmed { ord: *ord, fill };
                    }
                }
                self.split(items, depth)
            }
            _ => self.split(items, depth),
        }
    }

    fn split(&mut self, items: &[(u32, &PathIdBits)], depth: u32) -> Child {
        let bit = depth + 1;
        let cut = items.partition_point(|(_, b)| !b.get(bit));
        let (lo, hi) = items.split_at(cut);
        // Reserve the slot first so parent indices precede children.
        let idx = self.nodes.len() as u32;
        self.nodes.push(TreeNode {
            split: 0,
            left: Child::Empty,
            right: Child::Empty,
        });
        let left = self.build(lo, depth + 1);
        let right = self.build(hi, depth + 1);
        let split = match lo.last() {
            Some((ord, _)) => *ord,
            // Empty left subtree: one less than the least ordinal on the
            // right (the paper's leftmost internal node carries 0).
            None => hi.first().map(|(o, _)| o - 1).unwrap_or(0),
        };
        let node = &mut self.nodes[idx as usize];
        node.split = split;
        node.left = left;
        node.right = right;
        Child::Node(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_str(s: &str) -> PathIdBits {
        let mut b = PathIdBits::zero(s.len() as u32);
        for (i, c) in s.chars().enumerate() {
            if c == '1' {
                b.set(i as u32 + 1);
            }
        }
        b
    }

    /// The paper's Figure 1(c)/Figure 6 path-id set: `Pid(i)` is the
    /// paper's `p(i + 1)`.
    fn figure6_interner() -> PidInterner {
        let mut i = PidInterner::new(4);
        for s in [
            "0001", "0010", "0011", "0100", "1000", "1010", "1011", "1100", "1111",
        ] {
            i.push(from_str(s));
        }
        i
    }

    #[test]
    fn ordinals_follow_sorted_bitstrings() {
        let interner = figure6_interner();
        let tree = PathIdTree::new(&interner);
        assert_eq!(tree.len(), 9);
        // p1 = 0001 has ordinal 1, p9 = 1111 has ordinal 9 (Figure 6).
        let (p1, p9) = (Pid::from_index(0), Pid::from_index(8));
        assert_eq!(interner.bits(p1).to_string(), "0001");
        assert_eq!(interner.bits(p9).to_string(), "1111");
        assert_eq!(tree.ord(p1), 1);
        assert_eq!(tree.ord(p9), 9);
        assert_eq!(tree.pid_of_ord(1), p1);
    }

    #[test]
    fn lookup_round_trips_figure6() {
        let interner = figure6_interner();
        let tree = PathIdTree::new(&interner);
        for (pid, bits) in interner.iter() {
            let ord = tree.ord(pid);
            assert_eq!(tree.bits_of_ord(ord).unwrap(), *bits, "ord {ord}");
            assert_eq!(tree.ord_of_bits(bits), Some(ord));
        }
        // Figure 6's worked example: leaf 2 denotes 0010.
        assert_eq!(tree.bits_of_ord(2).unwrap().to_string(), "0010");
    }

    #[test]
    fn compression_trims_uniform_tails() {
        let interner = figure6_interner();
        let tree = PathIdTree::new(&interner);
        // The full (uncompressed) trie over 9 ids of width 4 would need
        // more internal nodes than the compressed one.
        assert!(tree.internal_nodes() < 15, "trimming must drop chains");
        // Still reconstructs everything (checked above); spot-check 1000.
        let p5 = Pid::from_index(4);
        assert_eq!(tree.bits_of_ord(tree.ord(p5)).unwrap().to_string(), "1000");
    }

    #[test]
    fn missing_bits_rejected() {
        let interner = figure6_interner();
        let tree = PathIdTree::new(&interner);
        assert_eq!(tree.ord_of_bits(&from_str("0111")), None);
        assert_eq!(tree.ord_of_bits(&from_str("00010")), None, "wrong width");
        assert_eq!(tree.bits_of_ord(0), None);
        assert_eq!(tree.bits_of_ord(10), None);
    }

    #[test]
    fn long_sparse_ids_compress_well() {
        // XMark-like: long ids, few bits set → large all-zero tails.
        let mut interner = PidInterner::new(256);
        for i in 1..=40u32 {
            interner.push(PathIdBits::single(256, i));
        }
        let tree = PathIdTree::new(&interner);
        for (pid, bits) in interner.iter() {
            assert_eq!(tree.bits_of_ord(tree.ord(pid)).unwrap(), *bits);
        }
        assert!(
            tree.size_bytes() < interner.table_size_bytes(),
            "tree {} must beat table {}",
            tree.size_bytes(),
            interner.table_size_bytes()
        );
    }

    #[test]
    fn equal_ids_share_a_leaf() {
        let mut interner = figure6_interner();
        let repeat = interner.push(from_str("1010"));
        let tree = PathIdTree::new(&interner);
        assert_eq!(tree.len(), 10);
        assert_eq!(tree.leaf_nodes(), 9);
        assert_eq!(
            tree.ord_of_bits(interner.bits(repeat)),
            Some(tree.ord(repeat) - 1)
        );
    }

    #[test]
    fn single_pid_tree() {
        let mut interner = PidInterner::new(8);
        let pid = interner.push(from_str("00000000"));
        let tree = PathIdTree::new(&interner);
        assert_eq!(tree.ord(pid), 1);
        assert_eq!(tree.bits_of_ord(1).unwrap().to_string(), "00000000");
        assert_eq!(tree.internal_nodes(), 0);
    }
}
