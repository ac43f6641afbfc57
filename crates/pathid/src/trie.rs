//! The label-path trie: one node per distinct root-to-element label path
//! of a document — its path summary (Arion et al., "Path Summaries and
//! Path Partitioning").
//!
//! Element opens are steps in this trie: an element's node is the child
//! of its parent's node labeled with its tag. The trie is small next to
//! the document (378 nodes for XMark's 116,151 elements at scale 0.5), and
//! most nodes have a handful of children, so a step first scans its
//! parent's first [`SCAN`] children, which are stored inline with their
//! tags, and only past them consults a map keyed by `(parent, tag)`.
//!
//! [`StreamLabeler`](crate::StreamLabeler) numbers the encoding of a label
//! path at its node's first leaf close, and `xpe build`'s tokenizing stage
//! walks a trie of its own by tag *name* (see [`PathTrie::scan`]) so that
//! the tag interner runs only when a node is created.

use xpe_xml::TagId;

use crate::index_map::IndexMap;

/// Children of a node a step scans before it consults the map: with 8,
/// the scan finds 97.1% of XMark's opens, 95.8% of DBLP's and 99.5% of
/// SSPlays'.
pub const SCAN: usize = 8;

/// A node of a [`PathTrie`]: one distinct label path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathNode(u32);

impl PathNode {
    /// The empty path: the parent of the document element's node.
    pub const ROOT: PathNode = PathNode(0);

    /// Dense index of the node; [`ROOT`](Self::ROOT) is 0 and the other
    /// nodes follow in creation order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node handle from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        PathNode(u32::try_from(index).expect("trie node index overflows u32"))
    }
}

#[derive(Clone, Debug)]
struct TrieNode {
    tag: TagId,
    parent: PathNode,
    /// The node's first [`SCAN`] children with their tags, in creation
    /// order.
    kids: Vec<(TagId, PathNode)>,
}

/// The trie of a document's label paths. Nodes are only ever added, so a
/// [`PathNode`] stays valid for the trie's lifetime.
#[derive(Clone, Debug)]
pub struct PathTrie {
    /// `nodes[0]` is [`PathNode::ROOT`], whose tag is never read.
    nodes: Vec<TrieNode>,
    /// Children past their parent's first [`SCAN`].
    more: IndexMap<(PathNode, TagId), PathNode>,
}

impl Default for PathTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl PathTrie {
    /// A trie holding only the empty path.
    pub fn new() -> Self {
        PathTrie {
            nodes: vec![TrieNode {
                tag: TagId::from_index(u32::MAX as usize),
                parent: PathNode::ROOT,
                kids: Vec::new(),
            }],
            more: IndexMap::default(),
        }
    }

    /// Number of label paths (nodes other than the root).
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True when the trie holds no label path.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The last tag of `node`'s path.
    ///
    /// # Panics
    ///
    /// Panics on a node of another trie that is out of range here.
    #[inline]
    pub fn tag(&self, node: PathNode) -> TagId {
        debug_assert_ne!(node, PathNode::ROOT, "the empty path has no tag");
        self.nodes[node.index()].tag
    }

    /// The node of `node`'s path without its last tag; `None` for the
    /// root.
    pub fn parent(&self, node: PathNode) -> Option<PathNode> {
        (node != PathNode::ROOT).then(|| self.nodes[node.index()].parent)
    }

    /// The tags of `node`'s path, root first.
    pub fn path(&self, mut node: PathNode) -> Vec<TagId> {
        let mut path = Vec::new();
        while node != PathNode::ROOT {
            let n = &self.nodes[node.index()];
            path.push(n.tag);
            node = n.parent;
        }
        path.reverse();
        path
    }

    /// The first of `parent`'s first [`SCAN`] children whose tag
    /// satisfies `is`. A miss means no such child among them; the child
    /// may still be past them, where only [`get`](Self::get) finds it.
    #[inline]
    pub fn scan(&self, parent: PathNode, mut is: impl FnMut(TagId) -> bool) -> Option<PathNode> {
        self.nodes[parent.index()]
            .kids
            .iter()
            .find(|&&(tag, _)| is(tag))
            .map(|&(_, kid)| kid)
    }

    /// The child of `parent` labeled `tag`, if the trie holds it.
    pub fn get(&self, parent: PathNode, tag: TagId) -> Option<PathNode> {
        let kids = &self.nodes[parent.index()].kids;
        match kids.iter().find(|&&(t, _)| t == tag) {
            Some(&(_, kid)) => Some(kid),
            None if kids.len() == SCAN => self.more.get(&(parent, tag)).copied(),
            None => None,
        }
    }

    /// Adds the child of `parent` labeled `tag`, which the trie must not
    /// hold yet, and returns it.
    pub fn insert(&mut self, parent: PathNode, tag: TagId) -> PathNode {
        debug_assert!(self.get(parent, tag).is_none(), "child already present");
        let kid = PathNode::from_index(self.nodes.len());
        self.nodes.push(TrieNode {
            tag,
            parent,
            kids: Vec::new(),
        });
        let kids = &mut self.nodes[parent.index()].kids;
        if kids.len() < SCAN {
            kids.push((tag, kid));
        } else {
            self.more.insert((parent, tag), kid);
        }
        kid
    }

    /// The child of `parent` labeled `tag`, added on first sight.
    pub fn child(&mut self, parent: PathNode, tag: TagId) -> PathNode {
        match self.get(parent, tag) {
            Some(kid) => kid,
            None => self.insert(parent, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TagId {
        TagId::from_index(i)
    }

    #[test]
    fn nodes_number_in_creation_order_and_keep_their_paths() {
        let mut trie = PathTrie::new();
        assert!(trie.is_empty());
        let a = trie.child(PathNode::ROOT, t(0));
        let b = trie.child(a, t(1));
        let a2 = trie.child(b, t(0));
        assert_eq!((a.index(), b.index(), a2.index()), (1, 2, 3));
        assert_eq!(trie.child(a, t(1)), b, "a second step finds the node");
        assert_eq!(trie.len(), 3);
        assert_eq!(trie.path(a2), [t(0), t(1), t(0)]);
        assert_eq!(trie.path(PathNode::ROOT), []);
        assert_eq!(trie.parent(a2), Some(b));
        assert_eq!(trie.parent(a), Some(PathNode::ROOT));
        assert_eq!(trie.parent(PathNode::ROOT), None);
        assert_eq!(trie.tag(a2), t(0));
    }

    /// Children past the scan bound are found through the map, and the
    /// scan sees only the first [`SCAN`].
    #[test]
    fn fan_out_past_the_scan_bound() {
        let mut trie = PathTrie::new();
        let r = trie.child(PathNode::ROOT, t(0));
        let kids: Vec<PathNode> = (1..=3 * SCAN).map(|i| trie.child(r, t(i))).collect();
        for (i, &kid) in kids.iter().enumerate() {
            assert_eq!(trie.get(r, t(i + 1)), Some(kid));
            assert_eq!(trie.child(r, t(i + 1)), kid);
            let scanned = trie.scan(r, |tag| tag == t(i + 1));
            assert_eq!(scanned, (i < SCAN).then_some(kid));
        }
        assert_eq!(trie.get(r, t(0)), None);
        assert_eq!(trie.len(), 1 + 3 * SCAN);
    }
}
