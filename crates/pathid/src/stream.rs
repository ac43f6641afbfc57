//! One-pass path-id labeling: the paper's §2 encoding computed from
//! element open/close events with O(depth × width) live state,
//! bit-identical to [`Labeling::compute`](crate::Labeling::compute) —
//! which is itself this labeler fed the tree's events.
//!
//! A leaf's id is the single bit of its root-to-leaf path and an inner
//! node's id is the OR of its children's, so every id is final at its
//! element's close event. [`StreamLabeler`] therefore needs no first
//! pass:
//!
//! * **Opens as trie steps.** Every element opens at a node of the
//!   labeler's [`PathTrie`], the child of its parent's node labeled with
//!   its tag ([`StreamLabeler::child`]); its label path is never
//!   rebuilt or hashed.
//! * **Encodings as leaves close.** A leaf has no descendants, so it opens
//!   and closes before the next leaf opens: leaves close in pre-order,
//!   which is the DOM's first-encounter order, and numbering a node's path
//!   at its first leaf close numbers the [`EncodingTable`] identically.
//! * **Flat word rows.** Every open element owns one row of the flat word
//!   stack, holding the OR of its closed children. A row is *trimmed*: it
//!   ends at its last nonzero word, so it widens only when a path number
//!   past its last word arrives, and two rows are equal exactly when their
//!   bit sets are, whatever the final width. A closing row is ORed into
//!   its parent's row in place.
//! * **Interning by slice.** A finished inner row is looked up by its
//!   borrowed word slice, so only a new distinct id allocates. Rows are
//!   the document's choosing, so they hash with std's keyed hasher; a
//!   leaf's id is found by its encoding.
//!
//! One ordering wrinkle: the DOM path interns ids in node *pre*-order, but
//! an id is only known at its node's *close* (post-order). The labeler
//! therefore interns into a temporary id space, records the minimal
//! pre-order index at which each distinct id occurs, and
//! [`StreamLabeler::finish`] renumbers ids by that index — the DOM's
//! first-encounter pre-order — so the final [`PidInterner`] is
//! handle-for-handle identical.

use std::collections::HashMap;

use xpe_xml::TagId;

use crate::bits::PathIdBits;
use crate::encoding::{EncodingTable, PathEncoding};
use crate::interner::{Pid, PidInterner};
use crate::trie::{PathNode, PathTrie};

/// One element, retired at its close event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed {
    /// The element's tag: the last tag of its node's path.
    pub tag: TagId,
    /// Its **temporary** path id; translate it with
    /// [`StreamLabeling::resolve`] after [`StreamLabeler::finish`].
    pub pid: Pid,
    /// Its pre-order (document-order) index, 0-based.
    pub pre: u64,
}

/// Per-open-element state.
#[derive(Debug)]
struct Frame {
    /// Pre-order index of the element.
    pre: u64,
    /// The element's label path.
    node: PathNode,
    /// Where the element's row starts in the word stack; it runs to the
    /// next frame's start (or to the end of the stack for the innermost).
    /// Every closed child sets a bit, so the row is empty until then.
    start: usize,
}

/// The result of a labeling pass: the encoding table, the final
/// (DOM-identical) interner, and the translation from the temporary pids
/// [`StreamLabeler::close`] handed out.
#[derive(Debug)]
pub struct StreamLabeling {
    /// Distinct root-to-leaf paths, in first-encounter document order.
    pub encoding: EncodingTable,
    /// Distinct path ids, numbered in first-encounter pre-order — the
    /// same handles [`Labeling::compute`](crate::Labeling::compute)
    /// assigns.
    pub interner: PidInterner,
    /// `remap[temp_pid.index()]` is the final pid.
    pub remap: Vec<Pid>,
}

impl StreamLabeling {
    /// Translates a temporary pid (as [`StreamLabeler::close`] returned
    /// it) to its final handle.
    #[inline]
    pub fn resolve(&self, temp: Pid) -> Pid {
        self.remap[temp.index()]
    }
}

/// Assigns path ids from open/close events in one pass. Live state is
/// the open-element stack and its trimmed rows — O(depth × width) words —
/// plus the label-path trie and the distinct ids; nothing is
/// proportional to node count.
#[derive(Debug, Default)]
pub struct StreamLabeler {
    encoding: EncodingTable,
    /// The label paths seen so far.
    trie: PathTrie,
    /// `encodings[node.index()]`: the encoding of the node's path, 0 until
    /// an element on it closes as a leaf (or past the end).
    encodings: Vec<PathEncoding>,
    frames: Vec<Frame>,
    /// The open elements' rows, back to back.
    words: Vec<u64>,
    /// Temporary pids by trimmed row.
    ids: HashMap<Box<[u64]>, Pid>,
    /// `leaf_pids[e - 1]`: the temporary pid of encoding `e`'s single bit.
    leaf_pids: Vec<Pid>,
    /// Per temporary pid: minimal pre-order index over its occurrences.
    first_pre: Vec<u64>,
    next_pre: u64,
}

impl StreamLabeler {
    /// Creates a labeler with no paths and no ids.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node of a child labeled `tag` of the innermost open element
    /// (of the empty path when none is open), added on first sight. Open
    /// the element with [`open`](Self::open).
    pub fn child(&mut self, tag: TagId) -> PathNode {
        let parent = self.frames.last().map_or(PathNode::ROOT, |f| f.node);
        self.trie.child(parent, tag)
    }

    /// Feeds an element open event: the element's `node`, which
    /// [`child`](Self::child) returned for the current innermost open
    /// element — or earlier for an element with the same parent path.
    pub fn open(&mut self, node: PathNode) {
        debug_assert_eq!(
            self.trie.parent(node),
            Some(self.frames.last().map_or(PathNode::ROOT, |f| f.node)),
            "an element opens at a child of its parent's node"
        );
        self.frames.push(Frame {
            pre: self.next_pre,
            node,
            start: self.words.len(),
        });
        self.next_pre += 1;
    }

    /// Feeds an element close event and retires the element.
    ///
    /// # Panics
    ///
    /// Panics on a close without a matching open (the tokenizer rejects
    /// such documents before the event is ever produced).
    pub fn close(&mut self) -> Closed {
        let frame = self.frames.pop().expect("close without open");
        let pid = if self.words.len() > frame.start {
            self.intern_row(frame.start)
        } else {
            let bit = self.encoding_of(frame.node) as usize - 1;
            self.words.resize(frame.start + bit / 64 + 1, 0);
            self.words[frame.start + bit / 64] = 1 << (63 - bit % 64);
            match self.leaf_pids.get(bit) {
                Some(&pid) => pid,
                None => {
                    debug_assert_eq!(self.leaf_pids.len(), bit, "encodings grow by one");
                    let pid = self.intern_row(frame.start);
                    self.leaf_pids.push(pid);
                    pid
                }
            }
        };
        let first = &mut self.first_pre[pid.index()];
        *first = (*first).min(frame.pre);
        let tag = self.trie.tag(frame.node);

        // OR the finished row into the parent's, which ends where it
        // starts. A longer child row widens the parent: its tail words
        // slide down to follow the parent's.
        let end = match self.frames.last() {
            Some(parent) => {
                let parent_len = frame.start - parent.start;
                let child_len = self.words.len() - frame.start;
                let (head, row) = self.words.split_at_mut(frame.start);
                crate::words::or_assign(&mut head[parent.start..], row);
                if child_len > parent_len {
                    self.words
                        .copy_within(frame.start + parent_len.., frame.start);
                }
                parent.start + parent_len.max(child_len)
            }
            None => frame.start,
        };
        self.words.truncate(end);
        Closed {
            tag,
            pid,
            pre: frame.pre,
        }
    }

    /// The encoding of `node`'s label path, pushing the path to the table
    /// on first sight.
    fn encoding_of(&mut self, node: PathNode) -> PathEncoding {
        let i = node.index();
        if i >= self.encodings.len() {
            self.encodings.resize(i + 1, 0);
        }
        if self.encodings[i] == 0 {
            self.encodings[i] = self.encoding.push(self.trie.path(node));
        }
        self.encodings[i]
    }

    /// The temporary pid of the row `words[start..]`, interning it on
    /// first sight.
    fn intern_row(&mut self, start: usize) -> Pid {
        let row = &self.words[start..];
        if let Some(&pid) = self.ids.get(row) {
            return pid;
        }
        let pid = Pid::from_index(self.ids.len());
        self.ids.insert(row.into(), pid);
        self.first_pre.push(u64::MAX);
        pid
    }

    /// Renumbers the temporary pid space into the DOM's first-encounter
    /// pre-order, at the final width, and returns the labeling.
    pub fn finish(self) -> StreamLabeling {
        debug_assert!(self.frames.is_empty(), "unbalanced event stream");
        let width = self.encoding.len() as u32;
        let mut rows: Vec<Box<[u64]>> = vec![Box::default(); self.ids.len()];
        for (row, pid) in self.ids {
            rows[pid.index()] = row;
        }
        // Two distinct ids never share a first node, so the minima are
        // unique and the order is total.
        let mut by_pre: Vec<usize> = (0..rows.len()).collect();
        by_pre.sort_unstable_by_key(|&i| self.first_pre[i]);
        // `ids` held each row once, so each id is pushed once.
        let mut interner = PidInterner::new(width);
        let mut remap = vec![Pid::from_index(0); rows.len()];
        for i in by_pre {
            remap[i] = interner.push(PathIdBits::from_words(width, &rows[i]));
        }
        StreamLabeling {
            encoding: self.encoding,
            interner,
            remap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_xml::{StreamEvent, StreamParser, TagInterner};

    /// Labels `input` from its token stream, returning every retired
    /// element (in close order) with its final pid.
    fn label(input: &str) -> (TagInterner, StreamLabeling, Vec<Closed>) {
        let mut tags = TagInterner::new();
        let mut labeler = StreamLabeler::new();
        let mut closed = Vec::new();
        let mut p = StreamParser::new(input);
        while let Some(ev) = p.next_event().unwrap() {
            match ev {
                StreamEvent::Open { name } => {
                    let node = labeler.child(tags.intern(&name));
                    labeler.open(node);
                }
                StreamEvent::Close => closed.push(labeler.close()),
                StreamEvent::Text(_) => {}
            }
        }
        let labeling = labeler.finish();
        for c in &mut closed {
            c.pid = labeling.resolve(c.pid);
        }
        (tags, labeling, closed)
    }

    #[test]
    fn figure1_ids_match_the_paper() {
        let xml = xpe_xml::to_string(&xpe_xml::fixtures::paper_figure1());
        let (tags, lab, closed) = label(&xml);
        assert_eq!(lab.encoding.len(), 4);
        assert_eq!(lab.interner.len(), 9);
        assert_eq!(closed.len(), 18);
        // Pre-order numbering: the root is pid 0 and covers every path.
        let root = closed.last().unwrap();
        assert_eq!((root.pre, root.pid), (0, Pid::from_index(0)));
        assert_eq!(lab.interner.bits(root.pid).to_string(), "1111");
        let d = tags.get("D").unwrap();
        for c in closed.iter().filter(|c| c.tag == d) {
            assert_eq!(lab.interner.bits(c.pid).to_string(), "1000");
        }
    }

    #[test]
    fn rows_widen_past_a_word_and_stay_trimmed() {
        // 70 leaf paths under one parent, then a second parent that holds
        // only path 70: its row is two words with a zero first word.
        let mut xml = String::from("<r><a>");
        for i in 0..70 {
            xml.push_str(&format!("<l{i}/>"));
        }
        xml.push_str("</a><a><l69/></a><b><l69/></b></r>");
        let (tags, lab, closed) = label(&xml);
        assert_eq!(lab.encoding.len(), 70 + 1);
        let a = tags.get("a").unwrap();
        let a_pids: Vec<Pid> = closed
            .iter()
            .filter(|c| c.tag == a)
            .map(|c| c.pid)
            .collect();
        assert_eq!(lab.interner.bits(a_pids[0]).count_ones(), 70);
        assert_eq!(
            lab.interner.bits(a_pids[1]).ones().collect::<Vec<_>>(),
            vec![70]
        );
        // The l69 under `a` and the one under `b` are different paths.
        let root = closed.last().unwrap();
        assert_eq!(lab.interner.bits(root.pid).count_ones(), 71);
    }
}
