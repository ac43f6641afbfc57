//! Streaming path-id labeling: the paper's §2 encoding computed from a
//! tokenizer event stream with O(depth × width) live state, bit-identical
//! to [`Labeling::compute`](crate::Labeling::compute) over the
//! materialized tree.
//!
//! Two passes over the same byte stream:
//!
//! 1. **Pass A** ([`PathScan`]) interns every tag at its open event and
//!    every distinct root-to-leaf label path at its *leaf close* event.
//!    Leaves close in pre-order (a leaf has no descendants, so it opens
//!    and closes before the next leaf opens), which is exactly the
//!    first-encounter document order the DOM pass-1 DFS uses — the
//!    [`EncodingTable`] comes out identical, fixing the path-id width.
//! 2. **Pass B** ([`StreamLabeler`]) re-streams with a stack of open
//!    elements. A leaf close materializes the single-bit id of its path;
//!    every close ORs the finished id into the parent frame and retires
//!    the element's `(tag, pid)` into a [`StreamSink`] — no per-node
//!    storage survives the node's close event.
//!
//! One ordering wrinkle: the DOM path interns pid bit-patterns in node
//! *pre*-order, but a streaming pass can only finish a pattern at its
//! node's *close* (post-order). Pass B therefore interns into a temporary
//! id space, records the minimal pre-order index at which each distinct
//! pattern occurs, and [`StreamLabeler::finish`] renumbers patterns by
//! that index — which is precisely the DOM's first-encounter pre-order,
//! so the final [`PidInterner`] is handle-for-handle identical. The same
//! minimal-pre-order bookkeeping lets sinks reconstruct first-encounter
//! row orders for the frequency table.

use std::collections::HashMap;

use xpe_xml::{TagId, TagInterner};

use crate::bits::PathIdBits;
use crate::encoding::EncodingTable;
use crate::interner::{Pid, PidInterner};

/// Pass A: collects the tag vocabulary and the distinct root-to-leaf
/// label paths from open/close events. State is O(depth + output).
#[derive(Debug, Default)]
pub struct PathScan {
    tags: TagInterner,
    encoding: EncodingTable,
    path: Vec<TagId>,
    /// Per open element: has an element child been seen?
    has_child: Vec<bool>,
}

impl PathScan {
    /// Creates an empty scan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds an element open event.
    pub fn open(&mut self, name: &str) {
        let tag = self.tags.intern(name);
        if let Some(parent) = self.has_child.last_mut() {
            *parent = true;
        }
        self.path.push(tag);
        self.has_child.push(false);
    }

    /// Feeds an element close event.
    ///
    /// # Panics
    ///
    /// Panics on a close without a matching open (the tokenizer rejects
    /// such documents before the event is ever produced).
    pub fn close(&mut self) {
        let leaf = !self.has_child.pop().expect("close without open");
        if leaf {
            self.encoding.intern(&self.path);
        }
        self.path.pop();
    }

    /// The collected vocabulary: `(tags, encoding table)`.
    pub fn finish(self) -> (TagInterner, EncodingTable) {
        debug_assert!(self.path.is_empty(), "unbalanced event stream");
        (self.tags, self.encoding)
    }
}

/// Receives each element exactly once, at its close event, plus the
/// sibling-order facts the path-order table aggregates.
///
/// Pids handed to the sink are **temporary** (post-order first-encounter);
/// translate them through [`StreamLabeling::remap`] after
/// [`StreamLabeler::finish`]. `pre_index` is the element's pre-order
/// (document-order) index — per-`(tag, pid)` minima over it reproduce the
/// DOM tables' first-encounter row order.
pub trait StreamSink {
    /// An element of `tag` with path id `pid` closed; it was the
    /// `pre_index`-th element (0-based) to open.
    fn element(&mut self, tag: TagId, pid: Pid, pre_index: u64);

    /// One `x`-tagged element with id `pid` has some `y`-tagged sibling
    /// before it (the paper's `element+` region, "x after y").
    fn sibling_after(&mut self, x: TagId, pid: Pid, y: TagId);

    /// `count` siblings of tag/pid `(x, pid)` precede the last `y`-tagged
    /// child of the closing parent (the `+element` region, "x before y"),
    /// aggregated per parent.
    fn sibling_before(&mut self, x: TagId, pid: Pid, y: TagId, count: u64);
}

/// Per-open-element frame of pass B.
#[derive(Debug)]
struct Frame {
    tag: TagId,
    /// OR of the finished ids of the children closed so far (becomes this
    /// element's id at close, unless it is a leaf).
    bits: PathIdBits,
    /// Pre-order index of this element.
    pre: u64,
    has_child: bool,
    /// Number of element children closed so far.
    children: usize,
    /// First child position per child tag (the DOM scan's `first[]`).
    first: HashMap<TagId, usize>,
    /// Children closed so far, grouped by `(tag, temporary pid)`.
    counts: HashMap<(TagId, Pid), u64>,
    /// Snapshot of `counts` taken just before the most recent `y`-tagged
    /// child was added — at parent close this holds, for each `y`, every
    /// sibling group strictly before the *last* `y` child (the DOM scan's
    /// `last[y] > k` test, aggregated).
    before_last: HashMap<TagId, HashMap<(TagId, Pid), u64>>,
}

impl Frame {
    fn new(tag: TagId, width: u32, pre: u64) -> Self {
        Frame {
            tag,
            bits: PathIdBits::zero(width),
            pre,
            has_child: false,
            children: 0,
            first: HashMap::new(),
            counts: HashMap::new(),
            before_last: HashMap::new(),
        }
    }
}

/// The result of pass B: the final (DOM-identical) interner plus the
/// translation from the temporary pids the sink saw.
#[derive(Debug)]
pub struct StreamLabeling {
    /// Distinct path ids, numbered in first-encounter pre-order — the
    /// same handles [`Labeling::compute`](crate::Labeling::compute)
    /// assigns.
    pub interner: PidInterner,
    /// `remap[temp_pid.index()]` is the final pid.
    pub remap: Vec<Pid>,
    /// Total element count.
    pub elements: u64,
}

impl StreamLabeling {
    /// Translates a temporary pid (as seen by the sink) to its final
    /// handle.
    #[inline]
    pub fn resolve(&self, temp: Pid) -> Pid {
        self.remap[temp.index()]
    }
}

/// Pass B: assigns path ids from open/close events, retiring each element
/// into a [`StreamSink`] at its close. Live state is the open-element
/// stack — O(depth) frames, each O(width + distinct child groups) — plus
/// the distinct-pid interner; nothing is proportional to node count.
#[derive(Debug)]
pub struct StreamLabeler<'a> {
    tags: &'a TagInterner,
    encoding: &'a EncodingTable,
    width: u32,
    /// Temporary interner: patterns numbered by close-order encounter.
    temp: PidInterner,
    /// Per temporary pid: minimal pre-order index over its occurrences.
    first_pre: Vec<u64>,
    frames: Vec<Frame>,
    path: Vec<TagId>,
    next_pre: u64,
}

impl<'a> StreamLabeler<'a> {
    /// Creates a labeler over the vocabulary pass A collected. The
    /// encoding table is complete, so the path-id width is fixed.
    pub fn new(tags: &'a TagInterner, encoding: &'a EncodingTable) -> Self {
        let width = encoding.len() as u32;
        StreamLabeler {
            tags,
            encoding,
            width,
            temp: PidInterner::new(width),
            first_pre: Vec::new(),
            frames: Vec::new(),
            path: Vec::new(),
            next_pre: 0,
        }
    }

    /// Path-id width (number of distinct root-to-leaf paths).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Feeds an element open event.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never seen by pass A — the two passes must
    /// consume the same byte stream.
    pub fn open(&mut self, name: &str) {
        let tag = self
            .tags
            .get(name)
            .expect("tag not in pass-A vocabulary: passes saw different streams");
        if let Some(parent) = self.frames.last_mut() {
            parent.has_child = true;
        }
        self.path.push(tag);
        self.frames.push(Frame::new(tag, self.width, self.next_pre));
        self.next_pre += 1;
    }

    /// Feeds an element close event, retiring the element into `sink`.
    ///
    /// # Panics
    ///
    /// Panics on a close without a matching open, or (for a leaf) on a
    /// root-to-leaf path pass A never interned.
    pub fn close<S: StreamSink>(&mut self, sink: &mut S) {
        let mut frame = self.frames.pop().expect("close without open");
        if !frame.has_child {
            let enc = self
                .encoding
                .encoding_of(&self.path)
                .expect("leaf path not in pass-A encoding table");
            frame.bits = PathIdBits::single(self.width, enc);
        }
        let pid = self.temp.intern(frame.bits.clone());
        if pid.index() == self.first_pre.len() {
            self.first_pre.push(frame.pre);
        } else {
            let slot = &mut self.first_pre[pid.index()];
            *slot = (*slot).min(frame.pre);
        }
        sink.element(frame.tag, pid, frame.pre);

        // Flush the `+element` (before) region of this element's own
        // children: everything counted strictly before the last `y`.
        for (y, groups) in frame.before_last.drain() {
            for ((x, x_pid), count) in groups {
                if count > 0 {
                    sink.sibling_before(x, x_pid, y, count);
                }
            }
        }

        self.path.pop();
        let Some(parent) = self.frames.last_mut() else {
            debug_assert!(self.path.is_empty());
            return;
        };
        parent.bits.or_assign(&frame.bits);

        // Sibling order, emitted online as children close. `element+`
        // (after): this child has a `y` sibling before it iff `y`'s first
        // position precedes it — known now. `+element` (before) needs
        // `last[y]`, unknown until the parent closes, so snapshot the
        // sibling groups seen before each latest `y` instead.
        let k = parent.children;
        for (&y, &first_y) in &parent.first {
            if first_y < k {
                sink.sibling_after(frame.tag, pid, y);
            }
        }
        parent.before_last.insert(frame.tag, parent.counts.clone());
        *parent.counts.entry((frame.tag, pid)).or_insert(0) += 1;
        parent.first.entry(frame.tag).or_insert(k);
        parent.children = k + 1;
    }

    /// Renumbers the temporary pid space into the DOM's first-encounter
    /// pre-order and returns the final labeling.
    pub fn finish(self) -> StreamLabeling {
        debug_assert!(self.frames.is_empty(), "unbalanced event stream");
        // Two distinct patterns never share a first node, so the minima
        // are unique and the order is total.
        let mut by_pre: Vec<usize> = (0..self.temp.len()).collect();
        by_pre.sort_by_key(|&i| self.first_pre[i]);
        let mut interner = PidInterner::new(self.width);
        let mut remap = vec![Pid::from_index(0); self.temp.len()];
        for &temp_index in &by_pre {
            let final_pid = interner.intern(self.temp.bits(Pid::from_index(temp_index)).clone());
            remap[temp_index] = final_pid;
        }
        StreamLabeling {
            interner,
            remap,
            elements: self.next_pre,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeling;
    use xpe_xml::{parse_document, StreamEvent, StreamParser};

    /// Sink that records everything, for direct comparison with the DOM
    /// tables.
    #[derive(Default)]
    struct Recorder {
        elements: Vec<(TagId, Pid, u64)>,
        after: Vec<(TagId, Pid, TagId)>,
        before: Vec<(TagId, Pid, TagId, u64)>,
    }

    impl StreamSink for Recorder {
        fn element(&mut self, tag: TagId, pid: Pid, pre_index: u64) {
            self.elements.push((tag, pid, pre_index));
        }
        fn sibling_after(&mut self, x: TagId, pid: Pid, y: TagId) {
            self.after.push((x, pid, y));
        }
        fn sibling_before(&mut self, x: TagId, pid: Pid, y: TagId, count: u64) {
            self.before.push((x, pid, y, count));
        }
    }

    fn run_both(input: &str) -> (Labeling, StreamLabeling, Recorder) {
        let doc = parse_document(input).unwrap();
        let dom = Labeling::compute(&doc);

        let mut scan = PathScan::new();
        drive(input, |ev| match ev {
            StreamEvent::Open { name } => scan.open(&name),
            StreamEvent::Close => scan.close(),
            StreamEvent::Text(_) => {}
        });
        let (tags, encoding) = scan.finish();
        let mut labeler = StreamLabeler::new(&tags, &encoding);
        let mut rec = Recorder::default();
        drive(input, |ev| match ev {
            StreamEvent::Open { name } => labeler.open(&name),
            StreamEvent::Close => labeler.close(&mut rec),
            StreamEvent::Text(_) => {}
        });
        (dom, labeler.finish(), rec)
    }

    fn drive(input: &str, mut f: impl FnMut(StreamEvent<'_>)) {
        let mut p = StreamParser::new(input.as_bytes());
        while let Some(ev) = p.next_event().unwrap() {
            f(ev);
        }
    }

    const FIG1: &str = "<Root><A><B><D/><D/><E/></B></A>\
                        <A><B><D/></B><C><E/></C><B><D/></B></A>\
                        <A><C><E/><F/></C></A></Root>";

    #[test]
    fn interner_is_handle_identical_to_dom() {
        for input in [
            FIG1,
            "<only/>",
            "<a><b/><b/><b/></a>",
            "<a><b><a><b/></a></b></a>",
        ] {
            let (dom, stream, _) = run_both(input);
            assert_eq!(dom.interner.len(), stream.interner.len(), "{input}");
            for (pid, bits) in dom.interner.iter() {
                assert_eq!(
                    stream.interner.bits(pid),
                    bits,
                    "pid {pid:?} diverged on {input}"
                );
            }
        }
    }

    #[test]
    fn retired_elements_match_dom_node_pids() {
        let (dom, stream, rec) = run_both(FIG1);
        let doc = parse_document(FIG1).unwrap();
        // Each retired (tag, temp pid, pre) must equal the DOM labeling of
        // the pre-th node after remapping.
        assert_eq!(rec.elements.len(), doc.len());
        for (tag, temp, pre) in rec.elements {
            let node = xpe_xml::NodeId::from_index(pre as usize);
            assert_eq!(doc.tag(node), tag);
            assert_eq!(stream.resolve(temp), dom.pid(node));
        }
    }

    #[test]
    fn sibling_events_match_dom_order_scan() {
        // Mixed same-tag runs, interleavings, single children, text
        // between siblings.
        for input in [
            FIG1,
            "<r><y/><x/><y/></r>",
            "<r><x/><x/><x/></r>",
            "<r><a><b/></a></r>",
            "<r>t<x/> <y/>u<x/></r>",
        ] {
            let doc = parse_document(input).unwrap();
            let dom = Labeling::compute(&doc);
            let (_, stream, rec) = run_both(input);

            // Reference: the DOM first/last scan over every parent.
            let mut expect_after: HashMap<(TagId, Pid, TagId), u64> = HashMap::new();
            let mut expect_before: HashMap<(TagId, Pid, TagId), u64> = HashMap::new();
            for parent in doc.node_ids() {
                let children = doc.children(parent);
                if children.len() < 2 {
                    continue;
                }
                for (k, &c) in children.iter().enumerate() {
                    let tags_after: std::collections::HashSet<TagId> =
                        children[k + 1..].iter().map(|&s| doc.tag(s)).collect();
                    let tags_before: std::collections::HashSet<TagId> =
                        children[..k].iter().map(|&s| doc.tag(s)).collect();
                    for y in tags_after {
                        *expect_before
                            .entry((doc.tag(c), dom.pid(c), y))
                            .or_insert(0) += 1;
                    }
                    for y in tags_before {
                        *expect_after.entry((doc.tag(c), dom.pid(c), y)).or_insert(0) += 1;
                    }
                }
            }

            let mut got_after: HashMap<(TagId, Pid, TagId), u64> = HashMap::new();
            for (x, p, y) in &rec.after {
                *got_after.entry((*x, stream.resolve(*p), *y)).or_insert(0) += 1;
            }
            let mut got_before: HashMap<(TagId, Pid, TagId), u64> = HashMap::new();
            for (x, p, y, n) in &rec.before {
                *got_before.entry((*x, stream.resolve(*p), *y)).or_insert(0) += n;
            }
            assert_eq!(got_after, expect_after, "after diverged on {input}");
            assert_eq!(got_before, expect_before, "before diverged on {input}");
        }
    }
}
