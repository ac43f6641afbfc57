//! Summary construction in one streaming pass: raw XML bytes →
//! [`Summary`], without materializing the document tree.
//!
//! The pass runs in two stages joined by a bounded channel. The calling
//! thread tokenizes ([`StreamParser`]) and walks a label-path trie
//! ([`PathTrie`]) along its open elements: each open is matched by name
//! against the children of its parent's node — a scan of the first
//! [`SCAN`](xpe_pathid::SCAN), then the tag interner's keyed map and the
//! trie's id map — and the tag interner runs only when a node is created.
//! Stage 1 packs the element events into fixed-size batches of `u32`
//! codes: an open as its node, an open that creates a node as [`NEW`]
//! with the node's tag (its parent is the innermost open element's node),
//! and a close as [`CLOSE`]. One scoped worker feeds the batches, in
//! document order, to a [`Collector`] — the one-pass [`StreamLabeler`],
//! which grows the same trie from the `NEW` codes, plus both statistics
//! tables — and hands each emptied batch back for reuse. The stages share
//! no mutable state. The worker starts when the first batch fills; a
//! document that fits one batch runs both stages inline through the same
//! [`Collector::feed`].
//!
//! An element's path id and `(tag, pid)` count are final at its close
//! event, and so are the sibling-order facts among its children, which
//! have all closed by then. Live state is the open elements' trimmed rows,
//! their closed children, the trie's nodes, at most [`QUEUE`] + 2 batches
//! and the output tables — never the node count. The collector sees the
//! event sequence a serial pass would, so the result is **bit-identical**
//! to `Summary::build(parse(input))` (DESIGN.md, "Ingest architecture").

use std::panic;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use xpe_pathid::{Closed, PathNode, PathTrie, StreamLabeler};
use xpe_xml::{ParseError, StreamEvent, StreamParser, TagId, TagInterner};

use crate::freq::FreqCounts;
use crate::order::SiblingScan;
use crate::summary::{Summary, SummaryConfig};

/// Element events per batch.
const BATCH: usize = 4096;
/// Full batches the channel holds while the worker is busy.
const QUEUE: usize = 4;
/// The code of a close event.
const CLOSE: u32 = u32::MAX;
/// The flag of an open that creates its trie node; the code's other bits
/// are the node's tag. An open of an existing node is the node's index,
/// which stays below this flag.
const NEW: u32 = 1 << 31;

/// Stage 2: labels every element and collects both exact statistics
/// tables at its close event.
#[derive(Default)]
struct Collector {
    labeler: StreamLabeler,
    freq: FreqCounts,
    order: SiblingScan,
    /// The closed children of every open element, in document order, as
    /// their tags and [`FreqCounts`] cells; the innermost element's run is
    /// last.
    children: Vec<(TagId, u32)>,
    /// Per open element: where its run in `children` starts.
    starts: Vec<usize>,
}

impl Collector {
    /// Feeds a batch of event codes, in document order.
    fn feed(&mut self, batch: &[u32]) {
        for &code in batch {
            if code == CLOSE {
                self.close();
                continue;
            }
            let node = if code & NEW != 0 {
                self.labeler
                    .child(TagId::from_index((code & !NEW) as usize))
            } else {
                PathNode::from_index(code as usize)
            };
            self.labeler.open(node);
            self.starts.push(self.children.len());
        }
    }

    /// Retires an element: labels and counts it, scans its children's
    /// sibling order, and files it as a closed child of its parent.
    fn close(&mut self) {
        let Closed { tag, pid, pre } = self.labeler.close();
        let cell = self.freq.add(tag, pid, pre);
        let start = self.starts.pop().expect("close without open");
        self.order.scan(&self.children[start..]);
        self.children.truncate(start);
        self.children.push((tag, cell));
    }
}

/// Stage 1's walk of the label-path trie: the tags, the trie and the
/// nodes of the open elements.
#[derive(Default)]
struct PathWalk {
    tags: TagInterner,
    trie: PathTrie,
    /// The nodes of the open elements, innermost last.
    stack: Vec<PathNode>,
}

impl PathWalk {
    /// The code of an element named `name` opening under the innermost
    /// open element.
    fn open(&mut self, name: &str) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(PathNode::ROOT);
        let tags = &self.tags;
        let found = self
            .trie
            .scan(parent, |tag| tags.name(tag) == name)
            .or_else(|| tags.get(name).and_then(|tag| self.trie.get(parent, tag)));
        let (node, code) = match found {
            Some(node) => (node, node.index() as u32),
            None => {
                let tag = self.tags.intern(name);
                let node = self.trie.insert(parent, tag);
                assert!(
                    node.index() < NEW as usize && tag.index() < (CLOSE & !NEW) as usize,
                    "too many distinct label paths"
                );
                (node, NEW | tag.index() as u32)
            }
        };
        self.stack.push(node);
        code
    }

    /// The innermost open element closed.
    fn close(&mut self) {
        self.stack.pop();
    }
}

/// Runs both stages over `input` and returns the document's tags with
/// the collector that saw every event. A parse error is returned once the
/// worker has drained what it was sent; a worker panic resumes on the
/// calling thread.
fn collect(input: &str) -> Result<(TagInterner, Collector), ParseError> {
    let mut walk = PathWalk::default();
    let mut parser = StreamParser::new(input);
    // Stage 1: fills `batch` with event codes; `Ok(false)` at the end of
    // the document.
    let mut fill = |batch: &mut Vec<u32>| -> Result<bool, ParseError> {
        while batch.len() < BATCH {
            match parser.next_event()? {
                Some(StreamEvent::Open { name }) => batch.push(walk.open(&name)),
                Some(StreamEvent::Close) => {
                    walk.close();
                    batch.push(CLOSE);
                }
                Some(StreamEvent::Text(_)) => {}
                None => return Ok(false),
            }
        }
        Ok(true)
    };
    let mut batch = Vec::with_capacity(BATCH);
    if !fill(&mut batch)? {
        let mut collector = Collector::default();
        collector.feed(&batch);
        return Ok((walk.tags, collector));
    }
    let (full_tx, full_rx) = mpsc::sync_channel::<Vec<u32>>(QUEUE);
    let (empty_tx, empty_rx) = mpsc::channel();
    let (collector, parsed) = thread::scope(|scope| {
        let worker = scope.spawn(move || {
            let mut collector = Collector::default();
            for mut batch in full_rx {
                collector.feed(&batch);
                batch.clear();
                empty_tx
                    .send(batch)
                    .expect("stage 1 keeps the receiver until the worker is joined");
            }
            collector
        });
        let parsed = loop {
            // A send fails only after the worker panicked; joining it
            // below resumes the panic.
            if full_tx.send(batch).is_err() {
                break Ok(());
            }
            batch = empty_rx
                .try_recv()
                .unwrap_or_else(|_| Vec::with_capacity(BATCH));
            match fill(&mut batch) {
                Ok(true) => {}
                Ok(false) => {
                    let _ = full_tx.send(batch);
                    break Ok(());
                }
                Err(e) => break Err(e),
            }
        };
        drop(full_tx);
        let collector = worker
            .join()
            .unwrap_or_else(|payload| panic::resume_unwind(payload));
        (collector, parsed)
    });
    parsed.map(|()| (walk.tags, collector))
}

impl Summary {
    /// Builds the full summary directly from XML text, bit-identically to
    /// `Summary::build(&parse_document(input)?, config)` but in one pass
    /// on two threads and with memory bounded by the open elements plus a
    /// constant number of event batches instead of the node count.
    /// Malformed input surfaces the same [`ParseError`] the DOM parser
    /// reports.
    ///
    /// Labeling, counting and the sibling scan share the pass, so
    /// `collect_path` times all three; `collect_order` times only the
    /// order table's final pid translation.
    ///
    /// # Panics
    ///
    /// A panic on the worker thread resumes on the calling thread.
    pub fn build_streaming(input: &str, config: SummaryConfig) -> Result<Self, ParseError> {
        let t0 = Instant::now();
        let (tags, collector) = collect(input)?;
        let labeling = collector.labeler.finish();
        let resolve = |temp| labeling.resolve(temp);
        let t2 = Instant::now();
        let order = collector
            .order
            .into_table(tags.len(), &collector.freq, resolve);
        let collect_order = t2.elapsed();
        let freq = collector.freq.into_table(tags.len(), resolve);
        let collect_path = t0.elapsed() - collect_order;

        let mut summary = Summary::from_parts(
            tags,
            labeling.encoding,
            labeling.interner,
            &freq,
            &order,
            config,
        );
        summary.timings.collect_path = collect_path;
        summary.timings.collect_order = collect_order;
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpe_xml::parse_document;

    fn assert_bit_identical(input: &str, config: SummaryConfig) {
        let doc = parse_document(input).unwrap();
        let dom = Summary::build(&doc, config).to_bytes();
        let stream = Summary::build_streaming(input, config).unwrap().to_bytes();
        assert_eq!(dom, stream, "summaries diverged for {input:?}");
    }

    const FIG1: &str = "<Root><A><B><D/><D/><E/></B></A>\
                        <A><B><D/></B><C><E/></C><B><D/></B></A>\
                        <A><C><E/><F/></C></A></Root>";

    #[test]
    fn streaming_build_is_bit_identical_on_figure1() {
        for (pv, ov) in [(0.0, 0.0), (1.0, 2.0), (16.0, 16.0)] {
            assert_bit_identical(
                FIG1,
                SummaryConfig {
                    p_variance: pv,
                    o_variance: ov,
                },
            );
        }
    }

    #[test]
    fn streaming_build_is_bit_identical_on_edge_shapes() {
        for input in [
            "<only/>",
            "<a><b/></a>",
            "<a>text<b/>more<b/>tail</a>",
            "<a><b><a><b><a/></b></a></b></a>",
            "<r><x/><y/><x/><z/><y/><x/></r>",
            "<r>  <x/>\n  <y/>\t<x/>  </r>",
        ] {
            assert_bit_identical(input, SummaryConfig::default());
        }
    }

    /// `fan.xml`'s shape: `<r>`, then `<p><tI/></p>` for `I` in `0..n`,
    /// then the same again in reverse order, so `n` distinct names sit
    /// under the one path `r/p` and every name past the first [`SCAN`] is
    /// found through the trie's map on its second visit.
    ///
    /// [`SCAN`]: xpe_pathid::SCAN
    fn fan_out(n: usize) -> String {
        let mut xml = String::from("<r>");
        for i in (0..n).chain((0..n).rev()) {
            xml.push_str(&format!("<p><t{i}/></p>"));
        }
        xml.push_str("</r>");
        xml
    }

    /// Shapes that stress the label-path trie: fan-out past the scan
    /// bound, one name on several paths, recursion, a name that is a
    /// prefix of its sibling's, and multi-byte names.
    #[test]
    fn streaming_build_is_bit_identical_on_trie_shapes() {
        let shapes = [
            fan_out(20),
            fan_out(2000),
            "<r><a><x/></a><b><x/><a><x/></a></b><x/></r>".to_owned(),
            "<item><parlist><listitem><parlist><listitem><text/></listitem>\
             </parlist></listitem><listitem><text/></listitem></parlist>\
             <parlist><listitem><parlist/></listitem></parlist></item>"
                .to_owned(),
            "<r><ab/><a/><ab><a/></ab><a><ab/></a><abc/><a/></r>".to_owned(),
            "<é><名前/><名/><é><名前/></é><e/></é>".to_owned(),
        ];
        for xml in &shapes {
            for config in [
                SummaryConfig::default(),
                SummaryConfig {
                    p_variance: 1.5,
                    o_variance: 2.0,
                },
            ] {
                assert_bit_identical(xml, config);
            }
        }
    }

    #[test]
    fn streaming_surfaces_parse_errors() {
        let dom_err = parse_document("<a><b></a>").unwrap_err();
        let stream_err =
            Summary::build_streaming("<a><b></a>", SummaryConfig::default()).unwrap_err();
        assert_eq!(dom_err, stream_err);
    }

    /// A document of `events` element events (two per element): a root
    /// over nested pairs, leaves and text, so a batch boundary falls
    /// between siblings or between an open and its close depending on
    /// the count.
    fn document(events: usize) -> String {
        assert!(events % 2 == 0 && events >= 2, "two events per element");
        let mut xml = String::from("<r>");
        let mut left = events / 2 - 1;
        for i in 0.. {
            match left {
                0 => break,
                2.. if i % 3 == 0 => {
                    xml.push_str("<a><b/></a>");
                    left -= 2;
                }
                _ => {
                    xml.push_str(if i % 2 == 0 { "<c/>" } else { "<d>t</d>" });
                    left -= 1;
                }
            }
        }
        xml.push_str("</r>");
        xml
    }

    /// The inline build (one batch), the first handoff and the steady
    /// state, where stage 1 waits on a full channel, write the DOM build's
    /// bytes. A complete document has an even event count, so one element
    /// fewer or more moves it by two.
    #[test]
    fn batch_boundaries_keep_the_bytes() {
        let several = (QUEUE + 3) * BATCH;
        for events in [
            BATCH - 2,
            BATCH,
            BATCH + 2,
            BATCH + 4,
            several - 2,
            several,
            several + 2,
        ] {
            let xml = document(events);
            let elements = parse_document(&xml).unwrap().len();
            assert_eq!(2 * elements, events, "{events} events");
            assert_bit_identical(&xml, SummaryConfig::default());
        }
    }

    /// A malformed document whose error follows exactly `events` events:
    /// a root, leaves, and an open when the count is even; then either a
    /// mismatched close tag or the end of the input.
    fn malformed(events: usize, truncated: bool) -> String {
        let mut xml = String::from("<r>");
        xml.push_str(&"<c/>".repeat((events - 1) / 2));
        if events % 2 == 0 {
            xml.push_str("<c>");
        }
        if !truncated {
            xml.push_str("</zz>");
        }
        xml
    }

    /// An error just before, on, or just after a batch boundary — with
    /// the worker not yet started, just started, or behind a full
    /// channel — is the DOM parser's error, offset and kind.
    #[test]
    fn errors_at_batch_boundaries_match_the_dom_parser() {
        let several = (QUEUE + 3) * BATCH;
        for events in [
            BATCH - 1,
            BATCH,
            BATCH + 1,
            several - 1,
            several,
            several + 1,
        ] {
            for truncated in [false, true] {
                let xml = malformed(events, truncated);
                let mut parser = StreamParser::new(&xml);
                let mut seen = 0;
                while let Ok(Some(_)) = parser.next_event() {
                    seen += 1;
                }
                assert_eq!(seen, events, "events before the error");
                let dom_err = parse_document(&xml).unwrap_err();
                let stream_err =
                    Summary::build_streaming(&xml, SummaryConfig::default()).unwrap_err();
                assert_eq!(
                    dom_err, stream_err,
                    "{events} events, truncated {truncated}"
                );
            }
        }
    }
}
