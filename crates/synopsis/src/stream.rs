//! Summary construction in one streaming pass: raw XML bytes →
//! [`Summary`], without materializing the document tree.
//!
//! The pass runs in two stages joined by a bounded channel. The calling
//! thread tokenizes ([`StreamParser`]) and interns tag names, packing the
//! element events into fixed-size batches of `u32` codes: an open as its
//! tag id, a close as [`CLOSE`], which no tag id can take. One scoped
//! worker feeds the batches, in document order, to a [`Collector`] — the
//! one-pass [`StreamLabeler`] plus both statistics tables — and hands each
//! emptied batch back for reuse. The worker starts when the first batch
//! fills; a document that fits one batch runs both stages inline through
//! the same [`Collector::feed`].
//!
//! An element's path id and `(tag, pid)` count are final at its close
//! event, and so are the sibling-order facts among its children, which
//! have all closed by then. Live state is the open elements' trimmed rows,
//! their closed children, at most [`QUEUE`] + 2 batches and the output
//! tables — never the node count. The collector sees the event sequence a
//! serial pass would, so the result is **bit-identical** to
//! `Summary::build(parse(input))` (DESIGN.md, "Ingest architecture").

use std::panic;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use xpe_pathid::{Closed, Pid, StreamLabeler};
use xpe_xml::{ParseError, StreamEvent, StreamParser, TagId, TagInterner};

use crate::freq::FreqCounts;
use crate::order::SiblingScan;
use crate::summary::{Summary, SummaryConfig};

/// Element events per batch.
const BATCH: usize = 4096;
/// Full batches the channel holds while the worker is busy.
const QUEUE: usize = 4;
/// The code of a close event; an open's code is its tag id.
const CLOSE: u32 = u32::MAX;

/// Stage 2: labels every element and collects both exact statistics
/// tables at its close event.
#[derive(Default)]
struct Collector {
    labeler: StreamLabeler,
    freq: FreqCounts,
    order: SiblingScan,
    /// The closed children of every open element, in document order; the
    /// innermost element's run is last.
    children: Vec<(TagId, Pid)>,
    /// Per open element: where its run in `children` starts.
    starts: Vec<usize>,
}

impl Collector {
    /// Feeds a batch of event codes, in document order.
    fn feed(&mut self, batch: &[u32]) {
        for &code in batch {
            if code == CLOSE {
                self.close();
            } else {
                self.labeler.open(TagId::from_index(code as usize));
                self.starts.push(self.children.len());
            }
        }
    }

    /// Retires an element: labels and counts it, scans its children's
    /// sibling order, and files it as a closed child of its parent.
    fn close(&mut self) {
        let Closed { tag, pid, pre } = self.labeler.close();
        self.freq.add(tag, pid, pre);
        let start = self.starts.pop().expect("close without open");
        self.order.scan(&self.children[start..]);
        self.children.truncate(start);
        self.children.push((tag, pid));
    }
}

/// Runs both stages over `input` and returns the document's tags with
/// the collector that saw every event. A parse error is returned once the
/// worker has drained what it was sent; a worker panic resumes on the
/// calling thread.
fn collect(input: &str) -> Result<(TagInterner, Collector), ParseError> {
    let mut tags = TagInterner::new();
    let mut parser = StreamParser::new(input.as_bytes());
    // Stage 1: fills `batch` with event codes; `Ok(false)` at the end of
    // the document.
    let mut fill = |batch: &mut Vec<u32>| -> Result<bool, ParseError> {
        while batch.len() < BATCH {
            match parser.next_event()? {
                Some(StreamEvent::Open { name }) => {
                    let tag = tags.intern(&name).index();
                    assert!(tag < CLOSE as usize, "too many distinct tags");
                    batch.push(tag as u32);
                }
                Some(StreamEvent::Close) => batch.push(CLOSE),
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
        return Ok((tags, collector));
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
    parsed.map(|()| (tags, collector))
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
        let freq = collector.freq.into_table(tags.len(), resolve);
        let collect_path = t0.elapsed();

        let t2 = Instant::now();
        let order = collector.order.into_table(tags.len(), resolve);
        let collect_order = t2.elapsed();

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
                let mut parser = StreamParser::new(xml.as_bytes());
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
