//! Summary construction in one streaming pass: raw XML bytes →
//! [`Summary`], without materializing the document tree.
//!
//! The tokenizer ([`StreamParser`]) drives the one-pass [`StreamLabeler`]
//! and a [`Collector`]. An element's path id and `(tag, pid)` count are
//! final at its close event, and so are the sibling-order facts among its
//! children, which have all closed by then. Live state is the open
//! elements' trimmed rows, their closed children and the output tables —
//! never the node count. The result is **bit-identical** to
//! `Summary::build(parse(input))` (DESIGN.md, "Ingest architecture").

use std::time::Instant;

use xpe_pathid::{Pid, StreamLabeler};
use xpe_xml::{ParseError, StreamEvent, StreamParser, TagId, TagInterner};

use crate::freq::FreqCounts;
use crate::order::SiblingScan;
use crate::summary::{Summary, SummaryConfig};

/// Both exact statistics tables, collected from close events.
#[derive(Default)]
struct Collector {
    freq: FreqCounts,
    order: SiblingScan,
    /// The closed children of every open element, in document order; the
    /// innermost element's run is last.
    children: Vec<(TagId, Pid)>,
    /// Per open element: where its run in `children` starts.
    starts: Vec<usize>,
}

impl Collector {
    fn open(&mut self) {
        self.starts.push(self.children.len());
    }

    /// Retires an element: counts it, scans its children's sibling order,
    /// and files it as a closed child of its parent.
    fn close(&mut self, tag: TagId, pid: Pid, pre: u64) {
        self.freq.add(tag, pid, pre);
        let start = self.starts.pop().expect("close without open");
        self.order.scan(&self.children[start..]);
        self.children.truncate(start);
        self.children.push((tag, pid));
    }
}

impl Summary {
    /// Builds the full summary directly from XML text, bit-identically to
    /// `Summary::build(&parse_document(input)?, config)` but in one pass
    /// and with memory bounded by the open elements instead of the node
    /// count. Malformed input surfaces the same [`ParseError`] the DOM
    /// parser reports.
    ///
    /// Labeling, counting and the sibling scan share the pass, so
    /// `collect_path` times all three; `collect_order` times only the
    /// order table's final pid translation.
    pub fn build_streaming(input: &str, config: SummaryConfig) -> Result<Self, ParseError> {
        let t0 = Instant::now();
        let mut tags = TagInterner::new();
        let mut labeler = StreamLabeler::new();
        let mut collector = Collector::default();
        let mut parser = StreamParser::new(input.as_bytes());
        while let Some(event) = parser.next_event()? {
            match event {
                StreamEvent::Open { name } => {
                    labeler.open(tags.intern(&name));
                    collector.open();
                }
                StreamEvent::Close => {
                    let closed = labeler.close();
                    collector.close(closed.tag, closed.pid, closed.pre);
                }
                StreamEvent::Text(_) => {}
            }
        }
        let labeling = labeler.finish();
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
}
