//! Streaming summary construction: raw XML bytes → [`Summary`], without
//! materializing the document tree.
//!
//! [`Summary::build_streaming`] makes two passes over the input with
//! [`StreamParser`]: pass A ([`xpe_pathid::PathScan`]) fixes the tag
//! vocabulary and the encoding table (and thus the path-id width); pass B
//! ([`xpe_pathid::StreamLabeler`]) labels elements with an open-element
//! stack and retires each one into the accumulators below at its close
//! event. Peak live state is O(depth × width) parser/labeler stack plus
//! the output tables themselves — never O(node count) like the DOM path's
//! arena, per-node pid vector and child lists.
//!
//! The result is **bit-identical** to `Summary::build(parse(input))`:
//! every persisted component either comes out in the same order by
//! construction (tags intern at open events; leaf paths intern at leaf
//! close events, which occur in leaf pre-order) or is explicitly
//! reordered to the DOM's first-encounter pre-order using the minimal
//! pre-order index the labeler tracks per distinct pid (the interner
//! numbering and the frequency-table row order, whose ties the
//! p-histogram's stable sort exposes). The order table is keyed, not
//! ordered, so equal contents suffice.

use std::collections::HashMap;
use std::time::Instant;

use xpe_pathid::{PathIdTree, PathScan, Pid, StreamLabeler, StreamSink};
use xpe_xml::{ParseError, StreamEvent, StreamParser, TagId};

use crate::freq::PathIdFrequencyTable;
use crate::ohistogram::OHistogramSet;
use crate::order::{OrderCell, PathOrderTable};
use crate::phistogram::PHistogramSet;
use crate::rootpids::RootPidIndex;
use crate::summary::{BuildTimings, Summary, SummaryConfig};

/// Accumulates the two exact statistics tables from retirement events.
/// Pids are the labeler's temporary ids until the final remap.
struct StatsSink {
    /// Per tag: pid → (frequency, minimal pre-order index).
    freq: Vec<HashMap<Pid, (u64, u64)>>,
    /// Per tag: the path-order cells.
    order: Vec<HashMap<(Pid, TagId), OrderCell>>,
}

impl StatsSink {
    fn new(tag_count: usize) -> Self {
        StatsSink {
            freq: vec![HashMap::new(); tag_count],
            order: vec![HashMap::new(); tag_count],
        }
    }
}

impl StreamSink for StatsSink {
    fn element(&mut self, tag: TagId, pid: Pid, pre_index: u64) {
        let entry = self.freq[tag.index()].entry(pid).or_insert((0, pre_index));
        entry.0 += 1;
        entry.1 = entry.1.min(pre_index);
    }

    fn sibling_after(&mut self, x: TagId, pid: Pid, y: TagId) {
        self.order[x.index()].entry((pid, y)).or_default().after += 1;
    }

    fn sibling_before(&mut self, x: TagId, pid: Pid, y: TagId, count: u64) {
        self.order[x.index()].entry((pid, y)).or_default().before += count;
    }
}

impl Summary {
    /// Builds the full summary directly from XML text, bit-identically to
    /// `Summary::build(&parse_document(input)?, config)` but with memory
    /// bounded by document depth × distinct-path count instead of node
    /// count. Malformed input surfaces the same [`ParseError`] the DOM
    /// parser reports.
    pub fn build_streaming(input: &str, config: SummaryConfig) -> Result<Self, ParseError> {
        let t0 = Instant::now();

        // Pass A: vocabulary. Fixes tag ids, path encodings, pid width.
        let mut scan = PathScan::new();
        let mut parser = StreamParser::new(input.as_bytes());
        while let Some(event) = parser.next_event()? {
            match event {
                StreamEvent::Open { name } => scan.open(&name),
                StreamEvent::Close => scan.close(),
                StreamEvent::Text(_) => {}
            }
        }
        let (tags, encoding) = scan.finish();

        // Pass B: label and retire every element at its close event.
        let mut labeler = StreamLabeler::new(&tags, &encoding);
        let mut sink = StatsSink::new(tags.len());
        let mut parser = StreamParser::new(input.as_bytes());
        while let Some(event) = parser.next_event()? {
            match event {
                StreamEvent::Open { name } => labeler.open(&name),
                StreamEvent::Close => labeler.close(&mut sink),
                StreamEvent::Text(_) => {}
            }
        }
        let labeling = labeler.finish();
        let collect_path = t0.elapsed();

        // Remap temporary pids to the final pre-order numbering and
        // restore the DOM tables' row orders.
        let t2 = Instant::now();
        let freq_rows: Vec<Vec<(Pid, u64)>> = sink
            .freq
            .into_iter()
            .map(|row| {
                let mut entries: Vec<(Pid, u64, u64)> = row
                    .into_iter()
                    .map(|(temp, (count, min_pre))| (labeling.resolve(temp), count, min_pre))
                    .collect();
                // First-encounter order within the tag = ascending minimal
                // pre-order index (unique per entry: an element has one
                // tag and one pid).
                entries.sort_by_key(|&(_, _, min_pre)| min_pre);
                entries.into_iter().map(|(p, c, _)| (p, c)).collect()
            })
            .collect();
        let freq = PathIdFrequencyTable::from_rows(freq_rows);
        let order_rows: Vec<HashMap<(Pid, TagId), OrderCell>> = sink
            .order
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|((temp, y), cell)| ((labeling.resolve(temp), y), cell))
                    .collect()
            })
            .collect();
        let order = PathOrderTable::from_rows(order_rows);
        let collect_order = t2.elapsed();

        let t1 = Instant::now();
        let phist = PHistogramSet::build(&freq, config.p_variance);
        let build_p = t1.elapsed();
        let t3 = Instant::now();
        let ohist = OHistogramSet::build(&order, &phist, &tags, config.o_variance);
        let build_o = t3.elapsed();

        let pid_tree = PathIdTree::new(&labeling.interner);
        let root_pids = RootPidIndex::build(&encoding, &labeling.interner);
        Ok(Summary {
            tags,
            encoding,
            pids: labeling.interner,
            pid_tree,
            phist,
            ohist,
            config,
            timings: BuildTimings {
                collect_path,
                build_p,
                collect_order,
                build_o,
            },
            root_pids,
        })
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
