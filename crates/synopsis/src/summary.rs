//! The complete estimation summary: everything the estimator keeps after
//! the document itself is thrown away.
//!
//! Mirrors the paper's storage layout: encoding table + path ids +
//! p-histograms for path information, and o-histograms for order
//! information. A [`Summary`] holds exactly what the `.xps` file stores;
//! the paper's compressed path-id binary tree is built only to count its
//! bytes ([`Summary::sizes`]), and the join's indexes live in a
//! per-summary [`JoinIndexCache`](xpe_pathid::JoinIndexCache), built
//! where queries need them.
//! Construction is timed per phase so the harness can reproduce Tables 4
//! and 5.

use std::time::{Duration, Instant};

use xpe_pathid::{EncodingTable, Labeling, PathIdTree, Pid, PidInterner};
use xpe_xml::{Document, TagId, TagInterner};

use crate::freq::PathIdFrequencyTable;
use crate::ohistogram::{OHistogramSet, Region};
use crate::order::PathOrderTable;
use crate::phistogram::{PHistogram, PHistogramSet};

/// Construction thresholds (paper: p-histogram variance 0–2 and o-histogram
/// variance 0–4 "typically perform well").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SummaryConfig {
    /// Intra-bucket deviation bound for p-histograms.
    pub p_variance: f64,
    /// Intra-bucket deviation bound for o-histograms.
    pub o_variance: f64,
}

/// Wall-clock cost of each construction phase (Tables 4 and 5).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimings {
    /// Labeling the document and collecting the pathId-frequency table
    /// (Table 4 "Collecting Path Time").
    pub collect_path: Duration,
    /// Building all p-histograms (Table 4 "P-Histo Construction Time").
    pub build_p: Duration,
    /// Collecting the path-order table (Table 5 "Collecting Order Time").
    pub collect_order: Duration,
    /// Building all o-histograms (Table 5 "O-Histo Construction Time").
    pub build_o: Duration,
}

/// Byte sizes of every summary component (Tables 3–5, Figure 9).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SummarySizes {
    /// Encoding table.
    pub encoding_table: usize,
    /// Flat path-id table (for comparison with the tree).
    pub pid_table: usize,
    /// Compressed path-id binary tree.
    pub pid_tree: usize,
    /// All p-histograms.
    pub p_histograms: usize,
    /// All o-histograms.
    pub o_histograms: usize,
}

impl SummarySizes {
    /// Memory the proposed method needs for queries *without* order axes
    /// (what Figure 11 plots against XSketch): encoding table + pid tree +
    /// p-histograms.
    pub fn path_total(&self) -> usize {
        self.encoding_table + self.pid_tree + self.p_histograms
    }

    /// Everything, including order summaries.
    pub fn total(&self) -> usize {
        self.path_total() + self.o_histograms
    }
}

/// The estimation summary of one document.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Tag dictionary (shared vocabulary with the source document).
    pub tags: TagInterner,
    /// Distinct root-to-leaf paths.
    pub encoding: EncodingTable,
    /// Distinct path ids.
    pub pids: PidInterner,
    /// Path summaries.
    pub phist: PHistogramSet,
    /// Order summaries.
    pub ohist: OHistogramSet,
    /// Thresholds used at construction.
    pub config: SummaryConfig,
    /// Wall-clock phase costs.
    pub timings: BuildTimings,
}

impl Summary {
    /// Builds the full summary for `doc`.
    pub fn build(doc: &Document, config: SummaryConfig) -> Self {
        let t0 = Instant::now();
        let labeling = Labeling::compute(doc);
        let freq = PathIdFrequencyTable::build(doc, &labeling);
        let collect_path = t0.elapsed();
        let t2 = Instant::now();
        let order = PathOrderTable::build(doc, &labeling);
        let collect_order = t2.elapsed();
        let mut summary = Self::from_parts(
            doc.tags().clone(),
            labeling.encoding,
            labeling.interner,
            &freq,
            &order,
            config,
        );
        summary.timings.collect_path = collect_path;
        summary.timings.collect_order = collect_order;
        summary
    }

    /// Builds a summary from already collected exact statistics — the
    /// cheapest path for variance sweeps over large documents (only the
    /// histograms are rebuilt). `collect_*` timings are zero; the
    /// histogram-construction timings are measured.
    pub fn from_statistics(
        tags: &TagInterner,
        labeling: &Labeling,
        freq: &PathIdFrequencyTable,
        order: &PathOrderTable,
        config: SummaryConfig,
    ) -> Self {
        Self::from_parts(
            tags.clone(),
            labeling.encoding.clone(),
            labeling.interner.clone(),
            freq,
            order,
            config,
        )
    }

    /// Builds the histograms over the exact statistics and assembles the
    /// summary; `collect_*` timings are zero.
    pub(crate) fn from_parts(
        tags: TagInterner,
        encoding: EncodingTable,
        pids: PidInterner,
        freq: &PathIdFrequencyTable,
        order: &PathOrderTable,
        config: SummaryConfig,
    ) -> Self {
        let t1 = Instant::now();
        let phist = PHistogramSet::build(freq, config.p_variance);
        let build_p = t1.elapsed();
        let t3 = Instant::now();
        let ohist = OHistogramSet::build(order, &phist, &tags, config.o_variance);
        let build_o = t3.elapsed();
        Summary {
            tags,
            encoding,
            pids,
            phist,
            ohist,
            config,
            timings: BuildTimings {
                collect_path: Duration::ZERO,
                build_p,
                collect_order: Duration::ZERO,
                build_o,
            },
        }
    }

    /// The p-histogram of `tag`, or `None` for a tag absent from the
    /// document (whose selectivity is trivially zero).
    pub fn phistogram(&self, tag: &str) -> Option<&PHistogram> {
        self.tags.get(tag).map(|t| self.phist.histogram(t))
    }

    /// Total (histogram-estimated) frequency of `tag` across every path
    /// id — the hard ceiling any selectivity estimate for a `tag`-target
    /// query may reach, since a query target never selects more nodes than
    /// the document holds of its tag. Zero for absent tags.
    pub fn tag_total(&self, tag: &str) -> f64 {
        self.phistogram(tag)
            .map(|h| h.entries().map(|(_, f)| f).sum())
            .unwrap_or(0.0)
    }

    /// Estimated `g(pid, y_tag)` from the order summaries.
    pub fn order_count(&self, x_tag: TagId, pid: Pid, y_tag: TagId, region: Region) -> f64 {
        self.ohist.count(x_tag, pid, y_tag, region)
    }

    /// Byte sizes of every component. The compressed path-id tree is
    /// built here to count its bytes; nothing else reads it.
    pub fn sizes(&self) -> SummarySizes {
        SummarySizes {
            encoding_table: self.encoding.size_bytes(),
            pid_table: self.pids.table_size_bytes(),
            pid_tree: PathIdTree::new(&self.pids).size_bytes(),
            p_histograms: self.phist.size_bytes(),
            o_histograms: self.ohist.size_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_consistent_summary() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let s = Summary::build(&doc, SummaryConfig::default());
        assert_eq!(s.encoding.len(), 4);
        assert_eq!(s.pids.len(), 9);
        let sizes = s.sizes();
        assert_eq!(sizes.pid_tree, PathIdTree::new(&s.pids).size_bytes());
        assert!(sizes.encoding_table > 0);
        assert!(sizes.p_histograms > 0);
        assert!(sizes.o_histograms > 0);
        assert_eq!(
            sizes.total(),
            sizes.encoding_table + sizes.pid_tree + sizes.p_histograms + sizes.o_histograms
        );
    }

    #[test]
    fn histogram_lookup_through_summary() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let s = Summary::build(&doc, SummaryConfig::default());
        let d_hist = s.phistogram("D").unwrap();
        // D occurs 4 times with one pid.
        let total: f64 = d_hist.entries().map(|(_, f)| f).sum();
        assert_eq!(total, 4.0);
        assert!(s.phistogram("Nope").is_none());
        assert_eq!(s.tag_total("D"), 4.0);
        assert_eq!(s.tag_total("Nope"), 0.0);
    }

    #[test]
    fn variance_trades_size_for_accuracy() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let exact = Summary::build(
            &doc,
            SummaryConfig {
                p_variance: 0.0,
                o_variance: 0.0,
            },
        );
        let coarse = Summary::build(
            &doc,
            SummaryConfig {
                p_variance: 10.0,
                o_variance: 10.0,
            },
        );
        assert!(coarse.sizes().p_histograms <= exact.sizes().p_histograms);
        assert!(coarse.sizes().o_histograms <= exact.sizes().o_histograms);
    }

    #[test]
    fn statistics_build_matches_fresh_build() {
        let doc = xpe_xml::fixtures::paper_figure1();
        let labeling = Labeling::compute(&doc);
        let cfg = SummaryConfig {
            p_variance: 1.0,
            o_variance: 2.0,
        };
        let fresh = Summary::build(&doc, cfg);
        let freq = PathIdFrequencyTable::build(&doc, &labeling);
        let order = PathOrderTable::build(&doc, &labeling);
        let rebuilt = Summary::from_statistics(doc.tags(), &labeling, &freq, &order, cfg);
        assert_eq!(fresh.to_bytes(), rebuilt.to_bytes());
    }
}
