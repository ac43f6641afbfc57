//! Statistical summaries of the ICDE'06 XPath estimation system.
//!
//! Two exact statistics are collected from a labeled document (paper §3):
//!
//! * [`PathIdFrequencyTable`] — per tag, every path id and its frequency;
//! * [`PathOrderTable`] — per tag and path id, how many elements occur
//!   before/after each sibling tag.
//!
//! Both are then compressed into variance-bounded histograms (paper §6):
//!
//! * [`PHistogram`] / [`PHistogramSet`] — buckets over the
//!   frequency-sorted pathId list (Algorithm 1);
//! * [`OHistogram`] / [`OHistogramSet`] — rectangular buckets over the
//!   sparse path-order grid (Algorithm 2).
//!
//! [`Summary`] bundles the histograms with the tag dictionary, the
//! encoding table and the path ids: exactly what a `.xps` file stores,
//! the complete data structure the estimator queries, with per-phase
//! construction timings and the byte accounting used to reproduce Tables
//! 3–5 and Figure 9 (which builds the compressed path-id binary tree to
//! count its bytes).
//!
//! # Example
//!
//! ```
//! use xpe_synopsis::{Summary, SummaryConfig};
//!
//! let doc = xpe_xml::fixtures::paper_figure1();
//! let summary = Summary::build(&doc, SummaryConfig::default());
//!
//! // At variance 0 the p-histogram stores exact frequencies:
//! let d = summary.phistogram("D").unwrap();
//! let total: f64 = d.entries().map(|(_, f)| f).sum();
//! assert_eq!(total, 4.0); // four D elements in Figure 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod freq;
mod ohistogram;
mod order;
mod persist;
mod phistogram;
mod stream;
mod summary;

pub use freq::PathIdFrequencyTable;
pub use ohistogram::{OBucket, OHistogram, OHistogramSet, Region};
pub use order::{OrderCell, PathOrderTable};
pub use persist::LoadError;
pub use phistogram::{PBucket, PHistogram, PHistogramSet};
pub use summary::{BuildTimings, Summary, SummaryConfig, SummarySizes};
