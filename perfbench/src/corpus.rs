//! The shared XMark corpus: one document, its §7 query workload with
//! exact selectivities, the summary `xpe build` writes for it with
//! default flags, and the reference estimate every answer is checked
//! against.
//!
//! The corpus is fixed (dataset seed [`CORPUS_SEED`]) so `serve_zipf` and
//! `engine_unique` always measure the same 2,058 distinct queries; the
//! benchmark's `--seed` drives the traffic trace, the query order and
//! the ingested document instead.

use std::collections::HashSet;

use xpe::datagen::{generate_workload, xmark, Workload, WorkloadConfig};
use xpe::estimator::{relative_error, Estimator, JoinKernel};
use xpe::pathid::Labeling;
use xpe::synopsis::{Summary, SummaryConfig};
use xpe::xpath::Query;

/// XMark scale of the shared corpus (11.5k elements, 254 KB).
pub const SCALE: f64 = 0.05;
/// Dataset and workload seed of the shared corpus.
pub const CORPUS_SEED: u64 = 42;
/// §7 generation attempts per class.
pub const ATTEMPTS: usize = 1200;

/// One distinct workload query.
pub struct Case {
    /// The parsed query.
    pub query: Query,
    /// Canonical text, as sent on the wire.
    pub text: String,
    /// Exact selectivity from the workload.
    pub actual: u64,
    /// Figure-3 reference estimate; every served answer must equal it
    /// bit for bit.
    pub reference: f64,
}

/// The corpus, generated and checked in untimed set-up.
pub struct Corpus {
    /// The document as XML text.
    pub xml: String,
    /// The §7 workload the traffic generator draws from.
    pub workload: Workload,
    /// In-process `Summary::build(..).to_bytes()` with default config.
    pub xps: Vec<u8>,
    /// Every distinct query of the workload, in workload order.
    pub cases: Vec<Case>,
    /// Simple queries checked exact under Theorem 4.1.
    pub exact_checked: usize,
}

impl Corpus {
    /// Generates the corpus and computes the reference estimates with
    /// the paper's Figure-3 kernel and no caches. Fails if a simple
    /// query over non-recursive tags misses its exact count.
    pub fn load() -> Result<Corpus, String> {
        let doc = xmark::generate(SCALE, CORPUS_SEED);
        let labeling = Labeling::compute(&doc);
        let workload = generate_workload(
            &doc,
            &labeling.encoding,
            &WorkloadConfig {
                seed: CORPUS_SEED,
                simple_attempts: ATTEMPTS,
                branch_attempts: ATTEMPTS,
                ..WorkloadConfig::default()
            },
        );
        let summary = Summary::build(&doc, SummaryConfig::default());
        let naive = Estimator::new(&summary).with_kernel(JoinKernel::Naive);

        // Theorem 4.1 holds on non-recursive data: a tag that repeats on
        // some root-to-leaf path (XMark's parlist/listitem) lets distinct
        // depths pass the pairwise containment tests.
        let mut recursive = HashSet::new();
        for (_, path) in labeling.encoding.iter() {
            let mut seen = HashSet::new();
            for &tag in path.iter() {
                if !seen.insert(tag) {
                    recursive.insert(doc.tags().name(tag).to_owned());
                }
            }
        }

        let mut texts = HashSet::new();
        let mut cases = Vec::new();
        let mut exact_checked = 0;
        let simple = workload.simple.iter().map(|c| (c, true));
        let rest = workload
            .branch
            .iter()
            .chain(&workload.order_branch)
            .chain(&workload.order_trunk)
            .map(|c| (c, false));
        for (case, is_simple) in simple.chain(rest) {
            if !texts.insert(case.text.clone()) {
                continue;
            }
            let reference = naive.estimate(&case.query);
            let non_recursive = case
                .query
                .node_ids()
                .all(|n| !recursive.contains(&case.query.node(n).tag));
            if is_simple && non_recursive {
                if reference != case.actual as f64 {
                    return Err(format!(
                        "Theorem 4.1: simple query {} estimated {reference}, exact {}",
                        case.text, case.actual
                    ));
                }
                exact_checked += 1;
            }
            cases.push(Case {
                query: case.query.clone(),
                text: case.text.clone(),
                actual: case.actual,
                reference,
            });
        }
        Ok(Corpus {
            xml: xpe::xml::to_string(&doc),
            workload,
            xps: summary.to_bytes(),
            cases,
            exact_checked,
        })
    }

    /// Relative error of one case's reference estimate.
    pub fn error_of(case: &Case) -> f64 {
        relative_error(case.reference, case.actual)
    }
}
