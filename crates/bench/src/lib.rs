//! Shared infrastructure for the experiment harness.
//!
//! [`paper`] computes each table and figure of the paper in one function
//! (see DESIGN.md's per-experiment index). Each `tableN`/`figN` binary in
//! `src/bin/` prints a header line and calls one of them; `paper_run`
//! calls all ten on one set of dataset bundles. This library also
//! provides the common pieces: dataset loading, variance sweeps, error
//! measurement and plain-text table rendering.
//!
//! Scale and workload size are configurable through environment variables
//! so the same binaries serve quick checks and full-scale runs:
//!
//! * `XPE_SCALE` — dataset scale, 1.0 ≈ the paper's corpus sizes
//!   (default 0.05);
//! * `XPE_ATTEMPTS` — query-generation attempts per class (default 1200;
//!   the paper used 4000);
//! * `XPE_SEED` — RNG seed (default 42);
//! * `XPE_JOBS` — worker threads of the estimation engine the experiment
//!   binaries score with (0 = one per core, the default).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;

use std::time::Instant;

use xpe_core::{mean_relative_error, EstimationEngine};
use xpe_datagen::{generate_workload, Dataset, DatasetSpec, QueryCase, Workload, WorkloadConfig};
use xpe_pathid::Labeling;
use xpe_synopsis::{PathIdFrequencyTable, PathOrderTable, Summary, SummaryConfig};
use xpe_xml::Document;
use xpe_xpath::Query;

/// Experiment-wide knobs, read from the environment.
#[derive(Clone, Copy, Debug)]
pub struct ExpContext {
    /// Dataset scale (1.0 = paper size).
    pub scale: f64,
    /// Query-generation attempts per class.
    pub attempts: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for batched estimation (0 = one per core).
    pub jobs: usize,
}

impl ExpContext {
    /// Reads `XPE_SCALE`, `XPE_ATTEMPTS`, `XPE_SEED` and `XPE_JOBS`.
    pub fn from_env() -> Self {
        fn var<T: std::str::FromStr>(name: &str, default: T) -> T {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        ExpContext {
            scale: var("XPE_SCALE", 0.05),
            attempts: var("XPE_ATTEMPTS", 1200),
            seed: var("XPE_SEED", 42),
            jobs: var("XPE_JOBS", 0),
        }
    }
}

/// A dataset instantiated for experiments: document, labeling, workload.
pub struct DatasetBundle {
    /// Which corpus.
    pub dataset: Dataset,
    /// The synthesized document.
    pub doc: Document,
    /// Its path-id labeling.
    pub labeling: Labeling,
    /// The §7 query workload with exact ground truth.
    pub workload: Workload,
    /// Exact pathId-frequency table (cached for variance sweeps).
    pub freq: PathIdFrequencyTable,
    /// Exact path-order table (cached for variance sweeps).
    pub order: PathOrderTable,
    /// Wall-clock seconds spent generating + evaluating the workload.
    pub workload_secs: f64,
    /// Seconds spent collecting the exact pathId-frequency table.
    pub collect_path_secs: f64,
    /// Seconds spent collecting the exact path-order table.
    pub collect_order_secs: f64,
}

/// Generates the document and workload for one dataset.
pub fn load(ctx: &ExpContext, dataset: Dataset) -> DatasetBundle {
    let doc = DatasetSpec {
        dataset,
        scale: ctx.scale,
        seed: ctx.seed,
    }
    .generate();
    let labeling = Labeling::compute(&doc);
    let t0 = Instant::now();
    let workload = generate_workload(
        &doc,
        &labeling.encoding,
        &WorkloadConfig {
            seed: ctx.seed,
            simple_attempts: ctx.attempts,
            branch_attempts: ctx.attempts,
            ..WorkloadConfig::default()
        },
    );
    let workload_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let freq = PathIdFrequencyTable::build(&doc, &labeling);
    let collect_path_secs = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let order = PathOrderTable::build(&doc, &labeling);
    let collect_order_secs = t2.elapsed().as_secs_f64();
    DatasetBundle {
        dataset,
        doc,
        labeling,
        workload,
        freq,
        order,
        workload_secs,
        collect_path_secs,
        collect_order_secs,
    }
}

impl DatasetBundle {
    /// The workload's queries without order axes: simple, then branch.
    pub fn without_order(&self) -> Vec<QueryCase> {
        let w = &self.workload;
        w.simple.iter().chain(&w.branch).cloned().collect()
    }
}

/// Generates the document and workload for every dataset, in
/// [`Dataset::ALL`] order.
pub fn load_all(ctx: &ExpContext) -> Vec<DatasetBundle> {
    Dataset::ALL.iter().map(|&d| load(ctx, d)).collect()
}

/// Builds a summary for a bundle at the given variances from the cached
/// exact statistics (only the histograms are rebuilt).
pub fn summary_at(bundle: &DatasetBundle, p_variance: f64, o_variance: f64) -> Summary {
    Summary::from_statistics(
        bundle.doc.tags(),
        &bundle.labeling,
        &bundle.freq,
        &bundle.order,
        SummaryConfig {
            p_variance,
            o_variance,
        },
    )
}

/// Mean relative error of the engine's estimates over a set of cases,
/// fanned across the engine's workers (bit-identical to a serial
/// estimate loop).
pub fn workload_error(engine: &EstimationEngine<'_>, cases: &[QueryCase]) -> f64 {
    let queries: Vec<Query> = cases.iter().map(|c| c.query.clone()).collect();
    let estimates = engine.estimate_batch(&queries);
    mean_relative_error(estimates.into_iter().zip(cases.iter().map(|c| c.actual)))
        .unwrap_or(f64::NAN)
}

/// Mean relative error of an arbitrary estimation function.
pub fn workload_error_with<F: FnMut(&QueryCase) -> f64>(cases: &[QueryCase], mut f: F) -> f64 {
    mean_relative_error(cases.iter().map(|c| (f(c), c.actual))).unwrap_or(f64::NAN)
}

/// The p-histogram variance sweep used across figures.
pub const P_VARIANCES: [f64; 8] = [0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0];

/// The o-histogram variance sweep used across figures.
pub const O_VARIANCES: [f64; 8] = [0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0];

/// Renders a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats bytes as KB with two decimals (the paper's unit).
pub fn kb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / 1024.0)
}

/// Formats a fraction as a percentage-style relative error.
pub fn err(e: f64) -> String {
    if e.is_nan() {
        "n/a".to_owned()
    } else {
        format!("{e:.3}")
    }
}

/// Formats seconds adaptively.
pub fn secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(kb(1024), "1.00");
        assert_eq!(kb(1536), "1.50");
        assert_eq!(err(0.12345), "0.123");
        assert_eq!(err(f64::NAN), "n/a");
        assert_eq!(secs(0.0000005), "0.5 µs");
        assert_eq!(secs(0.005), "5.00 ms");
        assert_eq!(secs(2.5), "2.50 s");
    }

    #[test]
    fn context_defaults_without_env() {
        // Only assert the defaults used when the variables are absent in
        // this test process.
        if std::env::var("XPE_SCALE").is_err() {
            let ctx = ExpContext::from_env();
            assert_eq!(ctx.scale, 0.05);
            assert_eq!(ctx.attempts, 1200);
            assert_eq!(ctx.seed, 42);
        }
        if std::env::var("XPE_JOBS").is_err() {
            assert_eq!(ExpContext::from_env().jobs, 0);
        }
    }

    #[test]
    fn small_bundle_loads_and_scores() {
        let ctx = ExpContext {
            scale: 0.01,
            attempts: 60,
            seed: 7,
            jobs: 2,
        };
        let b = load(&ctx, Dataset::SSPlays);
        assert!(!b.workload.simple.is_empty());
        let s = summary_at(&b, 0.0, 0.0);
        let engine = EstimationEngine::new(&s).with_threads(ctx.jobs);
        let e = workload_error(&engine, &b.workload.simple);
        assert!(e.is_finite());
        assert!(e < 0.05, "simple error {e} at v=0");
        // The batch scorer agrees with a serial estimate loop exactly.
        let est = xpe_core::Estimator::new(&s);
        let serial = workload_error_with(&b.workload.simple, |c| est.estimate(&c.query));
        assert_eq!(e.to_bits(), serial.to_bits());
        let e2 = workload_error_with(&b.workload.simple, |c| c.actual as f64);
        assert_eq!(e2, 0.0, "oracle function has zero error");
    }
}
