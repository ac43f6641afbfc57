//! `ingest_xmark`: `xpe build` with default flags on a generated XMark
//! document, writing a `.xps`.
//!
//! Construction is the paper's Table 4–5 cost, and this is the only
//! workload where the XML parser, the path-id labeling and the summary
//! builders do the work; the estimate layers are idle. The document is
//! generated from the seed at [`INGEST_SCALE`]; set-up also runs
//! `xpe build` on the shared corpus, whose `.xps` the other workloads
//! decode, and scores that summary's accuracy.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use xpe::datagen::xmark;
use xpe::estimator::EstimationEngine;
use xpe::pathid::Labeling;
use xpe::synopsis::{PathIdFrequencyTable, PathOrderTable, Summary, SummaryConfig};
use xpe::xml::parse_document;

use crate::corpus::Corpus;
use crate::trace::{layer_totals, Tracer};
use crate::{sys, Opts, Report};

/// XMark scale of the ingested document (116k elements, 2.5 MB).
pub const INGEST_SCALE: f64 = 0.5;
/// Percentile of set-up and build times behind `setup_s` and
/// `throughput`; see [`crate::batch_timings`].
const TIMING_PER_MILLE: usize = 900;

/// Runs `xpe build input -o output` with default flags; `Ok(false)` if
/// the build exited non-zero.
fn build(xpe: &Path, input: &Path, output: &Path) -> Result<bool, String> {
    let status = Command::new(xpe)
        .arg("build")
        .arg(input)
        .arg("-o")
        .arg(output)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running {}: {e}", xpe.display()))?;
    Ok(status.success())
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Builds the shared corpus with `xpe build`, checks the file against
/// the in-process bytes and its decoded estimates against the
/// references. Returns whether everything matched.
fn check_corpus_build(opts: &Opts, corpus: &Corpus) -> Result<bool, String> {
    let input = opts.workdir.join("corpus.xml");
    let output = opts.workdir.join("corpus.xps");
    write(&input, corpus.xml.as_bytes())?;
    if !build(&opts.xpe, &input, &output)? {
        return Err("xpe build failed on the shared corpus".into());
    }
    let written = read(&output)?;
    if written != corpus.xps {
        eprintln!("error: xpe build wrote a corpus .xps unlike Summary::build(..).to_bytes()");
        return Ok(false);
    }
    let decoded = Summary::from_bytes(&written).map_err(|e| format!("decoding corpus: {e}"))?;
    let engine = EstimationEngine::new(&decoded).with_estimate_cache_capacity(0);
    let queries: Vec<_> = corpus.cases.iter().map(|c| c.query.clone()).collect();
    let matched = engine
        .estimate_batch(&queries)
        .iter()
        .zip(&corpus.cases)
        .all(|(v, c)| v.to_bits() == c.reference.to_bits());
    Ok(matched)
}

/// Replays one build in process with a span around each construction
/// layer; returns the encoded bytes.
fn traced_replay(xml: &str, tracer: &mut Tracer) -> Result<Vec<u8>, String> {
    let doc = tracer
        .span("xml.parse", || parse_document(xml))
        .map_err(|e| format!("parsing: {e}"))?;
    let labeling = tracer.span("pathid.label", || Labeling::compute(&doc));
    let freq = tracer.span("synopsis.freq", || {
        PathIdFrequencyTable::build(&doc, &labeling)
    });
    let order = tracer.span("synopsis.order", || PathOrderTable::build(&doc, &labeling));
    let summary = tracer.span("synopsis.histogram", || {
        Summary::from_statistics(
            doc.tags(),
            &labeling,
            &freq,
            &order,
            SummaryConfig::default(),
        )
    });
    Ok(tracer.span("synopsis.encode", || summary.to_bytes()))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let doc = xmark::generate(INGEST_SCALE, opts.seed);
    let elements = doc.len();
    let xml = xpe::xml::to_string(&doc);
    drop(doc);
    let parsed = parse_document(&xml).map_err(|e| format!("parsing generated XML: {e}"))?;
    let expected = Summary::build(&parsed, SummaryConfig::default()).to_bytes();
    drop(parsed);
    Summary::from_bytes(&expected).map_err(|e| format!("decoding expected summary: {e}"))?;
    let input = opts.workdir.join("ingest.xml");
    let output = opts.workdir.join("ingest.xps");
    write(&input, xml.as_bytes())?;

    let corpus = Corpus::load()?;
    let mut report = Report {
        correct: check_corpus_build(opts, &corpus)?,
        ..Report::default()
    };

    // Set-up is the fixed cost of one invocation: `xpe build` on a
    // one-element document, timed before every build so its samples
    // spread over the whole run.
    let tiny_in = opts.workdir.join("tiny.xml");
    let tiny_out = opts.workdir.join("tiny.xps");
    write(&tiny_in, b"<site/>")?;
    let mut setup_s = Vec::new();

    report.param_str("dataset", "XMark");
    report.param("scale", INGEST_SCALE);
    report.param("elements", elements);
    report.param("xml_bytes", xml.len());

    // A traced run alternates untraced builds with traced ones: the real
    // build as one span, then the same document through each
    // construction layer in process.
    let mut tracer = Tracer::new(Instant::now());
    let mut times = Vec::new();
    let mut traced_secs = Vec::new();
    let start = Instant::now();
    loop {
        let sampled = !times.is_empty() && (!opts.trace || !traced_secs.is_empty());
        if sampled && start.elapsed() >= opts.seconds {
            break;
        }
        let t = Instant::now();
        if !build(&opts.xpe, &tiny_in, &tiny_out)? {
            return Err("xpe build failed on a one-element document".into());
        }
        setup_s.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        let traced = opts.trace && times.len() > traced_secs.len();
        let t = Instant::now();
        tracer.set_request(report.attempted);
        let span = traced.then(|| tracer.open("ingest.build"));
        let ok = build(&opts.xpe, &input, &output)?;
        let secs = t.elapsed().as_secs_f64();
        if let Some(span) = span {
            tracer.close(span);
        }
        if !ok {
            report.failed += 1;
            continue;
        }
        if read(&output)? != expected {
            eprintln!("error: xpe build wrote a .xps unlike Summary::build(..).to_bytes()");
            report.correct = false;
        }
        if !traced {
            times.push(secs);
            continue;
        }
        if traced_replay(&xml, &mut tracer)? != expected {
            return Err("in-process construction disagrees with xpe build".into());
        }
        traced_secs.push(t.elapsed().as_secs_f64());
    }

    if !opts.trace {
        crate::batch_timings(
            &mut report,
            &setup_s,
            &times,
            elements as f64,
            TIMING_PER_MILLE,
        );
        let mb_per_element = xml.len() as f64 / elements as f64 / 1e6;
        report.param("build_mb_s", report.metrics["throughput"] * mb_per_element);
        crate::error_metrics(&mut report, crate::unweighted_errors(corpus.cases.iter()));
        report.metric("summary_bytes", expected.len() as f64);
        report.metric("peak_rss_mb", sys::children_peak_rss_mb());
        return Ok(report);
    }

    let builds = traced_secs.len() as f64;
    let untraced_rate = times.len() as f64 / times.iter().sum::<f64>();
    let traced_rate = builds / traced_secs.iter().sum::<f64>();
    report.param("traced_builds", builds);
    let totals = layer_totals(tracer.spans());
    let per_build_ms =
        |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6) / builds;
    for (metric, span) in [
        ("xml.parse_ms", "xml.parse"),
        ("pathid.label_ms", "pathid.label"),
        ("synopsis.freq_ms", "synopsis.freq"),
        ("synopsis.order_ms", "synopsis.order"),
        ("synopsis.histogram_ms", "synopsis.histogram"),
        ("synopsis.encode_ms", "synopsis.encode"),
    ] {
        report.metric(metric, per_build_ms(span));
    }
    crate::finish_trace(&mut report, opts, &tracer, untraced_rate, traced_rate)?;
    Ok(report)
}
