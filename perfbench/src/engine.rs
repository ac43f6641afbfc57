//! `engine_unique`: a cold optimizer session in process.
//!
//! Each pass starts a fresh `EstimationEngine` with default settings
//! (one worker per core) and asks every distinct query of the corpus
//! exactly once through `estimate_batch`, in an order drawn from the
//! seed. No full query repeats, so every answer runs plan, screen,
//! fixpoint and finalize and inserts into the estimate cache; no server
//! is involved.

use std::time::Instant;

use xpe::estimator::EstimationEngine;
use xpe::synopsis::Summary;
use xpe::xpath::Query;

use crate::corpus::{Case, Corpus};
use crate::replay::{frame_for, Generation, Replay};
use crate::trace::{layer_totals, Tracer};
use crate::{sys, Opts, Report, SplitMix};

/// Percentile of set-up and pass times behind `setup_s` and
/// `throughput`; see [`crate::batch_timings`].
const TIMING_PER_MILLE: usize = 750;

/// Counters of one pass, from `kernel_stats()`.
#[derive(Default)]
struct PassCounters {
    joincache_hit_rate: f64,
    estcache_hit_rate: f64,
    inserts: u64,
    invalidations: u64,
    adjacency_builds: u64,
    adjacency_build_ms: f64,
    adjacency_pairs: u64,
    lock_acquisitions: u64,
}

/// Times of one cold session.
struct Pass {
    /// `.xps` bytes to a ready engine.
    setup_s: f64,
    /// The `Summary::from_bytes` part of `setup_s`.
    decode_ms: f64,
    /// `estimate_batch` over the pass.
    secs: f64,
    counters: PassCounters,
}

/// One cold session: decodes the corpus `.xps` and starts a fresh engine
/// on it (timed as set-up), then answers `batch` (timed as the pass). The
/// answers are checked against the references untimed. Timing set-up in
/// every pass spreads its samples over the whole run.
fn pass(xps: &[u8], batch: &[Query], refs: &[&Case]) -> Result<Pass, String> {
    let t = Instant::now();
    let summary = Summary::from_bytes(xps).map_err(|e| format!("decoding summary: {e}"))?;
    let decode_ms = t.elapsed().as_secs_f64() * 1e3;
    let engine = EstimationEngine::new(&summary);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let out = engine.estimate_batch(batch);
    let secs = t.elapsed().as_secs_f64();
    for (value, case) in out.iter().zip(refs) {
        if value.to_bits() != case.reference.to_bits() {
            return Err(format!(
                "{} answered {value}, reference {}",
                case.text, case.reference
            ));
        }
    }
    let k = engine.kernel_stats();
    // Workload sanity: a cold session over distinct queries never hits
    // the estimate cache and inserts each query exactly once.
    if k.estimate_cache_hits != 0 || k.estimate_cache_inserts != batch.len() as u64 {
        return Err(format!(
            "engine_unique is not cold: {} estimate-cache hits, {} inserts for {} queries",
            k.estimate_cache_hits,
            k.estimate_cache_inserts,
            batch.len()
        ));
    }
    Ok(Pass {
        setup_s,
        decode_ms,
        secs,
        counters: PassCounters {
            joincache_hit_rate: k.join_cache_hit_rate,
            estcache_hit_rate: k.estimate_cache_hit_rate,
            inserts: k.estimate_cache_inserts,
            invalidations: k.estimate_cache_invalidations,
            adjacency_builds: k.adjacency_builds,
            adjacency_build_ms: k.adjacency_build_ms,
            adjacency_pairs: k.adjacency_pairs,
            lock_acquisitions: k.lock_acquisitions,
        },
    })
}

/// The pass order: every distinct case once, shuffled.
fn ordered<'c>(corpus: &'c Corpus, rng: &mut SplitMix) -> (Vec<Query>, Vec<&'c Case>) {
    let mut refs: Vec<&Case> = corpus.cases.iter().collect();
    rng.shuffle(&mut refs);
    (refs.iter().map(|c| c.query.clone()).collect(), refs)
}

/// Replays one pass serially, each query as the request a cold
/// `xpe serve` worker would run, with a span around every layer call.
fn traced_replay(
    summary: &Summary,
    refs: &[&Case],
    tracer: &mut Tracer,
    next_request: &mut u64,
) -> Result<(), String> {
    let fresh = EstimationEngine::new(summary);
    let mut replay = Replay::new(&Generation::new(&fresh));
    for case in refs {
        tracer.set_request(*next_request);
        *next_request += 1;
        let root = tracer.open("engine.query");
        let (value, _) = replay.run(&frame_for(&case.text), tracer)?;
        tracer.close(root);
        if value.to_bits() != case.reference.to_bits() {
            return Err(format!(
                "{} answered {value}, reference {}",
                case.text, case.reference
            ));
        }
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let corpus = Corpus::load()?;
    let summary = Summary::from_bytes(&corpus.xps).map_err(|e| format!("decoding summary: {e}"))?;
    let n = corpus.cases.len();
    let mut report = Report::default();
    report.param_str("dataset", "XMark");
    report.param("scale", crate::corpus::SCALE);
    report.param("corpus_seed", crate::corpus::CORPUS_SEED);
    report.param("distinct_queries", n);
    report.param("theorem_4_1_checked", corpus.exact_checked);
    report.param(
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );

    let mut rng = SplitMix::new(opts.seed);
    // One unmeasured pass first: the allocator's arenas and the pages
    // behind them are then in place, as in a long-lived optimizer.
    let (batch, refs) = ordered(&corpus, &mut rng);
    pass(&corpus.xps, &batch, &refs)?;
    // A traced run alternates untraced passes with traced ones, so drift
    // over the run taxes both sides of the overhead ratio alike. A traced
    // pass times the real batch as one span, then replays the same order
    // serially with a span per layer call.
    let mut tracer = Tracer::new(Instant::now());
    let mut next_request = 0u64;
    let mut times = Vec::new();
    let mut traced_secs = Vec::new();
    let mut batch_ms = Vec::new();
    let mut setup_s = Vec::new();
    let mut decode_ms = Vec::new();
    let mut counters = Vec::new();
    let start = Instant::now();
    loop {
        let sampled = !times.is_empty() && (!opts.trace || !traced_secs.is_empty());
        if sampled && start.elapsed() >= opts.seconds {
            break;
        }
        let (batch, refs) = ordered(&corpus, &mut rng);
        let traced = opts.trace && times.len() > traced_secs.len();
        let t = Instant::now();
        let span = traced.then(|| {
            tracer.set_request(next_request);
            next_request += 1;
            tracer.open("engine.batch")
        });
        let p = pass(&corpus.xps, &batch, &refs)?;
        setup_s.push(p.setup_s);
        decode_ms.push(p.decode_ms);
        counters.push(p.counters);
        let Some(span) = span else {
            times.push(p.secs);
            continue;
        };
        tracer.close(span);
        batch_ms.push(p.secs * 1e3);
        traced_replay(&summary, &refs, &mut tracer, &mut next_request)?;
        traced_secs.push(t.elapsed().as_secs_f64());
    }
    let untraced_qps = (n * times.len()) as f64 / times.iter().sum::<f64>();
    report.attempted = (n * (times.len() + traced_secs.len())) as u64;
    report.correct = true;
    report.param("passes", times.len());
    use crate::stats::{median, sorted};

    if !opts.trace {
        report.param("mean_throughput", untraced_qps);
        crate::batch_timings(&mut report, &setup_s, &times, n as f64, TIMING_PER_MILLE);
        crate::error_metrics(&mut report, crate::unweighted_errors(corpus.cases.iter()));
        report.metric("summary_bytes", corpus.xps.len() as f64);
        report.metric("peak_rss_mb", sys::peak_rss_mb());
        return Ok(report);
    }

    let traced_passes = traced_secs.len();
    let traced_qps = (n * traced_passes) as f64 / traced_secs.iter().sum::<f64>();
    report.param("traced_passes", traced_passes);

    let totals = layer_totals(tracer.spans());
    let per_pass_ms = |name: &str| {
        totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6) / traced_passes as f64
    };
    let mean_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_us());
    let mean = |f: &dyn Fn(&PassCounters) -> f64| {
        counters.iter().map(f).sum::<f64>() / counters.len() as f64
    };
    for (metric, span) in [
        ("server.frame_us", "server.frame"),
        ("server.request_parse_us", "server.request_parse"),
        ("xpath.parse_us", "xpath.parse"),
        ("serve.admit_us", "serve.admit"),
    ] {
        report.metric(metric, mean_us(span));
    }
    report.metric("estcache.key_us", mean_us("estcache.key"));
    report.metric("estcache.lookup_us", mean_us("estcache.lookup"));
    report.metric("estcache.insert_us", mean_us("estcache.insert"));
    report.metric("estcache.hit_rate", mean(&|k| k.estcache_hit_rate));
    report.metric("estcache.inserts", mean(&|k| k.inserts as f64));
    report.metric("estcache.invalidations", mean(&|k| k.invalidations as f64));
    report.metric("joincache.hit_rate", mean(&|k| k.joincache_hit_rate));
    report.metric("planner.plan_us", mean_us("planner.plan"));
    report.metric("join.screen_ms", per_pass_ms("join.screen"));
    report.metric("join.fixpoint_ms", per_pass_ms("join.fixpoint"));
    report.metric("join.finalize_ms", per_pass_ms("join.finalize"));
    report.metric(
        "join.adjacency_builds",
        mean(&|k| k.adjacency_builds as f64),
    );
    report.metric("join.adjacency_build_ms", mean(&|k| k.adjacency_build_ms));
    report.metric("join.adjacency_pairs", mean(&|k| k.adjacency_pairs as f64));
    report.metric("estimator.estimate_us", mean_us("estimator.estimate"));
    report.metric(
        "engine.batch_ms",
        batch_ms.iter().sum::<f64>() / batch_ms.len() as f64,
    );
    report.metric(
        "engine.lock_acquisitions",
        mean(&|k| k.lock_acquisitions as f64),
    );
    report.metric("synopsis.decode_ms", median(&sorted(&decode_ms)));
    crate::finish_trace(&mut report, opts, &tracer, untraced_qps, traced_qps)?;
    Ok(report)
}
