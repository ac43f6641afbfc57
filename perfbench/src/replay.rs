//! In-process replay of an estimate request through the layers
//! `xpe serve` runs it through, with a span around each public call:
//! framing, request JSON, XPath parse, admission, estimate-cache key and
//! lookup, and — on a miss — the uncached estimate and the cache insert.

use std::sync::Arc;

use xpe::estimator::server::{parse_request, FrameReader, Request};
use xpe::estimator::{
    estimate_key, EstimateCache, EstimateCacheReader, EstimationEngine, Estimator, JoinCache,
    QueryLimits, ServerConfig, DEFAULT_ESTIMATE_CACHE_CAPACITY,
};
use xpe::pathid::{JoinIndexCache, RelationMaskCache};
use xpe::synopsis::Summary;
use xpe::xpath::{parse_query, Query};

use crate::json_escape;
use crate::trace::Tracer;

/// The newline-terminated `estimate` request for `query`.
pub fn frame_for(query: &str) -> Vec<u8> {
    format!(
        "{{\"op\":\"estimate\",\"query\":\"{}\"}}\n",
        json_escape(query)
    )
    .into_bytes()
}

/// The caches one serving generation shares among its workers, built
/// fresh (cold) over an engine's summary.
#[derive(Clone)]
pub struct Generation<'s> {
    summary: &'s Summary,
    masks: Arc<RelationMaskCache>,
    adjacency: Arc<JoinIndexCache>,
    joins: Option<Arc<JoinCache>>,
    estimates: Arc<EstimateCache>,
}

impl<'s> Generation<'s> {
    /// The join caches of `engine` plus a fresh estimate cache.
    pub fn new(engine: &EstimationEngine<'s>) -> Self {
        Generation {
            summary: engine.summary(),
            masks: Arc::clone(engine.mask_cache()),
            adjacency: Arc::clone(engine.adjacency_cache()),
            joins: engine.join_cache().cloned(),
            estimates: Arc::new(EstimateCache::with_capacity(
                DEFAULT_ESTIMATE_CACHE_CAPACITY,
            )),
        }
    }
}

/// One worker of a generation: an estimator on the shared join caches
/// and a reader front on the shared estimate cache.
pub struct Replay<'s> {
    summary: &'s Summary,
    estimator: Estimator<'s>,
    reader: EstimateCacheReader,
    max_line: usize,
}

impl<'s> Replay<'s> {
    /// A worker of `generation`, with join-phase timing on.
    pub fn new(generation: &Generation<'s>) -> Self {
        let estimator = Estimator::with_caches(
            generation.summary,
            Arc::clone(&generation.masks),
            Arc::clone(&generation.adjacency),
            generation.joins.clone(),
        );
        estimator.set_join_timing(true);
        Replay {
            summary: generation.summary,
            estimator,
            reader: EstimateCacheReader::new(Arc::clone(&generation.estimates)),
            max_line: ServerConfig::default().max_line_bytes,
        }
    }

    /// Runs `frame` through every layer; returns the estimate and the
    /// summed duration of the layer calls.
    pub fn run(&mut self, frame: &[u8], tracer: &mut Tracer) -> Result<(f64, u64), String> {
        let first = tracer.spans().len();
        let outer = tracer.current();
        let line = tracer
            .span("server.frame", || {
                FrameReader::new(frame, self.max_line).read_frame()
            })
            .map_err(|e| format!("framing: {e:?}"))?
            .ok_or("empty frame")?;
        let request = tracer
            .span("server.request_parse", || parse_request(&line))
            .map_err(|e| format!("request: {e}"))?;
        let Request::Estimate { query } = request else {
            return Err("not an estimate request".into());
        };
        let query = tracer
            .span("xpath.parse", || parse_query(&query))
            .map_err(|e| format!("query: {e}"))?;
        tracer
            .span("serve.admit", || {
                QueryLimits::unlimited().admit(self.summary, &query)
            })
            .map_err(|e| format!("admission: {e}"))?;
        let key = tracer.span("estcache.key", || estimate_key(&query));
        let value = match tracer.span("estcache.lookup", || self.reader.lookup(&key)) {
            Some(v) => v,
            None => {
                let v = estimate_with_phases(&self.estimator, &query, tracer);
                tracer.span("estcache.insert", || self.reader.publish(key, v));
                v
            }
        };
        let layer_ns = tracer.spans()[first..]
            .iter()
            .filter(|s| s.parent == outer)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        Ok((value, layer_ns))
    }
}

/// `Estimator::estimate` in a span, with the plan and join phases the
/// estimator timed inside it recorded as its children.
fn estimate_with_phases(estimator: &Estimator<'_>, query: &Query, tracer: &mut Tracer) -> f64 {
    let before = estimator.join_phase_stats();
    let span = tracer.open("estimator.estimate");
    let value = estimator.estimate(query);
    tracer.close(span);
    let after = estimator.join_phase_stats();
    tracer.record_phases(
        span,
        &[
            ("planner.plan", after.plan_ns - before.plan_ns),
            ("join.screen", after.screen_ns - before.screen_ns),
            ("join.fixpoint", after.fixpoint_ns - before.fixpoint_ns),
            ("join.finalize", after.finalize_ns - before.finalize_ns),
        ],
    );
    value
}
