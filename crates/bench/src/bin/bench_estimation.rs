//! Machine-readable performance snapshot for the batched estimation
//! engine.
//!
//! Measures, per dataset, with the bitmap join kernel:
//!
//! * queries/sec of the serial per-query `Estimator` loop versus
//!   `EstimationEngine::estimate_batch` (one worker and one per core)
//!   over the full ≥500-query workload;
//! * a thread-scaling sweep: steady-state batch throughput of a
//!   persistent (warmed-up) engine at 1, 2 and 4 workers and at `auto`
//!   (one per core), each row recording the *effective* worker count so
//!   a 2-core runner's `4`-row is legible as oversubscription
//!   (`--threads-sweep=1,2,4,0` overrides the list; `0` means auto);
//! * `Summary::build` wall time;
//! * kernel counters from one cold workload pass: join-cache hit rate,
//!   containment adjacencies built and the milliseconds spent building
//!   them;
//! * a per-phase join breakdown from one instrumented serial pass —
//!   plan (tag/edge resolution for the prepared query plan), screen
//!   (worklist seeding + candidate setup), fixpoint (the edge sweep),
//!   and finalize (rebuilding the surviving lists);
//! * a production-traffic replay per dataset: Zipf-skewed traces from
//!   [`xpe_datagen::generate_traffic`] driven through a persistent
//!   engine — a uniform cold mix, a warm Zipf(s=1.1) mix with the
//!   estimate cache on, and the same warm mix with it off — reporting
//!   q/s, p50/p95/p99 per-request latency and both cache hit rates.
//!   The warm-vs-nocache ratio is the headline the estimate cache pays
//!   its rent with.
//!
//! Writes `results/BENCH_estimation.json` (hand-rolled JSON — the
//! workspace carries no serde) and prints the same numbers as a table.
//! Scale/seed/attempts come from the usual `XPE_*` variables.

use std::fmt::Write as _;
use std::time::Instant;

use xpe_bench::{load, print_table, ExpContext};
use xpe_core::{EstimationEngine, Estimator, DEFAULT_ESTIMATE_CACHE_CAPACITY};
use xpe_datagen::{generate_traffic, Dataset, TrafficConfig};
use xpe_synopsis::{Summary, SummaryConfig};
use xpe_xpath::Query;

/// Repetitions per measurement; the best run is reported to damp noise.
const REPS: usize = 3;

/// Worker counts the scaling sweep measures by default; `0` is the
/// auto setting (one worker per available core).
const SWEEP_DEFAULT: [usize; 4] = [1, 2, 4, 0];

fn best_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct Row {
    dataset: &'static str,
    queries: usize,
    serial_qps: f64,
    batch1_qps: f64,
    batch_auto_qps: f64,
    /// Worker count `batch_auto_qps` actually ran with — `auto` resolves
    /// per machine, so a sub-1.0 auto-vs-serial speedup is attributable
    /// (a 1-core runner legitimately shows none).
    effective_threads: usize,
    build_serial_ms: f64,
    join_cache_hit_rate: f64,
    adjacency_build_ms: f64,
    adjacency_builds: u64,
    adjacency_pairs: u64,
    plan_ms: f64,
    screen_ms: f64,
    fixpoint_ms: f64,
    finalize_ms: f64,
}

struct ScalingRow {
    dataset: &'static str,
    threads: usize,
    effective_threads: usize,
    qps: f64,
    speedup_vs_1: f64,
}

/// One production-traffic replay configuration (engine level).
struct MixSpec {
    name: &'static str,
    /// Zipf skew over template popularity ranks (0 = uniform).
    zipf: f64,
    /// Estimate-cache capacity for the replaying engine (0 disables).
    estimate_cache: usize,
    /// Pre-touch every template once before the timed reps and keep the
    /// engine alive across them (steady-state); cold mixes get a fresh
    /// engine every rep.
    warmup: bool,
}

/// Skew and estimate-cache state are the axes the skew-aware fast path
/// trades on; `zipf_warm` vs `zipf_warm_nocache` isolates the cache on
/// identical traffic.
const TRAFFIC_MIXES: [MixSpec; 3] = [
    MixSpec {
        name: "uniform_cold",
        zipf: 0.0,
        estimate_cache: DEFAULT_ESTIMATE_CACHE_CAPACITY,
        warmup: false,
    },
    MixSpec {
        name: "zipf_warm",
        zipf: 1.1,
        estimate_cache: DEFAULT_ESTIMATE_CACHE_CAPACITY,
        warmup: true,
    },
    MixSpec {
        name: "zipf_warm_nocache",
        zipf: 1.1,
        estimate_cache: 0,
        warmup: true,
    },
];

struct TrafficRow {
    dataset: &'static str,
    mix: &'static str,
    requests: usize,
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    estimate_cache_hit_rate: f64,
    join_cache_hit_rate: f64,
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let rank = (p * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)] as f64 / 1e3
}

/// Parses `--threads-sweep[=LIST]` from the command line. The bare flag
/// (or no flag) selects [`SWEEP_DEFAULT`]; `LIST` is comma-separated
/// worker counts where `0` means one worker per core.
fn sweep_from_args() -> Vec<usize> {
    for arg in std::env::args().skip(1) {
        if let Some(list) = arg.strip_prefix("--threads-sweep=") {
            return list
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("bad --threads-sweep entry {t:?}"))
                })
                .collect();
        }
    }
    SWEEP_DEFAULT.to_vec()
}

fn json_escape_free(s: &str) -> &str {
    // Every string we emit is a bare ASCII identifier; assert rather
    // than carry an escaper.
    assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    s
}

fn main() {
    let ctx = ExpContext::from_env();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep = sweep_from_args();
    println!(
        "Batch-estimation snapshot: scale = {}, attempts = {}, seed = {}, cores = {cores}, \
         sweep = {sweep:?}",
        ctx.scale, ctx.attempts, ctx.seed
    );

    let mut rows = Vec::new();
    let mut scaling: Vec<ScalingRow> = Vec::new();
    let mut traffic: Vec<TrafficRow> = Vec::new();
    for ds in Dataset::ALL {
        let b = load(&ctx, ds);
        let queries: Vec<Query> = b
            .workload
            .simple
            .iter()
            .chain(&b.workload.branch)
            .chain(&b.workload.order_branch)
            .chain(&b.workload.order_trunk)
            .map(|c| c.query.clone())
            .collect();
        if queries.is_empty() {
            continue;
        }
        let summary = Summary::build(&b.doc, SummaryConfig::default());
        let n = queries.len() as f64;

        let build_serial = best_secs(|| Summary::build(&b.doc, SummaryConfig::default()));

        // Serial and batch reps run round-robin, so a slow phase of a
        // shared runner taxes all three rows alike instead of skewing the
        // batch-vs-serial ratios the perf floor gates.
        let serial_pass = || {
            let est = Estimator::new(&summary);
            queries.iter().map(|q| est.estimate(q)).sum::<f64>()
        };
        let batch_pass = |threads| {
            let engine = EstimationEngine::new(&summary).with_threads(threads);
            engine.estimate_batch(&queries).iter().sum::<f64>()
        };
        let passes: [&dyn Fn() -> f64; 3] = [&serial_pass, &|| batch_pass(1), &|| batch_pass(0)];
        let mut best = [f64::INFINITY; 3];
        for _ in 0..REPS {
            for (slot, pass) in best.iter_mut().zip(passes) {
                let t = Instant::now();
                std::hint::black_box(pass());
                *slot = slot.min(t.elapsed().as_secs_f64());
            }
        }
        let [serial, batch1, batch_auto] = best;

        // Thread-scaling sweep: steady-state throughput of one
        // persistent engine per worker count — a warm-up pass
        // populates the shared adjacency index and the join cache,
        // then the timed passes measure what a long-lived engine
        // (the optimizer-resident case the batch path exists for)
        // sustains. This intentionally differs from the cold
        // fresh-engine headline rows: cold-start cost is one-time
        // and reported there; the sweep isolates how the warm path
        // scales with workers. Speedups are quoted against the
        // sweep's own one-worker row so the curve is internally
        // consistent. Reps are interleaved round-robin across the
        // worker counts (rather than finishing one row before the
        // next starts) so slow phases of a shared runner spread
        // evenly over the curve instead of always taxing the last
        // row.
        let sweep_base = scaling.len();
        // Estimate cache off: a persistent engine's repeat passes
        // would otherwise be answered from the full-query cache and
        // the sweep would measure cache lookups, not how the warm
        // join path scales with workers. The traffic replay below
        // prices the cache; this sweep prices the kernel.
        let engines: Vec<_> = sweep
            .iter()
            .map(|&t| {
                let engine = EstimationEngine::new(&summary)
                    .with_threads(t)
                    .with_estimate_cache_capacity(0);
                std::hint::black_box(engine.estimate_batch(&queries));
                engine
            })
            .collect();
        let mut secs = vec![f64::INFINITY; sweep.len()];
        for _ in 0..REPS {
            for (slot, engine) in secs.iter_mut().zip(&engines) {
                let t = Instant::now();
                std::hint::black_box(engine.estimate_batch(&queries));
                *slot = slot.min(t.elapsed().as_secs_f64());
            }
        }
        for (&t, &s) in sweep.iter().zip(&secs) {
            scaling.push(ScalingRow {
                dataset: ds.name(),
                threads: t,
                effective_threads: xpe_par::resolve_threads(t),
                qps: n / s,
                speedup_vs_1: 1.0,
            });
        }
        let one_worker_qps = scaling[sweep_base..]
            .iter()
            .find(|r| r.effective_threads == 1)
            .map_or(scaling[sweep_base].qps, |r| r.qps);
        for r in &mut scaling[sweep_base..] {
            r.speedup_vs_1 = r.qps / one_worker_qps;
        }

        // Kernel counters from an untimed cold batch on a fresh
        // engine: the join-cache hit rate and the cost of cold
        // adjacency construction a single workload pass pays. One
        // worker — with more, threads racing on cold keys build
        // duplicates and the cumulative build time double-counts the
        // contended wall clock. Best of `REPS` fresh engines, like
        // every timed loop.
        let mut stats: Option<xpe_core::KernelStats> = None;
        for _ in 0..REPS {
            let e = EstimationEngine::new(&summary).with_threads(1);
            e.estimate_batch(&queries);
            let k = e.kernel_stats();
            stats = match stats {
                Some(prev) if prev.adjacency_build_ms <= k.adjacency_build_ms => Some(prev),
                _ => Some(k),
            };
        }
        let stats = stats.expect("REPS >= 1");

        // Per-phase breakdown from an instrumented serial pass over
        // the workload. Each pass starts a fresh estimator, and with it
        // a fresh `JoinIndexCache`, so the pass is cold: its screen
        // phase includes the containment-relation build and every
        // adjacency build. Best total of `REPS` passes.
        let mut phases = None;
        for _ in 0..REPS {
            let est = Estimator::new(&summary);
            est.set_join_timing(true);
            for q in &queries {
                std::hint::black_box(est.estimate(q));
            }
            let p = est.join_phase_stats();
            let total = |s: &xpe_core::JoinPhaseStats| {
                s.plan_ns + s.screen_ns + s.fixpoint_ns + s.finalize_ns
            };
            phases = match phases {
                Some(prev) if total(&prev) <= total(&p) => Some(prev),
                _ => Some(p),
            };
        }
        let phases = phases.expect("REPS >= 1");

        println!(
            "  {}: join cache {}/{} hits ({:.1}%), {} adjacencies \
             ({} pairs) built in {:.2} ms; phases plan {:.2} ms, \
             screen {:.2} ms, fixpoint {:.2} ms, finalize {:.2} ms",
            ds.name(),
            stats.join_cache_hits,
            stats.join_cache_hits + stats.join_cache_misses,
            stats.join_cache_hit_rate * 100.0,
            stats.adjacency_builds,
            stats.adjacency_pairs,
            stats.adjacency_build_ms,
            phases.plan_ns as f64 / 1e6,
            phases.screen_ns as f64 / 1e6,
            phases.fixpoint_ns as f64 / 1e6,
            phases.finalize_ns as f64 / 1e6,
        );

        rows.push(Row {
            dataset: ds.name(),
            queries: queries.len(),
            serial_qps: n / serial,
            batch1_qps: n / batch1,
            batch_auto_qps: n / batch_auto,
            effective_threads: xpe_par::resolve_threads(0),
            build_serial_ms: build_serial * 1e3,
            join_cache_hit_rate: stats.join_cache_hit_rate,
            adjacency_build_ms: stats.adjacency_build_ms,
            adjacency_builds: stats.adjacency_builds,
            adjacency_pairs: stats.adjacency_pairs,
            plan_ms: phases.plan_ns as f64 / 1e6,
            screen_ms: phases.screen_ns as f64 / 1e6,
            fixpoint_ms: phases.fixpoint_ns as f64 / 1e6,
            finalize_ms: phases.finalize_ns as f64 / 1e6,
        });

        // Production-traffic replay (one driving thread): the trace is the §7 workload under Zipf-skewed
        // template popularity. Reps are interleaved round-robin across
        // the mixes; warm mixes keep one engine alive across reps while
        // cold mixes restart it every rep.
        let traces: Vec<_> = TRAFFIC_MIXES
            .iter()
            .map(|spec| {
                generate_traffic(
                    &b.workload,
                    &TrafficConfig {
                        seed: ctx.seed,
                        zipf_s: spec.zipf,
                        ..TrafficConfig::default()
                    },
                )
            })
            .collect();
        let fresh_engine = |spec: &MixSpec| {
            EstimationEngine::new(&summary)
                .with_threads(1)
                .with_estimate_cache_capacity(spec.estimate_cache)
        };
        let mut engines: Vec<EstimationEngine> = TRAFFIC_MIXES.iter().map(fresh_engine).collect();
        for (spec, engine) in TRAFFIC_MIXES.iter().zip(&engines) {
            if spec.warmup {
                // All traces share one template table (skew only changes
                // the request sampling), so touching traces[0]'s
                // templates warms every mix's key set.
                let est = engine.estimator();
                for template in &traces[0].templates {
                    std::hint::black_box(est.estimate(&template.case.query));
                }
            }
        }
        let mut lat: Vec<Vec<u64>> = vec![Vec::new(); TRAFFIC_MIXES.len()];
        let mut secs = vec![0.0f64; TRAFFIC_MIXES.len()];
        for _rep in 0..REPS {
            for (i, spec) in TRAFFIC_MIXES.iter().enumerate() {
                if !spec.warmup {
                    engines[i] = fresh_engine(spec);
                }
                let est = engines[i].estimator();
                let trace = &traces[i];
                let t0 = Instant::now();
                for request in &trace.requests {
                    let q = &trace.templates[request.template].case.query;
                    let t = Instant::now();
                    std::hint::black_box(est.estimate(q));
                    lat[i].push(t.elapsed().as_nanos() as u64);
                }
                secs[i] += t0.elapsed().as_secs_f64();
            }
        }
        for (i, spec) in TRAFFIC_MIXES.iter().enumerate() {
            let stats = engines[i].kernel_stats();
            let mut sorted = std::mem::take(&mut lat[i]);
            sorted.sort_unstable();
            traffic.push(TrafficRow {
                dataset: ds.name(),
                mix: spec.name,
                requests: sorted.len(),
                qps: sorted.len() as f64 / secs[i],
                p50_us: percentile_us(&sorted, 0.50),
                p95_us: percentile_us(&sorted, 0.95),
                p99_us: percentile_us(&sorted, 0.99),
                estimate_cache_hit_rate: stats.estimate_cache_hit_rate,
                join_cache_hit_rate: stats.join_cache_hit_rate,
            });
        }
        let mix_qps = |mix: &str| {
            traffic
                .iter()
                .find(|r| r.dataset == ds.name() && r.mix == mix)
                .map_or(f64::NAN, |r| r.qps)
        };
        println!(
            "  {} traffic: warm zipf vs estimate cache off {:.1}x, \
             warm zipf vs uniform cold {:.1}x",
            ds.name(),
            mix_qps("zipf_warm") / mix_qps("zipf_warm_nocache"),
            mix_qps("zipf_warm") / mix_qps("uniform_cold"),
        );
    }

    print_table(
        "Batched estimation",
        &[
            "Dataset",
            "Queries",
            "Serial q/s",
            "Batch(1) q/s",
            "Batch(auto) q/s",
            "Build ms",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_owned(),
                    r.queries.to_string(),
                    format!("{:.0}", r.serial_qps),
                    format!("{:.0}", r.batch1_qps),
                    format!("{:.0}", r.batch_auto_qps),
                    format!("{:.2}", r.build_serial_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );

    print_table(
        "Production traffic replay (per mix)",
        &[
            "Dataset",
            "Mix",
            "Requests",
            "q/s",
            "p50 us",
            "p95 us",
            "p99 us",
            "Est-cache %",
            "Join %",
        ],
        &traffic
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_owned(),
                    r.mix.to_owned(),
                    r.requests.to_string(),
                    format!("{:.0}", r.qps),
                    format!("{:.2}", r.p50_us),
                    format!("{:.2}", r.p95_us),
                    format!("{:.2}", r.p99_us),
                    format!("{:.1}", r.estimate_cache_hit_rate * 100.0),
                    format!("{:.1}", r.join_cache_hit_rate * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );

    print_table(
        "Thread scaling (batch estimation)",
        &["Dataset", "Threads", "Effective", "q/s", "Speedup vs 1"],
        &scaling
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_owned(),
                    if r.threads == 0 {
                        "auto".to_owned()
                    } else {
                        r.threads.to_string()
                    },
                    r.effective_threads.to_string(),
                    format!("{:.0}", r.qps),
                    format!("{:.2}", r.speedup_vs_1),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"scale\": {}, \"attempts\": {}, \"seed\": {}, \"reps\": {REPS}, \"cores\": {cores},",
        ctx.scale, ctx.attempts, ctx.seed,
    );
    json.push_str("  \"datasets\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dataset\": \"{}\", \"kernel\": \"bitmap\", \"queries\": {}, \
             \"serial_qps\": {:.1}, \"batch_jobs1_qps\": {:.1}, \
             \"batch_auto_qps\": {:.1}, \"speedup_auto_vs_serial\": {:.2}, \
             \"effective_threads\": {}, \
             \"build_serial_ms\": {:.3}, \
             \"join_cache_hit_rate\": {:.4}, \"adjacency_build_ms\": {:.3}, \
             \"adjacency_builds\": {}, \"adjacency_pairs\": {}, \
             \"plan_ms\": {:.3}, \"screen_ms\": {:.3}, \"fixpoint_ms\": {:.3}, \
             \"finalize_ms\": {:.3}}}",
            json_escape_free(r.dataset),
            r.queries,
            r.serial_qps,
            r.batch1_qps,
            r.batch_auto_qps,
            r.batch_auto_qps / r.serial_qps,
            r.effective_threads,
            r.build_serial_ms,
            r.join_cache_hit_rate,
            r.adjacency_build_ms,
            r.adjacency_builds,
            r.adjacency_pairs,
            r.plan_ms,
            r.screen_ms,
            r.fixpoint_ms,
            r.finalize_ms,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"traffic\": [\n");
    for (i, r) in traffic.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dataset\": \"{}\", \"mix\": \"{}\", \"requests\": {}, \
             \"qps\": {:.1}, \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, \
             \"estimate_cache_hit_rate\": {:.4}, \"join_cache_hit_rate\": {:.4}}}",
            json_escape_free(r.dataset),
            json_escape_free(r.mix),
            r.requests,
            r.qps,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.estimate_cache_hit_rate,
            r.join_cache_hit_rate,
        );
        json.push_str(if i + 1 < traffic.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"scaling\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dataset\": \"{}\", \"kernel\": \"bitmap\", \"threads\": {}, \
             \"effective_threads\": {}, \"qps\": {:.1}, \"speedup_vs_1\": {:.3}}}",
            json_escape_free(r.dataset),
            r.threads,
            r.effective_threads,
            r.qps,
            r.speedup_vs_1,
        );
        json.push_str(if i + 1 < scaling.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let out = "results/BENCH_estimation.json";
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("\ncould not write {out}: {e}"),
    }
}
