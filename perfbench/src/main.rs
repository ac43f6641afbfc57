//! Benchmark of the xpe estimation system.
//!
//! ```text
//! xpe-perfbench --workload serve_zipf|engine_unique|ingest_xmark
//!     --seed N --seconds S --trace 0|1 --xpe PATH/TO/xpe
//! ```
//!
//! Runs one workload against what users run — the `xpe serve` daemon,
//! the `EstimationEngine` library, or `xpe build` — checks every answer,
//! and prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. An untraced run (`--trace 0`)
//! reports the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer metrics from spans around the calls into each layer's
//! public functions. See `perfbench/README.md` for every definition.

mod corpus;
mod engine;
mod ingest;
mod replay;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use corpus::{Case, Corpus};

/// Parsed command line.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed: traffic trace, query order, ingested document.
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of an end-to-end one.
    pub trace: bool,
    /// The `xpe` binary built from this checkout.
    pub xpe: PathBuf,
    /// Scratch directory for generated files, removed at exit.
    pub workdir: PathBuf,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut xpe = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--xpe" => xpe = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds out of range: {seconds}"));
        }
        Ok(Opts {
            workdir: PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id())),
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs_f64(seconds),
            trace: trace.ok_or("--trace is required")?,
            xpe: xpe.ok_or("--xpe is required")?,
        })
    }
}

/// End-to-end metrics and units, in `BENCHMARK.json` order; an untraced
/// run reports every one of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("rel_error_mean", "ratio"),
    ("rel_error_p99", "ratio"),
    ("summary_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, in `BENCHMARK.json` order; a traced run
/// reports every one, 0 for a layer its workload does not reach.
const PER_LAYER: [(&str, &str); 32] = [
    ("server.frame_us", "us"),
    ("server.request_parse_us", "us"),
    ("xpath.parse_us", "us"),
    ("serve.admit_us", "us"),
    ("estcache.key_us", "us"),
    ("estcache.lookup_us", "us"),
    ("estcache.insert_us", "us"),
    ("estcache.hit_rate", "ratio"),
    ("estcache.inserts", "count"),
    ("estcache.invalidations", "count"),
    ("joincache.hit_rate", "ratio"),
    ("server.transport_us", "us"),
    ("planner.plan_us", "us"),
    ("join.screen_ms", "ms"),
    ("join.fixpoint_ms", "ms"),
    ("join.finalize_ms", "ms"),
    ("join.adjacency_builds", "count"),
    ("join.adjacency_build_ms", "ms"),
    ("join.adjacency_pairs", "count"),
    ("estimator.estimate_us", "us"),
    ("engine.batch_ms", "ms"),
    ("engine.lock_acquisitions", "count"),
    ("synopsis.decode_ms", "ms"),
    ("xml.parse_ms", "ms"),
    ("pathid.label_ms", "ms"),
    ("synopsis.freq_ms", "ms"),
    ("synopsis.order_ms", "ms"),
    ("synopsis.histogram_ms", "ms"),
    ("synopsis.encode_ms", "ms"),
    ("loadgen.cpu_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.join_share", "ratio"),
];

/// What a run prints.
#[derive(Default)]
pub struct Report {
    /// Every checked answer matched its reference.
    pub correct: bool,
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations that failed (non-`ok` replies, failed builds).
    pub failed: u64,
    /// Measured metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload parameters and sample counts, printed before the result.
    pub params: Vec<(&'static str, String)>,
}

impl Report {
    /// Sets a metric; its unit comes from the metric tables.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not in the metric tables");
        self.metrics.insert(name, value);
    }

    /// Records a parameter; `value` is raw JSON.
    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    /// Records a string parameter.
    pub fn param_str(&mut self, name: &'static str, value: &str) {
        self.params
            .push((name, format!("\"{}\"", json_escape(value))));
    }

    fn params_line(&self, opts: &Opts) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}",
            opts.workload, opts.seed, opts.trace
        );
        for (name, value) in &self.params {
            let _ = write!(out, ", \"{name}\": {value}");
        }
        out.push('}');
        out
    }

    /// The result object: every end-to-end metric for an untraced run,
    /// every per-layer metric (0 where the workload has no such layer)
    /// for a traced one.
    fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Closes a traced run: writes every span to
/// `.bench_trace/<workload>.tsv`, and reports the tracing overhead (the
/// traced half's throughput against the untraced half's) and the share
/// of traced time spent in the join layers (`planner`, `join`,
/// `estimator`). Whole-pass spans (`engine.batch`, `ingest.build`) are
/// left out of that share's base: they time the real untraced call
/// whose layers the replay spans break down.
pub fn finish_trace(
    report: &mut Report,
    opts: &Opts,
    tracer: &trace::Tracer,
    untraced_rate: f64,
    traced_rate: f64,
) -> Result<(), String> {
    let dir = PathBuf::from(".bench_trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.tsv", opts.workload));
    std::fs::write(&path, trace::to_tsv(tracer.spans()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.param_str("trace_file", &path.display().to_string());
    report.param("spans", tracer.spans().len());

    let totals = trace::layer_totals(tracer.spans());
    let mut join = 0u64;
    let mut all = 0u64;
    for (name, t) in &totals {
        if matches!(*name, "engine.batch" | "ingest.build") {
            continue;
        }
        all += t.self_ns;
        if ["planner.", "join.", "estimator."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            join += t.self_ns;
        }
    }
    report.metric("trace.join_share", join as f64 / all.max(1) as f64);
    report.metric("trace.overhead_frac", 1.0 - traced_rate / untraced_rate);
    report.param("untraced_rate", untraced_rate);
    report.param("traced_rate", traced_rate);
    Ok(())
}

/// Escapes `s` for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Relative-error metrics shared by every workload: the mean and the
/// 99th percentile over `(error, weight)` pairs. p90 is not used: on
/// XMark at variance 0 over nine in ten answers are exact, so it reads 0.
pub fn error_metrics(report: &mut Report, mut weighted: Vec<(f64, u64)>) {
    weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = weighted.iter().map(|(_, w)| w).sum();
    let sum: f64 = weighted.iter().map(|(e, w)| e * *w as f64).sum();
    report.metric("rel_error_mean", sum / total as f64);
    report.metric("rel_error_p99", stats::weighted_percentile(&weighted, 990));
}

/// Error pairs for cases answered once each.
pub fn unweighted_errors<'a>(cases: impl Iterator<Item = &'a Case>) -> Vec<(f64, u64)> {
    cases.map(|c| (Corpus::error_of(c), 1)).collect()
}

/// Median wall seconds of `reps` runs of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(stats::median(&stats::sorted(&times)))
}

/// The `per_mille` percentile of ascending `sorted`, or its maximum (with
/// a warning) when too few samples lie beyond the percentile.
fn upper_percentile(sorted: &[f64], per_mille: usize) -> f64 {
    stats::percentile(sorted, per_mille).unwrap_or_else(|| {
        eprintln!(
            "warning: {} samples leave fewer than {} beyond p{}; using the maximum",
            sorted.len(),
            stats::MIN_BEYOND,
            per_mille as f64 / 10.0
        );
        sorted.last().copied().unwrap_or(f64::NAN)
    })
}

/// The timing metrics of a batch workload, both read at the `per_mille`
/// percentile: `setup_s` over the set-up times `setup`, and `throughput`,
/// `work` per unit (pass or build) over the unit times `units`.
///
/// On the shared VM the bounds were fixed on, these times are bimodal: a
/// fast mode whose share of samples drifts from minute to minute with the
/// host's load, and a slow mode that holds still. A median jumps between
/// the modes from run to run; an upper percentile stays in the slow one.
/// Medians, the percentile in µs and the sample counts go to the
/// parameter line.
pub fn batch_timings(
    report: &mut Report,
    setup: &[f64],
    units: &[f64],
    work: f64,
    per_mille: usize,
) {
    let setup = stats::sorted(setup);
    let units = stats::sorted(units);
    let unit = upper_percentile(&units, per_mille);
    report.metric("setup_s", upper_percentile(&setup, per_mille));
    report.metric("throughput", work / unit);
    report.param_str(
        "timing_percentile",
        &format!("p{}", per_mille as f64 / 10.0),
    );
    report.param("setup_samples", setup.len());
    report.param("setup_p50_s", stats::median(&setup));
    report.param("unit_samples", units.len());
    report.param("unit_p50_us", stats::median(&units) * 1e6);
    report.param("unit_percentile_us", unit * 1e6);
}

/// SplitMix64: the benchmark's own seeded generator for query order.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.workdir)
        .map_err(|e| format!("creating {}: {e}", opts.workdir.display()))?;
    let report = match opts.workload.as_str() {
        "serve_zipf" => serve::run(opts),
        "engine_unique" => engine::run(opts),
        "ingest_xmark" => ingest::run(opts),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&opts.workdir);
    let _ = std::fs::remove_dir(".bench_run");
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report =
        run(&opts).and_then(|r| Ok((r.params_line(&opts), r.result_line(opts.trace)?, r.correct)));
    match report {
        Ok((params, result, correct)) => {
            println!("{params}");
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: an answer did not match its reference");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
