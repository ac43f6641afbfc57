//! Machine-readable performance snapshot for the `xpe serve` daemon.
//!
//! Boots a real server on an ephemeral loopback port (XMark summary,
//! persisted to a temp `.xps` so hot reload has a file to re-validate),
//! then drives it with a mixed fleet:
//!
//! * **healthy closed-loop clients** — each sends `ROUNDS` estimate
//!   requests over one connection, records per-request latency, and
//!   asserts every answer is `ok` and **bit-identical** to a direct
//!   [`Estimator`] call on the same query text;
//! * **hostile clients** — cycling malformed frames, oversized lines,
//!   mid-frame disconnects, half-closes, and poison-tag queries (the
//!   server's panic-isolation path), all while the healthy fleet runs;
//! * **one hot reload** issued mid-run, after half the healthy traffic
//!   has completed — answers must stay bit-identical across the epoch
//!   bump because the reloaded file is the same summary.
//!
//! After the hostile mix, a **traffic replay** phase restarts the
//! daemon per mix and replays production-shaped traces from
//! [`xpe_datagen::generate_traffic`]: a uniform cold mix (fresh server,
//! no skew), a Zipf(s=1.1) warm mix (templates pre-touched, estimate
//! cache on), and the same warm Zipf mix with the estimate cache
//! disabled. Reps are interleaved round-robin across the mixes (like
//! `bench_estimation`'s scaling sweep) so a noisy phase of a shared
//! runner taxes every row evenly. Each per-mix row reports q/s,
//! p50/p95/p99/p99.9 and the server's own estimate-/join-cache hit
//! rates from the `stats` verb.
//!
//! Reports queries/sec of the healthy fleet plus p50/p95/p99/p99.9
//! latency, and writes `results/BENCH_serve.json` (hand-rolled JSON;
//! the workspace carries no serde). Scale/seed come from the usual
//! `XPE_*` variables; CI's perf floor reads `qps` and the per-mix
//! `traffic` rows via `scripts/check_perf_floor.sh`
//! (`XPE_PERF_FLOOR_SERVE_QPS`, `XPE_PERF_MIN_WARM_SKEW_SPEEDUP`).
//!
//! For its whole run the bench replaces the panic hook with one that
//! prints each panic's message and location on one line and never a
//! backtrace, whatever `RUST_BACKTRACE` says. The hostile mix makes the
//! in-process daemon panic on purpose; under the default hook with
//! `RUST_BACKTRACE=1`, each of those panics captures and symbolizes a
//! backtrace on a core the healthy clients share, and the headline row
//! would measure that instead of the daemon. `xpe serve` itself keeps
//! the default hook.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xpe_bench::{load, print_table, ExpContext};
use xpe_core::server::{Json, Server, ServerConfig};
use xpe_core::Estimator;
use xpe_datagen::{generate_traffic, Dataset, TrafficConfig, TrafficTrace};
use xpe_synopsis::{Summary, SummaryConfig};
use xpe_xpath::parse_query;

/// Healthy closed-loop connections.
const CLIENTS: usize = 4;
/// Requests per healthy client.
const ROUNDS: usize = 100;
/// Hostile connections cycling the abuse mix.
const HOSTILES: usize = 2;
/// Cap on distinct workload queries the fleet cycles through.
const MAX_QUERIES: usize = 48;
/// A tag no XMark query targets; the server's chaos hook degrades any
/// estimate whose target tag equals it, exercising panic isolation.
const POISON_TAG: &str = "zzzpoison";

/// Requests per traffic-replay pass.
const TRAFFIC_REQUESTS: usize = 1200;
/// Interleaved repetitions per traffic mix; latencies pool across reps.
const TRAFFIC_REPS: usize = 3;
/// Closed-loop connections replaying each trace.
const TRAFFIC_CLIENTS: usize = 4;

/// One production-shaped replay configuration.
struct MixSpec {
    name: &'static str,
    /// Zipf skew exponent over template popularity (0 = uniform).
    zipf: f64,
    /// Server-side estimate-cache capacity (0 disables).
    estimate_cache: usize,
    /// Pre-touch every template once before the timed pass.
    warmup: bool,
}

/// The replay matrix: skew and cache state are the two axes the
/// skew-aware fast path trades on. `uniform_cold` is the no-locality
/// baseline; `zipf_warm` is steady-state production; `zipf_warm_nocache`
/// prices the estimate cache itself on identical traffic.
const TRAFFIC_MIXES: [MixSpec; 3] = [
    MixSpec {
        name: "uniform_cold",
        zipf: 0.0,
        estimate_cache: xpe_core::DEFAULT_ESTIMATE_CACHE_CAPACITY,
        warmup: false,
    },
    MixSpec {
        name: "zipf_warm",
        zipf: 1.1,
        estimate_cache: xpe_core::DEFAULT_ESTIMATE_CACHE_CAPACITY,
        warmup: true,
    },
    MixSpec {
        name: "zipf_warm_nocache",
        zipf: 1.1,
        estimate_cache: 0,
        warmup: true,
    },
];

struct WireClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl WireClient {
    fn connect(addr: SocketAddr) -> WireClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // Each request leaves in one segment, without waiting on Nagle.
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        WireClient { stream, reader }
    }

    /// Sends one request frame, terminator included, in a single write
    /// and reads the reply line.
    fn roundtrip(&mut self, line: &str) -> Json {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        Json::parse(reply.trim_end()).expect("response is JSON")
    }

    fn estimate(&mut self, query: &str) -> Json {
        self.roundtrip(&format!("{{\"op\": \"estimate\", \"query\": \"{query}\"}}"))
    }
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let rank = (p * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)] as f64 / 1e6
}

/// One timed replay of a trace against a fresh daemon.
struct PassResult {
    latencies_ns: Vec<u64>,
    wall_secs: f64,
    est_hit_rate: f64,
    join_hit_rate: f64,
}

/// Per-mix accumulator over the interleaved reps.
struct MixAgg {
    name: &'static str,
    latencies_ns: Vec<u64>,
    wall_secs: f64,
    est_rate_sum: f64,
    join_rate_sum: f64,
    passes: usize,
}

impl MixAgg {
    fn new(name: &'static str) -> MixAgg {
        MixAgg {
            name,
            latencies_ns: Vec::new(),
            wall_secs: 0.0,
            est_rate_sum: 0.0,
            join_rate_sum: 0.0,
            passes: 0,
        }
    }

    fn fold(&mut self, pass: PassResult) {
        self.latencies_ns.extend(pass.latencies_ns);
        self.wall_secs += pass.wall_secs;
        self.est_rate_sum += pass.est_hit_rate;
        self.join_rate_sum += pass.join_hit_rate;
        self.passes += 1;
    }

    fn sorted(&self) -> Vec<u64> {
        let mut s = self.latencies_ns.clone();
        s.sort_unstable();
        s
    }

    fn qps(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.wall_secs
    }

    fn est_rate(&self) -> f64 {
        self.est_rate_sum / self.passes.max(1) as f64
    }

    fn join_rate(&self) -> f64 {
        self.join_rate_sum / self.passes.max(1) as f64
    }
}

/// Boots a fresh daemon for `spec`, optionally pre-touches every
/// template, then replays the trace closed-loop from
/// [`TRAFFIC_CLIENTS`] connections (client `c` takes request indices
/// `c mod TRAFFIC_CLIENTS`, preserving arrival order per connection).
/// Every answer must be `ok` and bit-identical to the direct uncached
/// estimator. Cache hit rates come from the daemon's own `stats` verb
/// before shutdown.
fn traffic_pass(
    summary: &Arc<Summary>,
    trace: &TrafficTrace,
    expected_bits: &HashMap<&str, u64>,
    spec: &MixSpec,
) -> PassResult {
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(summary),
        None,
        ServerConfig {
            estimate_cache_capacity: spec.estimate_cache,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ServerConfig::default()
        },
    )
    .expect("bind traffic port");
    let addr = server.local_addr();
    let server = std::thread::spawn(move || server.run());

    if spec.warmup {
        let mut client = WireClient::connect(addr);
        for template in &trace.templates {
            let resp = client.estimate(&template.case.text);
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("ok"),
                "warmup: {}",
                template.case.text
            );
        }
    }

    let wall = Instant::now();
    let latencies_ns = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..TRAFFIC_CLIENTS {
            handles.push(scope.spawn(move || {
                let mut client = WireClient::connect(addr);
                let mut lat = Vec::new();
                for (i, request) in trace.requests.iter().enumerate() {
                    if i % TRAFFIC_CLIENTS != c {
                        continue;
                    }
                    let text = trace.templates[request.template].case.text.as_str();
                    let t = Instant::now();
                    let resp = client.estimate(text);
                    lat.push(t.elapsed().as_nanos() as u64);
                    assert_eq!(
                        resp.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "mix {}: {text}",
                        spec.name
                    );
                    let served = resp.get("estimate").and_then(Json::as_f64).unwrap();
                    assert_eq!(
                        served.to_bits(),
                        expected_bits[text],
                        "mix {}: {text} served {served}",
                        spec.name
                    );
                }
                lat
            }));
        }
        let mut all = Vec::with_capacity(trace.requests.len());
        for handle in handles {
            all.extend(handle.join().expect("traffic client"));
        }
        all
    });
    let wall_secs = wall.elapsed().as_secs_f64();

    let mut control = WireClient::connect(addr);
    let stats = control.roundtrip("{\"op\": \"stats\"}");
    let rate = |section: &str| {
        stats
            .get("caches")
            .and_then(|c| c.get(section))
            .and_then(|s| s.get("hit_rate"))
            .and_then(Json::as_f64)
            .expect("stats caches section")
    };
    let (est_hit_rate, join_hit_rate) = (rate("estimate"), rate("join"));
    let resp = control.roundtrip("{\"op\": \"shutdown\"}");
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    let _ = server.join().expect("traffic server");

    PassResult {
        latencies_ns,
        wall_secs,
        est_hit_rate,
        join_hit_rate,
    }
}

/// Installs the one-line, backtrace-free panic hook (see the module
/// docs).
fn install_one_line_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        let thread = std::thread::current();
        let location = info
            .location()
            .map_or_else(|| "an unknown location".to_owned(), |l| l.to_string());
        eprintln!(
            "thread '{}' panicked at {location}: {message}",
            thread.name().unwrap_or("<unnamed>")
        );
    }));
}

fn main() {
    install_one_line_panic_hook();
    let ctx = ExpContext::from_env();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Serve snapshot: scale = {}, seed = {}, cores = {cores}, clients = {CLIENTS}, \
         hostiles = {HOSTILES}, rounds = {ROUNDS}",
        ctx.scale, ctx.seed
    );

    // Workload: distinct XMark queries whose text roundtrips through the
    // wire (parseable back, JSON-safe, and not targeting the poison tag).
    let bundle = load(&ctx, Dataset::XMark);
    let summary = Arc::new(Summary::build(&bundle.doc, SummaryConfig::default()));
    let direct = Estimator::new(&summary);
    let mut queries: Vec<(String, u64)> = Vec::new();
    for case in bundle
        .workload
        .simple
        .iter()
        .chain(&bundle.workload.branch)
        .chain(&bundle.workload.order_branch)
        .chain(&bundle.workload.order_trunk)
    {
        if queries.len() >= MAX_QUERIES {
            break;
        }
        let text = case.query.to_string();
        if text.contains('"') || text.contains('\\') || text.contains(POISON_TAG) {
            continue;
        }
        if queries.iter().any(|(t, _)| *t == text) {
            continue;
        }
        match parse_query(&text) {
            Ok(q) => queries.push((text, direct.estimate(&q).to_bits())),
            Err(_) => continue,
        }
    }
    assert!(
        queries.len() >= 8,
        "workload yielded only {} wire-safe queries",
        queries.len()
    );
    println!("  {} distinct queries on the wire", queries.len());

    // Persist the summary so `reload` has a file to re-validate.
    let xps = std::env::temp_dir().join(format!("xpe-bench-serve-{}.xps", std::process::id()));
    std::fs::write(&xps, summary.to_bytes()).expect("persist summary");

    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&summary),
        Some(xps.clone()),
        ServerConfig {
            max_line_bytes: 4096,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            poison_tag: Some(POISON_TAG.to_owned()),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let server = std::thread::spawn(move || server.run());

    let completed = AtomicU64::new(0);
    let stop_hostiles = AtomicBool::new(false);
    let hostile_rounds = AtomicU64::new(0);
    let poison_degraded = AtomicU64::new(0);
    let reload_at = (CLIENTS * ROUNDS / 2) as u64;

    let wall = Instant::now();
    let (latencies_ns, reload_ms) = std::thread::scope(|scope| {
        let mut healthy = Vec::new();
        for c in 0..CLIENTS {
            let (queries, completed) = (&queries, &completed);
            healthy.push(scope.spawn(move || {
                let mut client = WireClient::connect(addr);
                let mut lat = Vec::with_capacity(ROUNDS);
                for round in 0..ROUNDS {
                    let (text, expected_bits) = &queries[(c + round * 7) % queries.len()];
                    let t = Instant::now();
                    let resp = client.estimate(text);
                    lat.push(t.elapsed().as_nanos() as u64);
                    assert_eq!(
                        resp.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "client {c} round {round}: {text}"
                    );
                    let served = resp.get("estimate").and_then(Json::as_f64).unwrap();
                    assert_eq!(
                        served.to_bits(),
                        *expected_bits,
                        "client {c} round {round}: {text} served {served}"
                    );
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                lat
            }));
        }
        for h in 0..HOSTILES {
            let (stop, rounds, poisoned) = (&stop_hostiles, &hostile_rounds, &poison_degraded);
            scope.spawn(move || {
                let mut round = h; // stagger the mix across hostiles
                while !stop.load(Ordering::Relaxed) {
                    match round % 5 {
                        0 => {
                            // Malformed frame: typed error, connection lives.
                            let mut c = WireClient::connect(addr);
                            let resp = c.roundtrip("!!not json");
                            assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
                        }
                        1 => {
                            // Oversized line: typed error, then close.
                            let mut c = WireClient::connect(addr);
                            let long = "x".repeat(8192);
                            let _ = c.stream.write_all(long.as_bytes());
                            let _ = c.stream.write_all(b"\n");
                            let mut reply = String::new();
                            let _ = c.reader.read_line(&mut reply);
                        }
                        2 => {
                            // Mid-frame disconnect: bytes, no newline, gone.
                            let c = WireClient::connect(addr);
                            let _ = (&c.stream).write_all(b"{\"op\": \"esti");
                            let _ = c.stream.shutdown(Shutdown::Both);
                        }
                        3 => {
                            // Half-close after a valid request.
                            let mut c = WireClient::connect(addr);
                            let _ = c.stream.write_all(b"{\"op\": \"ping\"}\n");
                            let _ = c.stream.shutdown(Shutdown::Write);
                            let mut reply = String::new();
                            let _ = c.reader.read_line(&mut reply);
                        }
                        _ => {
                            // Poison-tag query: the panic path answers
                            // `degraded:panicked` on this connection
                            // only.
                            let mut c = WireClient::connect(addr);
                            let resp = c.estimate(&format!("//{POISON_TAG}"));
                            let status = resp.get("status").and_then(Json::as_str).unwrap_or("");
                            assert!(
                                status.starts_with("degraded"),
                                "poison query answered {status:?}"
                            );
                            poisoned.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    rounds.fetch_add(1, Ordering::Relaxed);
                    round += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }

        // Hot reload once half the healthy traffic has landed.
        while completed.load(Ordering::Relaxed) < reload_at {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut control = WireClient::connect(addr);
        let t = Instant::now();
        let resp = control.roundtrip("{\"op\": \"reload\"}");
        let reload_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(resp.get("epoch").and_then(Json::as_f64), Some(2.0));

        let mut latencies: Vec<u64> = Vec::with_capacity(CLIENTS * ROUNDS);
        for handle in healthy {
            latencies.extend(handle.join().expect("healthy client"));
        }
        stop_hostiles.store(true, Ordering::Relaxed);
        (latencies, reload_ms)
    });
    let wall_secs = wall.elapsed().as_secs_f64();

    let resp = WireClient::connect(addr).roundtrip("{\"op\": \"shutdown\"}");
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    let tally = server.join().expect("server thread");
    let _ = std::fs::remove_file(&xps);

    let mut sorted = latencies_ns.clone();
    sorted.sort_unstable();
    let total = sorted.len() as f64;
    let qps = total / wall_secs;
    let (p50, p95, p99, p999) = (
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.95),
        percentile(&sorted, 0.99),
        percentile(&sorted, 0.999),
    );

    print_table(
        "xpe serve under a hostile mix",
        &[
            "Requests",
            "q/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "p99.9 ms",
            "Shed",
            "Hostile rounds",
            "Reload ms",
        ],
        &[vec![
            format!("{}", sorted.len()),
            format!("{qps:.0}"),
            format!("{p50:.3}"),
            format!("{p95:.3}"),
            format!("{p99:.3}"),
            format!("{p999:.3}"),
            format!("{}", tally.overloaded),
            format!("{}", hostile_rounds.load(Ordering::Relaxed)),
            format!("{reload_ms:.2}"),
        ]],
    );
    println!(
        "  lifetime tally: {tally}; poison-degraded answers: {}",
        poison_degraded.load(Ordering::Relaxed)
    );

    // -- traffic replay: production-shaped mixes ------------------------
    //
    // Precompute the uncached ground truth once: every template of every
    // mix must come back bit-identical from the daemon, cached or not.
    let mix_traces: Vec<(usize, TrafficTrace)> = TRAFFIC_MIXES
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let trace = generate_traffic(
                &bundle.workload,
                &TrafficConfig {
                    seed: ctx.seed,
                    zipf_s: spec.zipf,
                    requests: TRAFFIC_REQUESTS,
                    ..TrafficConfig::default()
                },
            );
            (i, trace)
        })
        .collect();
    let mut expected_bits: HashMap<&str, u64> = HashMap::new();
    for (_, trace) in &mix_traces {
        for template in &trace.templates {
            let text = template.case.text.as_str();
            assert!(
                !text.contains('"') && !text.contains('\\') && !text.contains(POISON_TAG),
                "template text is not wire-safe: {text}"
            );
            expected_bits
                .entry(text)
                .or_insert_with(|| direct.estimate(&template.case.query).to_bits());
        }
    }

    // Reps are interleaved round-robin across the mixes so shared-runner
    // noise spreads evenly instead of always taxing the last mix.
    let mut aggs: Vec<MixAgg> = TRAFFIC_MIXES.iter().map(|s| MixAgg::new(s.name)).collect();
    for _rep in 0..TRAFFIC_REPS {
        for (i, trace) in &mix_traces {
            let spec = &TRAFFIC_MIXES[*i];
            let pass = traffic_pass(&summary, trace, &expected_bits, spec);
            aggs[*i].fold(pass);
        }
    }
    let mix_qps = |name: &str| {
        aggs.iter()
            .find(|a| a.name == name)
            .map_or(f64::NAN, MixAgg::qps)
    };
    let warm_skew_speedup = mix_qps("zipf_warm") / mix_qps("uniform_cold");
    let warm_cache_speedup = mix_qps("zipf_warm") / mix_qps("zipf_warm_nocache");

    print_table(
        "Traffic replay (per mix)",
        &[
            "Mix",
            "Requests",
            "q/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "p99.9 ms",
            "Est-cache %",
            "Join %",
        ],
        &aggs
            .iter()
            .map(|a| {
                let s = a.sorted();
                vec![
                    a.name.to_owned(),
                    format!("{}", s.len()),
                    format!("{:.0}", a.qps()),
                    format!("{:.3}", percentile(&s, 0.50)),
                    format!("{:.3}", percentile(&s, 0.95)),
                    format!("{:.3}", percentile(&s, 0.99)),
                    format!("{:.3}", percentile(&s, 0.999)),
                    format!("{:.1}", a.est_rate() * 100.0),
                    format!("{:.1}", a.join_rate() * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "  warm zipf vs uniform cold: {warm_skew_speedup:.2}x; \
         warm zipf vs estimate cache off: {warm_cache_speedup:.2}x"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"scale\": {}, \"seed\": {}, \"cores\": {cores},",
        ctx.scale, ctx.seed
    );
    let _ = writeln!(
        json,
        "  \"clients\": {CLIENTS}, \"rounds_per_client\": {ROUNDS}, \"hostiles\": {HOSTILES}, \
         \"distinct_queries\": {},",
        queries.len()
    );
    let _ = writeln!(
        json,
        "  \"requests\": {}, \"wall_secs\": {wall_secs:.4}, \"qps\": {qps:.1},",
        sorted.len()
    );
    let _ = writeln!(
        json,
        "  \"p50_ms\": {p50:.4}, \"p95_ms\": {p95:.4}, \"p99_ms\": {p99:.4}, \
         \"p999_ms\": {p999:.4},"
    );
    let _ = writeln!(
        json,
        "  \"reload_ms\": {reload_ms:.3}, \"reload_epoch\": 2, \"bit_identical\": true,"
    );
    let _ = writeln!(
        json,
        "  \"hostile_rounds\": {}, \"poison_degraded\": {},",
        hostile_rounds.load(Ordering::Relaxed),
        poison_degraded.load(Ordering::Relaxed)
    );
    json.push_str("  \"traffic\": [\n");
    for (i, a) in aggs.iter().enumerate() {
        let s = a.sorted();
        let _ = write!(
            json,
            "    {{\"mix\": \"{}\", \"requests\": {}, \"reps\": {TRAFFIC_REPS}, \
             \"qps\": {:.1}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \
             \"p999_ms\": {:.4}, \"estimate_cache_hit_rate\": {:.4}, \
             \"join_cache_hit_rate\": {:.4}}}",
            a.name,
            s.len(),
            a.qps(),
            percentile(&s, 0.50),
            percentile(&s, 0.95),
            percentile(&s, 0.99),
            percentile(&s, 0.999),
            a.est_rate(),
            a.join_rate(),
        );
        json.push_str(if i + 1 < aggs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"warm_skew_speedup\": {warm_skew_speedup:.3}, \
         \"warm_cache_speedup\": {warm_cache_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "  \"lifetime\": {{\"ok\": {}, \"degraded\": {}, \"rejected\": {}, \
         \"protocol_errors\": {}, \"timeouts\": {}, \"overloaded\": {}, \"panics\": {}}}",
        tally.ok,
        tally.degraded,
        tally.rejected,
        tally.protocol_errors,
        tally.timeouts,
        tally.overloaded,
        tally.panics
    );
    json.push_str("}\n");

    let out = "results/BENCH_serve.json";
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("\ncould not write {out}: {e}"),
    }
}
