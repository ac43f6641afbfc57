//! `serve_zipf`: steady-state production traffic against `xpe serve`.
//!
//! Fresh daemons serve the shared corpus's `.xps`, three per untraced
//! run. On each, every template of a seeded Zipf(s = 1.1) trace is
//! touched once, then one connection per core replays the trace
//! closed-loop: each caller is a query optimizer that blocks on its
//! estimate before it can plan. Nearly every answer comes from the
//! estimate cache, so framing, JSON, the queue hop and the socket carry
//! the time. Not listed in `BENCHMARK.json`: too unsteady on a shared
//! host (see `perfbench/README.md`).
//!
//! The load generator measures the daemon, not itself: every frame
//! leaves in one write on a `TCP_NODELAY` socket, one process drives no
//! more connections than there are cores, a ping check refuses to run
//! when round trips stall on delayed ACKs, and the generator's own CPU
//! share is reported.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use xpe::datagen::{generate_traffic, MixClass, TrafficConfig, TrafficTrace};
use xpe::estimator::server::Json;
use xpe::estimator::EstimationEngine;
use xpe::synopsis::Summary;

use crate::corpus::{Case, Corpus};
use crate::replay::{frame_for, Generation, Replay};
use crate::trace::{layer_totals, Tracer};
use crate::{stats, sys, Opts, Report};

/// Zipf exponent of template popularity.
const ZIPF_S: f64 = 1.1;
/// Trace length; connections cycle through it until time is up.
const TRACE_REQUESTS: usize = 1 << 16;
/// Measured time is cut into slices this long; figures are slice medians.
const SLICE: Duration = Duration::from_millis(500);
/// Fresh daemons the measured time of an untraced run is split over.
const INSTANCES: u32 = 3;
/// Unmeasured closed-loop traffic before each measured part.
const WARM_LOOP: Duration = Duration::from_secs(1);
/// Length of one untraced or traced slice of a traced run.
const TRACE_SLICE_S: f64 = 1.0;
/// Daemon starts behind the `setup_s` median.
const SETUP_SPAWNS: usize = 21;
/// Pings in the delayed-ACK check.
const PINGS: usize = 64;
/// A median ping above this means round trips wait on delayed ACKs
/// (~40 ms on Linux) and the client, not the daemon, sets the pace.
const STALL_MS: f64 = 10.0;
/// Lowest estimate-cache hit rate that still makes this the warm
/// workload.
const MIN_HIT_RATE: f64 = 0.9;

/// A running `xpe serve`; killed and reaped on drop unless shut down.
struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(xpe: &Path, xps: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(xpe)
            .arg("serve")
            .arg(xps)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", xpe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // The daemon prints its resolved address before serving.
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon output: {line:?}"))?;
        Ok(daemon)
    }

    /// Graceful drain through the `shutdown` verb; waits for exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(self.addr)?;
        let reply = conn.roundtrip(b"{\"op\":\"shutdown\"}\n")?;
        if !reply.contains("\"shutting_down\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        // Read the exit tally so the daemon never writes to a closed pipe.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .take()
            .expect("running")
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection: `TCP_NODELAY`, one write per frame.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let io = |e: std::io::Error| format!("connecting to {addr}: {e}");
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// Sends one newline-terminated frame in a single write and reads
    /// the reply line.
    fn roundtrip(&mut self, frame: &[u8]) -> Result<&str, String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("sending: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("receiving: {e}")),
        }
    }
}

/// The estimate of an `ok` reply; `None` for any other status.
fn ok_estimate(reply: &str) -> Option<f64> {
    let json = Json::parse(reply).ok()?;
    if json.get("status")?.as_str()? != "ok" {
        return None;
    }
    json.get("estimate")?.as_f64()
}

/// One trace template: its request frame and the case it asks.
struct Template<'c> {
    frame: Vec<u8>,
    case: &'c Case,
}

/// What one connection saw.
#[derive(Default)]
struct Tally {
    rtt_us: Vec<f64>,
    /// When each answer in `rtt_us` completed, ns after its phase began.
    done_ns: Vec<u64>,
    /// `ok` answers per template.
    served: Vec<u64>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    transport_ns: u64,
    traced_requests: u64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.rtt_us.extend(other.rtt_us);
        self.done_ns.extend(other.done_ns);
        if self.served.len() < other.served.len() {
            self.served.resize(other.served.len(), 0);
        }
        for (a, b) in self.served.iter_mut().zip(other.served) {
            *a += b;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.transport_ns += other.transport_ns;
        self.traced_requests += other.traced_requests;
    }
}

/// Sends one request and checks the answer; with a replay, also runs
/// the request in process and records the derived transport time.
fn request(
    conn: &mut Conn,
    template: usize,
    templates: &[Template<'_>],
    tally: &mut Tally,
    phase_start: Instant,
    mut traced: Option<(&mut Replay<'_>, &mut Tracer)>,
) -> Result<(), String> {
    let t = &templates[template];
    tally.attempted += 1;
    let start = Instant::now();
    let reply = conn.roundtrip(&t.frame);
    let rtt_ns = start.elapsed().as_nanos() as u64;
    let Some(value) = reply.as_deref().ok().and_then(ok_estimate) else {
        tally.failed += 1;
        return reply.map(|_| ());
    };
    tally.rtt_us.push(rtt_ns as f64 / 1e3);
    tally
        .done_ns
        .push((start - phase_start).as_nanos() as u64 + rtt_ns);
    tally.served[template] += 1;
    if value.to_bits() != t.case.reference.to_bits() {
        eprintln!(
            "error: {} served {value}, reference {}",
            t.case.text, t.case.reference
        );
        tally.mismatches += 1;
    }
    if let Some((replay, tracer)) = traced.as_mut() {
        let end = tracer.now();
        tracer.record("server.roundtrip", end.saturating_sub(rtt_ns), end);
        let (local, layer_ns) = replay.run(&t.frame, tracer)?;
        if local.to_bits() != t.case.reference.to_bits() {
            tally.mismatches += 1;
        }
        tally.transport_ns += rtt_ns.saturating_sub(layer_ns);
        tally.traced_requests += 1;
    }
    Ok(())
}

/// Closed loop over `conns` connections until `deadline`; connection
/// `c` replays requests `c, c + conns, …` of the trace, cycling.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    trace: &TrafficTrace,
    templates: &[Template<'_>],
    conns: usize,
    seconds: Duration,
    replay: Option<&Generation<'_>>,
    epoch: Instant,
    next_request: u64,
) -> Result<(Tally, Vec<Tracer>, f64), String> {
    let barrier = Barrier::new(conns + 1);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<(Tally, Tracer), String> {
                    let mut conn = Conn::connect(addr);
                    let mut local = replay.map(Replay::new);
                    let mut tracer = Tracer::new(epoch);
                    let mut tally = Tally {
                        served: vec![0; templates.len()],
                        ..Tally::default()
                    };
                    barrier.wait();
                    let phase_start = Instant::now();
                    let deadline = phase_start + seconds;
                    let conn = conn.as_mut().map_err(|e| e.clone())?;
                    let mut i = c;
                    let mut id = next_request + c as u64;
                    while Instant::now() < deadline {
                        tracer.set_request(id);
                        let traced = local.as_mut().map(|r| (r, &mut tracer));
                        let template = trace.requests[i].template;
                        request(conn, template, templates, &mut tally, phase_start, traced)?;
                        i = (i + conns) % trace.requests.len();
                        id += conns as u64;
                    }
                    Ok((tally, tracer))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (joined, start.elapsed().as_secs_f64())
    });
    let (joined, wall) = results;
    let mut tally = Tally::default();
    let mut tracers = Vec::new();
    for j in joined {
        let (t, tr) = j.map_err(|_| "a load-generator thread panicked".to_string())??;
        tally.merge(t);
        tracers.push(tr);
    }
    Ok((tally, tracers, wall))
}

/// Starts a daemon and times it from spawn to the first `ok` ping.
fn start_daemon(opts: &Opts, xps: &Path) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(&opts.xpe, xps)?;
    let pong = Conn::connect(daemon.addr)?
        .roundtrip(b"{\"op\":\"ping\"}\n")?
        .contains("\"pong\":true");
    if !pong {
        return Err("the daemon did not answer ping".into());
    }
    Ok((daemon, t.elapsed().as_secs_f64()))
}

/// Readies a fresh daemon for measurement and returns the median ping
/// round trip in ms. Refuses a client that stalls on delayed ACKs, then
/// touches every template once on one connection (checked, and replayed
/// in process when traced), then sends unmeasured closed-loop traffic
/// so the measured part starts with threads placed and clocks up.
fn prepare(
    addr: SocketAddr,
    trace: &TrafficTrace,
    templates: &[Template<'_>],
    conns: usize,
    mut replay: Option<(&mut Replay<'_>, &mut Tracer)>,
    epoch: Instant,
) -> Result<f64, String> {
    let mut conn = Conn::connect(addr)?;
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        conn.roundtrip(b"{\"op\":\"ping\"}\n")?;
        pings.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let ping_ms = stats::median(&stats::sorted(&pings));
    if ping_ms > STALL_MS {
        return Err(format!(
            "ping round trips take {ping_ms:.1} ms: the client stalls on delayed ACKs"
        ));
    }
    let mut warm = Tally {
        served: vec![0; templates.len()],
        ..Tally::default()
    };
    let start = Instant::now();
    for i in 0..templates.len() {
        let traced = replay.as_mut().map(|(r, tracer)| {
            tracer.set_request(i as u64);
            (&mut **r, &mut **tracer)
        });
        request(&mut conn, i, templates, &mut warm, start, traced)?;
    }
    let (looped, _, _) = drive(addr, trace, templates, conns, WARM_LOOP, None, epoch, 0)?;
    if warm.failed + looped.failed > 0 || warm.mismatches + looped.mismatches > 0 {
        return Err("warm-up answers were not all ok and bit-identical".into());
    }
    Ok(ping_ms)
}

/// Each template's expected share of arrivals: its class's mix weight
/// times its Zipf probability among the class's templates — the
/// distribution `generate_traffic` samples from.
fn arrival_shares(trace: &TrafficTrace, config: &TrafficConfig) -> Vec<f64> {
    let (s, b, o) = config.mix;
    let class_weight = |c: MixClass| match c {
        MixClass::Simple => s,
        MixClass::Branch => b,
        MixClass::Order => o,
    };
    let zipf = |rank: usize| 1.0 / ((rank + 1) as f64).powf(config.zipf_s);
    let mut class_mass: HashMap<MixClass, f64> = HashMap::new();
    for t in &trace.templates {
        *class_mass.entry(t.class).or_default() += zipf(t.rank);
    }
    let total_weight: f64 = class_mass.keys().map(|&c| class_weight(c)).sum();
    trace
        .templates
        .iter()
        .map(|t| class_weight(t.class) / total_weight * zipf(t.rank) / class_mass[&t.class])
        .collect()
}

/// Answers per second, median and p99 round trip (µs) of each whole
/// [`SLICE`] of a phase that holds enough answers for a p99. Reporting
/// the median slice keeps a burst of interference from a neighbour on a
/// shared host from moving a run's figures.
fn per_slice(tally: &Tally, phase: Duration) -> Vec<(f64, f64, f64)> {
    let slice_ns = SLICE.as_nanos() as u64;
    let mut buckets = vec![Vec::new(); (phase.as_nanos() as u64 / slice_ns) as usize];
    for (&rtt, &done) in tally.rtt_us.iter().zip(&tally.done_ns) {
        if let Some(b) = buckets.get_mut((done / slice_ns) as usize) {
            b.push(rtt);
        }
    }
    buckets
        .iter()
        .filter_map(|b| {
            let s = stats::sorted(b);
            let rate = b.len() as f64 / SLICE.as_secs_f64();
            Some((rate, stats::median(&s), stats::percentile(&s, 990)?))
        })
        .collect()
}

/// The daemon's `stats` verb: `(section, field)` → number.
fn daemon_stats(addr: SocketAddr) -> Result<HashMap<(&'static str, &'static str), f64>, String> {
    let mut conn = Conn::connect(addr)?;
    let json = Json::parse(conn.roundtrip(b"{\"op\":\"stats\"}\n")?)
        .map_err(|e| format!("stats reply: {e}"))?;
    let mut out = HashMap::new();
    for (section, field) in [
        ("estimate", "hit_rate"),
        ("estimate", "inserts"),
        ("estimate", "invalidations"),
        ("join", "hit_rate"),
    ] {
        let v = json
            .get("caches")
            .and_then(|c| c.get(section))
            .and_then(|s| s.get(field))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stats reply lacks caches.{section}.{field}"))?;
        out.insert((section, field), v);
    }
    Ok(out)
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let corpus = Corpus::load()?;
    let xps = opts.workdir.join("summary.xps");
    std::fs::write(&xps, &corpus.xps).map_err(|e| format!("writing {}: {e}", xps.display()))?;
    let config = TrafficConfig {
        seed: opts.seed,
        zipf_s: ZIPF_S,
        requests: TRACE_REQUESTS,
        ..TrafficConfig::default()
    };
    let trace = generate_traffic(&corpus.workload, &config);
    let by_text: HashMap<&str, &Case> = corpus.cases.iter().map(|c| (c.text.as_str(), c)).collect();
    let templates = trace
        .templates
        .iter()
        .map(|t| {
            let case = by_text
                .get(t.case.text.as_str())
                .ok_or_else(|| format!("template {} is not a corpus query", t.case.text))?;
            Ok(Template {
                frame: frame_for(&t.case.text),
                case,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut report = Report::default();
    report.param_str("dataset", "XMark");
    report.param("scale", crate::corpus::SCALE);
    report.param("corpus_seed", crate::corpus::CORPUS_SEED);
    report.param("zipf_s", ZIPF_S);
    report.param("templates", templates.len());
    report.param("connections", conns);

    // Set-up: daemon start to the first `ok` ping, median over every
    // start of the run.
    let mut setup = Vec::new();
    for _ in 0..SETUP_SPAWNS {
        let (daemon, secs) = start_daemon(opts, &xps)?;
        setup.push(secs);
        daemon.shutdown()?;
    }
    let summary = Summary::from_bytes(&corpus.xps).map_err(|e| format!("decoding summary: {e}"))?;
    let replay_engine = EstimationEngine::new(&summary);
    let generation = Generation::new(&replay_engine);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    if !opts.trace {
        // The measured time is split over several fresh daemons: how one
        // instance's threads land on a shared host's cores moves all of
        // its figures together, and the median slice across instances
        // does not follow any one of them.
        let phase = opts.seconds / INSTANCES;
        let mut tally = Tally::default();
        let mut slices = Vec::new();
        let (mut wall, mut cpu) = (0.0, 0.0);
        let (mut pings, mut hit_rates) = (Vec::new(), Vec::new());
        for _ in 0..INSTANCES {
            let (daemon, secs) = start_daemon(opts, &xps)?;
            setup.push(secs);
            pings.push(prepare(
                daemon.addr,
                &trace,
                &templates,
                conns,
                None,
                epoch,
            )?);
            let cpu_start = sys::cpu_seconds();
            let (t, _, w) = drive(
                daemon.addr,
                &trace,
                &templates,
                conns,
                phase,
                None,
                epoch,
                0,
            )?;
            cpu += sys::cpu_seconds() - cpu_start;
            wall += w;
            slices.extend(per_slice(&t, phase));
            tally.merge(t);
            let hit_rate = daemon_stats(daemon.addr)?[&("estimate", "hit_rate")];
            daemon.shutdown()?;
            if hit_rate < MIN_HIT_RATE {
                return Err(format!(
                    "serve_zipf is not warm: estimate-cache hit rate {hit_rate:.3} < {MIN_HIT_RATE}"
                ));
            }
            hit_rates.push(hit_rate);
        }
        report.param("ping_median_ms", format!("{pings:?}"));
        report.param("estcache_hit_rate", format!("{hit_rates:?}"));
        if slices.is_empty() {
            return Err("no slice holds enough answers for a p99".into());
        }
        report.attempted = tally.attempted;
        report.failed = tally.failed;
        report.correct = tally.mismatches == 0;
        let median_of = |f: fn(&(f64, f64, f64)) -> f64| {
            stats::median(&stats::sorted(&slices.iter().map(f).collect::<Vec<_>>()))
        };
        report.param("instances", INSTANCES);
        report.param("latency_samples", tally.rtt_us.len());
        report.param("slices", slices.len());
        report.param("mean_throughput", tally.rtt_us.len() as f64 / wall);
        report.param("loadgen_cpu_frac", cpu / wall);
        report.metric("setup_s", stats::median(&stats::sorted(&setup)));
        report.metric("throughput", median_of(|s| s.0));
        report.param("latency_p50_us", median_of(|s| s.1));
        report.param("latency_p99_us", median_of(|s| s.2));
        // Weighted by each template's expected share of arrivals, in
        // parts per 10^12, so the figures do not move with the seed.
        let weighted = templates
            .iter()
            .zip(arrival_shares(&trace, &config))
            .map(|(t, share)| (Corpus::error_of(t.case), (share * 1e12).round() as u64))
            .collect();
        crate::error_metrics(&mut report, weighted);
        report.metric("summary_bytes", corpus.xps.len() as f64);
        report.metric("peak_rss_mb", sys::children_peak_rss_mb());
        return Ok(report);
    }

    // A traced run uses one daemon, warmed through the in-process replay
    // (the warm-up holds its only cold estimates), and alternates
    // untraced and traced slices so drift over the run taxes both sides
    // of the overhead ratio alike.
    let (daemon, _) = start_daemon(opts, &xps)?;
    let addr = daemon.addr;
    let mut warm_replay = Replay::new(&generation);
    prepare(
        addr,
        &trace,
        &templates,
        conns,
        Some((&mut warm_replay, &mut tracer)),
        epoch,
    )?;
    let slices = (opts.seconds.as_secs_f64() / (2.0 * TRACE_SLICE_S))
        .ceil()
        .max(1.0) as u32;
    let slice = opts.seconds / (2 * slices);
    let mut tally = Tally::default();
    let mut traced = Tally::default();
    let (mut wall, mut traced_wall, mut cpu) = (0.0, 0.0, 0.0);
    let mut next_request = templates.len() as u64;
    for _ in 0..slices {
        let cpu_start = sys::cpu_seconds();
        let (t, _, w) = drive(addr, &trace, &templates, conns, slice, None, epoch, 0)?;
        cpu += sys::cpu_seconds() - cpu_start;
        wall += w;
        tally.merge(t);
        let replay = Some(&generation);
        let (t, tracers, w) = drive(
            addr,
            &trace,
            &templates,
            conns,
            slice,
            replay,
            epoch,
            next_request,
        )?;
        next_request += t.attempted + conns as u64;
        traced_wall += w;
        traced.merge(t);
        for t in tracers {
            tracer.absorb(t);
        }
    }
    let cpu_frac = cpu / wall;
    let untraced_qps = tally.rtt_us.len() as f64 / wall;
    report.attempted = tally.attempted + traced.attempted;
    report.failed = tally.failed + traced.failed;
    report.correct = tally.mismatches == 0 && traced.mismatches == 0;
    let stats = daemon_stats(addr)?;
    daemon.shutdown()?;
    let traced_qps = traced.rtt_us.len() as f64 / traced_wall;
    report.param("traced_requests", traced.traced_requests);
    let totals = layer_totals(tracer.spans());
    let mean_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_us());
    // The warm-up is this workload's one cold pass over its templates.
    let cold_pass_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    for (metric, span) in [
        ("server.frame_us", "server.frame"),
        ("server.request_parse_us", "server.request_parse"),
        ("xpath.parse_us", "xpath.parse"),
        ("serve.admit_us", "serve.admit"),
        ("estcache.key_us", "estcache.key"),
        ("estcache.lookup_us", "estcache.lookup"),
        ("estcache.insert_us", "estcache.insert"),
        ("planner.plan_us", "planner.plan"),
        ("estimator.estimate_us", "estimator.estimate"),
    ] {
        report.metric(metric, mean_us(span));
    }
    for (metric, span) in [
        ("join.screen_ms", "join.screen"),
        ("join.fixpoint_ms", "join.fixpoint"),
        ("join.finalize_ms", "join.finalize"),
    ] {
        report.metric(metric, cold_pass_ms(span));
    }
    report.metric(
        "server.transport_us",
        traced.transport_ns as f64 / traced.traced_requests.max(1) as f64 / 1e3,
    );
    report.metric("estcache.hit_rate", stats[&("estimate", "hit_rate")]);
    report.metric("estcache.inserts", stats[&("estimate", "inserts")]);
    report.metric(
        "estcache.invalidations",
        stats[&("estimate", "invalidations")],
    );
    report.metric("joincache.hit_rate", stats[&("join", "hit_rate")]);
    let k = replay_engine.kernel_stats();
    report.metric("join.adjacency_builds", k.adjacency_builds as f64);
    report.metric("join.adjacency_build_ms", k.adjacency_build_ms);
    report.metric("join.adjacency_pairs", k.adjacency_pairs as f64);
    report.metric(
        "synopsis.decode_ms",
        crate::median_secs(SETUP_SPAWNS, || {
            Summary::from_bytes(&corpus.xps)
                .map(|_| ())
                .map_err(|e| format!("decoding summary: {e}"))
        })? * 1e3,
    );
    report.metric("loadgen.cpu_frac", cpu_frac);
    crate::finish_trace(&mut report, opts, &tracer, untraced_qps, traced_qps)?;
    Ok(report)
}
