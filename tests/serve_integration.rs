//! Integration: the `xpe serve` daemon over real sockets — concurrent
//! clients get answers bit-identical to direct [`Estimator`] calls, a
//! hostile client cannot perturb healthy ones, and hot reload under live
//! traffic completes with zero failed requests.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use xpe_core::server::{Json, Server, ServerConfig};
use xpe_core::Estimator;
use xpe_synopsis::{Summary, SummaryConfig};
use xpe_xpath::parse_query;

const QUERIES: [&str; 4] = [
    "//A//C",
    "//A/B",
    "//A[/C/F]/B/D",
    "//A[/C[/F]/folls::$B/D]",
];

fn summary() -> Summary {
    Summary::build(
        &xpe_xml::fixtures::paper_figure1(),
        SummaryConfig::default(),
    )
}

fn config() -> ServerConfig {
    ServerConfig {
        read_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
        ..ServerConfig::default()
    }
}

fn spawn(
    summary_path: Option<PathBuf>,
    config: ServerConfig,
) -> (SocketAddr, std::thread::JoinHandle<xpe_core::OutcomeTally>) {
    let server = Server::bind("127.0.0.1:0", Arc::new(summary()), summary_path, config)
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

/// A line-at-a-time protocol client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Each request leaves in one segment, without waiting on Nagle.
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
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

fn shutdown(addr: SocketAddr) {
    let resp = Client::connect(addr).roundtrip("{\"op\": \"shutdown\"}");
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
}

fn direct_estimates() -> Vec<f64> {
    let s = summary();
    let est = Estimator::new(&s);
    QUERIES
        .iter()
        .map(|q| est.estimate(&parse_query(q).unwrap()))
        .collect()
}

#[test]
fn concurrent_clients_are_bit_identical_to_direct_estimation() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 8;
    let expected = direct_estimates();
    let (addr, server) = spawn(None, config());
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for round in 0..ROUNDS {
                    let i = (c + round) % QUERIES.len();
                    let resp = client.estimate(QUERIES[i]);
                    assert_eq!(
                        resp.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "client {c} round {round}"
                    );
                    let served = resp.get("estimate").and_then(Json::as_f64).unwrap();
                    assert_eq!(
                        served.to_bits(),
                        expected[i].to_bits(),
                        "client {c} round {round}: served {served} direct {}",
                        expected[i]
                    );
                }
            });
        }
    });
    shutdown(addr);
    let tally = server.join().unwrap();
    assert_eq!(tally.ok, (CLIENTS * ROUNDS) as u64);
    assert_eq!(tally.protocol_errors, 0);
    assert_eq!(tally.panics, 0);
}

#[test]
fn a_hostile_client_cannot_perturb_healthy_answers() {
    let expected = direct_estimates();
    let (addr, server) = spawn(
        None,
        ServerConfig {
            max_line_bytes: 256,
            ..config()
        },
    );
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The hostile client cycles every abuse the protocol survives:
        // garbage lines, oversized lines, half-closed and mid-frame
        // abandoned connections.
        let stop_ref = &stop;
        scope.spawn(move || {
            let mut round = 0usize;
            while !stop_ref.load(Ordering::Relaxed) {
                match round % 4 {
                    0 => {
                        let mut c = Client::connect(addr);
                        let resp = c.roundtrip("!!garbage");
                        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
                    }
                    1 => {
                        let mut c = Client::connect(addr);
                        let long = "x".repeat(4096);
                        let _ = c.stream.write_all(long.as_bytes());
                        let _ = c.stream.write_all(b"\n");
                        let mut reply = String::new();
                        let _ = c.reader.read_line(&mut reply);
                    }
                    2 => {
                        // Mid-frame disconnect: bytes but no newline.
                        let c = Client::connect(addr);
                        let _ = (&c.stream).write_all(b"{\"op\": \"esti");
                        let _ = c.stream.shutdown(Shutdown::Both);
                    }
                    _ => {
                        // Half-close after a valid request.
                        let mut c = Client::connect(addr);
                        let _ = c.stream.write_all(b"{\"op\": \"ping\"}\n");
                        let _ = c.stream.shutdown(Shutdown::Write);
                        let mut reply = String::new();
                        let _ = c.reader.read_line(&mut reply);
                    }
                }
                round += 1;
            }
        });
        let mut client = Client::connect(addr);
        for round in 0..32 {
            let i = round % QUERIES.len();
            let resp = client.estimate(QUERIES[i]);
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("ok"),
                "round {round}"
            );
            let served = resp.get("estimate").and_then(Json::as_f64).unwrap();
            assert_eq!(served.to_bits(), expected[i].to_bits(), "round {round}");
        }
        stop.store(true, Ordering::Relaxed);
    });
    shutdown(addr);
    let tally = server.join().unwrap();
    assert_eq!(tally.panics, 0);
    assert!(tally.ok >= 32, "healthy requests all served: {tally}");
}

#[test]
fn reload_under_live_traffic_loses_no_request() {
    const CLIENTS: usize = 3;
    let expected = direct_estimates();
    let path =
        std::env::temp_dir().join(format!("xpe-serve-integration-{}.xps", std::process::id()));
    std::fs::write(&path, summary().to_bytes()).expect("persist summary");
    let (addr, server) = spawn(Some(path.clone()), config());
    // Phase gates: every client completes one epoch-1 request before the
    // reloads start, and keeps querying until both reloads are published.
    let started = Barrier::new(CLIENTS + 1);
    let reloaded = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (started, reloaded, expected) = (&started, &reloaded, &expected);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                let resp = client.estimate(QUERIES[c % QUERIES.len()]);
                assert_eq!(resp.get("epoch").and_then(Json::as_f64), Some(1.0));
                started.wait();
                let mut rounds = 0usize;
                loop {
                    let done = reloaded.load(Ordering::Relaxed);
                    let i = rounds % QUERIES.len();
                    let resp = client.estimate(QUERIES[i]);
                    // The contract under reload: zero failures, answers
                    // bit-identical on every epoch (same summary file).
                    assert_eq!(
                        resp.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "client {c} round {rounds} mid-reload"
                    );
                    let served = resp.get("estimate").and_then(Json::as_f64).unwrap();
                    assert_eq!(served.to_bits(), expected[i].to_bits());
                    let epoch = resp.get("epoch").and_then(Json::as_f64).unwrap();
                    assert!((1.0..=3.0).contains(&epoch), "epoch {epoch}");
                    rounds += 1;
                    if done {
                        assert_eq!(epoch, 3.0, "post-reload epoch");
                        break;
                    }
                }
            });
        }
        started.wait();
        let mut control = Client::connect(addr);
        for expected_epoch in [2.0, 3.0] {
            let resp = control.roundtrip("{\"op\": \"reload\"}");
            assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
            assert_eq!(
                resp.get("epoch").and_then(Json::as_f64),
                Some(expected_epoch)
            );
        }
        reloaded.store(true, Ordering::Relaxed);
    });
    shutdown(addr);
    let tally = server.join().unwrap();
    assert_eq!(tally.panics, 0);
    assert_eq!(tally.rejected, 0);
    let _ = std::fs::remove_file(&path);
}

/// The estimate cache must die with its generation: after a reload
/// swaps in a *different* summary, no client may ever receive an
/// epoch-2 response carrying the epoch-1 summary's (cached) value, and
/// no epoch-1 response may carry the new summary's value. Clients
/// hammer one query so epoch-1 answers are warm cache hits when the
/// reload lands mid-traffic.
#[test]
fn reload_with_caching_enabled_serves_zero_stale_answers() {
    const CLIENTS: usize = 3;
    const QUERY: &str = "//A//C";
    let parsed = parse_query(QUERY).unwrap();
    let summary_a = summary();
    // A different corpus over the same tags, so the two generations
    // genuinely disagree on QUERY — the precondition a staleness test
    // lives on.
    let doc_b = xpe_xml::parse_document("<R><A><C/><C/><B><C/></B></A><A><C/></A><A><B/></A></R>")
        .expect("inline corpus parses");
    let summary_b = Summary::build(&doc_b, SummaryConfig::default());
    let bits_a = Estimator::new(&summary_a).estimate(&parsed).to_bits();
    let bits_b = Estimator::new(&summary_b).estimate(&parsed).to_bits();
    assert_ne!(bits_a, bits_b, "summaries must disagree on {QUERY}");

    let path =
        std::env::temp_dir().join(format!("xpe-serve-stale-cache-{}.xps", std::process::id()));
    std::fs::write(&path, summary_a.to_bytes()).expect("persist summary A");
    let (addr, server) = spawn(Some(path.clone()), config());

    let started = Barrier::new(CLIENTS + 1);
    let reloaded = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (started, reloaded) = (&started, &reloaded);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                // One warm-up hit before the reload is allowed to start.
                let resp = client.estimate(QUERY);
                assert_eq!(resp.get("epoch").and_then(Json::as_f64), Some(1.0));
                started.wait();
                loop {
                    let done = reloaded.load(Ordering::Relaxed);
                    let resp = client.estimate(QUERY);
                    assert_eq!(
                        resp.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "client {c} mid-reload"
                    );
                    let served = resp.get("estimate").and_then(Json::as_f64).unwrap();
                    let epoch = resp.get("epoch").and_then(Json::as_f64).unwrap();
                    // The whole point: the served value must match the
                    // summary of the epoch that served it, bitwise.
                    if epoch == 1.0 {
                        assert_eq!(
                            served.to_bits(),
                            bits_a,
                            "client {c}: epoch-1 answer from summary B"
                        );
                    } else {
                        assert_eq!(epoch, 2.0, "client {c}: unexpected epoch");
                        assert_eq!(
                            served.to_bits(),
                            bits_b,
                            "client {c}: stale cached answer crossed the epoch bump"
                        );
                    }
                    if done && epoch == 2.0 {
                        break;
                    }
                }
            });
        }
        started.wait();
        // Swap the on-disk summary under the running server, then reload
        // while the clients keep hammering the (cached) query.
        std::fs::write(&path, summary_b.to_bytes()).expect("persist summary B");
        let mut control = Client::connect(addr);
        let resp = control.roundtrip("{\"op\": \"reload\"}");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(resp.get("epoch").and_then(Json::as_f64), Some(2.0));
        reloaded.store(true, Ordering::Relaxed);
    });
    shutdown(addr);
    let tally = server.join().unwrap();
    assert_eq!(tally.panics, 0);
    assert_eq!(tally.rejected, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_reload_keeps_the_old_generation_serving() {
    let expected = direct_estimates();
    let (addr, server) = spawn(None, config());
    let mut client = Client::connect(addr);
    let resp = client.roundtrip("{\"op\": \"reload\", \"path\": \"/nonexistent/image.xps\"}");
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("reload-failed")
    );
    // Still epoch 1, still bit-identical.
    let resp = client.estimate(QUERIES[0]);
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(resp.get("epoch").and_then(Json::as_f64), Some(1.0));
    let served = resp.get("estimate").and_then(Json::as_f64).unwrap();
    assert_eq!(served.to_bits(), expected[0].to_bits());
    drop(client);
    shutdown(addr);
    let tally = server.join().unwrap();
    assert_eq!(tally.ok, 1);
    assert_eq!(tally.panics, 0);
}

/// A query nested past the XML depth cap — 8,000 nested predicates or a
/// 20,000-step chain, both under the default 64 KiB line cap — earns a
/// typed `bad-query` error instead of overflowing a connection thread's
/// stack, and the same connection still answers `ping` afterwards.
#[test]
fn hostile_query_depth_gets_a_typed_error_and_the_daemon_stays_up() {
    let (addr, server) = spawn(None, config());
    let mut client = Client::connect(addr);
    let nested = format!("//a{}{}", "[a".repeat(7_999), "]".repeat(7_999));
    for query in [nested, "/a".repeat(20_000)] {
        assert!(query.len() < ServerConfig::default().max_line_bytes);
        let resp = client.estimate(&query);
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("protocol:bad-query")
        );
        let resp = client.roundtrip("{\"op\": \"ping\"}");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    }
    drop(client);
    shutdown(addr);
    let tally = server.join().unwrap();
    assert_eq!(tally.panics, 0);
}
