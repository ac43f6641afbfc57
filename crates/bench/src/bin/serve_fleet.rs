//! Connection-fleet load for an `xpe serve` binary: many concurrent
//! connections, or a stream of one-request connections, over a query
//! trace, reporting answers per second and the daemon's peak resident
//! set.
//!
//! ```text
//! serve_fleet <xpe> <summary.xps> <trace.txt> <conns> <keep|once> <seconds>
//! ```
//!
//! Starts `<xpe> serve <summary.xps> --addr 127.0.0.1:0` as a child
//! process, then runs `<conns>` client threads for `<seconds>`. Client
//! `c` sends the trace's lines in order as `estimate` requests, cycling,
//! starting `c / conns` of the way in, so every connection walks the
//! whole template mix rather than one residue class of it. In `keep` mode each client holds one connection for the
//! whole run; in `once` mode it opens a fresh connection per request
//! and closes it after the reply. The trace is one query per line, as
//! `xpe workload` prints it.
//!
//! Prints one JSON line: `answers` (`ok` replies), `errors` (any other
//! reply, a refused connect or a reply lost to a closed connection),
//! `qps` (answers per second) and the daemon's peak resident set,
//! `VmHWM` from `/proc/<pid>/status` (Linux only; `null` elsewhere),
//! read after the fleet stops and before the daemon is shut down. Takes
//! the `xpe` binary as an argument so two builds can be driven alike.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One client's counts.
#[derive(Default)]
struct Tally {
    answers: u64,
    errors: u64,
}

/// Sends `frame` and reads one reply line; `None` if the connection
/// failed or closed first.
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    frame: &[u8],
) -> Option<String> {
    stream.write_all(frame).ok()?;
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(n) if n > 0 => Some(reply),
        _ => None,
    }
}

fn connect(addr: SocketAddr) -> Option<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let reader = BufReader::new(stream.try_clone().ok()?);
    Some((stream, reader))
}

fn record(tally: &mut Tally, reply: Option<String>) {
    match reply {
        Some(line) if line.starts_with("{\"status\":\"ok\"") => tally.answers += 1,
        _ => tally.errors += 1,
    }
}

/// One client: closed loop until `deadline`, from trace line `start`.
fn client(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    start: usize,
    keep: bool,
    deadline: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let mut held = None;
    let mut i = start;
    while Instant::now() < deadline {
        let frame = &frames[i];
        i = (i + 1) % frames.len();
        if !keep {
            let reply = connect(addr).and_then(|(mut s, mut r)| roundtrip(&mut s, &mut r, frame));
            record(&mut tally, reply);
            continue;
        }
        if held.is_none() {
            held = connect(addr);
        }
        let reply = held.as_mut().and_then(|(s, r)| roundtrip(s, r, frame));
        if reply.is_none() {
            held = None;
        }
        record(&mut tally, reply);
    }
    tally
}

/// The `VmHWM` (kB) of `pid`, where `/proc` has it.
fn daemon_hwm_kb(pid: u32) -> Option<u64> {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The running daemon, its stdout (kept open so its exit report can be
/// written) and the address from its banner.
fn start_daemon(xpe: &str, xps: &str) -> (Child, BufReader<ChildStdout>, SocketAddr) {
    let mut child = Command::new(xpe)
        .args(["serve", xps, "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("starting {xpe}: {e}"));
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("daemon banner");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));
    (child, stdout, addr)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, xpe, xps, trace, conns, mode, seconds] = &args[..] else {
        eprintln!(
            "usage: serve_fleet <xpe> <summary.xps> <trace.txt> <conns> <keep|once> <seconds>"
        );
        std::process::exit(2);
    };
    let conns: usize = conns.parse().expect("conns is a count");
    let keep = match mode.as_str() {
        "keep" => true,
        "once" => false,
        other => panic!("mode is keep or once, not {other}"),
    };
    let seconds: f64 = seconds.parse().expect("seconds is a number");
    let frames: Vec<Vec<u8>> = std::fs::read_to_string(trace)
        .expect("read trace")
        .lines()
        .filter(|l| !l.is_empty())
        .map(|q| {
            let q = q.replace('\\', "\\\\").replace('"', "\\\"");
            format!("{{\"op\":\"estimate\",\"query\":\"{q}\"}}\n").into_bytes()
        })
        .collect();
    assert!(!frames.is_empty(), "empty trace");

    let (mut child, mut stdout, addr) = start_daemon(xpe, xps);
    let barrier = Barrier::new(conns + 1);
    let (tallies, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (barrier, frames) = (&barrier, &frames);
                scope.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    client(addr, frames, c * frames.len() / conns, keep, deadline)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (tallies, start.elapsed().as_secs_f64())
    });
    let hwm_kb = daemon_hwm_kb(child.id());
    let answers: u64 = tallies.iter().map(|t| t.answers).sum();
    let errors: u64 = tallies.iter().map(|t| t.errors).sum();

    // The fleet's connections are closed, but their daemon threads may
    // still hold connection slots for a moment: retry the drain request
    // until it is answered, then reap the daemon.
    let shutdown = b"{\"op\":\"shutdown\"}\n";
    let drained = (0..50).any(|_| {
        let reply = connect(addr).and_then(|(mut s, mut r)| roundtrip(&mut s, &mut r, shutdown));
        let ok = reply.is_some_and(|l| l.contains("\"shutting_down\":true"));
        if !ok {
            std::thread::sleep(Duration::from_millis(100));
        }
        ok
    });
    if !drained {
        let _ = child.kill();
    }
    let _ = stdout.read_to_end(&mut Vec::new());
    let _ = child.wait();

    println!(
        "{{\"mode\":\"{mode}\",\"conns\":{conns},\"seconds\":{wall:.3},\"answers\":{answers},\
         \"errors\":{errors},\"qps\":{:.1},\"daemon_vmhwm_kb\":{}}}",
        answers as f64 / wall,
        hwm_kb.map_or("null".to_owned(), |v| v.to_string())
    );
}
