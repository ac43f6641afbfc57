//! The network serving daemon behind `xpe serve`: a long-lived TCP
//! server speaking **line-delimited JSON** (one request object per line,
//! one response object per line), std-only — framing, parsing, and
//! rendering are all hand-rolled here.
//!
//! # Protocol
//!
//! ```text
//! request  := json-object "\n"          (LF- or CRLF-terminated)
//! verbs    := {"op":"estimate","query":"//A//C"}
//!           | {"op":"stats"}
//!           | {"op":"reload"}           (re-validate + swap the summary)
//!           | {"op":"reload","path":"other.xps"}
//!           | {"op":"ping"}
//!           | {"op":"shutdown"}         (graceful drain)
//! response := {"status":"ok",...}
//!           | {"status":"degraded:<why>"|"rejected:<limit>",...}
//!           | {"status":"error","error":"<code>","detail":"..."}
//! ```
//!
//! # Threading model
//!
//! One acceptor thread and one thread per open connection, at most
//! [`ServerConfig::max_connections`] of them. A connection thread reads
//! a frame, answers it, and only then reads the next. It runs its
//! estimates itself, so an estimate never waits on another thread, and
//! in-flight estimates can never outnumber open connections.
//!
//! # Robustness model
//!
//! Every layer sheds hostile input instead of stalling on it:
//!
//! * **Framing** — a per-connection line cap bounds memory. The read
//!   timeout is a deadline per request: a connection that completes no
//!   request frame within it is closed, and blank lines or a frame
//!   trickled in byte by byte do not extend it. The write timeout closes
//!   a peer that stops draining replies. Oversized or truncated frames
//!   earn a typed error and a close; in-line garbage earns a typed error
//!   and the connection keeps going (garbage-then-valid pipelining
//!   works).
//! * **Shedding** — the acceptor answers a connection past the cap with
//!   one typed `overloaded` line and closes it, without ever blocking on
//!   it (shed, don't stall). An open connection holds its slot for as
//!   long as it keeps sending requests, so `max_connections` busy peers
//!   — or hostile ones sending a request per read timeout — can fill
//!   the cap and have every later connection shed; admitted connections
//!   are never slowed by it.
//! * **Admission + budgets** — every request runs under the server's
//!   [`QueryLimits`] and [`Budget`], surfacing [`EstimateStatus`] as a
//!   compact `status` code in every response.
//! * **Panic isolation** — each estimate runs on its connection thread
//!   under the panic guard the batch engine's workers also use
//!   ([`EstimationEngine::try_estimate_batch_with`](crate::EstimationEngine::try_estimate_batch_with)).
//!   A panic is answered as `degraded:panicked` with the tag-bound value
//!   on that connection, the estimator it unwound through is dropped and
//!   the next estimate builds a fresh one, and other connections keep
//!   their bit-identical answers.
//! * **Hot reload** — `reload` fully validates the new `.xps` (checksum
//!   included), then atomically publishes a fresh `Generation`
//!   (summary + caches) under a bumped epoch. A connection compares
//!   epochs before each estimate and moves to the new generation there;
//!   an estimate already running finishes on the generation it started
//!   with, and a failed validation leaves the old generation serving.
//! * **Graceful drain** — `shutdown` stops the acceptor; every connection
//!   thread answers its next frame with `shutting-down` and exits, and
//!   the run loop returns the lifetime tally once all have.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use xpe_pathid::JoinIndexCache;
use xpe_synopsis::Summary;
use xpe_xpath::{parse_query, Query};

use crate::serve::{isolated_estimate, OutcomeTally};
use crate::{
    Budget, EstimateCache, EstimateOutcome, EstimateStatus, Estimator, JoinCache, QueryLimits,
    DEFAULT_ESTIMATE_CACHE_CAPACITY, DEFAULT_JOIN_CACHE_CAPACITY,
};

// ---------------------------------------------------------------------------
// Minimal JSON reader
// ---------------------------------------------------------------------------

/// A parsed JSON value — the minimal reader the wire protocol needs
/// (also reused by the fault harness and the serve bench's client side).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64` (`str::parse`, so a float printed with
    /// Rust's shortest-roundtrip `Display` parses back bit-identical).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is a
    /// [`ProtocolError::BadJson`].
    pub fn parse(text: &str) -> Result<Json, ProtocolError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(bad_json(format!("trailing bytes at offset {pos}")));
        }
        Ok(value)
    }

    /// Looks up `key` when this value is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Nesting cap for the recursive-descent parser — far above anything the
/// protocol sends, low enough that hostile deep nesting cannot overflow
/// the stack.
const MAX_JSON_DEPTH: usize = 32;

fn bad_json(detail: impl Into<String>) -> ProtocolError {
    ProtocolError::BadJson {
        detail: detail.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn expect_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &'static str,
    value: Json,
) -> Result<Json, ProtocolError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(bad_json(format!("expected `{literal}` at offset {pos}")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ProtocolError> {
    if depth > MAX_JSON_DEPTH {
        return Err(bad_json("nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(bad_json("unexpected end of input")),
        Some(b'n') => expect_literal(bytes, pos, "null", Json::Null),
        Some(b't') => expect_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(bad_json(format!("expected `,` or `]` at offset {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(bad_json(format!("expected `:` at offset {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(bad_json(format!("expected `,` or `}}` at offset {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ProtocolError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(bad_json(format!("expected string at offset {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(bad_json("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| bad_json("truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| bad_json("bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| bad_json("bad \\u escape"))?;
                        // Surrogate pairs and lone surrogates are refused
                        // rather than decoded — the protocol never emits
                        // them, and refusing keeps the reader total.
                        let ch = char::from_u32(code)
                            .ok_or_else(|| bad_json("\\u escape is not a scalar value"))?;
                        out.push(ch);
                        *pos += 4;
                    }
                    _ => return Err(bad_json("bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(bad_json("raw control byte in string")),
            Some(_) => {
                // Copy one UTF-8 scalar; the frame was validated as UTF-8
                // before parsing, so char boundaries are intact.
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| ProtocolError::InvalidUtf8)?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ProtocolError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| ProtocolError::InvalidUtf8)?;
    token
        .parse::<f64>()
        .ok()
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| bad_json(format!("bad number `{token}` at offset {start}")))
}

// ---------------------------------------------------------------------------
// Framing + request parsing
// ---------------------------------------------------------------------------

/// A wire-protocol violation. Every variant maps to a stable
/// machine-readable [`code`](Self::code) so clients (and the fault
/// harness) can assert on the class, not the prose.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// A request line exceeded the configured byte cap.
    LineTooLong {
        /// The configured cap.
        limit: usize,
    },
    /// The peer closed (or died) mid-line — bytes arrived without a
    /// terminating newline.
    TruncatedFrame {
        /// Unterminated bytes pending when the stream ended.
        bytes: usize,
    },
    /// The frame is not valid UTF-8.
    InvalidUtf8,
    /// The frame is not valid JSON.
    BadJson {
        /// What the parser tripped on.
        detail: String,
    },
    /// The frame parsed but is not a JSON object.
    NotAnObject,
    /// The request object lacks a required field.
    MissingField {
        /// The absent field.
        field: &'static str,
    },
    /// A request field has the wrong type.
    BadField {
        /// The offending field.
        field: &'static str,
    },
    /// The `op` field names no known verb.
    UnknownOp {
        /// The unrecognized verb.
        op: String,
    },
    /// The estimate request's XPath failed to parse.
    BadQuery {
        /// The XPath parser's diagnostic.
        detail: String,
    },
}

impl ProtocolError {
    /// Stable machine-readable error code, used as the `error` field of
    /// error responses.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::LineTooLong { .. } => "protocol:line-too-long",
            ProtocolError::TruncatedFrame { .. } => "protocol:truncated",
            ProtocolError::InvalidUtf8 => "protocol:invalid-utf8",
            ProtocolError::BadJson { .. } => "protocol:bad-json",
            ProtocolError::NotAnObject => "protocol:not-an-object",
            ProtocolError::MissingField { .. } => "protocol:missing-field",
            ProtocolError::BadField { .. } => "protocol:bad-field",
            ProtocolError::UnknownOp { .. } => "protocol:unknown-op",
            ProtocolError::BadQuery { .. } => "protocol:bad-query",
        }
    }

    /// Whether the connection can keep reading frames after this error.
    /// Framing-level faults (oversized or truncated lines) leave the
    /// stream position untrustworthy, so they close; everything else was
    /// a complete, well-delimited line and the next frame may be fine.
    pub fn is_recoverable(&self) -> bool {
        !matches!(
            self,
            ProtocolError::LineTooLong { .. } | ProtocolError::TruncatedFrame { .. }
        )
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::LineTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            ProtocolError::TruncatedFrame { bytes } => {
                write!(f, "stream ended mid-line with {bytes} unterminated bytes")
            }
            ProtocolError::InvalidUtf8 => write!(f, "frame is not valid UTF-8"),
            ProtocolError::BadJson { detail } => write!(f, "bad JSON: {detail}"),
            ProtocolError::NotAnObject => write!(f, "request must be a JSON object"),
            ProtocolError::MissingField { field } => write!(f, "missing field `{field}`"),
            ProtocolError::BadField { field } => write!(f, "field `{field}` has the wrong type"),
            ProtocolError::UnknownOp { op } => write!(f, "unknown op `{op}`"),
            ProtocolError::BadQuery { detail } => write!(f, "bad query: {detail}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Why [`FrameReader::read_frame`] stopped: a transport error or a
/// protocol violation.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying `Read` failed (including read timeouts).
    Io(io::Error),
    /// The byte stream violated the framing rules.
    Protocol(ProtocolError),
}

/// Reads LF-delimited frames from any [`Read`] under a byte cap.
///
/// The cap bounds per-connection buffering: a peer streaming an endless
/// line is refused with [`ProtocolError::LineTooLong`] as soon as the
/// pending buffer passes the cap, long before memory matters. EOF with
/// pending bytes is a [`ProtocolError::TruncatedFrame`]; clean EOF at a
/// frame boundary is `Ok(None)`.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    pending: Vec<u8>,
    /// Bytes of `pending` already scanned for `\n`.
    scanned: usize,
    max_line: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`, capping lines at `max_line` bytes (newline
    /// excluded).
    pub fn new(inner: R, max_line: usize) -> Self {
        FrameReader {
            inner,
            pending: Vec::new(),
            scanned: 0,
            max_line: max_line.max(1),
        }
    }

    /// The next complete line, without its terminator (a trailing `\r`
    /// is also stripped, so CRLF clients work). `Ok(None)` is clean EOF.
    pub fn read_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        loop {
            if let Some(at) = self.pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                let end = self.scanned + at;
                let mut line: Vec<u8> = self.pending.drain(..=end).collect();
                self.scanned = 0;
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(line));
            }
            self.scanned = self.pending.len();
            if self.pending.len() > self.max_line {
                return Err(FrameError::Protocol(ProtocolError::LineTooLong {
                    limit: self.max_line,
                }));
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    if self.pending.is_empty() {
                        return Ok(None);
                    }
                    return Err(FrameError::Protocol(ProtocolError::TruncatedFrame {
                        bytes: self.pending.len(),
                    }));
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

/// One decoded request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Estimate an XPath expression's selectivity.
    Estimate {
        /// The expression text (validated later by `parse_query`).
        query: String,
    },
    /// Report epoch, connection, outcome and cache counters.
    Stats,
    /// Validate and hot-swap the summary (`path` defaults to the one the
    /// server was started from).
    Reload {
        /// Optional `.xps` path override.
        path: Option<String>,
    },
    /// Liveness probe.
    Ping,
    /// Graceful drain.
    Shutdown,
}

/// Decodes one frame into a [`Request`] — never panics, whatever the
/// bytes (the network fault harness drives this directly).
pub fn parse_request(frame: &[u8]) -> Result<Request, ProtocolError> {
    let text = std::str::from_utf8(frame).map_err(|_| ProtocolError::InvalidUtf8)?;
    let json = Json::parse(text)?;
    if !matches!(json, Json::Obj(_)) {
        return Err(ProtocolError::NotAnObject);
    }
    let op = json
        .get("op")
        .ok_or(ProtocolError::MissingField { field: "op" })?
        .as_str()
        .ok_or(ProtocolError::BadField { field: "op" })?;
    match op {
        "estimate" => {
            let query = json
                .get("query")
                .ok_or(ProtocolError::MissingField { field: "query" })?
                .as_str()
                .ok_or(ProtocolError::BadField { field: "query" })?;
            Ok(Request::Estimate {
                query: query.to_owned(),
            })
        }
        "stats" => Ok(Request::Stats),
        "reload" => {
            let path = match json.get("path") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or(ProtocolError::BadField { field: "path" })?
                        .to_owned(),
                ),
            };
            Ok(Request::Reload { path })
        }
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError::UnknownOp {
            op: other.to_owned(),
        }),
    }
}

/// Escapes `s` for embedding in a JSON string literal (mirrors the diff
/// harness's hand-rolled writer).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Server configuration and shared state
// ---------------------------------------------------------------------------

/// Tunables for one [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections served at once (at least 1). The acceptor answers a
    /// connection past the cap with one typed `overloaded` line and
    /// closes it. Each connection runs one estimate at a time on its own
    /// thread, so this also bounds in-flight estimates; each estimator's
    /// private cache fronts keep `1 / max_connections` of the shared
    /// caches, so all of them together hold no more than those do.
    pub max_connections: usize,
    /// Per-connection request-line byte cap.
    pub max_line_bytes: usize,
    /// Deadline for each request frame, from the first read that waits
    /// for it: a connection that completes none in time is closed with a
    /// `timeout` error. Blank lines and partial frames do not extend it,
    /// so a connection cannot hold its slot without requests (`None`
    /// waits forever).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout; a peer that stops draining responses is
    /// disconnected (`None` waits forever).
    pub write_timeout: Option<Duration>,
    /// Admission policy applied to every request.
    pub limits: QueryLimits,
    /// Resource budget applied to every request.
    pub budget: Budget,
    /// Full-query estimate-cache capacity per generation (0 disables the
    /// skew-aware fast path). Each `reload` builds its generation a
    /// fresh cache, so a summary swap invalidates every published
    /// estimate atomically — an estimate already running finishes
    /// against the old generation's cache, and no stale value crosses
    /// the epoch bump.
    pub estimate_cache_capacity: usize,
    /// Chaos hook: an estimate whose *target tag* equals this panics
    /// inside the panic guard every estimate runs under, exercising the
    /// panic-isolation path end-to-end. The integration tests and the
    /// serve bench's hostile mix use it; never set it in production.
    pub poison_tag: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            max_line_bytes: 64 * 1024,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            limits: QueryLimits::unlimited(),
            budget: Budget::unlimited(),
            estimate_cache_capacity: DEFAULT_ESTIMATE_CACHE_CAPACITY,
            poison_tag: None,
        }
    }
}

/// One immutable serving generation: a summary plus the kernel caches
/// built over it. `reload` publishes a fresh generation under a bumped
/// epoch; an estimate already running finishes on the generation it
/// started with (its connection holds the `Arc`), so a swap is never
/// torn.
#[derive(Debug)]
struct Generation {
    epoch: u64,
    summary: Arc<Summary>,
    adjacency: Arc<JoinIndexCache>,
    join_cache: Arc<JoinCache>,
    /// Full-query estimate cache of this generation. Owned by the
    /// generation so reload's swap invalidates it atomically: a
    /// connection on the new generation starts from a cold cache built
    /// over the new summary, while a running estimate keeps hitting the
    /// old one.
    estimate_cache: Arc<EstimateCache>,
}

impl Generation {
    fn new(summary: Arc<Summary>, epoch: u64, estimate_cache_capacity: usize) -> Self {
        Generation {
            epoch,
            summary,
            adjacency: Arc::new(JoinIndexCache::new()),
            join_cache: Arc::new(JoinCache::with_capacity(DEFAULT_JOIN_CACHE_CAPACITY)),
            estimate_cache: Arc::new(EstimateCache::with_capacity(estimate_cache_capacity)),
        }
    }

    /// A fresh estimator borrowing this generation's summary and sharing
    /// its caches — one per connection per generation. Its private cache
    /// fronts keep `1 / max_connections` of each shared cache, so every
    /// connection's fronts together hold no more than the shared caches.
    fn estimator(&self, max_connections: usize) -> Estimator<'_> {
        Estimator::with_caches(
            &self.summary,
            Arc::default(),
            Arc::clone(&self.adjacency),
            Some(Arc::clone(&self.join_cache)),
        )
        .with_estimate_cache(Some(Arc::clone(&self.estimate_cache)))
        .with_front_share(max_connections)
    }
}

/// Process-lifetime counters (atomics; the per-connection tally is a
/// plain [`OutcomeTally`] local to its thread).
#[derive(Debug, Default)]
struct LifetimeCounters {
    ok: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    protocol_errors: AtomicU64,
    timeouts: AtomicU64,
    overloaded: AtomicU64,
    panics: AtomicU64,
    connections: AtomicU64,
}

impl LifetimeCounters {
    /// Counts one estimate outcome through [`OutcomeTally::record`], the
    /// one status-to-counter mapping.
    fn record(&self, status: &EstimateStatus) {
        let mut one = OutcomeTally::default();
        one.record(status);
        for (counter, n) in [
            (&self.ok, one.ok),
            (&self.degraded, one.degraded),
            (&self.rejected, one.rejected),
            (&self.panics, one.panics),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> OutcomeTally {
        OutcomeTally {
            ok: self.ok.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// State shared by the acceptor and every connection thread.
struct SharedState {
    /// The serving generation; the mutex guards publication only —
    /// readers clone the `Arc` out and drop the lock immediately.
    generation: Mutex<Arc<Generation>>,
    /// Epoch of the published generation; connection threads revalidate
    /// with one atomic load per estimate.
    epoch: AtomicU64,
    /// Serializes `reload` requests (validation runs outside the
    /// generation mutex; this only keeps concurrent reloads ordered).
    reload_lock: Mutex<()>,
    /// Connection threads running now; only the acceptor raises it. A
    /// plain count that publishes no other data, so `Relaxed` suffices.
    open_connections: AtomicUsize,
    counters: LifetimeCounters,
    shutting_down: AtomicBool,
    config: ServerConfig,
    /// Where the boot summary came from; `reload` without a path re-reads
    /// this.
    summary_path: Option<PathBuf>,
    /// The bound address, used to self-connect and unblock `accept` on
    /// shutdown.
    addr: SocketAddr,
}

/// A claimed connection slot, released when its connection thread ends,
/// however it ends.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl SharedState {
    fn generation(&self) -> Arc<Generation> {
        Arc::clone(
            &self
                .generation
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn publish(&self, generation: Generation) {
        let epoch = generation.epoch;
        let mut slot = self
            .generation
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *slot = Arc::new(generation);
        self.epoch.store(epoch, Ordering::Release);
    }

    fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Flips the drain flag and pokes the acceptor awake with a
    /// throwaway self-connection.
    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Claims a connection slot, or `None` when `max_connections` are
    /// open. Only the acceptor claims, so the check and the increment
    /// cannot race.
    fn claim_slot(&self) -> Option<Slot<'_>> {
        if self.open_connections.load(Ordering::Relaxed) >= self.config.max_connections {
            return None;
        }
        self.open_connections.fetch_add(1, Ordering::Relaxed);
        Some(Slot(&self.open_connections))
    }

    /// Answers a connection past the cap with one typed `overloaded`
    /// line and closes it. The socket is non-blocking first, so the
    /// acceptor never waits on the peer.
    fn shed(&self, mut stream: TcpStream) {
        self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nonblocking(true);
        let _ = write_line(
            &mut stream,
            error_response("overloaded", "connection limit reached; retry later"),
        );
    }
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

fn error_response(code: &str, detail: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"error\":\"{}\",\"detail\":\"{}\"}}",
        json_escape(code),
        json_escape(detail)
    )
}

fn protocol_error_response(err: &ProtocolError) -> String {
    error_response(err.code(), &err.to_string())
}

fn estimate_response(outcome: &EstimateOutcome, epoch: u64) -> String {
    let mut out = format!(
        "{{\"status\":\"{}\",\"estimate\":{},\"epoch\":{epoch}",
        outcome.status.code(),
        outcome.value
    );
    if !outcome.status.is_ok() {
        out.push_str(&format!(
            ",\"detail\":\"{}\"",
            json_escape(&outcome.status.to_string())
        ));
    }
    out.push('}');
    out
}

fn stats_response(state: &SharedState, connection: &OutcomeTally) -> String {
    let mut out = format!(
        "{{\"status\":\"ok\",\"epoch\":{},\"max_connections\":{},\
         \"open_connections\":{},\"connections\":{},\"lifetime\":",
        state.epoch(),
        state.config.max_connections,
        state.open_connections.load(Ordering::Relaxed),
        state.counters.connections.load(Ordering::Relaxed),
    );
    state.counters.snapshot().write_json(&mut out);
    out.push_str(",\"connection\":");
    connection.write_json(&mut out);
    // Cache counters of the *current* generation — a reload swaps in
    // fresh (cold) caches, so these reset at each epoch bump. Connection
    // threads fold their tally-local hit/miss counts into these shared
    // atomics after every estimate, so the rates trail in-flight
    // requests by at most one estimate per connection.
    let generation = state.generation();
    let est = &generation.estimate_cache;
    let join = &generation.join_cache;
    out.push_str(&format!(
        ",\"caches\":{{\"estimate\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\
         \"inserts\":{},\"invalidations\":{},\"len\":{},\"capacity\":{}}},\
         \"join\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\"capacity\":{}}}}}",
        est.hits(),
        est.misses(),
        est.hit_rate(),
        est.inserts(),
        est.evictions(),
        est.len(),
        est.capacity(),
        join.hits(),
        join.misses(),
        join.hit_rate(),
        join.capacity(),
    ));
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// A connection's read half under one deadline per request: a request
/// frame must arrive whole within the read timeout of the first read
/// that waits for it. Blank lines and a frame trickled in byte by byte
/// do not move the deadline, so a connection that sends no request
/// gives up its slot within one read timeout.
struct RequestClock {
    stream: TcpStream,
    timeout: Option<Duration>,
    /// Start of the wait for the next request; `None` until its first
    /// read. The connection resets it as each request frame arrives.
    since: Option<Instant>,
    /// Whether the socket's read timeout is below `timeout` now.
    shortened: bool,
}

impl Read for RequestClock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(timeout) = self.timeout {
            let now = Instant::now();
            let left = timeout.saturating_sub(now - *self.since.get_or_insert(now));
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            // The first read of a wait runs on the full timeout, which
            // costs a system call only if a shortened one is still set.
            if left < timeout || self.shortened {
                self.stream.set_read_timeout(Some(left))?;
                self.shortened = left < timeout;
            }
        }
        self.stream.read(buf)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Writes one response line, terminator included, in a single write so
/// it leaves as one segment; a timeout or error here means the peer
/// stopped draining and the connection is abandoned.
fn write_line(stream: &mut TcpStream, mut line: String) -> io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// Writes one reply; `false` ends the connection. A write timeout is
/// counted.
fn respond(state: &SharedState, stream: &mut TcpStream, line: String) -> bool {
    match write_line(stream, line) {
        Ok(()) => true,
        Err(e) => {
            if is_timeout(&e) {
                state.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            false
        }
    }
}

/// Counts and answers a protocol error; `false` ends the connection.
fn reject_frame(
    state: &SharedState,
    stream: &mut TcpStream,
    tally: &mut OutcomeTally,
    err: &ProtocolError,
) -> bool {
    tally.protocol_errors += 1;
    state
        .counters
        .protocol_errors
        .fetch_add(1, Ordering::Relaxed);
    respond(state, stream, protocol_error_response(err)) && err.is_recoverable()
}

/// Validates and hot-swaps the summary. Runs on the requesting
/// connection's thread; every other connection keeps estimating on the
/// old generation until the new one is published.
fn handle_reload(state: &SharedState, path_override: Option<String>) -> String {
    let _serialized = state
        .reload_lock
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let path = match path_override
        .map(PathBuf::from)
        .or_else(|| state.summary_path.clone())
    {
        Some(p) => p,
        None => {
            return error_response(
                "reload-failed",
                "no summary path: server was started from memory and the \
                 request named no `path`",
            )
        }
    };
    // Full validation — wire format and checksum — happens here, before
    // anything is published. A failure leaves the old generation serving.
    let summary = match Summary::load_from_file(&path) {
        Ok(s) => s,
        Err(e) => {
            return error_response("reload-failed", &format!("{}: {e}", path.display()));
        }
    };
    let epoch = state.epoch() + 1;
    let reply = format!(
        "{{\"status\":\"ok\",\"reloaded\":true,\"epoch\":{epoch},\
         \"paths\":{},\"pids\":{},\"tags\":{}}}",
        summary.encoding.len(),
        summary.pids.len(),
        summary.tags.len(),
    );
    let capacity = state.config.estimate_cache_capacity;
    state.publish(Generation::new(Arc::new(summary), epoch, capacity));
    reply
}

/// Reads frames and answers every request but `estimate` until an
/// estimate arrives, and returns its parsed query. `None` ends the
/// connection: clean EOF, a dead or idle peer, a framing error,
/// `shutdown`, or a drain in progress.
fn next_estimate(
    state: &SharedState,
    stream: &mut TcpStream,
    frames: &mut FrameReader<RequestClock>,
    tally: &mut OutcomeTally,
) -> Option<Query> {
    loop {
        if state.shutting_down() {
            let _ = write_line(
                stream,
                error_response("shutting-down", "server is draining"),
            );
            return None;
        }
        let frame = frames.read_frame();
        if matches!(&frame, Ok(Some(f)) if !f.is_empty()) {
            frames.inner.since = None;
        }
        let reply = match frame {
            // A blank line is no request: the deadline stays where it is.
            Ok(Some(frame)) if frame.is_empty() => continue,
            Ok(Some(frame)) => match parse_request(&frame) {
                Ok(Request::Estimate { query }) => match parse_query(&query) {
                    Ok(query) => return Some(query),
                    Err(e) => Err(ProtocolError::BadQuery {
                        detail: e.to_string(),
                    }),
                },
                Ok(Request::Ping) => Ok("{\"status\":\"ok\",\"pong\":true}".to_owned()),
                Ok(Request::Stats) => Ok(stats_response(state, tally)),
                Ok(Request::Reload { path }) => Ok(handle_reload(state, path)),
                Ok(Request::Shutdown) => {
                    let _ = write_line(stream, "{\"status\":\"ok\",\"shutting_down\":true}".into());
                    state.begin_shutdown();
                    return None;
                }
                Err(err) => Err(err),
            },
            Ok(None) => return None, // clean close
            Err(FrameError::Io(e)) => {
                if is_timeout(&e) {
                    state.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    let _ = write_line(
                        stream,
                        error_response("timeout", "read timed out; closing connection"),
                    );
                }
                return None;
            }
            Err(FrameError::Protocol(err)) => Err(err),
        };
        let open = match reply {
            Ok(line) => respond(state, stream, line),
            Err(err) => reject_frame(state, stream, tally, &err),
        };
        if !open {
            return None;
        }
    }
}

/// Serves one connection until it closes. The thread answers every
/// request itself, estimates included, with one estimator per serving
/// generation, built at its first estimate and again after a panic.
fn handle_connection(mut stream: TcpStream, state: &SharedState) {
    state.counters.connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_read_timeout(state.config.read_timeout);
    let _ = stream.set_write_timeout(state.config.write_timeout);
    let _ = stream.set_nodelay(true);
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let clock = RequestClock {
        stream: reader,
        timeout: state.config.read_timeout,
        since: None,
        shortened: false,
    };
    let mut frames = FrameReader::new(clock, state.config.max_line_bytes);
    let mut tally = OutcomeTally::default();
    // An estimate read under a stale generation is carried into the next
    // generation's scope instead of being answered from the old summary.
    let mut carried: Option<Query> = None;
    'generation: loop {
        let generation = state.generation();
        let mut estimator = None;
        loop {
            let Some(query) = carried
                .take()
                .or_else(|| next_estimate(state, &mut stream, &mut frames, &mut tally))
            else {
                return;
            };
            if state.epoch() != generation.epoch {
                carried = Some(query);
                continue 'generation;
            }
            let outcome = isolated_estimate(
                &mut estimator,
                || generation.estimator(state.config.max_connections),
                &query,
                |est, query| {
                    if state.config.poison_tag.as_ref() == Some(&query.node(query.target()).tag) {
                        panic!("poisoned query");
                    }
                    est.try_estimate(query, &state.config.limits, &state.config.budget)
                },
            );
            // Fold the estimator's local cache tallies into the shared
            // counters after every estimate so the `stats` verb reads
            // live hit rates; the estimate hot path stays tally-local. An
            // estimator dropped after a panic folds its tallies in on drop.
            if let Some(est) = &estimator {
                est.flush_caches();
            }
            state.counters.record(&outcome.status);
            tally.record(&outcome.status);
            if !respond(
                state,
                &mut stream,
                estimate_response(&outcome, generation.epoch),
            ) {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// A bound-but-not-yet-running estimation daemon. [`bind`](Self::bind)
/// reserves the port (so callers can learn an ephemeral address before
/// spawning clients); [`run`](Self::run) blocks serving until a
/// `shutdown` verb drains it.
pub struct Server {
    listener: TcpListener,
    state: Arc<SharedState>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// prepares the first serving generation from `summary`.
    /// `summary_path` is what a path-less `reload` re-reads.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        summary: Arc<Summary>,
        summary_path: Option<PathBuf>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let generation = Generation::new(summary, 1, config.estimate_cache_capacity);
        let state = Arc::new(SharedState {
            generation: Mutex::new(Arc::new(generation)),
            epoch: AtomicU64::new(1),
            reload_lock: Mutex::new(()),
            open_connections: AtomicUsize::new(0),
            counters: LifetimeCounters::default(),
            shutting_down: AtomicBool::new(false),
            summary_path,
            addr: local,
            config: ServerConfig {
                max_connections: config.max_connections.max(1),
                ..config
            },
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until a `shutdown` verb arrives, then drains: the acceptor
    /// stops, every connection thread exits at its next frame, and the
    /// process-lifetime tally is returned.
    pub fn run(self) -> OutcomeTally {
        let state = &*self.state;
        std::thread::scope(|scope| {
            while !state.shutting_down() {
                match self.listener.accept() {
                    // The begin_shutdown self-connect ends the loop.
                    Ok(_) if state.shutting_down() => {}
                    Ok((stream, _)) => match state.claim_slot() {
                        Some(slot) => {
                            scope.spawn(move || {
                                handle_connection(stream, state);
                                drop(slot);
                            });
                        }
                        None => state.shed(stream),
                    },
                    // Transient (a peer reset before accept, EMFILE):
                    // keep accepting.
                    Err(_) => {}
                }
            }
        });
        state.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use xpe_synopsis::SummaryConfig;

    fn summary() -> Arc<Summary> {
        Arc::new(Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            SummaryConfig::default(),
        ))
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            max_connections: 16,
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            ..ServerConfig::default()
        }
    }

    /// A client speaking one line at a time.
    struct Client {
        stream: TcpStream,
        reader: std::io::BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let reader = std::io::BufReader::new(stream.try_clone().unwrap());
            Client { stream, reader }
        }

        fn send_raw(&mut self, bytes: &[u8]) {
            self.stream.write_all(bytes).expect("write");
        }

        fn roundtrip(&mut self, line: &str) -> Json {
            self.send_raw(line.as_bytes());
            self.send_raw(b"\n");
            self.read_response()
        }

        fn read_response(&mut self) -> Json {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read");
            Json::parse(line.trim_end()).expect("response is JSON")
        }
    }

    fn spawn_server(
        config: ServerConfig,
    ) -> (
        SocketAddr,
        Arc<SharedState>,
        std::thread::JoinHandle<OutcomeTally>,
    ) {
        let server = Server::bind("127.0.0.1:0", summary(), None, config).expect("bind");
        let addr = server.local_addr();
        let state = Arc::clone(&server.state);
        let handle = std::thread::spawn(move || server.run());
        (addr, state, handle)
    }

    /// `resp[key]` as a string.
    fn text<'a>(resp: &'a Json, key: &str) -> Option<&'a str> {
        resp.get(key).and_then(Json::as_str)
    }

    fn shutdown(addr: SocketAddr) {
        let mut c = Client::connect(addr);
        let resp = c.roundtrip("{\"op\":\"shutdown\"}");
        assert_eq!(text(&resp, "status"), Some("ok"));
    }

    // -- JSON reader ---------------------------------------------------

    #[test]
    fn json_parses_scalars_and_structures() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -2.5e1 ").unwrap(), Json::Num(-25.0));
        assert_eq!(
            Json::parse("\"a\\n\\u0041\"").unwrap(),
            Json::Str("a\nA".to_owned())
        );
        let obj = Json::parse("{\"a\": [1, {\"b\": false}], \"c\": \"x\"}").unwrap();
        assert_eq!(text(&obj, "c"), Some("x"));
        match obj.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1].get("b").and_then(Json::as_bool), Some(false));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn json_refuses_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "nul",
            "\"unterminated",
            "{\"a\":1} trailing",
            "1e999",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        // Hostile nesting is refused, not stack-overflowed.
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn json_floats_roundtrip_bit_identical() {
        for v in [0.0f64, 2.0, 1.0 / 3.0, 1e-300, 123456.789e12] {
            let text = format!("{v}");
            match Json::parse(&text).unwrap() {
                Json::Num(parsed) => assert_eq!(parsed.to_bits(), v.to_bits(), "{text}"),
                other => panic!("{other:?}"),
            }
        }
    }

    // -- framing -------------------------------------------------------

    #[test]
    fn frame_reader_splits_lines_and_handles_crlf() {
        let data: &[u8] = b"one\r\ntwo\nthree\n";
        let mut r = FrameReader::new(data, 1024);
        assert_eq!(r.read_frame().unwrap(), Some(b"one".to_vec()));
        assert_eq!(r.read_frame().unwrap(), Some(b"two".to_vec()));
        assert_eq!(r.read_frame().unwrap(), Some(b"three".to_vec()));
        assert_eq!(r.read_frame().unwrap(), None);
    }

    #[test]
    fn frame_reader_caps_line_length() {
        let long = vec![b'x'; 5000];
        let mut r = FrameReader::new(&long[..], 64);
        match r.read_frame() {
            Err(FrameError::Protocol(ProtocolError::LineTooLong { limit: 64 })) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frame_reader_reports_truncation() {
        let data: &[u8] = b"{\"op\":\"esti";
        let mut r = FrameReader::new(data, 1024);
        match r.read_frame() {
            Err(FrameError::Protocol(ProtocolError::TruncatedFrame { bytes: 11 })) => {}
            other => panic!("{other:?}"),
        }
    }

    // -- request parsing ----------------------------------------------

    #[test]
    fn parse_request_decodes_every_verb() {
        assert_eq!(
            parse_request(b"{\"op\":\"estimate\",\"query\":\"//A//C\"}").unwrap(),
            Request::Estimate {
                query: "//A//C".to_owned()
            }
        );
        assert_eq!(
            parse_request(b"{\"op\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(b"{\"op\":\"reload\"}").unwrap(),
            Request::Reload { path: None }
        );
        assert_eq!(
            parse_request(b"{\"op\":\"reload\",\"path\":\"x.xps\"}").unwrap(),
            Request::Reload {
                path: Some("x.xps".to_owned())
            }
        );
        assert_eq!(parse_request(b"{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request(b"{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn parse_request_errors_are_typed() {
        assert_eq!(parse_request(b"\xff\xfe"), Err(ProtocolError::InvalidUtf8));
        assert!(matches!(
            parse_request(b"!!garbage"),
            Err(ProtocolError::BadJson { .. })
        ));
        assert_eq!(parse_request(b"[1,2]"), Err(ProtocolError::NotAnObject));
        assert_eq!(
            parse_request(b"{}"),
            Err(ProtocolError::MissingField { field: "op" })
        );
        assert_eq!(
            parse_request(b"{\"op\":7}"),
            Err(ProtocolError::BadField { field: "op" })
        );
        assert_eq!(
            parse_request(b"{\"op\":\"estimate\"}"),
            Err(ProtocolError::MissingField { field: "query" })
        );
        assert_eq!(
            parse_request(b"{\"op\":\"warp\"}"),
            Err(ProtocolError::UnknownOp {
                op: "warp".to_owned()
            })
        );
        // Codes are distinct and space-free (safe in raw JSON).
        let codes: Vec<&str> = [
            ProtocolError::InvalidUtf8.code(),
            ProtocolError::NotAnObject.code(),
            ProtocolError::LineTooLong { limit: 1 }.code(),
            ProtocolError::TruncatedFrame { bytes: 1 }.code(),
            ProtocolError::BadJson {
                detail: String::new(),
            }
            .code(),
            ProtocolError::MissingField { field: "x" }.code(),
            ProtocolError::BadField { field: "x" }.code(),
            ProtocolError::UnknownOp { op: String::new() }.code(),
            ProtocolError::BadQuery {
                detail: String::new(),
            }
            .code(),
        ]
        .to_vec();
        for (i, a) in codes.iter().enumerate() {
            assert!(!a.contains(' '));
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    // -- shed-don't-stall ----------------------------------------------

    /// Waits until every connection thread has released its slot.
    fn wait_for_idle(state: &SharedState) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while state.open_connections.load(Ordering::Relaxed) > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "connection slots never freed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Writes `bytes` one at a time, cycling, every 50 ms until the
    /// server answers; returns the answer.
    fn trickle_until_answered(client: &mut Client, bytes: &[u8]) -> Json {
        let wait = Duration::from_millis(50);
        client.stream.set_read_timeout(Some(wait)).unwrap();
        let start = std::time::Instant::now();
        let mut line = String::new();
        for byte in bytes.iter().cycle() {
            assert!(start.elapsed() < Duration::from_secs(5), "never closed");
            let _ = client.stream.write_all(&[*byte]);
            match client.reader.read_line(&mut line) {
                Ok(_) if !line.is_empty() => break,
                Err(e) => assert!(is_timeout(&e), "{e}"),
                Ok(_) => {}
            }
        }
        Json::parse(line.trim_end()).expect("response is JSON")
    }

    #[test]
    fn connections_past_the_cap_get_one_overloaded_line_then_eof() {
        let (addr, state, handle) = spawn_server(ServerConfig {
            max_connections: 1,
            read_timeout: Some(Duration::from_secs(1)),
            ..test_config()
        });
        let mut first = Client::connect(addr);
        // Once it has answered, the first connection holds the only slot.
        let pong = first.roundtrip("{\"op\":\"ping\"}");
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        let mut second = Client::connect(addr);
        let resp = second.read_response();
        assert_eq!(text(&resp, "status"), Some("error"));
        assert_eq!(text(&resp, "error"), Some("overloaded"));
        let mut line = String::new();
        assert_eq!(second.reader.read_line(&mut line).unwrap(), 0, "{line}");
        assert_eq!(state.counters.snapshot().overloaded, 1);
        // Blank lines are no request: sent every 50 ms, they still lose
        // the first connection its slot at the 1 s request deadline.
        let resp = trickle_until_answered(&mut first, b"\n");
        assert_eq!(text(&resp, "error"), Some("timeout"));
        // Once the first connection has closed, a new one is served.
        wait_for_idle(&state);
        let mut third = Client::connect(addr);
        let resp = third.roundtrip("{\"op\":\"estimate\",\"query\":\"//A//C\"}");
        assert_eq!(text(&resp, "status"), Some("ok"));
        // Nor is a frame trickled in a byte at a time.
        let resp = trickle_until_answered(&mut third, b"{\"op\":\"ping\"");
        assert_eq!(text(&resp, "error"), Some("timeout"));
        wait_for_idle(&state);
        shutdown(addr);
        let tally = handle.join().unwrap();
        assert_eq!((tally.overloaded, tally.ok, tally.timeouts), (1, 1, 2));
    }

    // -- end-to-end over a live socket ---------------------------------

    #[test]
    fn serves_estimates_bit_identical_to_direct_calls() {
        let s = summary();
        let direct = Estimator::new(&s);
        let (addr, _state, handle) = spawn_server(test_config());
        let mut client = Client::connect(addr);
        for q in ["//A//C", "//A[/C/F]/B/D", "//A[/C[/F]/folls::$B/D]"] {
            let resp = client.roundtrip(&format!("{{\"op\":\"estimate\",\"query\":\"{q}\"}}"));
            assert_eq!(text(&resp, "status"), Some("ok"), "{q}");
            let served = resp.get("estimate").and_then(Json::as_f64).unwrap();
            let expected = direct.estimate(&parse_query(q).unwrap());
            assert_eq!(served.to_bits(), expected.to_bits(), "{q}");
            assert_eq!(resp.get("epoch").and_then(Json::as_f64), Some(1.0));
        }
        // Ping and stats verbs answer on the same connection.
        let pong = client.roundtrip("{\"op\":\"ping\"}");
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        let stats = client.roundtrip("{\"op\":\"stats\"}");
        assert_eq!(
            stats.get("max_connections").and_then(Json::as_f64),
            Some(16.0)
        );
        assert_eq!(
            stats.get("open_connections").and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            stats
                .get("lifetime")
                .and_then(|l| l.get("ok"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            stats
                .get("connection")
                .and_then(|l| l.get("ok"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        drop(client);
        shutdown(addr);
        let tally = handle.join().unwrap();
        assert_eq!(tally.ok, 3);
        assert_eq!(tally.protocol_errors, 0);
    }

    #[test]
    fn garbage_then_valid_pipelining_keeps_the_connection() {
        let (addr, _state, handle) = spawn_server(test_config());
        let mut client = Client::connect(addr);
        let resp = client.roundtrip("!!not json at all");
        assert_eq!(text(&resp, "error"), Some("protocol:bad-json"));
        let resp = client.roundtrip("{\"op\":\"estimate\",\"query\":\"//A//\"}");
        assert_eq!(text(&resp, "error"), Some("protocol:bad-query"));
        let resp = client.roundtrip("{\"op\":\"nope\"}");
        assert_eq!(text(&resp, "error"), Some("protocol:unknown-op"));
        // The same connection still serves real queries afterwards.
        let resp = client.roundtrip("{\"op\":\"estimate\",\"query\":\"//A//C\"}");
        assert_eq!(text(&resp, "status"), Some("ok"));
        drop(client);
        shutdown(addr);
        let tally = handle.join().unwrap();
        assert_eq!(tally.protocol_errors, 3);
        assert_eq!(tally.ok, 1);
    }

    #[test]
    fn oversized_line_earns_typed_error_and_close() {
        let (addr, _state, handle) = spawn_server(ServerConfig {
            max_line_bytes: 128,
            ..test_config()
        });
        let mut client = Client::connect(addr);
        client.send_raw(&vec![b'z'; 4096]);
        let resp = client.read_response();
        assert_eq!(text(&resp, "error"), Some("protocol:line-too-long"));
        // The server closed the connection afterwards.
        let mut line = String::new();
        assert_eq!(client.reader.read_line(&mut line).unwrap(), 0);
        drop(client);
        shutdown(addr);
        assert_eq!(handle.join().unwrap().protocol_errors, 1);
    }

    #[test]
    fn admission_and_budget_surface_as_status_codes() {
        let (addr, _state, handle) = spawn_server(ServerConfig {
            limits: QueryLimits { max_nodes: Some(2) },
            budget: Budget {
                deadline: Some(Duration::ZERO),
                max_join_edges: None,
            },
            ..test_config()
        });
        let mut client = Client::connect(addr);
        let resp = client.roundtrip("{\"op\":\"estimate\",\"query\":\"//A/C/F\"}");
        assert_eq!(text(&resp, "status"), Some("rejected:nodes"));
        let resp = client.roundtrip("{\"op\":\"estimate\",\"query\":\"//A//C\"}");
        assert_eq!(text(&resp, "status"), Some("degraded:deadline"));
        // Degraded values stay inside [0, f(tag)].
        let v = resp.get("estimate").and_then(Json::as_f64).unwrap();
        assert!(v >= 0.0 && v.is_finite());
        drop(client);
        shutdown(addr);
        let tally = handle.join().unwrap();
        assert_eq!((tally.rejected, tally.degraded), (1, 1));
    }

    #[test]
    fn poisoned_query_degrades_alone_others_stay_bit_identical() {
        let s = summary();
        let direct = Estimator::new(&s);
        let (addr, _state, handle) = spawn_server(ServerConfig {
            poison_tag: Some("F".to_owned()),
            ..test_config()
        });
        let mut healthy = Client::connect(addr);
        let mut victim = Client::connect(addr);
        let resp = victim.roundtrip("{\"op\":\"estimate\",\"query\":\"//C/F\"}");
        assert_eq!(text(&resp, "status"), Some("degraded:panicked"));
        let detail = text(&resp, "detail").unwrap();
        assert!(detail.ends_with("panicked: poisoned query"), "{detail}");
        let expected = direct.estimate(&parse_query("//A//C").unwrap());
        for _ in 0..3 {
            let resp = healthy.roundtrip("{\"op\":\"estimate\",\"query\":\"//A//C\"}");
            assert_eq!(text(&resp, "status"), Some("ok"));
            let v = resp.get("estimate").and_then(Json::as_f64).unwrap();
            assert_eq!(v.to_bits(), expected.to_bits());
        }
        // The victim's rebuilt estimator answers its next query exactly.
        let resp = victim.roundtrip("{\"op\":\"estimate\",\"query\":\"//A//C\"}");
        assert_eq!(text(&resp, "status"), Some("ok"));
        let v = resp.get("estimate").and_then(Json::as_f64).unwrap();
        assert_eq!(v.to_bits(), expected.to_bits());
        drop(healthy);
        drop(victim);
        shutdown(addr);
        let tally = handle.join().unwrap();
        assert_eq!(tally.panics, 1);
        assert_eq!(tally.ok, 4);
    }

    #[test]
    fn reload_swaps_generations_and_failed_reload_keeps_serving() {
        let dir = std::env::temp_dir().join(format!("xpe-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reload.xps");
        std::fs::write(&path, summary().to_bytes()).unwrap();
        let (addr, state, handle) = spawn_server(test_config());
        let mut client = Client::connect(addr);
        // Path-less reload fails (server started from memory)…
        let resp = client.roundtrip("{\"op\":\"reload\"}");
        assert_eq!(text(&resp, "error"), Some("reload-failed"));
        assert_eq!(state.epoch(), 1);
        // …an explicit valid path swaps the generation…
        let resp = client.roundtrip(&format!(
            "{{\"op\":\"reload\",\"path\":\"{}\"}}",
            json_escape(path.to_str().unwrap())
        ));
        assert_eq!(text(&resp, "status"), Some("ok"));
        assert_eq!(resp.get("epoch").and_then(Json::as_f64), Some(2.0));
        assert_eq!(state.epoch(), 2);
        // …and estimates now report the new epoch with identical values.
        let resp = client.roundtrip("{\"op\":\"estimate\",\"query\":\"//A//C\"}");
        assert_eq!(resp.get("epoch").and_then(Json::as_f64), Some(2.0));
        assert_eq!(resp.get("estimate").and_then(Json::as_f64), Some(2.0));
        // A corrupt file is fully validated and refused; epoch holds.
        let bad = dir.join("corrupt.xps");
        let mut bytes = summary().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&bad, bytes).unwrap();
        let resp = client.roundtrip(&format!(
            "{{\"op\":\"reload\",\"path\":\"{}\"}}",
            json_escape(bad.to_str().unwrap())
        ));
        assert_eq!(text(&resp, "error"), Some("reload-failed"));
        assert_eq!(state.epoch(), 2);
        let resp = client.roundtrip("{\"op\":\"estimate\",\"query\":\"//A//C\"}");
        assert_eq!(text(&resp, "status"), Some("ok"));
        assert_eq!(resp.get("epoch").and_then(Json::as_f64), Some(2.0));
        drop(client);
        shutdown(addr);
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_identical_cold_queries_build_each_join_index_once() {
        // Racing cold misses on the same adjacency key from several
        // connection threads must wait on the key's cell for one build
        // instead of building duplicates.
        let (addr, state, handle) = spawn_server(test_config());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    for _ in 0..4 {
                        let resp = client.roundtrip("{\"op\":\"estimate\",\"query\":\"//A//C\"}");
                        assert_eq!(text(&resp, "status"), Some("ok"));
                    }
                });
            }
        });
        // `//A//C` joins one edge, so its one key is built once.
        assert_eq!(
            state.generation().adjacency.builds(),
            1,
            "duplicate cold builds ran on one key"
        );
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_drains_and_refuses_new_connections() {
        let (addr, state, handle) = spawn_server(test_config());
        let mut client = Client::connect(addr);
        let resp = client.roundtrip("{\"op\":\"estimate\",\"query\":\"//A//C\"}");
        assert_eq!(text(&resp, "status"), Some("ok"));
        let resp = client.roundtrip("{\"op\":\"shutdown\"}");
        assert_eq!(
            resp.get("shutting_down").and_then(Json::as_bool),
            Some(true)
        );
        drop(client);
        let tally = handle.join().unwrap();
        assert!(state.shutting_down());
        assert_eq!(tally.ok, 1);
        // The port is released — a fresh bind on the same address works.
        assert!(TcpListener::bind(addr).is_ok());
    }
}
