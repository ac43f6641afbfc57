//! Fault-injection harness for the resilience layer.
//!
//! [`run_diff`](crate::run_diff) proves the estimator is *numerically*
//! trustworthy; this module proves it is *operationally* trustworthy: for
//! every fault class the serving layer claims to survive, seeded random
//! trials inject the fault and assert the contract — a **typed error** or
//! a **`Degraded`/`Rejected` outcome bounded by `[0, f(tag)]`** — never a
//! panic, never a hang, never silently-accepted corruption.
//!
//! | class | injection | required behavior |
//! |---|---|---|
//! | `bit-flip` | one bit of a persisted summary image flipped | `from_bytes` returns a typed [`LoadError`] |
//! | `truncation` | image cut to a strict prefix | typed `LoadError` |
//! | `version-flip` | version field rewritten to an unknown value | typed `LoadError` naming the version |
//! | `trailing-garbage` | random bytes appended | typed `LoadError` with the byte count |
//! | `worker-panic` | one batch query's estimate closure panics | that slot degrades, every other slot is bit-identical to serial |
//! | `deadline` | zero wall-clock budget | `Ok` or `Degraded(Deadline)`, value in `[0, f(tag)]` |
//! | `join-budget` | zero join-edge budget | `Ok` or `Degraded(JoinBudget)`, value in `[0, f(tag)]` |
//! | `oversized-query` | admission limit below the query size | `Rejected` exactly when the limit is exceeded |
//! | `truncated-request` | serve request line cut off before its newline | typed `protocol:truncated`, no panic |
//! | `oversized-line` | serve request line above the byte cap | typed `protocol:line-too-long`, no panic |
//! | `invalid-utf8-frame` | serve frame bytes that are not UTF-8 | typed `protocol:invalid-utf8`, connection may continue |
//! | `garbage-then-valid` | junk line pipelined before a valid request | typed recoverable error, then the valid request parses |
//! | `mid-request-disconnect` | transport resets mid-request | typed I/O error, no panic |
//! | `deep-nesting` | serve request whose query nests past the XML depth cap, under the line cap | typed `TooDeep` query error, no stack overflow |
//!
//! The last six classes drive the `xpe serve` wire protocol
//! ([`FrameReader`](xpe_core::server::FrameReader) +
//! [`parse_request`](xpe_core::server::parse_request)) in-process, with no
//! sockets: the same code the daemon runs per connection is fed hostile
//! byte streams directly.
//!
//! Every trial also runs under `catch_unwind`, so an escaped panic in any
//! layer is itself recorded as a harness failure. The report renders to
//! JSON for CI's `fault-smoke` artifact, mirroring the diff report.

use std::io::{self, Cursor, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xpe_core::server::{parse_request, FrameError, FrameReader, ProtocolError, Request};
use xpe_core::{Budget, DegradedReason, EstimateStatus, EstimationEngine, Estimator, QueryLimits};
use xpe_datagen::{random_document, RandomDocConfig};
use xpe_synopsis::{Summary, SummaryConfig};
use xpe_xml::MAX_DEPTH;
use xpe_xpath::{parse_query, Query, QueryParseErrorKind};

use crate::{json_escape, random_query, tag_paths};

/// The injected fault classes, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// One bit of a persisted summary image is flipped.
    BitFlip,
    /// The image is truncated to a strict prefix.
    Truncation,
    /// The image's version field is rewritten to an unknown version.
    VersionFlip,
    /// Random bytes are appended after a well-formed image.
    TrailingGarbage,
    /// One query's estimate closure panics inside a batch.
    WorkerPanic,
    /// Estimation runs under an already-expired wall-clock deadline.
    Deadline,
    /// Estimation runs under a zero join-edge budget.
    JoinBudget,
    /// Admission limits are set below the query's size.
    OversizedQuery,
    /// A serve request line is cut off mid-frame (the peer died before
    /// sending its newline).
    TruncatedRequest,
    /// A serve request line exceeds the configured byte cap.
    OversizedLine,
    /// A serve frame carries bytes that are not valid UTF-8.
    InvalidUtf8Frame,
    /// A garbage line is pipelined ahead of a valid request on one
    /// connection.
    GarbageThenValid,
    /// The transport errors out (connection reset) mid-request.
    MidRequestDisconnect,
    /// A serve request carries a query whose steps nest deeper than
    /// [`xpe_xml::MAX_DEPTH`] — nested predicates or a plain step chain,
    /// still under the request line cap.
    DeepNesting,
}

impl FaultClass {
    /// Every fault class, in report order.
    pub const ALL: [FaultClass; 14] = [
        FaultClass::BitFlip,
        FaultClass::Truncation,
        FaultClass::VersionFlip,
        FaultClass::TrailingGarbage,
        FaultClass::WorkerPanic,
        FaultClass::Deadline,
        FaultClass::JoinBudget,
        FaultClass::OversizedQuery,
        FaultClass::TruncatedRequest,
        FaultClass::OversizedLine,
        FaultClass::InvalidUtf8Frame,
        FaultClass::GarbageThenValid,
        FaultClass::MidRequestDisconnect,
        FaultClass::DeepNesting,
    ];

    /// Stable machine-readable name (used in the JSON report).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::BitFlip => "bit-flip",
            FaultClass::Truncation => "truncation",
            FaultClass::VersionFlip => "version-flip",
            FaultClass::TrailingGarbage => "trailing-garbage",
            FaultClass::WorkerPanic => "worker-panic",
            FaultClass::Deadline => "deadline",
            FaultClass::JoinBudget => "join-budget",
            FaultClass::OversizedQuery => "oversized-query",
            FaultClass::TruncatedRequest => "truncated-request",
            FaultClass::OversizedLine => "oversized-line",
            FaultClass::InvalidUtf8Frame => "invalid-utf8-frame",
            FaultClass::GarbageThenValid => "garbage-then-valid",
            FaultClass::MidRequestDisconnect => "mid-request-disconnect",
            FaultClass::DeepNesting => "deep-nesting",
        }
    }

    fn idx(self) -> usize {
        Self::ALL.iter().position(|c| *c == self).expect("in ALL")
    }
}

/// Harness parameters.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Master seed; equal plans replay identical runs.
    pub seed: u64,
    /// Trials per fault class.
    pub cases_per_class: u64,
    /// Suppress the default panic hook while injecting panics, so the
    /// expected caught panics do not flood stderr with backtrace banners.
    pub quiet: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            cases_per_class: 25,
            quiet: true,
        }
    }
}

/// Per-class trial counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultTally {
    /// Trials run.
    pub cases: u64,
    /// Trials where the fault surfaced as a typed load/decode error.
    pub typed_errors: u64,
    /// Trials that produced `Degraded` outcomes (all value-bounded).
    pub degraded: u64,
    /// Trials that produced `Rejected` outcomes.
    pub rejected: u64,
    /// Trials where the contract was broken (panic escaped, corruption
    /// accepted, value out of bounds, wrong status).
    pub failures: u64,
}

/// One broken-contract trial, with enough context to replay it.
#[derive(Clone, Debug)]
pub struct FaultFailure {
    /// The fault class under injection.
    pub class: FaultClass,
    /// Trial index within the class (0-based).
    pub case: u64,
    /// What went wrong.
    pub detail: String,
}

/// Outcome of a fault-injection run.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// Seed the run used.
    pub seed: u64,
    /// Trials per class the run executed.
    pub cases_per_class: u64,
    /// Counters, indexed as [`FaultClass::ALL`].
    pub tallies: [FaultTally; 14],
    /// Broken-contract trials (the run passes iff this is empty).
    pub failures: Vec<FaultFailure>,
}

impl FaultReport {
    /// Counters for one class.
    pub fn tally(&self, class: FaultClass) -> FaultTally {
        self.tallies[class.idx()]
    }

    /// Total broken-contract trials across every class.
    pub fn total_failures(&self) -> u64 {
        self.tallies.iter().map(|t| t.failures).sum()
    }

    /// Whether every trial honored the resilience contract.
    pub fn passed(&self) -> bool {
        self.total_failures() == 0
    }

    /// Machine-readable JSON rendering for the CI artifact (hand-rolled,
    /// like [`DiffReport::to_json`](crate::DiffReport::to_json)).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str("  \"tool\": \"xpe-faults\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"cases_per_class\": {},\n",
            self.cases_per_class
        ));
        s.push_str(&format!(
            "  \"total_failures\": {},\n",
            self.total_failures()
        ));
        s.push_str(&format!("  \"passed\": {},\n", self.passed()));
        s.push_str("  \"classes\": [\n");
        for (i, class) in FaultClass::ALL.iter().enumerate() {
            let t = self.tally(*class);
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"cases\": {}, \"typed_errors\": {}, \
                 \"degraded\": {}, \"rejected\": {}, \"failures\": {}}}{}\n",
                class.name(),
                t.cases,
                t.typed_errors,
                t.degraded,
                t.rejected,
                t.failures,
                if i + 1 < FaultClass::ALL.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"failures\": [\n");
        for (i, f) in self.failures.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"class\": \"{}\", \"case\": {}, \"detail\": \"{}\"}}{}\n",
                f.class.name(),
                f.case,
                json_escape(&f.detail),
                if i + 1 < self.failures.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// At most this many failures keep their full record; tallies count all.
const MAX_RECORDED: usize = 50;

/// One trial's world: a random document's summary and query workload.
struct Trial {
    summary: Summary,
    queries: Vec<Query>,
}

fn make_trial(rng: &mut StdRng, queries: usize) -> Trial {
    // Regenerate until the document has at least one element path; tiny
    // configs occasionally produce a root-only document.
    loop {
        let doc = random_document(&RandomDocConfig {
            seed: rng.gen::<u64>(),
            max_depth: rng.gen_range(2..=5),
            max_children: rng.gen_range(1..=4),
            tag_count: rng.gen_range(1..=3),
            layered: rng.gen_bool(0.5),
        });
        let paths = tag_paths(&doc);
        if paths.is_empty() {
            continue;
        }
        let queries = (0..queries).map(|_| random_query(rng, &paths)).collect();
        return Trial {
            summary: Summary::build(&doc, SummaryConfig::default()),
            queries,
        };
    }
}

/// The `[0, f(tag)]` bound check every degraded/rejected value must obey.
fn in_tag_bound(summary: &Summary, q: &Query, value: f64) -> bool {
    let cap = summary.tag_total(&q.node(q.target()).tag);
    value.is_finite() && value >= 0.0 && value <= cap * (1.0 + 1e-9) + 1e-9
}

/// Runs every fault class of `plan` and collects the report.
pub fn run_faults(plan: &FaultPlan) -> FaultReport {
    let mut report = FaultReport {
        seed: plan.seed,
        cases_per_class: plan.cases_per_class,
        tallies: [FaultTally::default(); 14],
        failures: Vec::new(),
    };
    let prev_hook = plan.quiet.then(std::panic::take_hook);
    if prev_hook.is_some() {
        std::panic::set_hook(Box::new(|_| {}));
    }
    for class in FaultClass::ALL {
        // Independent stream per class: adding cases to one class never
        // shifts another class's trials.
        let mut rng =
            StdRng::seed_from_u64(plan.seed ^ 0x4641_554C_5453_u64 ^ ((class.idx() as u64) << 56));
        for case in 0..plan.cases_per_class {
            run_one(&mut report, class, case, &mut rng);
        }
    }
    if let Some(hook) = prev_hook {
        std::panic::set_hook(hook);
    }
    report
}

fn fail(report: &mut FaultReport, class: FaultClass, case: u64, detail: String) {
    report.tallies[class.idx()].failures += 1;
    if report.failures.len() < MAX_RECORDED {
        report.failures.push(FaultFailure {
            class,
            case,
            detail,
        });
    }
}

fn run_one(report: &mut FaultReport, class: FaultClass, case: u64, rng: &mut StdRng) {
    report.tallies[class.idx()].cases += 1;
    match class {
        FaultClass::BitFlip
        | FaultClass::Truncation
        | FaultClass::VersionFlip
        | FaultClass::TrailingGarbage => run_integrity(report, class, case, rng),
        FaultClass::WorkerPanic => run_worker_panic(report, case, rng),
        FaultClass::Deadline => run_budget(
            report,
            FaultClass::Deadline,
            case,
            rng,
            Budget {
                deadline: Some(Duration::ZERO),
                max_join_edges: None,
            },
        ),
        FaultClass::JoinBudget => run_budget(
            report,
            FaultClass::JoinBudget,
            case,
            rng,
            Budget {
                deadline: None,
                max_join_edges: Some(0),
            },
        ),
        FaultClass::OversizedQuery => run_oversized(report, case, rng),
        FaultClass::TruncatedRequest
        | FaultClass::OversizedLine
        | FaultClass::InvalidUtf8Frame
        | FaultClass::GarbageThenValid
        | FaultClass::MidRequestDisconnect
        | FaultClass::DeepNesting => run_protocol(report, class, case, rng),
    }
}

/// Integrity classes: corrupt a persisted image and require a typed
/// [`LoadError`](xpe_synopsis::LoadError) — decoding must neither panic
/// nor accept the corruption.
fn run_integrity(report: &mut FaultReport, class: FaultClass, case: u64, rng: &mut StdRng) {
    let trial = make_trial(rng, 0);
    let mut bytes = trial.summary.to_bytes();
    match class {
        FaultClass::BitFlip => {
            let byte = rng.gen_range(0..bytes.len());
            bytes[byte] ^= 1 << rng.gen_range(0..8u32);
        }
        FaultClass::Truncation => {
            let keep = rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
        }
        FaultClass::VersionFlip => {
            // Only version 2 is readable; anything else must be refused.
            // The draw also skips 1 (the unchecked version, refused as
            // well) so each seed keeps its draws and its report bytes.
            // The version field is the little-endian u32 after the magic.
            let bogus: u32 = loop {
                let v = rng.gen_range(0..=255u32);
                if v != 1 && v != 2 {
                    break v;
                }
            };
            bytes[4..8].copy_from_slice(&bogus.to_le_bytes());
        }
        FaultClass::TrailingGarbage => {
            for _ in 0..rng.gen_range(1..=16usize) {
                bytes.push(rng.gen::<u8>());
            }
        }
        _ => unreachable!("integrity classes only"),
    }
    match catch_unwind(AssertUnwindSafe(|| Summary::from_bytes(&bytes))) {
        Ok(Err(_)) => report.tallies[class.idx()].typed_errors += 1,
        Ok(Ok(_)) => fail(
            report,
            class,
            case,
            "corrupted image decoded without an error".to_owned(),
        ),
        Err(_) => fail(
            report,
            class,
            case,
            "decoding a corrupted image panicked".to_owned(),
        ),
    }
}

/// Worker-panic class: poison one query of a batch and require exactly
/// that slot to degrade while every other slot stays bit-identical to the
/// serial estimates — and no panic escapes the batch call.
fn run_worker_panic(report: &mut FaultReport, case: u64, rng: &mut StdRng) {
    let trial = make_trial(rng, 8);
    let poisoned = rng.gen_range(0..trial.queries.len());
    let threads = rng.gen_range(1..=4usize);
    let engine = EstimationEngine::new(&trial.summary).with_threads(threads);
    let serial: Vec<f64> = {
        let est = Estimator::new(&trial.summary);
        trial.queries.iter().map(|q| est.estimate(q)).collect()
    };
    let queries = &trial.queries;
    let outcomes = catch_unwind(AssertUnwindSafe(|| {
        engine.try_estimate_batch_with(queries, |est, q| {
            if std::ptr::eq(q, &queries[poisoned]) {
                panic!("injected worker panic");
            }
            est.try_estimate(q, &QueryLimits::unlimited(), &Budget::unlimited())
        })
    }));
    let outcomes = match outcomes {
        Ok(o) => o,
        Err(_) => {
            fail(
                report,
                FaultClass::WorkerPanic,
                case,
                "a panic escaped try_estimate_batch".to_owned(),
            );
            return;
        }
    };
    if outcomes.len() != queries.len() {
        fail(
            report,
            FaultClass::WorkerPanic,
            case,
            format!("{} outcomes for {} queries", outcomes.len(), queries.len()),
        );
        return;
    }
    let mut ok = true;
    for (i, out) in outcomes.iter().enumerate() {
        if i == poisoned {
            let degraded_panic = matches!(
                out.status,
                EstimateStatus::Degraded {
                    reason: DegradedReason::Panicked { .. }
                }
            );
            if !degraded_panic || !in_tag_bound(&trial.summary, &queries[i], out.value) {
                fail(
                    report,
                    FaultClass::WorkerPanic,
                    case,
                    format!("poisoned slot {i} returned {out:?}"),
                );
                ok = false;
            }
        } else if out.status != EstimateStatus::Ok || out.value.to_bits() != serial[i].to_bits() {
            fail(
                report,
                FaultClass::WorkerPanic,
                case,
                format!("healthy slot {i} returned {:?} (serial {})", out, serial[i]),
            );
            ok = false;
        }
    }
    if ok {
        report.tallies[FaultClass::WorkerPanic.idx()].degraded += 1;
    }
}

/// Budget classes: estimation under an exhausted budget must return `Ok`
/// (for queries cheap enough to never charge the budget) or the matching
/// `Degraded` reason, always inside `[0, f(tag)]`, and never panic.
fn run_budget(
    report: &mut FaultReport,
    class: FaultClass,
    case: u64,
    rng: &mut StdRng,
    budget: Budget,
) {
    let trial = make_trial(rng, 6);
    let est = Estimator::new(&trial.summary);
    for q in &trial.queries {
        let out = match catch_unwind(AssertUnwindSafe(|| {
            est.try_estimate(q, &QueryLimits::unlimited(), &budget)
        })) {
            Ok(out) => out,
            Err(_) => {
                fail(
                    report,
                    class,
                    case,
                    "budgeted estimation panicked".to_owned(),
                );
                continue;
            }
        };
        let expected_reason = match class {
            FaultClass::Deadline => DegradedReason::Deadline,
            _ => DegradedReason::JoinBudget,
        };
        match &out.status {
            EstimateStatus::Ok => {}
            EstimateStatus::Degraded { reason } if *reason == expected_reason => {
                report.tallies[class.idx()].degraded += 1;
            }
            other => {
                fail(report, class, case, format!("unexpected status {other:?}"));
                continue;
            }
        }
        if !in_tag_bound(&trial.summary, q, out.value) {
            fail(
                report,
                class,
                case,
                format!("value {} escapes [0, f(tag)] for {}", out.value, q),
            );
        }
    }
}

/// Oversized-query class: with admission limits in force, `Rejected` must
/// fire exactly on the queries that exceed them, with bounded values.
fn run_oversized(report: &mut FaultReport, case: u64, rng: &mut StdRng) {
    let trial = make_trial(rng, 6);
    let est = Estimator::new(&trial.summary);
    let max_nodes = rng.gen_range(1..=2usize);
    let limits = QueryLimits {
        max_nodes: Some(max_nodes),
    };
    for q in &trial.queries {
        let out = match catch_unwind(AssertUnwindSafe(|| {
            est.try_estimate(q, &limits, &Budget::unlimited())
        })) {
            Ok(out) => out,
            Err(_) => {
                fail(
                    report,
                    FaultClass::OversizedQuery,
                    case,
                    "admission-checked estimation panicked".to_owned(),
                );
                continue;
            }
        };
        let should_reject = q.len() > max_nodes;
        match (&out.status, should_reject) {
            (EstimateStatus::Rejected { .. }, true) => {
                report.tallies[FaultClass::OversizedQuery.idx()].rejected += 1;
            }
            (EstimateStatus::Ok, false) => {}
            (status, _) => {
                fail(
                    report,
                    FaultClass::OversizedQuery,
                    case,
                    format!(
                        "query with {} nodes under limit {max_nodes} returned {status:?}",
                        q.len()
                    ),
                );
                continue;
            }
        }
        if !in_tag_bound(&trial.summary, q, out.value) {
            fail(
                report,
                FaultClass::OversizedQuery,
                case,
                format!("value {} escapes [0, f(tag)] for {}", out.value, q),
            );
        }
    }
}

/// Network-protocol classes: feed the serve framing and request parser a
/// hostile byte stream and require the typed error the daemon's contract
/// promises — never a panic, never a silently-accepted frame.
fn run_protocol(report: &mut FaultReport, class: FaultClass, case: u64, rng: &mut StdRng) {
    let outcome = catch_unwind(AssertUnwindSafe(|| protocol_trial(class, rng)));
    match outcome {
        Ok(Ok(())) => report.tallies[class.idx()].typed_errors += 1,
        Ok(Err(detail)) => fail(report, class, case, detail),
        Err(_) => fail(report, class, case, "protocol handling panicked".to_owned()),
    }
}

/// A syntactically valid wire query ("/A//B/..."), built without a
/// document — these trials exercise framing, not estimation.
fn random_wire_query(rng: &mut StdRng) -> String {
    let mut q = String::new();
    for i in 0..rng.gen_range(1..=4usize) {
        q.push_str(if i > 0 || rng.gen_bool(0.5) {
            "//"
        } else {
            "/"
        });
        q.push((b'A' + rng.gen_range(0..4u8)) as char);
    }
    q
}

/// A full, well-formed `estimate` request line (newline included).
fn wire_request_line(query: &str) -> String {
    format!("{{\"op\": \"estimate\", \"query\": \"{query}\"}}\n")
}

/// A transport that yields `data` in small reads, then fails with
/// `ConnectionReset` — a peer that died mid-request.
struct ResetAfter {
    data: Vec<u8>,
    pos: usize,
}

impl Read for ResetAfter {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "peer reset the connection",
            ));
        }
        // Drip at most 3 bytes per read so the reset lands mid-frame.
        let n = 3.min(self.data.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// One protocol trial; `Ok(())` means the contract held.
fn protocol_trial(class: FaultClass, rng: &mut StdRng) -> Result<(), String> {
    const CAP: usize = 64 * 1024;
    match class {
        FaultClass::TruncatedRequest => {
            // A valid request cut to a strict prefix of its line — the
            // newline never arrives, so EOF must surface as a typed
            // (fatal) truncation, not an empty or partial frame.
            let line = wire_request_line(&random_wire_query(rng));
            let cut = rng.gen_range(1..line.len());
            let mut frames = FrameReader::new(Cursor::new(line.as_bytes()[..cut].to_vec()), CAP);
            match frames.read_frame() {
                Err(FrameError::Protocol(e @ ProtocolError::TruncatedFrame { .. })) => {
                    if e.is_recoverable() {
                        return Err("truncated frame reported as recoverable".to_owned());
                    }
                    Ok(())
                }
                Err(other) => Err(format!("truncated stream produced {other:?}")),
                Ok(frame) => Err(format!("truncated stream yielded frame {frame:?}")),
            }
        }
        FaultClass::OversizedLine => {
            // The line must span multiple transport reads before its
            // newline, so the reader's buffer crosses the cap; the typed
            // error names the configured limit.
            let cap = rng.gen_range(32..=256usize);
            let len = 4096 + rng.gen_range(1..=4096usize);
            let mut bytes = vec![b'x'; len];
            bytes.push(b'\n');
            let mut frames = FrameReader::new(Cursor::new(bytes), cap);
            match frames.read_frame() {
                Err(FrameError::Protocol(e @ ProtocolError::LineTooLong { limit })) => {
                    if limit != cap {
                        return Err(format!("error names limit {limit}, configured {cap}"));
                    }
                    if e.is_recoverable() {
                        return Err("oversized line reported as recoverable".to_owned());
                    }
                    Ok(())
                }
                Err(other) => Err(format!("oversized line produced {other:?}")),
                Ok(frame) => Err(format!(
                    "oversized line yielded frame of {:?} bytes",
                    frame.map(|f| f.len())
                )),
            }
        }
        FaultClass::InvalidUtf8Frame => {
            // Framing is byte-oriented and must deliver the line; the
            // request parser must refuse it with a recoverable typed
            // error (the connection survives a single bad frame).
            let mut bytes = b"{\"op\": \"estimate\", \"query\": \"".to_vec();
            for _ in 0..rng.gen_range(1..=8usize) {
                bytes.push(rng.gen_range(0xF8..=0xFFu8));
            }
            bytes.extend_from_slice(b"\"}\n");
            let mut frames = FrameReader::new(Cursor::new(bytes), CAP);
            let frame = match frames.read_frame() {
                Ok(Some(frame)) => frame,
                other => return Err(format!("framing rejected the bytes early: {other:?}")),
            };
            match parse_request(&frame) {
                Err(e @ ProtocolError::InvalidUtf8) => {
                    if !e.is_recoverable() {
                        return Err("invalid UTF-8 reported as fatal".to_owned());
                    }
                    Ok(())
                }
                Err(other) => Err(format!("expected invalid-utf8, got {other:?}")),
                Ok(req) => Err(format!("invalid UTF-8 parsed as {req:?}")),
            }
        }
        FaultClass::GarbageThenValid => {
            // Pipelining: one junk line then a valid request on the same
            // stream. The junk must fail with a *recoverable* typed error
            // and the next frame must still parse to the exact request.
            let query = random_wire_query(rng);
            let garbage = match rng.gen_range(0..3u8) {
                0 => format!("!@#$ not json {}", rng.gen::<u32>()),
                1 => "[1, 2, 3]".to_owned(),
                _ => "{\"op\": \"frobnicate\"}".to_owned(),
            };
            let wire = format!("{garbage}\n{}", wire_request_line(&query));
            let mut frames = FrameReader::new(Cursor::new(wire.into_bytes()), CAP);
            let junk = match frames.read_frame() {
                Ok(Some(frame)) => frame,
                other => return Err(format!("junk line failed to frame: {other:?}")),
            };
            match parse_request(&junk) {
                Err(e) if e.is_recoverable() => {}
                Err(e) => return Err(format!("junk raised fatal {:?}", e.code())),
                Ok(req) => return Err(format!("junk parsed as {req:?}")),
            }
            match frames.read_frame() {
                Ok(Some(frame)) => match parse_request(&frame) {
                    Ok(Request::Estimate { query: q }) if q == query => Ok(()),
                    other => Err(format!("pipelined request parsed as {other:?}")),
                },
                other => Err(format!("pipelined frame lost after junk: {other:?}")),
            }
        }
        FaultClass::MidRequestDisconnect => {
            // The transport itself errors partway through a request; the
            // reader must surface the I/O error typed, never panic or
            // fabricate a frame.
            let line = wire_request_line(&random_wire_query(rng));
            let cut = rng.gen_range(0..line.len());
            let mut frames = FrameReader::new(
                ResetAfter {
                    data: line.as_bytes()[..cut].to_vec(),
                    pos: 0,
                },
                CAP,
            );
            match frames.read_frame() {
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::ConnectionReset => Ok(()),
                Err(other) => Err(format!("disconnect produced {other:?}")),
                Ok(frame) => Err(format!("disconnect yielded frame {frame:?}")),
            }
        }
        FaultClass::DeepNesting => {
            // Every step of a query path is a strictly deeper element, so
            // a path past the XML nesting cap can match nothing; the
            // parser must refuse it with a typed error after at most
            // MAX_DEPTH levels of recursion, not recurse once per step.
            let query = if rng.gen_bool(0.5) {
                let n = rng.gen_range(MAX_DEPTH..8_000);
                format!("//a{}{}", "[a".repeat(n), "]".repeat(n))
            } else {
                "/a".repeat(rng.gen_range(MAX_DEPTH + 1..=20_000))
            };
            let line = wire_request_line(&query);
            let mut frames = FrameReader::new(Cursor::new(line.into_bytes()), CAP);
            let frame = match frames.read_frame() {
                Ok(Some(frame)) => frame,
                other => return Err(format!("framing rejected the request: {other:?}")),
            };
            let text = match parse_request(&frame) {
                Ok(Request::Estimate { query }) => query,
                other => return Err(format!("request parsed as {other:?}")),
            };
            match parse_query(&text) {
                Err(e) if e.kind == QueryParseErrorKind::TooDeep => Ok(()),
                Err(e) => Err(format!("expected a too-deep error, got {e}")),
                Ok(q) => Err(format!("a {}-node query parsed", q.len())),
            }
        }
        _ => unreachable!("protocol classes only"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_class_honors_the_contract() {
        let report = run_faults(&FaultPlan {
            seed: 0x00C0_FFEE,
            cases_per_class: 8,
            quiet: true,
        });
        assert!(
            report.passed(),
            "contract failures:\n{:#?}",
            report.failures
        );
        for class in FaultClass::ALL {
            assert_eq!(report.tally(class).cases, 8, "{}", class.name());
        }
        // The injections actually bit: integrity classes saw typed
        // errors, the panic class saw isolation, budgets degraded, and
        // oversized queries were rejected.
        for class in [
            FaultClass::BitFlip,
            FaultClass::Truncation,
            FaultClass::VersionFlip,
            FaultClass::TrailingGarbage,
        ] {
            assert!(
                report.tally(class).typed_errors > 0,
                "{} never produced a typed error",
                class.name()
            );
        }
        assert!(report.tally(FaultClass::WorkerPanic).degraded > 0);
        assert!(report.tally(FaultClass::Deadline).degraded > 0);
        assert!(report.tally(FaultClass::JoinBudget).degraded > 0);
        assert!(report.tally(FaultClass::OversizedQuery).rejected > 0);
        // Network classes: every trial must end in the promised typed
        // error (the contract check inside each trial already verified
        // which error and its recoverability).
        for class in [
            FaultClass::TruncatedRequest,
            FaultClass::OversizedLine,
            FaultClass::InvalidUtf8Frame,
            FaultClass::GarbageThenValid,
            FaultClass::MidRequestDisconnect,
            FaultClass::DeepNesting,
        ] {
            assert_eq!(
                report.tally(class).typed_errors,
                8,
                "{} missed typed errors",
                class.name()
            );
        }
    }

    #[test]
    fn report_replays_deterministically() {
        let plan = FaultPlan {
            seed: 7,
            cases_per_class: 4,
            quiet: true,
        };
        let a = run_faults(&plan);
        let b = run_faults(&plan);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn fault_json_is_well_formed() {
        let report = run_faults(&FaultPlan {
            seed: 3,
            cases_per_class: 2,
            quiet: true,
        });
        let json = report.to_json();
        assert!(json.contains("\"tool\": \"xpe-faults\""));
        assert!(json.contains("\"worker-panic\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn harness_detects_a_broken_contract() {
        // Feed the integrity checker an image that "decodes" corruption:
        // simulate by checking that an *uncorrupted* image would be
        // flagged — i.e., prove `fail` wiring by invoking the checker on
        // a healthy summary and asserting no failure is (wrongly) logged,
        // then force a failure record and see it in the JSON.
        let mut report = FaultReport {
            seed: 0,
            cases_per_class: 0,
            tallies: [FaultTally::default(); 14],
            failures: Vec::new(),
        };
        fail(
            &mut report,
            FaultClass::BitFlip,
            3,
            "synthetic failure".to_owned(),
        );
        assert!(!report.passed());
        assert!(report.to_json().contains("synthetic failure"));
    }
}
