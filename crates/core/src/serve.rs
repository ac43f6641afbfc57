//! The resilience layer of the serving path: admission control, per-query
//! budgets, and the typed [`EstimateOutcome`] the fallible estimation
//! entry points return.
//!
//! The ladder has four rungs, each catching what the previous one let
//! through:
//!
//! 1. **Admission** ([`QueryLimits`]) — reject oversized queries *before*
//!    any kernel work, with a typed [`AdmissionError`] naming the limit.
//! 2. **Budget** ([`Budget`]/[`BudgetState`]) — a wall-clock deadline and
//!    a fixpoint-edge cap polled cooperatively inside the worklist join
//!    loop; exhaustion degrades the answer instead of hanging the worker.
//! 3. **Isolation** (`isolated_estimate`) — each estimate of a batch
//!    worker or a daemon connection runs under `catch_unwind`; a panic
//!    becomes that one query's `Degraded(Panicked)` answer, and the
//!    estimator it unwound through is rebuilt before the next estimate.
//! 4. **Integrity** (`xpe_synopsis::persist`) — corrupt summaries are
//!    rejected at load with a checksum error, so the rungs above only
//!    ever run against a trusted synopsis.
//!
//! Degraded answers stay inside the estimator's own invariant: the value
//! reported is `finalize_estimate(f(tag), f(tag))` — the target tag's
//! total frequency, the same `[0, f(tag)]` clamp every healthy estimate
//! already passes through — so a degraded estimate is a *valid
//! upper bound*, never garbage.

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use xpe_synopsis::Summary;
use xpe_xpath::Query;

use crate::estimator::Estimator;
use crate::invariant::finalize_estimate;

/// Admission-control policy checked before any estimation work runs.
///
/// The bound is inclusive; `None` means unlimited. The default policy
/// admits everything, preserving the infallible `estimate` behavior for
/// callers that opt out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryLimits {
    /// Maximum number of query nodes (steps).
    pub max_nodes: Option<usize>,
}

impl QueryLimits {
    /// A policy that admits every query (all limits `None`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Checks `query` against this policy; `Err` names the violated
    /// limit. Admission is a pure function of the query's shape — it
    /// never runs the join. The summary is not read; the parameter stays
    /// for existing callers.
    pub fn admit(&self, _summary: &Summary, query: &Query) -> Result<(), AdmissionError> {
        if let Some(limit) = self.max_nodes {
            let count = query.len();
            if count > limit {
                return Err(AdmissionError::TooManyNodes { count, limit });
            }
        }
        Ok(())
    }
}

/// Why admission control rejected a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The query has more steps than the policy allows.
    TooManyNodes {
        /// Steps in the query.
        count: usize,
        /// The policy's bound.
        limit: usize,
    },
}

impl AdmissionError {
    /// Stable machine-readable name of the violated limit, used in wire
    /// status codes (`rejected:<code>`).
    pub fn code(&self) -> &'static str {
        match self {
            AdmissionError::TooManyNodes { .. } => "nodes",
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::TooManyNodes { count, limit } => {
                write!(f, "query has {count} nodes, limit is {limit}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Per-query resource budget for one estimation.
///
/// `None` fields are unlimited; the default budget never exhausts, so
/// budgeted and unbudgeted estimation are bit-identical on queries that
/// stay within any finite budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from the moment estimation starts.
    pub deadline: Option<Duration>,
    /// Cap on worklist fixpoint edge examinations summed over every join
    /// the estimate runs (branch and order formulas run several).
    pub max_join_edges: Option<u64>,
}

impl Budget {
    /// A budget that never exhausts.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Whether any bound is set at all — unbudgeted estimation skips the
    /// per-edge accounting entirely.
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some() || self.max_join_edges.is_some()
    }
}

/// Which budget dimension ran out first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetExhausted {
    /// The wall-clock deadline passed.
    Deadline,
    /// The fixpoint-edge cap was reached.
    JoinEdges,
}

/// How often the wall clock is polled, in charged edges. Edge charges are
/// nanosecond-cheap counter bumps; `Instant::now` is the expensive part,
/// so it runs on the first charge (making a zero deadline trip
/// deterministically on any query with at least one join edge) and every
/// `POLL_INTERVAL` charges after that.
const POLL_INTERVAL: u64 = 64;

/// Live accounting for one query's [`Budget`] — created when a fallible
/// estimate starts, charged cooperatively by the join kernel, inspected
/// when the estimate finishes.
///
/// Interior mutability via [`Cell`] keeps the join kernel's signature
/// `&BudgetState`: the state never crosses threads (one per estimator,
/// estimators never cross threads), it is only ever *polled* from inside
/// one query's call tree.
#[derive(Debug)]
pub struct BudgetState {
    deadline: Option<Instant>,
    max_join_edges: Option<u64>,
    edges: Cell<u64>,
    exhausted: Cell<Option<BudgetExhausted>>,
}

impl BudgetState {
    /// Starts accounting for `budget`, anchoring the deadline at now.
    pub fn start(budget: &Budget) -> Self {
        BudgetState {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_join_edges: budget.max_join_edges,
            edges: Cell::new(0),
            exhausted: Cell::new(None),
        }
    }

    /// Charges one worklist edge examination. Returns `true` while the
    /// budget holds; `false` once exhausted (and forever after — later
    /// joins of the same query stop immediately).
    pub fn charge_edge(&self) -> bool {
        if self.exhausted.get().is_some() {
            return false;
        }
        let n = self.edges.get() + 1;
        self.edges.set(n);
        if let Some(cap) = self.max_join_edges {
            if n > cap {
                self.exhausted.set(Some(BudgetExhausted::JoinEdges));
                return false;
            }
        }
        if let Some(deadline) = self.deadline {
            if (n == 1 || n % POLL_INTERVAL == 0) && Instant::now() >= deadline {
                self.exhausted.set(Some(BudgetExhausted::Deadline));
                return false;
            }
        }
        true
    }

    /// Edges charged so far.
    pub fn edges_charged(&self) -> u64 {
        self.edges.get()
    }

    /// Which dimension exhausted, if any.
    pub fn exhausted(&self) -> Option<BudgetExhausted> {
        self.exhausted.get()
    }
}

/// Why an estimate was served degraded instead of computed exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DegradedReason {
    /// The wall-clock deadline passed mid-estimation.
    Deadline,
    /// The join-edge budget ran out mid-estimation.
    JoinBudget,
    /// The worker panicked on this query; the batch isolated it.
    Panicked {
        /// The panic payload, rendered as text.
        message: String,
    },
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedReason::Deadline => write!(f, "deadline exceeded"),
            DegradedReason::JoinBudget => write!(f, "join-edge budget exhausted"),
            DegradedReason::Panicked { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

/// The status half of an [`EstimateOutcome`].
#[derive(Clone, Debug, PartialEq)]
pub enum EstimateStatus {
    /// The estimate completed normally; the value is exactly what the
    /// infallible `estimate` would return.
    Ok,
    /// Estimation was cut short; the value is the tag-frequency upper
    /// bound `f(tag)` — still inside the `[0, f(tag)]` invariant.
    Degraded {
        /// Why the estimate was cut short.
        reason: DegradedReason,
    },
    /// Admission control refused to run the query; the value is the
    /// tag-frequency upper bound `f(tag)`.
    Rejected {
        /// The violated limit.
        reason: AdmissionError,
    },
}

impl EstimateStatus {
    /// Whether this is the `Ok` status.
    pub fn is_ok(&self) -> bool {
        matches!(self, EstimateStatus::Ok)
    }

    /// Whether this is a `Degraded` status.
    pub fn is_degraded(&self) -> bool {
        matches!(self, EstimateStatus::Degraded { .. })
    }

    /// Whether this is a `Rejected` status.
    pub fn is_rejected(&self) -> bool {
        matches!(self, EstimateStatus::Rejected { .. })
    }

    /// Compact machine-readable status code for the wire protocol:
    /// `"ok"`, `"degraded:deadline"`, `"degraded:join-budget"`,
    /// `"degraded:panicked"`, or `"rejected:<limit>"`. Human-readable
    /// detail stays in the [`Display`](fmt::Display) rendering.
    pub fn code(&self) -> String {
        match self {
            EstimateStatus::Ok => "ok".to_owned(),
            EstimateStatus::Degraded { reason } => match reason {
                DegradedReason::Deadline => "degraded:deadline".to_owned(),
                DegradedReason::JoinBudget => "degraded:join-budget".to_owned(),
                DegradedReason::Panicked { .. } => "degraded:panicked".to_owned(),
            },
            EstimateStatus::Rejected { reason } => format!("rejected:{}", reason.code()),
        }
    }
}

impl fmt::Display for EstimateStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateStatus::Ok => write!(f, "ok"),
            EstimateStatus::Degraded { reason } => write!(f, "degraded: {reason}"),
            EstimateStatus::Rejected { reason } => write!(f, "rejected: {reason}"),
        }
    }
}

/// One fallible estimation's result: always a usable value (inside
/// `[0, f(tag)]`) plus how trustworthy it is.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimateOutcome {
    /// The selectivity estimate — exact for `Ok`, the `f(tag)` upper
    /// bound for `Degraded`/`Rejected`.
    pub value: f64,
    /// How the value was produced.
    pub status: EstimateStatus,
}

/// One set of serving outcome counters — the single source of truth for
/// counter *names* and for the status-to-counter mapping
/// ([`record`](Self::record)). The engine's
/// [`outcomes`](crate::EstimationEngine::outcomes) (the `xpe estimate`
/// stderr line), the daemon's `stats` verb and its process-exit summary
/// all count through `record` and print through [`fmt::Display`] /
/// [`write_json`](Self::write_json), so none of them can drift apart.
///
/// `degraded` counts every degraded outcome; `panics` additionally
/// counts the `degraded:panicked` subset. The transport-level counters
/// (`protocol_errors`, `timeouts`, `overloaded`) are only moved by the
/// network server — a direct batch run leaves them zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Estimates that completed normally.
    pub ok: u64,
    /// Estimates served degraded (deadline, join budget, or panic).
    pub degraded: u64,
    /// Queries refused by admission control.
    pub rejected: u64,
    /// Frames that violated the wire protocol (bad JSON, unknown verb,
    /// oversized or truncated line, invalid UTF-8, bad query syntax).
    pub protocol_errors: u64,
    /// Connections closed on a timeout: no whole request frame within
    /// the read timeout, or a reply the peer did not drain within the
    /// write timeout.
    pub timeouts: u64,
    /// Connections shed because `max_connections` were already open.
    pub overloaded: u64,
    /// Estimate panics isolated to their own request (a subset of
    /// `degraded`).
    pub panics: u64,
}

impl OutcomeTally {
    /// Every counter as `(name, value)`, in report order — the one list
    /// both renderers below iterate.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("ok", self.ok),
            ("degraded", self.degraded),
            ("rejected", self.rejected),
            ("protocol_errors", self.protocol_errors),
            ("timeouts", self.timeouts),
            ("overloaded", self.overloaded),
            ("panics", self.panics),
        ]
    }

    /// Records one estimate outcome status — the one place a status
    /// picks its counters.
    pub fn record(&mut self, status: &EstimateStatus) {
        match status {
            EstimateStatus::Ok => self.ok += 1,
            EstimateStatus::Degraded { reason } => {
                self.degraded += 1;
                if matches!(reason, DegradedReason::Panicked { .. }) {
                    self.panics += 1;
                }
            }
            EstimateStatus::Rejected { .. } => self.rejected += 1,
        }
    }

    /// Appends the tally as a JSON object (`{"ok":N,...}`) to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in self.fields().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push('}');
    }
}

impl fmt::Display for OutcomeTally {
    /// Renders `"N ok, N degraded, N rejected"` always, then only the
    /// nonzero transport counters — so the batch CLI line stays as terse
    /// as before while the daemon summary shows everything that moved.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ok, {} degraded, {} rejected",
            self.ok, self.degraded, self.rejected
        )?;
        for (name, value) in &self.fields()[3..] {
            if *value > 0 {
                write!(f, ", {value} {}", name.replace('_', " "))?;
            }
        }
        Ok(())
    }
}

/// Renders a caught panic payload as text (`&str`/`String` payloads are
/// passed through; anything else becomes a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one estimate under panic isolation — the one guard shared by
/// [`EstimationEngine::try_estimate_batch_with`](crate::EstimationEngine::try_estimate_batch_with)
/// (per query, on each batch worker) and the daemon (per request, on
/// each connection thread).
///
/// `slot` holds the caller's estimator; an empty slot is filled with
/// `make()` first. `estimate` then runs on it under [`catch_unwind`]. A
/// panic costs only this answer: the slot is emptied, because the
/// estimator may have been mid-mutation when it unwound (the next call
/// builds a fresh one), and the answer is `Degraded(Panicked)` with the
/// same `finalize_estimate(f(tag), f(tag))` bound every degraded answer
/// reports. `make` itself is not guarded: it builds from trusted state,
/// and a panic there is a bug that should propagate.
pub(crate) fn isolated_estimate<'s>(
    slot: &mut Option<Estimator<'s>>,
    make: impl FnOnce() -> Estimator<'s>,
    query: &Query,
    estimate: impl FnOnce(&Estimator<'s>, &Query) -> EstimateOutcome,
) -> EstimateOutcome {
    let estimator = slot.get_or_insert_with(make);
    match catch_unwind(AssertUnwindSafe(|| estimate(estimator, query))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let cap = estimator.tag_cap(query);
            *slot = None;
            EstimateOutcome {
                value: finalize_estimate(cap, cap),
                status: EstimateStatus::Degraded {
                    reason: DegradedReason::Panicked {
                        message: panic_message(payload),
                    },
                },
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Estimator;
    use xpe_synopsis::{Summary, SummaryConfig};
    use xpe_xpath::parse_query;

    fn summary() -> Summary {
        Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            SummaryConfig::default(),
        )
    }

    #[test]
    fn unlimited_policy_admits_everything() {
        let s = summary();
        let q = parse_query("//A[/C[/F]/folls::$B/D]").unwrap();
        assert_eq!(QueryLimits::unlimited().admit(&s, &q), Ok(()));
    }

    #[test]
    fn node_limit_boundary() {
        let s = summary();
        let q = parse_query("//A/C/F").unwrap(); // 3 nodes
        let at = QueryLimits { max_nodes: Some(3) };
        assert_eq!(at.admit(&s, &q), Ok(()));
        let below = QueryLimits { max_nodes: Some(2) };
        assert_eq!(
            below.admit(&s, &q),
            Err(AdmissionError::TooManyNodes { count: 3, limit: 2 })
        );
    }

    #[test]
    fn budget_state_edge_cap_is_exact() {
        let b = Budget {
            deadline: None,
            max_join_edges: Some(3),
        };
        let state = BudgetState::start(&b);
        assert!(state.charge_edge());
        assert!(state.charge_edge());
        assert!(state.charge_edge());
        assert_eq!(state.exhausted(), None);
        assert!(!state.charge_edge());
        assert_eq!(state.exhausted(), Some(BudgetExhausted::JoinEdges));
        // Exhaustion is sticky.
        assert!(!state.charge_edge());
        assert_eq!(state.edges_charged(), 4);
    }

    #[test]
    fn zero_deadline_trips_on_first_charge() {
        let b = Budget {
            deadline: Some(Duration::ZERO),
            max_join_edges: None,
        };
        let state = BudgetState::start(&b);
        assert!(!state.charge_edge());
        assert_eq!(state.exhausted(), Some(BudgetExhausted::Deadline));
    }

    #[test]
    fn generous_budget_never_exhausts_here() {
        let b = Budget {
            deadline: Some(Duration::from_secs(3600)),
            max_join_edges: Some(u64::MAX),
        };
        let state = BudgetState::start(&b);
        for _ in 0..10_000 {
            assert!(state.charge_edge());
        }
        assert_eq!(state.exhausted(), None);
    }

    #[test]
    fn unbounded_budget_reports_unbounded() {
        assert!(!Budget::unlimited().is_bounded());
        assert!(Budget {
            deadline: Some(Duration::from_millis(5)),
            max_join_edges: None
        }
        .is_bounded());
    }

    #[test]
    fn try_estimate_ok_is_bit_identical_to_estimate() {
        let s = summary();
        let est = Estimator::new(&s);
        let generous = Budget {
            deadline: Some(Duration::from_secs(3600)),
            max_join_edges: Some(u64::MAX),
        };
        for q in [
            "//A//C",
            "//A[/C/F]/B/D",
            "//C[/$E]/F",
            "//A[/C[/F]/folls::$B/D]",
            "//A[/C/foll::$B]",
        ] {
            let query = parse_query(q).unwrap();
            let plain = est.estimate(&query);
            for budget in [Budget::unlimited(), generous] {
                let out = est.try_estimate(&query, &QueryLimits::unlimited(), &budget);
                assert_eq!(out.status, EstimateStatus::Ok, "{q}");
                assert_eq!(out.value.to_bits(), plain.to_bits(), "{q}");
            }
        }
    }

    #[test]
    fn rejected_outcome_reports_tag_bound() {
        let s = summary();
        let est = Estimator::new(&s);
        let query = parse_query("//A//C").unwrap();
        let limits = QueryLimits { max_nodes: Some(1) };
        let out = est.try_estimate(&query, &limits, &Budget::unlimited());
        assert!(out.status.is_rejected());
        // The value is f(C) — the same cap every healthy estimate obeys.
        assert_eq!(out.value, s.tag_total("C"));
    }

    #[test]
    fn exhausted_budget_degrades_to_tag_bound() {
        let s = summary();
        let est = Estimator::new(&s);
        let query = parse_query("//A[/C/F]/B/D").unwrap();
        let starved = Budget {
            deadline: None,
            max_join_edges: Some(0),
        };
        let out = est.try_estimate(&query, &QueryLimits::unlimited(), &starved);
        assert_eq!(
            out.status,
            EstimateStatus::Degraded {
                reason: DegradedReason::JoinBudget
            }
        );
        let cap = s.tag_total("D");
        assert!(out.value >= 0.0 && out.value <= cap);
        assert_eq!(out.value, cap);
        // The estimator fully recovers: the next unbudgeted call is exact.
        let healthy = est.try_estimate(&query, &QueryLimits::unlimited(), &Budget::unlimited());
        assert_eq!(healthy.status, EstimateStatus::Ok);
        assert_eq!(healthy.value.to_bits(), est.estimate(&query).to_bits());
    }

    #[test]
    fn zero_deadline_degrades_with_deadline_reason() {
        let s = summary();
        let est = Estimator::new(&s);
        let query = parse_query("//A//C").unwrap();
        let b = Budget {
            deadline: Some(Duration::ZERO),
            max_join_edges: None,
        };
        let out = est.try_estimate(&query, &QueryLimits::unlimited(), &b);
        assert_eq!(
            out.status,
            EstimateStatus::Degraded {
                reason: DegradedReason::Deadline
            }
        );
        assert_eq!(out.value, s.tag_total("C"));
    }

    #[test]
    fn status_displays_are_distinct() {
        let ok = EstimateStatus::Ok.to_string();
        let deg = EstimateStatus::Degraded {
            reason: DegradedReason::Deadline,
        }
        .to_string();
        let rej = EstimateStatus::Rejected {
            reason: AdmissionError::TooManyNodes { count: 9, limit: 4 },
        }
        .to_string();
        assert_eq!(ok, "ok");
        assert!(deg.contains("deadline"));
        assert!(rej.contains("9 nodes"));
        assert_ne!(deg, rej);
    }

    #[test]
    fn status_codes_are_compact_and_distinct() {
        let codes = [
            EstimateStatus::Ok.code(),
            EstimateStatus::Degraded {
                reason: DegradedReason::Deadline,
            }
            .code(),
            EstimateStatus::Degraded {
                reason: DegradedReason::JoinBudget,
            }
            .code(),
            EstimateStatus::Degraded {
                reason: DegradedReason::Panicked {
                    message: "boom".into(),
                },
            }
            .code(),
            EstimateStatus::Rejected {
                reason: AdmissionError::TooManyNodes { count: 9, limit: 4 },
            }
            .code(),
        ];
        assert_eq!(codes[0], "ok");
        assert_eq!(codes[1], "degraded:deadline");
        assert_eq!(codes[4], "rejected:nodes");
        for (i, a) in codes.iter().enumerate() {
            // Codes never carry spaces or quotes — safe to embed raw in
            // the hand-rolled JSON writer.
            assert!(!a.contains([' ', '"']), "{a}");
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn outcome_tally_records_and_renders() {
        let mut t = OutcomeTally::default();
        t.record(&EstimateStatus::Ok);
        t.record(&EstimateStatus::Ok);
        t.record(&EstimateStatus::Degraded {
            reason: DegradedReason::Panicked {
                message: "boom".into(),
            },
        });
        t.record(&EstimateStatus::Rejected {
            reason: AdmissionError::TooManyNodes { count: 9, limit: 4 },
        });
        assert_eq!((t.ok, t.degraded, t.rejected, t.panics), (2, 1, 1, 1));
        // The terse rendering hides zero transport counters, shows
        // nonzero ones.
        assert_eq!(t.to_string(), "2 ok, 1 degraded, 1 rejected, 1 panics");
        t.protocol_errors = 3;
        assert_eq!(
            t.to_string(),
            "2 ok, 1 degraded, 1 rejected, 3 protocol errors, 1 panics"
        );
        let mut json = String::new();
        t.write_json(&mut json);
        assert_eq!(
            json,
            "{\"ok\":2,\"degraded\":1,\"rejected\":1,\"protocol_errors\":3,\
             \"timeouts\":0,\"overloaded\":0,\"panics\":1}"
        );
    }

    /// A quiet panic hook for isolation tests: the default hook prints a
    /// backtrace banner per caught panic, which floods test output.
    pub(crate) fn hushed<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    /// An estimator that unwound is never reused: the slot is emptied,
    /// the answer is the `f(tag)` bound, and the next call builds a fresh
    /// estimator whose answer is exact.
    #[test]
    fn a_panic_empties_the_slot_and_the_next_call_builds_afresh() {
        let s = summary();
        let query = parse_query("//A[/C/F]/B/D").unwrap();
        let made = Cell::new(0);
        let make = || {
            made.set(made.get() + 1);
            Estimator::new(&s)
        };
        let mut slot = None;
        let out = hushed(|| isolated_estimate(&mut slot, make, &query, |_, _| panic!("mid-join")));
        assert_eq!(
            out.status,
            EstimateStatus::Degraded {
                reason: DegradedReason::Panicked {
                    message: "mid-join".into()
                }
            }
        );
        assert_eq!(out.value, s.tag_total("D"));
        assert!(slot.is_none(), "the unwound estimator was dropped");
        let unlimited = (QueryLimits::unlimited(), Budget::unlimited());
        let out = isolated_estimate(&mut slot, make, &query, |est, q| {
            est.try_estimate(q, &unlimited.0, &unlimited.1)
        });
        assert_eq!(made.get(), 2, "the second call built a fresh estimator");
        assert!(slot.is_some());
        assert_eq!(out.status, EstimateStatus::Ok);
        assert_eq!(
            out.value.to_bits(),
            Estimator::new(&s).estimate(&query).to_bits()
        );
    }

    #[test]
    fn non_string_panic_payloads_are_described() {
        let s = summary();
        let query = parse_query("//A//C").unwrap();
        let out = hushed(|| {
            isolated_estimate(
                &mut None,
                || Estimator::new(&s),
                &query,
                |_, _| std::panic::panic_any(42u32),
            )
        });
        match out.status {
            EstimateStatus::Degraded {
                reason: DegradedReason::Panicked { message },
            } => assert_eq!(message, "non-string panic payload"),
            other => panic!("expected a panic outcome, got {other:?}"),
        }
    }
}
