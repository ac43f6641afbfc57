//! Spans around the benchmark's calls into the program's public
//! functions, kept in memory and written out when the run ends.
//!
//! A span has a name (the layer metric it feeds), a start and an end on
//! a clock shared by every thread of the run, the span that caused it,
//! and the id of the request it belongs to. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `estcache.lookup`.
    pub name: &'static str,
    /// Nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Request (or pass, or build) the span belongs to.
    pub request: u64,
}

/// Per-thread span recorder; merge the threads' recorders at the end.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder timing against `epoch` (share one epoch across threads).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Nanoseconds since the trace epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags every span opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// The innermost open span, parent of the next one opened.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Opens a span, child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = self.now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn close(&mut self, index: usize) {
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now();
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.open(name);
        let out = f();
        self.close(index);
        out
    }

    /// Records a span timed elsewhere, e.g. a wire round trip.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.spans.len() - 1
    }

    /// Records children of `parent` whose durations a layer's own
    /// counters measured but whose positions it does not report (the
    /// join kernel keeps per-phase totals only). They are laid end to end
    /// from the parent's start; only their lengths carry information,
    /// and the self-time arithmetic needs nothing more.
    pub fn record_phases(&mut self, parent: usize, phases: &[(&'static str, u64)]) {
        let mut at = self.spans[parent].start_ns;
        let end = self.spans[parent].end_ns;
        for &(name, ns) in phases {
            let stop = at.saturating_add(ns).min(end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
                request: self.spans[parent].request,
            });
            at = stop;
        }
    }

    /// Appends another thread's spans, rebasing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            duration - covered
        })
        .collect()
}

/// Calls and summed self time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans with this name.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

impl LayerTotal {
    /// Mean self time per call in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Per-name totals over `spans`.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += own;
    }
    totals
}

/// Tab-separated spans, one per line: index, name, request, parent
/// (`-` for a root), start and end in nanoseconds, self time.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("index\tname\trequest\tparent\tstart_ns\tend_ns\tself_ns\n");
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{parent}\t{}\t{}\t{own}",
            s.name, s.request, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children on different threads overlap; their union is [10, 40].
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 25, 35, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("root", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 10);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("root", 0, 100, None),
            span("child", 0, 50, Some(0)),
            span("grandchild", 0, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 40]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["child"].mean_us(), 0.01);
    }

    #[test]
    fn phases_lay_end_to_end_and_stop_at_the_parent_end() {
        let mut t = Tracer::new(Instant::now());
        let parent = t.record("estimator.estimate", 100, 200);
        t.record_phases(
            parent,
            &[
                ("join.screen", 30),
                ("join.fixpoint", 50),
                ("join.finalize", 40),
            ],
        );
        assert_eq!(self_times(t.spans())[parent], 0);
        let lens: Vec<u64> = t.spans()[1..]
            .iter()
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        assert_eq!(lens, vec![30, 50, 20]);
    }

    #[test]
    fn absorb_rebases_parents_and_spans_nest() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("x", || ());
        let mut b = Tracer::new(epoch);
        b.set_request(7);
        let outer = b.open("outer");
        b.span("inner", || ());
        b.close(outer);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].request, 7);
        assert!(s[1].start_ns <= s[2].start_ns && s[2].end_ns <= s[1].end_ns);
    }
}
