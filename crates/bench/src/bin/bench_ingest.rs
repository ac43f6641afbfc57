//! Machine-readable ingest snapshot: DOM build versus the streaming
//! bounded-memory pipeline.
//!
//! Measures, per dataset:
//!
//! * raw tokenizer throughput of [`StreamParser`] (MB/s and events/s);
//! * wall time of the DOM path (`parse_document` + `Summary::build`)
//!   versus `Summary::build_streaming`, best of [`REPS`];
//! * peak-heap proxy of each path via a counting global allocator
//!   (peak live bytes above the phase's starting point) — the number
//!   the streaming pipeline exists to shrink;
//! * byte-identity of the two persisted summaries (asserted, and the
//!   streaming peak must stay below the DOM peak on the largest input).
//!
//! Writes `results/BENCH_ingest.json` (hand-rolled JSON — the workspace
//! carries no serde) and prints the same numbers as a table. Scale/seed
//! come from the usual `XPE_*` variables.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use xpe_bench::{print_table, ExpContext};
use xpe_datagen::{Dataset, DatasetSpec};
use xpe_synopsis::{Summary, SummaryConfig};
use xpe_xml::{parse_document, to_string, StreamEvent, StreamParser};

/// Repetitions per timing; the best run is reported to damp noise.
const REPS: usize = 3;

/// Live heap bytes right now, maintained by [`CountingAlloc`].
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`CURRENT`] since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Wraps the system allocator with live-byte accounting. Layout sizes are
/// exact for alloc/dealloc pairs, so `CURRENT` tracks live bytes and
/// `PEAK` is a faithful peak-heap proxy (allocator slack excluded).
struct CountingAlloc;

fn on_alloc(size: usize) {
    let live = CURRENT.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size(), Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` once and reports the peak live bytes it added above the heap
/// level at entry, alongside its result.
fn peak_delta<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = CURRENT.load(Relaxed);
    PEAK.store(base, Relaxed);
    let r = f();
    (PEAK.load(Relaxed).saturating_sub(base), r)
}

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
    xml_bytes: usize,
    elements: u64,
    events: u64,
    tokenize_mbps: f64,
    events_per_sec: f64,
    dom_build_ms: f64,
    stream_build_ms: f64,
    dom_peak_bytes: usize,
    stream_peak_bytes: usize,
}

fn main() {
    let ctx = ExpContext::from_env();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = SummaryConfig::default();
    println!(
        "Ingest snapshot: scale = {}, seed = {}, cores = {cores}",
        ctx.scale, ctx.seed
    );

    let mut rows: Vec<Row> = Vec::new();
    for ds in Dataset::ALL {
        // Serialize the generated tree, then drop it: both pipelines under
        // measurement start from the same raw text.
        let xml = {
            let doc = DatasetSpec {
                dataset: ds,
                scale: ctx.scale,
                seed: ctx.seed,
            }
            .generate();
            to_string(&doc)
        };

        // Raw tokenizer throughput, plus the event/element tallies.
        let (mut elements, mut events) = (0u64, 0u64);
        let tok_secs = best_secs(|| {
            let mut parser = StreamParser::new(&xml);
            let mut opens = 0u64;
            while let Some(event) = parser.next_event().expect("dataset XML is well-formed") {
                if matches!(event, StreamEvent::Open { .. }) {
                    opens += 1;
                }
            }
            elements = opens;
            events = parser.events();
            opens
        });

        let dom_build_secs = best_secs(|| {
            let doc = parse_document(&xml).expect("dataset XML is well-formed");
            Summary::build(&doc, config)
        });
        let stream_build_secs =
            best_secs(|| Summary::build_streaming(&xml, config).expect("dataset XML parses"));

        // Peak-heap proxy: one untimed run of each phase. The persisted
        // bytes double as the identity check.
        let (dom_peak, dom_bytes) = peak_delta(|| {
            let doc = parse_document(&xml).expect("dataset XML is well-formed");
            Summary::build(&doc, config).to_bytes()
        });
        let (stream_peak, stream_bytes) = peak_delta(|| {
            Summary::build_streaming(&xml, config)
                .expect("dataset XML parses")
                .to_bytes()
        });
        assert_eq!(
            dom_bytes,
            stream_bytes,
            "streaming summary diverged from DOM summary on {}",
            ds.name()
        );

        println!(
            "  {}: {:.2} MB, {} elements, {} events; tokenizer {:.1} MB/s; \
             build {:.1} ms DOM / {:.1} ms streaming; peak {:.2} MB DOM / {:.2} MB streaming",
            ds.name(),
            xml.len() as f64 / 1e6,
            elements,
            events,
            xml.len() as f64 / 1e6 / tok_secs,
            dom_build_secs * 1e3,
            stream_build_secs * 1e3,
            dom_peak as f64 / 1e6,
            stream_peak as f64 / 1e6,
        );

        rows.push(Row {
            dataset: ds.name(),
            xml_bytes: xml.len(),
            elements,
            events,
            tokenize_mbps: xml.len() as f64 / 1e6 / tok_secs,
            events_per_sec: events as f64 / tok_secs,
            dom_build_ms: dom_build_secs * 1e3,
            stream_build_ms: stream_build_secs * 1e3,
            dom_peak_bytes: dom_peak,
            stream_peak_bytes: stream_peak,
        });
    }

    // The pipeline's reason to exist: on the largest input, streaming must
    // hold strictly less live heap than the DOM path.
    if let Some(largest) = rows.iter().max_by_key(|r| r.xml_bytes) {
        assert!(
            largest.stream_peak_bytes < largest.dom_peak_bytes,
            "streaming peak ({} B) not below DOM peak ({} B) on {}",
            largest.stream_peak_bytes,
            largest.dom_peak_bytes,
            largest.dataset
        );
    }

    print_table(
        "Streaming ingest vs DOM build",
        &[
            "Dataset",
            "XML MB",
            "Tok MB/s",
            "Events/s",
            "DOM ms",
            "Stream ms",
            "DOM peak MB",
            "Stream peak MB",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_owned(),
                    format!("{:.2}", r.xml_bytes as f64 / 1e6),
                    format!("{:.1}", r.tokenize_mbps),
                    format!("{:.0}", r.events_per_sec),
                    format!("{:.2}", r.dom_build_ms),
                    format!("{:.2}", r.stream_build_ms),
                    format!("{:.2}", r.dom_peak_bytes as f64 / 1e6),
                    format!("{:.2}", r.stream_peak_bytes as f64 / 1e6),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"scale\": {}, \"seed\": {}, \"reps\": {REPS}, \"cores\": {cores},",
        ctx.scale, ctx.seed
    );
    json.push_str("  \"datasets\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dataset\": \"{}\", \"xml_bytes\": {}, \"elements\": {}, \
             \"events\": {}, \"tokenize_mbps\": {:.1}, \"events_per_sec\": {:.0}, \
             \"dom_build_ms\": {:.3}, \"stream_build_ms\": {:.3}, \
             \"dom_peak_bytes\": {}, \"stream_peak_bytes\": {}, \
             \"peak_ratio\": {:.3}, \
             \"identical\": true}}",
            r.dataset,
            r.xml_bytes,
            r.elements,
            r.events,
            r.tokenize_mbps,
            r.events_per_sec,
            r.dom_build_ms,
            r.stream_build_ms,
            r.dom_peak_bytes,
            r.stream_peak_bytes,
            r.stream_peak_bytes as f64 / r.dom_peak_bytes.max(1) as f64,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let out = "results/BENCH_ingest.json";
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("\ncould not write {out}: {e}"),
    }
}
