//! `xpe` — command-line front end for the XPath estimation system.
//!
//! ```text
//! xpe stats <file.xml>                         structural statistics
//! xpe build <file.xml> -o <summary.xps>        build + save a summary
//!     [--p-variance V] [--o-variance V]
//! xpe estimate <summary.xps> <query>...        estimate selectivities
//!     [--jobs N] [--estimate-cache N]
//!     [--deadline-ms N] [--max-query-nodes N]
//! xpe exact <file.xml> <query>...              exact selectivities
//! xpe generate <ssplays|dblp|xmark> -o <out.xml>
//!     [--scale S] [--seed N]                   synthesize a corpus
//! xpe workload <ssplays|dblp|xmark> [--scale S] [--seed N]
//!     [--requests N] [--zipf S] [--templates N] [--mix A,B,C]
//!     [--attempts N]                           print a skewed query trace
//! xpe serve <summary.xps> [--addr H:P] [--max-connections N]
//!     [--deadline-ms N] [--max-query-nodes N] [--estimate-cache N]
//!     [--read-timeout-ms N] [--write-timeout-ms N]
//!     [--max-line-bytes N]                     estimation daemon
//! xpe diff [--seed N] [--cases N] [--json FILE]
//!                                              differential correctness run
//! xpe faults [--seed N] [--cases N] [--json FILE]
//!                                              fault-injection resilience run
//! ```

use std::process::ExitCode;

use xpe::prelude::*;
use xpe::synopsis::Summary as Syn;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("exact") => cmd_exact(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("workload") => cmd_workload(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("faults") => cmd_faults(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  xpe stats <file.xml>
  xpe build <file.xml> -o <summary.xps> [--p-variance V] [--o-variance V]
  xpe estimate <summary.xps> [--jobs N] [--estimate-cache N]
      [--deadline-ms N] [--max-query-nodes N] <query>...
  xpe exact <file.xml> <query>...
  xpe generate <ssplays|dblp|xmark> -o <out.xml> [--scale S] [--seed N]
  xpe workload <ssplays|dblp|xmark> [--scale S] [--seed N] [--requests N]
      [--zipf S] [--templates N] [--mix SIMPLE,BRANCH,ORDER] [--attempts N]
  xpe serve <summary.xps> [--addr HOST:PORT] [--max-connections N]
      [--deadline-ms N] [--max-query-nodes N] [--estimate-cache N]
      [--read-timeout-ms N] [--write-timeout-ms N]
      [--max-line-bytes N]
  xpe diff [--seed N] [--cases N] [--json FILE]
  xpe faults [--seed N] [--cases N] [--json FILE]

--jobs N batches queries across N workers (estimate); 0 = one worker per
core, default 1.
build reads the XML in one streaming pass on two threads (the tokenizer
walks a trie of the document's label paths and hands batches of
path-node events to a labeling worker) without materializing the
document tree; live memory is bounded by depth x path count plus the
distinct label paths and a constant number of event batches, not node
count.
--estimate-cache N caps the full-query estimate cache at N finished
estimates (estimate, serve); 0 disables the skew-aware fast path. Only
'ok' answers are ever cached, and a serve reload invalidates the cache
atomically with the summary swap. Caches never change estimates.
workload prints a production-shaped query trace on stdout, one
canonical query per line in arrival order: Zipf-skewed template
popularity (--zipf, default 1.1; 0 = uniform) over the paper's §7
workload classes mixed by --mix weights (default 0.5,0.3,0.2 for
simple,branch,order), --templates popularity ranks per class, seeded
and byte-reproducible; --attempts N (default 1000) sets how many
simple and branch template draws the underlying workload makes. Pipe
it through `xpe serve` to replay skewed production traffic.
--deadline-ms N gives each estimate a wall-clock budget; a query that
exceeds it prints its tag-frequency upper bound flagged 'degraded'.
--max-query-nodes N rejects queries with more steps before estimating.
serve runs a line-delimited-JSON estimation daemon on --addr (default
127.0.0.1:7878; port 0 picks an ephemeral port, printed on stdout).
Verbs: estimate, stats, reload, ping, shutdown — one JSON object per
line. Each connection has its own thread, which answers its requests
one at a time, estimates included. Every estimate reply carries a
status (ok, degraded:*, or rejected:*) and the epoch of the summary
generation that served it; reload validates a new .xps fully before
atomically swapping it in. --max-connections caps open connections
(default 256): one past the cap gets a single typed 'overloaded' line
and is closed, so an overfull server sheds instead of stalling.
Each connection holds its slot until it closes, so --read-timeout-ms
(default 30000) is a deadline per request: a connection that sends no
whole request frame within it is closed, and blank lines or a frame
trickled in byte by byte do not extend it. --write-timeout-ms closes
one that stops draining replies (0 = never, for either);
--max-line-bytes caps request size.
diff runs the estimator-vs-exact differential battery (seeds accept 0x
hex); it exits nonzero when any invariant is violated.
faults injects every fault class (corruption, panics, exhausted
budgets, oversized queries, plus the serve wire protocol: truncated
requests, oversized lines, invalid UTF-8, garbage-then-valid
pipelining, mid-request disconnects, deeply nested queries; --cases
trials per class) and
exits nonzero if any escapes the typed-error-or-degraded contract.";

fn load_doc(path: &str) -> Result<Document, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_document(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Parsed command-line flags as `(name, value)` pairs.
type Flags = Vec<(String, String)>;

/// Extracts `--flag value` pairs (`-o` is `--out`), returning remaining
/// positionals. `known` names every flag the subcommand reads; any other
/// flag is an error naming it, so a misspelt flag never runs silently
/// with its default.
fn split_flags(args: &[String], known: &[&str]) -> Result<(Flags, Vec<String>), String> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = match a.strip_prefix("--") {
            Some(name) => name,
            None if a == "-o" => "out",
            None => {
                positional.push(a.clone());
                continue;
            }
        };
        if !known.contains(&name) {
            return Err(format!("unknown flag {a}"));
        }
        let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
        flags.push((name.to_owned(), value.clone()));
    }
    Ok((flags, positional))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn parse_flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    Ok(parse_opt_flag(flags, name)?.unwrap_or(default))
}

fn parse_opt_flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, String> {
    flag(flags, name)
        .map(|v| v.parse().map_err(|_| format!("bad value for --{name}")))
        .transpose()
}

/// The admission policy of `--max-query-nodes` and the budget of
/// `--deadline-ms`, which `estimate` and `serve` share.
fn limits_and_budget(
    flags: &[(String, String)],
) -> Result<(xpe::estimator::QueryLimits, xpe::estimator::Budget), String> {
    let limits = xpe::estimator::QueryLimits {
        max_nodes: parse_opt_flag(flags, "max-query-nodes")?,
    };
    let budget = xpe::estimator::Budget {
        deadline: parse_opt_flag(flags, "deadline-ms")?.map(std::time::Duration::from_millis),
        max_join_edges: None,
    };
    Ok((limits, budget))
}

/// Seed values accept decimal or `0x`-prefixed hex (CI pins
/// `--seed 0xC0FFEE`).
fn parse_seed(flags: &[(String, String)], name: &str, default: u64) -> Result<u64, String> {
    match flag(flags, name) {
        None => Ok(default),
        Some(v) => {
            let (digits, radix) = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => (hex, 16),
                None => (v, 10),
            };
            u64::from_str_radix(digits, radix).map_err(|_| format!("bad value for --{name}"))
        }
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (_, pos) = split_flags(args, &[])?;
    let [path] = pos.as_slice() else {
        return Err("stats takes one file".into());
    };
    let doc = load_doc(path)?;
    let s = xpe::xml::stats::DocumentStats::compute(&doc);
    let lab = Labeling::compute(&doc);
    println!("elements:        {}", s.elements);
    println!("distinct tags:   {}", s.distinct_tags);
    println!("distinct paths:  {}", s.distinct_paths);
    println!("distinct pids:   {}", lab.interner.len());
    println!("max depth:       {}", s.max_depth);
    println!("avg fanout:      {:.2}", s.avg_fanout);
    println!("serialized size: {} bytes", s.serialized_bytes);
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let (flags, pos) = split_flags(args, &["out", "p-variance", "o-variance"])?;
    let [path] = pos.as_slice() else {
        return Err("build takes one input file".into());
    };
    let out = flag(&flags, "out").ok_or("build requires -o <summary.xps>")?;
    let config = SummaryConfig {
        p_variance: parse_flag(&flags, "p-variance", 0.0)?,
        o_variance: parse_flag(&flags, "o-variance", 0.0)?,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let summary =
        Syn::build_streaming(&text, config).map_err(|e| format!("parsing {path}: {e}"))?;
    let sizes = summary.sizes();
    summary
        .save_to_file(out)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "summary written to {out}: {} B path info + {} B order info \
         ({} paths, {} pids, {} tags)",
        sizes.path_total(),
        sizes.o_histograms,
        summary.encoding.len(),
        summary.pids.len(),
        summary.tags.len(),
    );
    Ok(())
}

fn cmd_estimate(args: &[String]) -> Result<(), String> {
    let (flags, pos) = split_flags(
        args,
        &["jobs", "estimate-cache", "deadline-ms", "max-query-nodes"],
    )?;
    let [path, queries @ ..] = pos.as_slice() else {
        return Err("estimate takes a summary file and at least one query".into());
    };
    if queries.is_empty() {
        return Err("estimate needs at least one query".into());
    }
    let jobs = parse_flag(&flags, "jobs", 1usize)?;
    let estimate_cache = parse_flag(
        &flags,
        "estimate-cache",
        xpe::estimator::DEFAULT_ESTIMATE_CACHE_CAPACITY,
    )?;
    let (limits, budget) = limits_and_budget(&flags)?;
    let summary = Syn::load_from_file(path).map_err(|e| format!("loading {path}: {e}"))?;
    let engine = EstimationEngine::new(&summary)
        .with_threads(jobs)
        .with_estimate_cache_capacity(estimate_cache)
        .with_budget(budget)
        .with_limits(limits);
    // Parse everything up front: a malformed query aborts the whole
    // invocation with a diagnostic, before any estimate is printed, so
    // scripts never mistake partial output for a complete run.
    let batch = queries
        .iter()
        .map(|q| parse_query(q).map_err(|e| format!("query '{q}': {e}")))
        .collect::<Result<Vec<Query>, String>>()?;
    // Each line leads with the numeric estimate; non-Ok outcomes append
    // a status column, and the tallies land on stderr so scripts
    // scraping stdout see only estimates. With no limits and no deadline
    // every outcome is `ok` and bit-identical to `estimate`.
    for (q, out) in queries.iter().zip(engine.try_estimate_batch(&batch)) {
        match &out.status {
            xpe::estimator::EstimateStatus::Ok => println!("{:.2}\t{q}", out.value),
            status => println!("{:.2}\t{q}\t[{status}]", out.value),
        }
    }
    // Same tally type (and formatter) the serve daemon reports, so batch
    // runs and daemon logs read identically.
    let tally = engine.outcomes();
    if tally.degraded > 0 || tally.rejected > 0 {
        eprintln!("outcomes: {tally}");
    }
    print_cache_tally(&engine.kernel_stats());
    Ok(())
}

/// Cache effectiveness lands on stderr next to the outcome tally, so
/// stdout stays a pure estimate stream for scripts.
fn print_cache_tally(stats: &xpe::estimator::KernelStats) {
    eprintln!(
        "caches: estimate {} hit / {} miss ({:.1}% hit rate, {} inserted, \
         {} invalidated), join {} hit / {} miss ({:.1}% hit rate)",
        stats.estimate_cache_hits,
        stats.estimate_cache_misses,
        stats.estimate_cache_hit_rate * 100.0,
        stats.estimate_cache_inserts,
        stats.estimate_cache_invalidations,
        stats.join_cache_hits,
        stats.join_cache_misses,
        stats.join_cache_hit_rate * 100.0,
    );
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (flags, pos) = split_flags(
        args,
        &[
            "addr",
            "max-connections",
            "deadline-ms",
            "max-query-nodes",
            "estimate-cache",
            "read-timeout-ms",
            "write-timeout-ms",
            "max-line-bytes",
        ],
    )?;
    let [path] = pos.as_slice() else {
        return Err("serve takes one summary file".into());
    };
    let addr = flag(&flags, "addr").unwrap_or("127.0.0.1:7878");
    let (limits, budget) = limits_and_budget(&flags)?;
    // 0 disables a socket timeout entirely; the defaults mirror
    // ServerConfig::default (30 s read, 10 s write).
    let timeout = |ms: u64| (ms > 0).then(|| std::time::Duration::from_millis(ms));
    let defaults = xpe::estimator::ServerConfig::default();
    let config = xpe::estimator::ServerConfig {
        max_connections: parse_flag(&flags, "max-connections", defaults.max_connections)?,
        max_line_bytes: parse_flag(&flags, "max-line-bytes", defaults.max_line_bytes)?,
        read_timeout: timeout(parse_flag(&flags, "read-timeout-ms", 30_000u64)?),
        write_timeout: timeout(parse_flag(&flags, "write-timeout-ms", 10_000u64)?),
        limits,
        budget,
        estimate_cache_capacity: parse_flag(
            &flags,
            "estimate-cache",
            xpe::estimator::DEFAULT_ESTIMATE_CACHE_CAPACITY,
        )?,
        ..defaults
    };
    let summary = Syn::load_from_file(path).map_err(|e| format!("loading {path}: {e}"))?;
    let server = xpe::estimator::Server::bind(
        addr,
        std::sync::Arc::new(summary),
        Some(std::path::PathBuf::from(path)),
        config,
    )
    .map_err(|e| format!("binding {addr}: {e}"))?;
    // The resolved address lands on stdout (and is flushed) before any
    // request is served, so scripts binding port 0 can scrape it.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let tally = server.run();
    println!("serve: {tally}");
    Ok(())
}

fn cmd_exact(args: &[String]) -> Result<(), String> {
    let (_, pos) = split_flags(args, &[])?;
    let [path, queries @ ..] = pos.as_slice() else {
        return Err("exact takes an XML file and at least one query".into());
    };
    if queries.is_empty() {
        return Err("exact needs at least one query".into());
    }
    let doc = load_doc(path)?;
    let order = DocOrder::new(&doc);
    let eval = Evaluator::new(&doc, &order);
    let parsed = queries
        .iter()
        .map(|q| parse_query(q).map_err(|e| format!("query '{q}': {e}")))
        .collect::<Result<Vec<Query>, String>>()?;
    for (q, query) in queries.iter().zip(&parsed) {
        println!("{}\t{q}", eval.selectivity(query));
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (flags, pos) = split_flags(args, &["out", "scale", "seed"])?;
    let [name] = pos.as_slice() else {
        return Err("generate takes one dataset name".into());
    };
    let dataset = match name.as_str() {
        "ssplays" => Dataset::SSPlays,
        "dblp" => Dataset::Dblp,
        "xmark" => Dataset::XMark,
        other => return Err(format!("unknown dataset '{other}'")),
    };
    let out = flag(&flags, "out").ok_or("generate requires -o <out.xml>")?;
    let spec = DatasetSpec {
        dataset,
        scale: parse_flag(&flags, "scale", 0.01)?,
        seed: parse_flag(&flags, "seed", 42u64)?,
    };
    let doc = spec.generate();
    std::fs::write(out, xpe::xml::to_string(&doc)).map_err(|e| format!("writing {out}: {e}"))?;
    println!("{} elements written to {out}", doc.len());
    Ok(())
}

fn cmd_workload(args: &[String]) -> Result<(), String> {
    let (flags, pos) = split_flags(
        args,
        &[
            "scale",
            "seed",
            "requests",
            "zipf",
            "templates",
            "mix",
            "attempts",
        ],
    )?;
    let [name] = pos.as_slice() else {
        return Err("workload takes one dataset name".into());
    };
    let dataset = match name.as_str() {
        "ssplays" => Dataset::SSPlays,
        "dblp" => Dataset::Dblp,
        "xmark" => Dataset::XMark,
        other => return Err(format!("unknown dataset '{other}'")),
    };
    let seed = parse_seed(&flags, "seed", 42)?;
    let mix = match flag(&flags, "mix") {
        None => (0.5, 0.3, 0.2),
        Some(v) => {
            let parts: Vec<f64> = v
                .split(',')
                .map(|p| p.trim().parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|_| "bad value for --mix (want SIMPLE,BRANCH,ORDER)")?;
            let [s, b, o] = parts.as_slice() else {
                return Err("bad value for --mix (want three comma-separated weights)".into());
            };
            (*s, *b, *o)
        }
    };
    let spec = DatasetSpec {
        dataset,
        scale: parse_flag(&flags, "scale", 0.01)?,
        seed,
    };
    let doc = spec.generate();
    let labeling = Labeling::compute(&doc);
    let attempts = parse_flag(&flags, "attempts", 1000usize)?;
    let workload = xpe::datagen::generate_workload(
        &doc,
        &labeling.encoding,
        &xpe::datagen::WorkloadConfig {
            seed,
            simple_attempts: attempts,
            branch_attempts: attempts,
            ..xpe::datagen::WorkloadConfig::default()
        },
    );
    let config = xpe::datagen::TrafficConfig {
        seed,
        zipf_s: parse_flag(&flags, "zipf", 1.1)?,
        templates_per_class: parse_flag(&flags, "templates", 64usize)?,
        requests: parse_flag(&flags, "requests", 4096usize)?,
        mix,
        ..xpe::datagen::TrafficConfig::default()
    };
    let trace = xpe::datagen::generate_traffic(&workload, &config);
    // One canonical query per line in arrival order on stdout; the
    // shape summary goes to stderr so the trace pipes cleanly into a
    // replay client (or straight into `xpe serve`).
    let mut out = String::new();
    for text in trace.texts() {
        out.push_str(text);
        out.push('\n');
    }
    use std::io::Write as _;
    std::io::stdout()
        .write_all(out.as_bytes())
        .map_err(|e| format!("writing trace: {e}"))?;
    let counts = trace.class_counts();
    eprintln!(
        "workload: {} requests over {} templates \
         (simple {} / branch {} / order {}), zipf {}, seed {:#x}",
        trace.requests.len(),
        trace.templates.len(),
        counts[0],
        counts[1],
        counts[2],
        config.zipf_s,
        seed,
    );
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let (flags, pos) = split_flags(args, &["seed", "cases", "json"])?;
    if !pos.is_empty() {
        return Err(format!(
            "diff takes no positional arguments, got '{}'",
            pos[0]
        ));
    }
    let cfg = xpe::diff::DiffConfig {
        seed: parse_seed(&flags, "seed", 0)?,
        cases: parse_flag(&flags, "cases", 200u64)?,
    };
    let report = xpe::diff::run_diff(&cfg);
    if let Some(path) = flag(&flags, "json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!(
        "diff: seed {:#x}, {} cases, {} checks",
        report.seed,
        report.cases,
        report.total_checks()
    );
    for inv in xpe::diff::Invariant::ALL {
        let t = report.tally(inv);
        println!(
            "  {:<16} {:>6} checks  {:>3} violations",
            inv.name(),
            t.checks,
            t.violations
        );
    }
    if report.total_violations() > 0 {
        for v in &report.violations {
            eprintln!(
                "violation[{}] case {} (doc_seed {:#x}, p_variance {}): query {} \
                 estimate {} exact {} — {} (minimized: {})",
                v.invariant.name(),
                v.case,
                v.doc_seed,
                v.p_variance,
                v.query,
                v.estimate,
                v.exact,
                v.detail,
                v.minimized,
            );
        }
        return Err(format!(
            "{} invariant violation(s) in {} checks",
            report.total_violations(),
            report.total_checks()
        ));
    }
    println!("all invariants hold");
    Ok(())
}

fn cmd_faults(args: &[String]) -> Result<(), String> {
    let (flags, pos) = split_flags(args, &["seed", "cases", "json"])?;
    if !pos.is_empty() {
        return Err(format!(
            "faults takes no positional arguments, got '{}'",
            pos[0]
        ));
    }
    let plan = xpe::diff::FaultPlan {
        seed: parse_seed(&flags, "seed", 0)?,
        cases_per_class: parse_flag(&flags, "cases", 25u64)?,
        quiet: true,
    };
    let report = xpe::diff::run_faults(&plan);
    if let Some(path) = flag(&flags, "json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!(
        "faults: seed {:#x}, {} cases per class",
        report.seed, report.cases_per_class
    );
    for class in xpe::diff::FaultClass::ALL {
        let t = report.tally(class);
        println!(
            "  {:<16} {:>4} cases  {:>4} typed errors  {:>4} degraded  {:>4} rejected  {:>3} failures",
            class.name(),
            t.cases,
            t.typed_errors,
            t.degraded,
            t.rejected,
            t.failures
        );
    }
    if !report.passed() {
        for f in &report.failures {
            eprintln!("failure[{}] case {}: {}", f.class.name(), f.case, f.detail);
        }
        return Err(format!(
            "{} fault(s) escaped the typed-error-or-degraded contract",
            report.total_failures()
        ));
    }
    println!("all fault classes contained");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn split_flags_separates_pairs_and_positionals() {
        let (flags, pos) = split_flags(
            &args(&["file.xml", "--scale", "0.5", "-o", "out.bin", "extra"]),
            &["scale", "out"],
        )
        .unwrap();
        assert_eq!(pos, vec!["file.xml", "extra"]);
        assert_eq!(flag(&flags, "scale"), Some("0.5"));
        assert_eq!(flag(&flags, "out"), Some("out.bin"));
        assert_eq!(flag(&flags, "missing"), None);
    }

    #[test]
    fn split_flags_rejects_dangling_and_unknown_flags() {
        assert!(split_flags(&args(&["--scale"]), &["scale"]).is_err());
        assert!(split_flags(&args(&["-o"]), &["out"]).is_err());
        let err = split_flags(&args(&["-o", "out.bin"]), &["scale"]).unwrap_err();
        assert_eq!(err, "unknown flag -o");
    }

    #[test]
    fn parse_flag_types_and_defaults() {
        let known = ["seed", "scale"];
        let (flags, _) = split_flags(&args(&["--seed", "7", "--scale", "0.25"]), &known).unwrap();
        assert_eq!(parse_flag(&flags, "seed", 0u64).unwrap(), 7);
        assert_eq!(parse_flag(&flags, "scale", 1.0f64).unwrap(), 0.25);
        assert_eq!(parse_flag(&flags, "absent", 42u32).unwrap(), 42);
        let (bad, _) = split_flags(&args(&["--seed", "notanumber"]), &known).unwrap();
        assert!(parse_flag(&bad, "seed", 0u64).is_err());
    }

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        let known = ["seed"];
        let (flags, _) = split_flags(&args(&["--seed", "0xC0FFEE"]), &known).unwrap();
        assert_eq!(parse_seed(&flags, "seed", 0).unwrap(), 0xC0FFEE);
        let (flags, _) = split_flags(&args(&["--seed", "12648430"]), &known).unwrap();
        assert_eq!(parse_seed(&flags, "seed", 0).unwrap(), 12_648_430);
        assert_eq!(parse_seed(&[], "seed", 7).unwrap(), 7);
        let (bad, _) = split_flags(&args(&["--seed", "0xZZ"]), &known).unwrap();
        assert!(parse_seed(&bad, "seed", 0).is_err());
    }
}
