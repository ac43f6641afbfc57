//! End-to-end tests of the `xpe` binary: generate → stats → build →
//! estimate → exact, plus error handling.

use std::path::PathBuf;
use std::process::{Command, Output};

fn xpe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xpe"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xpe-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline() {
    let dir = tmpdir("pipeline");
    let xml = dir.join("d.xml");
    let xps = dir.join("d.xps");

    // generate
    let o = xpe(&[
        "generate",
        "ssplays",
        "--scale",
        "0.01",
        "--seed",
        "5",
        "-o",
        xml.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert!(stdout(&o).contains("elements written"));

    // stats
    let o = xpe(&["stats", xml.to_str().unwrap()]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("distinct paths"));

    // build
    let o = xpe(&[
        "build",
        xml.to_str().unwrap(),
        "-o",
        xps.to_str().unwrap(),
        "--p-variance",
        "0",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

    // estimate vs exact must agree for a simple query at variance 0.
    let est = xpe(&["estimate", xps.to_str().unwrap(), "//ACT/SCENE"]);
    let exa = xpe(&["exact", xml.to_str().unwrap(), "//ACT/SCENE"]);
    assert!(est.status.success() && exa.status.success());
    let est_val: f64 = stdout(&est)
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let exa_val: f64 = stdout(&exa)
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(est_val, exa_val);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let o = xpe(&[]);
    assert!(o.status.success(), "bare invocation prints usage");
    assert!(String::from_utf8_lossy(&o.stderr).contains("usage"));

    let o = xpe(&["frobnicate"]);
    assert!(!o.status.success());

    let o = xpe(&["stats", "/nonexistent/file.xml"]);
    assert!(!o.status.success());
    assert!(String::from_utf8_lossy(&o.stderr).contains("error"));

    let o = xpe(&["generate", "nosuchdataset", "-o", "/tmp/x.xml"]);
    assert!(!o.status.success());

    let o = xpe(&["build", "/nonexistent.xml", "-o", "/tmp/x.xps"]);
    assert!(!o.status.success());
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// Every failure mode must produce a one-line diagnostic and a nonzero
/// exit — never a panic backtrace that a calling script can't parse.
fn assert_clean_failure(o: &Output, needle: &str) {
    assert!(!o.status.success(), "expected a nonzero exit");
    let err = stderr(o);
    assert!(
        err.contains("error") && err.contains(needle),
        "stderr should mention '{needle}': {err}"
    );
    assert!(
        !err.contains("panicked") && !err.contains("RUST_BACKTRACE"),
        "diagnostic must not be a panic: {err}"
    );
}

#[test]
fn estimate_fails_cleanly_on_bad_queries() {
    let dir = tmpdir("badq");
    let xml = dir.join("d.xml");
    let xps = dir.join("d.xps");
    xpe(&[
        "generate",
        "ssplays",
        "--scale",
        "0.01",
        "-o",
        xml.to_str().unwrap(),
    ]);
    xpe(&["build", xml.to_str().unwrap(), "-o", xps.to_str().unwrap()]);

    // A malformed query aborts the invocation: diagnostic on stderr,
    // nonzero exit, and no estimate printed for the valid queries either
    // (partial output must not look like success).
    let o = xpe(&["estimate", xps.to_str().unwrap(), "//ACT", "not-a-query["]);
    assert_clean_failure(&o, "not-a-query[");
    assert!(stdout(&o).is_empty(), "no partial output: {}", stdout(&o));

    let o = xpe(&["exact", xml.to_str().unwrap(), "not-a-query["]);
    assert_clean_failure(&o, "not-a-query[");

    std::fs::remove_dir_all(&dir).ok();
}

/// Queries nested far past the XML depth cap — 8,000 nested predicates,
/// a 20,000-step chain, and a 60,000-step chain — end the run with one
/// typed error line, not a stack-overflow abort.
#[test]
fn estimate_rejects_hostile_query_depth_with_one_line() {
    let dir = tmpdir("deepq");
    let xml = dir.join("d.xml");
    let xps = dir.join("d.xps");
    xpe(&[
        "generate",
        "ssplays",
        "--scale",
        "0.01",
        "-o",
        xml.to_str().unwrap(),
    ]);
    xpe(&["build", xml.to_str().unwrap(), "-o", xps.to_str().unwrap()]);

    let nested = format!("//a{}{}", "[a".repeat(7_999), "]".repeat(7_999));
    for query in [nested, "/a".repeat(20_000), "/a".repeat(60_000)] {
        let o = xpe(&["estimate", xps.to_str().unwrap(), &query]);
        assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
        assert_clean_failure(&o, "nests more than 256 steps");
        assert_eq!(stderr(&o).lines().count(), 1, "one diagnostic line");
        assert!(stdout(&o).is_empty());
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn estimate_fails_cleanly_on_bad_summary_files() {
    let dir = tmpdir("badsum");
    let xml = dir.join("d.xml");
    let xps = dir.join("d.xps");
    xpe(&[
        "generate",
        "ssplays",
        "--scale",
        "0.01",
        "-o",
        xml.to_str().unwrap(),
    ]);
    xpe(&["build", xml.to_str().unwrap(), "-o", xps.to_str().unwrap()]);

    // Missing summary file.
    let o = xpe(&["estimate", dir.join("nope.xps").to_str().unwrap(), "//ACT"]);
    assert_clean_failure(&o, "nope.xps");

    // Version-mismatched summary (version field lives at byte offset 4).
    let mut bytes = std::fs::read(&xps).unwrap();
    bytes[4] = 99;
    let vers = dir.join("vers.xps");
    std::fs::write(&vers, &bytes).unwrap();
    let o = xpe(&["estimate", vers.to_str().unwrap(), "//ACT"]);
    assert_clean_failure(&o, "version");

    // Trailing garbage after a valid summary.
    let mut bytes = std::fs::read(&xps).unwrap();
    bytes.extend_from_slice(b"garbage");
    let trail = dir.join("trail.xps");
    std::fs::write(&trail, &bytes).unwrap();
    let o = xpe(&["estimate", trail.to_str().unwrap(), "//ACT"]);
    assert_clean_failure(&o, "trailing");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_fails_cleanly_on_malformed_xml() {
    let dir = tmpdir("badxml");
    let xml = dir.join("broken.xml");
    std::fs::write(&xml, "<a><b></a>").unwrap();
    let o = xpe(&[
        "build",
        xml.to_str().unwrap(),
        "-o",
        dir.join("out.xps").to_str().unwrap(),
    ]);
    assert_clean_failure(&o, "broken.xml");
    std::fs::remove_dir_all(&dir).ok();
}

/// Path into the checked-in corrupted-summary corpus (regenerate with
/// `cargo run --example gen_corrupt_corpus` at the workspace root).
fn corpus(name: &str) -> String {
    format!("{}/../../tests/corrupt/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Each checked-in corrupted summary must fail `xpe estimate` cleanly
/// with a diagnostic distinct to its corruption class — no two classes
/// may collapse into one vague message, or operators can't tell a
/// flipped bit from a short copy.
#[test]
fn corrupt_corpus_fails_with_distinct_messages() {
    // The pristine sibling proves the corpus base itself is loadable.
    let o = xpe(&["estimate", &corpus("valid.xps"), "//book/chapter"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).starts_with("5.00\t"), "{}", stdout(&o));

    for (file, needle) in [
        ("bitflip.xps", "checksum mismatch"),
        ("truncated.xps", "input truncated"),
        ("version.xps", "unsupported summary version"),
        ("trailing.xps", "trailing byte(s)"),
        // A hostile count field behind a valid checksum: the structural
        // decoder reports truncation when the promised elements are not
        // there — after a capped, not count-sized, preallocation.
        ("inflated.xps", "input truncated"),
    ] {
        let o = xpe(&["estimate", &corpus(file), "//book/chapter"]);
        assert_clean_failure(&o, needle);
        assert!(stdout(&o).is_empty(), "no estimates for {file}");
    }
}

#[test]
fn estimate_honors_limits_and_deadline_flags() {
    let dir = tmpdir("limits");
    let xml = dir.join("d.xml");
    let xps = dir.join("d.xps");
    xpe(&[
        "generate",
        "ssplays",
        "--scale",
        "0.01",
        "-o",
        xml.to_str().unwrap(),
    ]);
    xpe(&["build", xml.to_str().unwrap(), "-o", xps.to_str().unwrap()]);

    // An admitted query under a generous ceiling behaves exactly like the
    // unconstrained path: numeric estimate first, no status column.
    let o = xpe(&[
        "estimate",
        xps.to_str().unwrap(),
        "//ACT/SCENE",
        "--max-query-nodes",
        "16",
        "--deadline-ms",
        "60000",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(!out.contains('['), "no status column when all ok: {out}");
    let constrained: f64 = out.split_whitespace().next().unwrap().parse().unwrap();
    let free = xpe(&["estimate", xps.to_str().unwrap(), "//ACT/SCENE"]);
    let free_val: f64 = stdout(&free)
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(constrained, free_val, "flags must not perturb estimates");

    // A two-step query over a one-node ceiling is rejected: the line
    // still leads with the (upper-bound) number, then flags the status.
    let o = xpe(&[
        "estimate",
        xps.to_str().unwrap(),
        "//ACT/SCENE",
        "--max-query-nodes",
        "1",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("[rejected:"), "status column present: {out}");
    let bound: f64 = out.split_whitespace().next().unwrap().parse().unwrap();
    assert!(bound.is_finite() && bound >= 0.0);
    assert!(stderr(&o).contains("1 rejected"), "{}", stderr(&o));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faults_subcommand_reports_and_writes_json() {
    let dir = tmpdir("faults");
    let json = dir.join("faults.json");
    let o = xpe(&[
        "faults",
        "--seed",
        "0xC0FFEE",
        "--cases",
        "4",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("all fault classes contained"), "{out}");
    assert!(
        out.contains("bit-flip") && out.contains("worker-panic"),
        "{out}"
    );

    let report = std::fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"tool\": \"xpe-faults\""));
    assert!(report.contains("\"total_failures\": 0"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_subcommand_reports_and_writes_json() {
    let dir = tmpdir("diff");
    let json = dir.join("report.json");
    let o = xpe(&[
        "diff",
        "--seed",
        "0xC0FFEE",
        "--cases",
        "24",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("all invariants hold"), "{out}");
    assert!(out.contains("exact-simple"));

    let report = std::fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"tool\": \"xpe-diff\""));
    assert!(report.contains("\"total_violations\": 0"));
    assert!(report.contains("\"seed\": 12648430"), "hex seed parsed");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_build_is_byte_identical_to_dom_build() {
    let dir = tmpdir("stream");
    let xml = dir.join("d.xml");

    // One generated corpus per dataset family; both build paths must
    // persist the exact same bytes.
    for (name, scale) in [("ssplays", "0.02"), ("dblp", "0.01"), ("xmark", "0.01")] {
        let o = xpe(&[
            "generate",
            name,
            "--scale",
            scale,
            "--seed",
            "9",
            "-o",
            xml.to_str().unwrap(),
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

        let dom = dir.join(format!("{name}-dom.xps"));
        let stream = dir.join(format!("{name}-stream.xps"));
        let o = xpe(&["build", xml.to_str().unwrap(), "-o", dom.to_str().unwrap()]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        let o = xpe(&[
            "build",
            xml.to_str().unwrap(),
            "-o",
            stream.to_str().unwrap(),
            "--stream",
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

        let dom_bytes = std::fs::read(&dom).unwrap();
        let stream_bytes = std::fs::read(&stream).unwrap();
        assert_eq!(dom_bytes, stream_bytes, "{name}: streaming diverged");
    }

    std::fs::remove_dir_all(&dir).ok();
}
