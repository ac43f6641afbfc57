#!/usr/bin/env bash
# Perf-floor smoke check over the bench_estimation snapshot.
#
# Reads results/BENCH_estimation.json (or $1) and fails if the XMark
# serial throughput falls below a floor, or if the snapshot is
# structurally wrong (no `bitmap` kernel rows — the estimator's join
# kernel).
#
# The floor is deliberately conservative: CI runs at XPE_SCALE=0.01 on
# shared runners whose wall clock varies several-fold, so this catches
# order-of-magnitude regressions (an accidentally quadratic kernel, a
# cache that stopped memoizing), not percent-level drift. Local runs at
# scale 0.03 sustain ~75–100k q/s on XMark; the default floor is 8k.
# Override with XPE_PERF_FLOOR_XMARK_QPS.
#
# A second, ratio-based floor guards the screen phase: XMark screen time
# as a share of the instrumented join total (plan+screen+fixpoint+
# finalize) of a cold serial pass, whose screen phase also builds the
# containment relation and every adjacency. Five CI-scale runs
# (XPE_SCALE=0.01 XPE_ATTEMPTS=200, 2-vCPU box) read 28.8–32.9% with
# the relation built from per-path pid columns, against 47.4–50.5% with
# the quadratic pair scan that built it before; before prepared plans
# and the flat per-estimator memos it was 54–57%. Phase *shares* are
# robust to runner speed, so a share above the cap means the screen
# phase re-grew per-query constants (string lookups, lock round-trips,
# allocations) — exactly the regression the prepared-plan work
# removed. Override with XPE_PERF_MAX_SCREEN_SHARE; snapshots
# predating the plan lap (no plan_ms field) are still accepted, with
# plan time read as zero.
#
# A third floor keeps the one-worker batch path level with the serial
# loop: on the XMark and DBLP rows, `batch_jobs1_qps / serial_qps` must
# reach MIN_BATCH_VS_SERIAL (0.6, a constant). Both run the same queries
# on one thread, so the ratio is robust to runner speed; a batch path
# several times slower than serial means per-query overhead crept back
# into it (a copy-on-write estimate-cache insert once made it 0.14-0.5).
#
# A fourth floor guards multi-core scaling via the snapshot's `scaling`
# array (steady-state batch throughput per worker count): on runners
# with ≥2 cores, every bitmap dataset's 2-effective-worker row must
# reach XPE_PERF_MIN_SPEEDUP (default 1.3) over its one-worker row,
# and the 1→2 curve must be monotone non-decreasing up to
# XPE_PERF_SCALING_SLACK (default 0.9 — i.e. the 2-worker row may not
# fall below 0.9× the 1-worker row even on a noisy runner; the speedup
# floor is the real gate). Like the serial floor this is a regression
# tripwire, not a benchmark: it catches the batch path re-growing a
# shared lock on its warm path, not percent-level drift. Snapshots
# without a `scaling` array fail — the array is part of the format.
#
# The script also understands the serve snapshot
# (results/BENCH_serve.json, recognized by a top-level `qps` with no
# `datasets` array): it requires `qps` and the `p50_ms`/`p95_ms`/
# `p99_ms` latency fields to be present and finite, and gates `qps`
# against XPE_PERF_FLOOR_SERVE_QPS (default 200 — again an
# order-of-magnitude tripwire: a 2-core local run at scale 0.05
# sustains >2000 q/s through the full socket path under a hostile mix).
#
# Serve snapshots also carry per-mix `traffic` rows from the
# production-shaped replay (uniform cold, Zipf warm, Zipf warm with the
# estimate cache off). The warm Zipf mix must reach
# XPE_PERF_MIN_WARM_SKEW_SPEEDUP (default 1.05) times the uniform cold
# mix's q/s: skewed steady-state traffic rides the full-query estimate
# cache, so falling to parity with a cold uniform sweep means the
# skew-aware fast path stopped being one. The default is conservative
# because the serve path is socket-bound on small CI runners (local
# 2-core runs measure 1.3–1.5x). The estimation snapshot's own traffic
# rows record the cache's raw engine-level effect, where no socket hides
# it, but this script does not gate them. Snapshots without `traffic`
# rows fail — the array is part of the format.
set -euo pipefail

snapshot="${1:-results/BENCH_estimation.json}"
floor="${XPE_PERF_FLOOR_XMARK_QPS:-8000}"
max_screen_share="${XPE_PERF_MAX_SCREEN_SHARE:-0.48}"
min_speedup="${XPE_PERF_MIN_SPEEDUP:-1.3}"
scaling_slack="${XPE_PERF_SCALING_SLACK:-0.9}"
serve_floor="${XPE_PERF_FLOOR_SERVE_QPS:-200}"
min_warm_skew="${XPE_PERF_MIN_WARM_SKEW_SPEEDUP:-1.05}"

if [[ ! -f "$snapshot" ]]; then
    echo "perf floor: snapshot $snapshot not found" >&2
    exit 1
fi

SNAPSHOT="$snapshot" FLOOR="$floor" MAX_SCREEN_SHARE="$max_screen_share" \
MIN_SPEEDUP="$min_speedup" SCALING_SLACK="$scaling_slack" \
SERVE_FLOOR="$serve_floor" MIN_WARM_SKEW="$min_warm_skew" python3 - <<'EOF'
import json
import math
import os
import sys

snapshot = os.environ["SNAPSHOT"]
floor = float(os.environ["FLOOR"])
max_screen_share = float(os.environ["MAX_SCREEN_SHARE"])
min_speedup = float(os.environ["MIN_SPEEDUP"])
scaling_slack = float(os.environ["SCALING_SLACK"])
serve_floor = float(os.environ["SERVE_FLOOR"])
min_warm_skew = float(os.environ["MIN_WARM_SKEW"])
MIN_BATCH_VS_SERIAL = 0.6
with open(snapshot) as f:
    data = json.load(f)

# Serve snapshot: a flat object with a top-level `qps` and latency
# percentiles instead of per-dataset rows.
if "qps" in data and "datasets" not in data:
    failures = []
    for field in ("qps", "p50_ms", "p95_ms", "p99_ms"):
        if field not in data:
            sys.exit(f"perf floor: serve snapshot {snapshot} lacks '{field}'")
        if not math.isfinite(float(data[field])):
            failures.append(f"{field} is not finite: {data[field]}")
    qps = float(data["qps"])
    print(
        f"perf floor: serve {qps:.0f} q/s (floor {serve_floor:.0f}), "
        f"p50 {float(data['p50_ms']):.3f} ms, p95 {float(data['p95_ms']):.3f} ms, "
        f"p99 {float(data['p99_ms']):.3f} ms"
    )
    if qps < serve_floor:
        failures.append(f"serve {qps:.0f} q/s < floor {serve_floor:.0f}")

    # Per-mix traffic rows: warm Zipf traffic must beat the uniform
    # cold baseline by the skew floor. Rates and latencies must parse.
    traffic = data.get("traffic")
    if traffic is None:
        sys.exit(f"perf floor: no 'traffic' rows in serve snapshot {snapshot}")
    by_mix = {}
    for row in traffic:
        for field in ("qps", "p50_ms", "p99_ms", "estimate_cache_hit_rate"):
            if not math.isfinite(float(row.get(field, float("nan")))):
                failures.append(f"traffic[{row.get('mix')}].{field} is not finite")
        by_mix[row.get("mix")] = row
    for mix in ("uniform_cold", "zipf_warm", "zipf_warm_nocache"):
        if mix not in by_mix:
            failures.append(f"traffic rows lack mix '{mix}'")
    if "uniform_cold" in by_mix and "zipf_warm" in by_mix:
        skew = float(by_mix["zipf_warm"]["qps"]) / float(by_mix["uniform_cold"]["qps"])
        print(
            f"perf floor: serve warm-skew speedup {skew:.2f}x "
            f"(floor {min_warm_skew:.2f}x), warm estimate-cache hit rate "
            f"{float(by_mix['zipf_warm']['estimate_cache_hit_rate']):.1%}"
        )
        if skew < min_warm_skew:
            failures.append(
                f"warm zipf {skew:.2f}x of uniform cold < floor {min_warm_skew:.2f}x"
            )
    if failures:
        sys.exit("perf floor FAILED: " + "; ".join(failures))
    print("perf floor: ok")
    sys.exit(0)

rows = data.get("datasets", [])
kernels = {r.get("kernel") for r in rows}
if "bitmap" not in kernels:
    sys.exit(f"perf floor: no 'bitmap' kernel rows in {snapshot}")

failures = []
for r in rows:
    if r.get("dataset") != "XMark":
        continue
    qps = float(r["serial_qps"])
    tag = f"XMark[{r['kernel']}]"
    print(f"perf floor: {tag} serial {qps:.0f} q/s (floor {floor:.0f})")
    if qps < floor:
        failures.append(f"{tag} serial {qps:.0f} q/s < floor {floor:.0f}")

    screen = float(r["screen_ms"])
    total = screen + sum(
        float(r.get(k, 0.0)) for k in ("plan_ms", "fixpoint_ms", "finalize_ms")
    )
    if total > 0:
        share = screen / total
        print(
            f"perf floor: {tag} screen share {share:.1%} "
            f"(cap {max_screen_share:.1%})"
        )
        if share > max_screen_share:
            failures.append(
                f"{tag} screen share {share:.1%} > cap {max_screen_share:.1%}"
            )

if not any(r.get("dataset") == "XMark" for r in rows):
    sys.exit(f"perf floor: no XMark rows in {snapshot}")

# Batch-vs-serial floor: one batch worker must keep pace with the
# serial loop over the same queries.
for r in rows:
    if r.get("kernel") != "bitmap" or r.get("dataset") not in ("DBLP", "XMark"):
        continue
    ratio = float(r["batch_jobs1_qps"]) / float(r["serial_qps"])
    tag = f"{r['dataset']}[bitmap]"
    print(
        f"perf floor: {tag} batch(1) / serial {ratio:.2f}x "
        f"(floor {MIN_BATCH_VS_SERIAL:.2f}x)"
    )
    if ratio < MIN_BATCH_VS_SERIAL:
        failures.append(
            f"{tag} batch(1) {ratio:.2f}x of serial < floor {MIN_BATCH_VS_SERIAL:.2f}x"
        )

# Scaling floor: the `scaling` array must exist, and on multi-core
# runners every bitmap dataset with both a 1- and a 2-effective-worker
# row must scale. Rows are steady-state (warm engine), so the speedup
# here is pure parallelism, not cache warm-up.
scaling = data.get("scaling")
if scaling is None:
    sys.exit(f"perf floor: no 'scaling' array in {snapshot}")
cores = int(data.get("cores", 1))
# Only the two sizable workloads: SSPlays is small enough that worker
# spawn overhead can mask real scaling on a smoke-scale run.
by_curve = {}
for r in scaling:
    if r.get("kernel") != "bitmap" or r.get("dataset") not in ("DBLP", "XMark"):
        continue
    # `threads: 2` and `threads: 0` (auto) collapse to the same
    # effective worker count on a 2-core runner — they are the same
    # configuration measured twice, so keep the best draw, matching the
    # bench's own best-of-REPS policy.
    curve = by_curve.setdefault(r["dataset"], {})
    eff = int(r["effective_threads"])
    curve[eff] = max(curve.get(eff, 0.0), float(r["qps"]))
if cores >= 2:
    for dataset, curve in sorted(by_curve.items()):
        if 1 not in curve or 2 not in curve:
            continue
        speedup = curve[2] / curve[1]
        tag = f"{dataset}[bitmap]"
        print(
            f"perf floor: {tag} scaling 1->2 workers {speedup:.2f}x "
            f"(floor {min_speedup:.2f}x, slack {scaling_slack:.2f})"
        )
        if speedup < scaling_slack:
            failures.append(
                f"{tag} 2-worker throughput {speedup:.2f}x of 1-worker "
                f"(not monotone within slack {scaling_slack:.2f})"
            )
        elif speedup < min_speedup:
            failures.append(
                f"{tag} scaling {speedup:.2f}x < floor {min_speedup:.2f}x"
            )

if failures:
    sys.exit("perf floor FAILED: " + "; ".join(failures))
print("perf floor: ok")
EOF
