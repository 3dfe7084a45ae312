#!/usr/bin/env bash
# Regenerates BENCH_baseline.json — the committed perf baseline the CI perf
# gate (tools/bench_compare) diffs fresh runs against. See docs/SERVING.md.
#
# Usage: tools/regen_baseline.sh [BUILD_DIR]   (default: build)
#
# Eight suites:
#   bench_query  representative E18 microbenchmarks (cache, snapshot warm
#                start) from bench/bench_query.cc
#   bench_trace  representative E19 tracer-ablation numbers from
#                bench/bench_trace.cc
#   bench_delta  representative E21 incremental-maintenance numbers
#                (fact toggle vs full recompute, noop batch) from
#                bench/bench_delta.cc
#   bench_wal    representative E22 durability numbers from
#                bench/bench_wal.cc — only the fsync-free paths (append,
#                scan, durable update with fsync=off, recovery): device
#                sync latency on shared runners is too noisy to gate
#   bench_slowlog  E23 slow-query audit log ablation (recording disabled /
#                sampled / always-on / full-ring JSONL dump) from
#                bench/bench_slowlog.cc
#   bench_serve  a fixed-seed serving session from relspec_bench_serve
#                (the same flags the CI perf job uses)
#   bench_serve_durable  the same schedule served through per-lane WALs
#                (update mix, fsync=batch, checkpoint rotation) — the CI
#                durable replay, which also recovery-checks every lane
#   bench_serve_daemon  the update-free schedule replayed over the RSRV
#                socket against a live relspecd (--connect), so the gate
#                also covers the wire protocol + daemon dispatch overhead
#
# Thresholds are deliberately generous (default 3.0 = 4x allowed) because
# CI runs on shared 1-core containers where absolute times swing wildly;
# the gate exists to catch order-of-magnitude regressions, not 10% drifts.
# Rerun this script on the reference machine and commit the result whenever
# an intentional perf change lands.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
    bench_query --target bench_trace --target bench_delta \
    --target bench_wal --target bench_slowlog \
    --target relspec_bench_serve --target relspecd >/dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== bench_query =="
"$BUILD_DIR"/bench/bench_query \
    --benchmark_filter='BM_Query_(Incremental|CachedWarm)/8$|BM_Query_(ColdStartPipeline|WarmStartSnapshot)/14$' \
    --benchmark_min_time=0.05 --benchmark_format=json \
    > "$TMP/query.json"

echo "== bench_trace =="
"$BUILD_DIR"/bench/bench_trace \
    --benchmark_filter='BM_Trace_Disabled_CallSite$|BM_Trace_Enabled_Idle$|BM_Trace_Export$' \
    --benchmark_min_time=0.05 --benchmark_format=json \
    > "$TMP/trace.json"

echo "== bench_delta =="
"$BUILD_DIR"/bench/bench_delta \
    --benchmark_filter='BM_Delta_(Toggle|FullRecompute)/14$|BM_Delta_NoopBatch$' \
    --benchmark_min_time=0.05 --benchmark_format=json \
    > "$TMP/delta.json"

echo "== bench_wal =="
"$BUILD_DIR"/bench/bench_wal \
    --benchmark_filter='BM_Wal_Append/0$|BM_Wal_ScanBytes/512$|BM_Wal_DurableUpdate/0$|BM_Wal_Recover/16$' \
    --benchmark_min_time=0.05 --benchmark_format=json \
    > "$TMP/wal.json"

echo "== bench_slowlog =="
"$BUILD_DIR"/bench/bench_slowlog \
    --benchmark_filter='BM_Slowlog_(Disabled|Sampled|AlwaysOn|Dump)$' \
    --benchmark_min_time=0.05 --benchmark_format=json \
    > "$TMP/slowlog.json"

echo "== bench_serve =="
"$BUILD_DIR"/tools/relspec_bench_serve \
    --qps 1500 --requests 3000 --clients 2 --seed 42 --population 64 \
    --slow-ms 5 --out "$TMP/serve.json"

echo "== bench_serve_durable =="
"$BUILD_DIR"/tools/relspec_bench_serve \
    --qps 1500 --requests 1500 --clients 2 --seed 42 --population 64 \
    --slow-ms 5 \
    --mix membership=40,cached=25,uncached=10,snapshot=5,update=20 \
    --wal "$TMP/serve_wal" --fsync batch --checkpoint-every 64 \
    --suite-name bench_serve_durable --out "$TMP/serve_durable.json"

echo "== bench_serve_daemon =="
"$BUILD_DIR"/tools/relspecd --rotation 8 --socket "$TMP/daemon.sock" \
    >"$TMP/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 100); do
  [ -S "$TMP/daemon.sock" ] && break
  sleep 0.1
done
"$BUILD_DIR"/tools/relspec_bench_serve \
    --qps 1500 --requests 1500 --clients 2 --seed 42 --population 64 \
    --slow-ms 5 --connect "$TMP/daemon.sock" \
    --suite-name bench_serve_daemon --out "$TMP/serve_daemon.json"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"

python3 - "$TMP/query.json" "$TMP/trace.json" "$TMP/delta.json" \
    "$TMP/wal.json" "$TMP/slowlog.json" "$TMP/serve.json" \
    "$TMP/serve_durable.json" "$TMP/serve_daemon.json" \
    BENCH_baseline.json <<'EOF'
import json, sys

def suite_from_gbench(path):
    """Google-benchmark JSON -> {metric: {value, dir}} (real_time, ns)."""
    metrics = {}
    with open(path) as f:
        for b in json.load(f)["benchmarks"]:
            name = b["name"].replace("/", "_")
            assert b["time_unit"] in ("ns", "us", "ms"), b["time_unit"]
            scale = {"ns": 1, "us": 1e3, "ms": 1e6}[b["time_unit"]]
            metrics[name + "_ns"] = {
                "value": round(b["real_time"] * scale, 3),
                "dir": "lower",
            }
    return metrics

baseline = {
    "schema": "relspec-bench-v1",
    "note": "committed perf baseline; regenerate with tools/regen_baseline.sh "
            "and commit whenever an intentional perf change lands",
    "suites": {
        "bench_query": {
            "thresholds": {"default": 3.0},
            "metrics": suite_from_gbench(sys.argv[1]),
        },
        "bench_trace": {
            "thresholds": {"default": 3.0},
            "metrics": suite_from_gbench(sys.argv[2]),
        },
        "bench_delta": {
            "thresholds": {"default": 3.0},
            "metrics": suite_from_gbench(sys.argv[3]),
        },
        "bench_wal": {
            "thresholds": {"default": 3.0},
            "metrics": suite_from_gbench(sys.argv[4]),
        },
        "bench_slowlog": {
            "thresholds": {"default": 3.0},
            "metrics": suite_from_gbench(sys.argv[5]),
        },
        # The serve reports already carry their suites in gate-ready form.
        "bench_serve": json.load(open(sys.argv[6]))["suites"]["bench_serve"],
        "bench_serve_durable":
            json.load(open(sys.argv[7]))["suites"]["bench_serve_durable"],
        "bench_serve_daemon":
            json.load(open(sys.argv[8]))["suites"]["bench_serve_daemon"],
    },
}
with open(sys.argv[9], "w") as f:
    json.dump(baseline, f, indent=2)
    f.write("\n")
total = sum(len(s["metrics"]) for s in baseline["suites"].values())
print(f"wrote {sys.argv[9]}: {len(baseline['suites'])} suites, "
      f"{total} metrics")
EOF
