#!/bin/sh
# bench-snapshot.sh — run the canonical performance benchmarks and emit a
# machine-readable snapshot, seeding the ROADMAP's perf trajectory
# (BENCH_0.json, BENCH_1.json, ... as the hot-path campaign progresses).
#
# Families captured:
#   router_enqueue       BenchmarkFLocRouterEnqueue       ns/op (admission path)
#   router_enqueue_telemetry
#                        BenchmarkFLocRouterEnqueueTelemetry ns/op (the same
#                        path with what flocd attaches: a registry, no ring)
#   router_admit_ws      BenchmarkAdmitWorkingSet         ns/op (what a shard
#                        worker does per packet at replay_mix's working set,
#                        65 536 flows on 4 096 paths: prefetch_ns_per_op
#                        with Router.Prefetch ahead of each 64-packet batch,
#                        as the worker runs, plain_ns_per_op without.
#                        Reported, not gated: perfgate compares "ns_per_op",
#                        which the family does not have)
#   router_enqueue_batch BenchmarkFLocRouterEnqueueBatch  ns/op at batch
#                        16/64/256 (handle-stamped batched admission)
#   dataplane_sharded    BenchmarkDataplaneEnqueueSharded ns/op and Mpps at
#                        1/2/4/8 shards (whole-pipeline enqueue-to-admission)
#   dropfilter_update    BenchmarkFilterUpdate            ns/op (RecordDrop)
#   dropfilter_locality  BenchmarkFilterLocality          ns/op (blocked-layout
#                        record+query over an 8 MiB working set)
#   wire_decode          BenchmarkWireDecode              ns/op (codec)
#   capture_next         BenchmarkCaptureNext             ns/op, B/op, allocs/op
#                        (capture reader: one pcap record read, bounded,
#                        decoded)
#   capture_write        BenchmarkCaptureWrite            ns/op, B/op, allocs/op
#                        (capture writer: one pcap record marshalled at a
#                        time of replay_mix's grid)
#   control_run          BenchmarkControlRun              ns/op, B/op, allocs/op
#                        (one control-loop execution over 2048 paths x 16
#                        flows, ~5 % of flows expiring, telemetry attached)
#   feedback_encode      BenchmarkControlEncode           ns/op (cluster
#                        control-frame marshal, the Publish hot loop)
#   limit_install        BenchmarkLimitInstall            ns/op (one
#                        InstallLimit command barrier round trip)
#
# Usage: scripts/bench-snapshot.sh [output.json]   (default BENCH_0.json)
#
# Environment:
#   BENCHTIME=1s    per-benchmark budget (go test -benchtime).
#   BENCH_RUNS=3    samples per benchmark (go test -count); the snapshot
#                   records the best (minimum) ns/op of the runs. A single
#                   1-second sample on a busy 1-CPU runner wanders by
#                   double-digit percentages; the minimum is the stable
#                   estimator of the code's actual cost.
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_0.json}"
BENCHTIME="${BENCHTIME:-1s}"
BENCH_RUNS="${BENCH_RUNS:-3}"

bench() { # bench <pkg> <regexp>
    echo ">> go test -run='^$' -bench='$2' -benchtime=$BENCHTIME -count=$BENCH_RUNS $1" >&2
    # Echo through the inherited stderr fd rather than tee /dev/stderr:
    # reopening /dev/stderr gets an independent file offset (and tee
    # truncates), which clobbers earlier output when stderr is a
    # redirected log file (CI) instead of a terminal.
    raw=$(go test -run='^$' -bench="$2" -benchtime="$BENCHTIME" -count="$BENCH_RUNS" "$1")
    printf '%s\n' "$raw" >&2
    printf '%s\n' "$raw" | grep '^Benchmark'
}

router=$(bench ./internal/core '^BenchmarkFLocRouterEnqueue$')
routertel=$(bench ./internal/core '^BenchmarkFLocRouterEnqueueTelemetry$')
admitws=$(bench ./internal/core '^BenchmarkAdmitWorkingSet$')
batch=$(bench ./internal/core '^BenchmarkFLocRouterEnqueueBatch$')
sharded=$(bench ./internal/dataplane '^BenchmarkDataplaneEnqueueSharded$')
filter=$(bench ./internal/dropfilter '^BenchmarkFilterUpdate$')
locality=$(bench ./internal/dropfilter '^BenchmarkFilterLocality$')
wire=$(bench ./internal/wire '^BenchmarkWireDecode$')
capnext=$(bench ./internal/wire '^BenchmarkCaptureNext$')
capwrite=$(bench ./internal/wire '^BenchmarkCaptureWrite$')
control=$(bench ./internal/core '^BenchmarkControlRun$')
feedback=$(bench ./internal/wire '^BenchmarkControlEncode$')
install=$(bench ./internal/dataplane '^BenchmarkLimitInstall$')

# best_ns <benchmark output lines> — minimum ns/op over the -count runs.
best_ns() {
    printf '%s\n' "$1" | awk 'min == "" || $3 + 0 < min + 0 { min = $3 } END { print min }'
}

# best_mem <benchmark output lines> — the b.ReportAllocs columns (B/op,
# allocs/op) of the run with the minimum ns/op, as JSON members.
best_mem() {
    printf '%s\n' "$1" | awk 'min == "" || $3 + 0 < min + 0 { min = $3; b = $5; a = $7 }
        END { printf "\"bytes_per_op\": %s, \"allocs_per_op\": %s", b, a }'
}

# best_by <lines> <field regex> <offset> — group lines by the numeric
# parameter embedded in the benchmark name (shards=N or /batchN) and emit
# "param min_ns" per group, ascending.
best_by() {
    printf '%s\n' "$1" | awk -v re="$2" -v off="$3" '
        match($1, re) {
            p = substr($1, RSTART + off, RLENGTH - off) + 0
            if (!(p in min) || $3 + 0 < min[p] + 0) min[p] = $3
            if (!(p in seen)) { order[++n] = p; seen[p] = 1 }
        }
        END {
            for (i = 1; i <= n; i++) print order[i], min[order[i]]
        }'
}

{
    printf '{\n'
    printf '  "schema": "floc-bench-snapshot/v1",\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "goos": "%s",\n' "$(go env GOOS)"
    printf '  "goarch": "%s",\n' "$(go env GOARCH)"
    printf '  "cpus": %s,\n' "$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
    printf '  "benchtime": "%s",\n' "$BENCHTIME"
    printf '  "runs": %s,\n' "$BENCH_RUNS"
    printf '  "benchmarks": {\n'
    printf '    "router_enqueue": {"bench": "BenchmarkFLocRouterEnqueue", "ns_per_op": %s},\n' \
        "$(best_ns "$router")"
    printf '    "router_enqueue_telemetry": {"bench": "BenchmarkFLocRouterEnqueueTelemetry", "ns_per_op": %s},\n' \
        "$(best_ns "$routertel")"
    printf '    "router_admit_ws": {"bench": "BenchmarkAdmitWorkingSet", "prefetch_ns_per_op": %s, "plain_ns_per_op": %s},\n' \
        "$(best_ns "$(printf '%s\n' "$admitws" | grep '/prefetch')")" \
        "$(best_ns "$(printf '%s\n' "$admitws" | grep '/plain')")"
    printf '    "router_enqueue_batch": [\n'
    best_by "$batch" '/batch[0-9]+' 6 | awk '
        { lines[++n] = sprintf("      {\"batch\": %s, \"ns_per_op\": %s}", $1, $2) }
        END { for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], i < n ? "," : "" }'
    printf '    ],\n'
    printf '    "dataplane_sharded": [\n'
    best_by "$sharded" 'shards=[0-9]+' 7 | awk '
        { lines[++n] = sprintf("      {\"shards\": %s, \"ns_per_op\": %s, \"mpps\": %.3f}", $1, $2, 1000 / $2) }
        END { for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], i < n ? "," : "" }'
    printf '    ],\n'
    printf '    "dropfilter_update": {"bench": "BenchmarkFilterUpdate", "ns_per_op": %s},\n' \
        "$(best_ns "$filter")"
    printf '    "dropfilter_locality": {"bench": "BenchmarkFilterLocality", "ns_per_op": %s},\n' \
        "$(best_ns "$locality")"
    printf '    "wire_decode": {"bench": "BenchmarkWireDecode", "ns_per_op": %s},\n' \
        "$(best_ns "$wire")"
    printf '    "capture_next": {"bench": "BenchmarkCaptureNext", "ns_per_op": %s, %s},\n' \
        "$(best_ns "$capnext")" "$(best_mem "$capnext")"
    printf '    "capture_write": {"bench": "BenchmarkCaptureWrite", "ns_per_op": %s, %s},\n' \
        "$(best_ns "$capwrite")" "$(best_mem "$capwrite")"
    printf '    "control_run": {"bench": "BenchmarkControlRun", "ns_per_op": %s, %s},\n' \
        "$(best_ns "$control")" "$(best_mem "$control")"
    printf '    "feedback_encode": {"bench": "BenchmarkControlEncode", "ns_per_op": %s},\n' \
        "$(best_ns "$feedback")"
    printf '    "limit_install": {"bench": "BenchmarkLimitInstall", "ns_per_op": %s}\n' \
        "$(best_ns "$install")"
    printf '  }\n'
    printf '}\n'
} > "$out"

echo "bench-snapshot: wrote $out" >&2
