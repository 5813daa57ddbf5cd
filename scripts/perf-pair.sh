#!/usr/bin/env bash
# perf-pair.sh — paired parent/change runs, the repository's one
# performance protocol.
#
#   scripts/perf-pair.sh <workload>[,<workload>...] <seed>...
#   scripts/perf-pair.sh micro
#
# Every measurement runs once in a checkout of the parent commit and once
# in this work tree (the change, committed or not), and which side goes
# first alternates from pair to pair, because the sandbox drifts by ±15 %
# over minutes and the second run of a pair finds the host as the first
# left it. Each run is one JSON line with its side, appended to
# results/perf/PR-<n>.jsonl, the one performance record. cmd/perfgate
# reads the runs just made, pairing them by position, with
# choosing-metrics §8's rule: a change wins or loses a metric only in
# nine pairs of ten and with a median gap beyond the parent's quartile
# distance.
#
# Workloads. For every seed, in order, and inside it for every workload
# of the list, round-robin, runs
#   bash benchmark/run.sh -workload <workload> -seconds 15 -trace 0 -seed <seed>
# on both sides. Sides alternate inside a seed and, for each workload,
# from seed to seed; the workloads share each seed so that the row a PR
# claims and the rows it says must not move come from one invocation and
# the same phases of the host. A line is the run's JSON, flattened, with
# the workload, the seed, the share of CPU time the hypervisor stole
# during the run (/proc/stat) and the run's stderr (its last 4 000
# bytes): a run that exits 1 may have failed a correctness check
# ("CHECK FAILED") or met a harness error, and only its stderr tells which. The summary gives, per workload and
# BENCHMARK.json end_to_end metric, both medians, the parent's quartile
# distance, the pairs won and lost, and whether the change's median is
# inside the metric's bound; it exits 1 when one is beyond it, or when
# the change fails a larger share of operations than the parent.
#
# micro. The micro-benchmark families below, check.sh's perf-gate: each
# package's test binary is built once per side, and every pair runs every
# family once per side, each run a process of its own. A line is a family
# (with the sub-benchmark, if any) and its ns/op and allocs/op. It exits 1
# when a family is slower, allocates more in every pair, or is no longer
# reported by the change.
#
# The parent is exported with `git archive` into .bench_build/ (which
# .gitignore covers), not added as a worktree, so nothing is left in .git
# to prune. Both sides share one Go build cache under .bench_build/. The
# script reads benchmark/ and writes nothing there.
#
# Environment:
#   PARENT   commit to compare against; by default HEAD~1 on a clean tree
#            and HEAD while it has uncommitted work (scripts/pairing.sh).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
. scripts/pairing.sh

if [ $# -lt 2 ] && [ "${1:-}" != micro ]; then
    sed -n '5,6p' "$0" >&2
    exit 2
fi

# The micro families: name, package under internal/, benchmark pattern
# and iterations. The iteration counts are fixed here, the same on both
# sides, for runs of 0.1-0.4 s; dataplane_sharded (one producer through
# the engine's Burst, as flocd drives it) stops at the two shards two cpus
# can measure.
families=(
    "router_enqueue            core        ^BenchmarkFLocRouterEnqueue$                       10000000"
    "router_enqueue_telemetry  core        ^BenchmarkFLocRouterEnqueueTelemetry$              5000000"
    "router_admit_ws           core        ^BenchmarkAdmitWorkingSet$                         200000"
    "router_enqueue_batch      core        ^BenchmarkFLocRouterEnqueueBatch$                  1000000"
    "control_run               core        ^BenchmarkControlRun$                              100"
    "dataplane_sharded         dataplane   ^BenchmarkDataplaneEnqueueSharded$/^shards=[12]$   500000"
    "limit_install             dataplane   ^BenchmarkLimitInstall$                            50000"
    "dropfilter_update         dropfilter  ^BenchmarkFilterUpdate$                            2000000"
    "dropfilter_locality       dropfilter  ^BenchmarkFilterLocality$                          1000000"
    "wire_decode               wire        ^BenchmarkWireDecode$                              3000000"
    "capture_next              wire        ^BenchmarkCaptureNext$                             1500000"
    "capture_write             wire        ^BenchmarkCaptureWrite$                            2000000"
    "feedback_encode           wire        ^BenchmarkControlEncode$                           1500000"
)
micro_pairs=10

parent=${PARENT:-$(parent_commit)}
if [ -z "$parent" ]; then
    echo "perf-pair: no parent commit to measure against (HEAD~1 is missing: a shallow clone?)" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$parent^{commit}")
pr=$(sed -n '1s/^# ISSUE \([0-9][0-9]*\).*/\1/p' ISSUE.md)
if [ -z "$pr" ]; then
    echo "perf-pair: no PR number in ISSUE.md's first line" >&2
    exit 2
fi
out=results/perf/PR-$pr.jsonl
mkdir -p results/perf .bench_build
export GOCACHE="${GOCACHE:-$PWD/.bench_build/gocache}"

parent_dir=.bench_build/parent-$parent
if [ ! -d "$parent_dir" ]; then
    mkdir "$parent_dir"
    git archive "$parent" | tar -x -C "$parent_dir"
fi
declare -A dir=([parent]=$parent_dir [change]=.)

runs=$(mktemp)
bins=$(mktemp -d)
errs=$(mktemp)
trap 'rm -rf "$runs" "$bins" "$errs"' EXIT

# order <n> prints the two sides in the order pair <n> runs them.
order() { if (($1 % 2 == 0)); then echo parent change; else echo change parent; fi; }

# steal prints the cumulative "steal" and total jiffies of all cpus.
steal() { awk '/^cpu / { t = 0; for (i = 2; i <= NF; i++) t += $i; print $9, t }' /proc/stat; }

# one <side> <workload> <seed>: one benchmark run, one line appended to
# $out and to $runs.
one() {
    local side=$1 workload=$2 seed=$3 before after line status=0
    before=$(steal)
    line=$(bash "${dir[$side]}/benchmark/run.sh" -workload "$workload" -seconds 15 -trace 0 -seed "$seed" 2>"$errs" | tail -n 1) || status=$?
    after=$(steal)
    cat "$errs" >&2
    case $line in '{'*) ;; *) line='{}' ;; esac
    printf '%s\n' "$line" | jq -c --sort-keys \
        --arg side "$side" --arg workload "$workload" --argjson seed "$seed" --argjson exit "$status" \
        --arg before "$before" --arg after "$after" --rawfile stderr "$errs" '
        ($before | split(" ") | map(tonumber)) as $b | ($after | split(" ") | map(tonumber)) as $a |
        {workload: $workload, seed: $seed, side: $side, exit: $exit, stderr: $stderr[-4000:],
         steal_frac: (if $a[1] > $b[1] then (($a[0] - $b[0]) / ($a[1] - $b[1]) * 10000 | round / 10000) else null end),
         correct: (.correct // false), attempted: (.attempted // 0), failed: (.failed // 0)}
        + ((.metrics // {}) | map_values(.value))' | tee -a "$out" "$runs" |
        jq -r '"perf-pair: \(.workload) \(.side) seed \(.seed): cpu_us_per_pkt \(.cpu_us_per_pkt) steal \(.steal_frac) correct \(.correct)"' >&2
}

# bench <side> <family> <package> <pattern> <iterations>: one run of a
# family's test binary, one line per benchmark it reports (a line with no
# metric when it reports none) appended to $out and to $runs.
bench() {
    local side=$1 family=$2 pkg=$3 pattern=$4 n=$5
    (cd "${dir[$side]}/internal/$pkg" && "$bins/$side-$pkg.test" -test.run '^$' -test.bench "$pattern" \
        -test.benchtime "${n}x" -test.benchmem -test.timeout 10m) |
        awk -v side="$side" -v family="$family" '
            /^Benchmark/ {
                name = $1; sub(/-[0-9]+$/, "", name)
                f = index(name, "/") ? family substr(name, index(name, "/")) : family
                printf "{\"family\":\"%s\",\"side\":\"%s\",\"ns_per_op\":%s,\"allocs_per_op\":%s}\n", f, side, $3, $(NF - 1)
                reported = 1
            }
            END { if (!reported) printf "{\"family\":\"%s\",\"side\":\"%s\"}\n", family, side }' |
        tee -a "$out" >>"$runs"
}

if [ "$1" = micro ]; then
    for pkg in core dataplane dropfilter wire; do
        go test -c -o "$bins/change-$pkg.test" "./internal/$pkg"
        (cd "$parent_dir" && go test -c -o "$bins/parent-$pkg.test" "./internal/$pkg")
    done
    for ((k = 0; k < micro_pairs; k++)); do
        echo "perf-pair: micro pair $((k + 1))/$micro_pairs, parent ${parent:0:7}" >&2
        for i in "${!families[@]}"; do
            read -r family pkg pattern n <<<"${families[i]}"
            for side in $(order $((k + i))); do
                bench "$side" "$family" "$pkg" "$pattern" "$n"
            done
        done
    done
    spec=()
else
    IFS=, read -r -a workloads <<<"$1"
    shift
    # Workload j of seed i starts with the parent iff i + j is even: sides
    # alternate from pair to pair inside a seed, and for each workload
    # from seed to seed, whether the list is odd or even in length.
    nseed=0
    for seed in "$@"; do
        npair=$nseed
        for workload in "${workloads[@]}"; do
            for side in $(order $npair); do
                one "$side" "$workload" "$seed"
            done
            npair=$((npair + 1))
        done
        nseed=$((nseed + 1))
    done
    spec=(BENCHMARK.json)
fi

echo "perf-pair: parent ${parent:0:7}, runs appended to $out" >&2
go run ./cmd/perfgate "$runs" "${spec[@]}"
