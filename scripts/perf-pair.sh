#!/usr/bin/env bash
# perf-pair.sh — paired parent/change runs of the repo benchmark.
#
#   scripts/perf-pair.sh <workload>[,<workload>...] <seed>...
#
# For every seed, in order, and inside it for every workload of the list,
# round-robin, runs
#   bash benchmark/run.sh -workload <workload> -seconds 15 -trace 0 -seed <seed>
# once in a checkout of the parent commit and once in this work tree (the
# change, committed or not). Which side goes first alternates from pair to
# pair inside a seed and, for each workload, from seed to seed, because
# the sandbox drifts by ±15 % over minutes and the second run of a pair
# finds the host as the first left it; the workloads share each seed so
# that the row a PR claims and the rows it says must not move come from
# one invocation and the same phases of the host. Each
# run's JSON line, flattened, goes to results/perf/PR-<n>.jsonl with the
# workload, the side, the seed and the share of CPU time the hypervisor
# stole during the run (/proc/stat); the summary printed at the end, one
# table per workload, is computed from the runs just made: per end-to-end
# metric the median of each side, the parent's quartile distance, the
# median's relative change and the pairs the change won. choosing-metrics
# §8 is the rule for reading it: a gain needs nine pairs in ten and a
# median shift beyond the parent's quartile distance.
#
# The parent is exported with `git archive` into .bench_build/ (which
# .gitignore covers), not added as a worktree, so nothing is left in .git
# to prune. Both sides share one Go build cache under .bench_build/. The
# script reads benchmark/ and writes nothing there.
#
# Environment:
#   PARENT=HEAD   commit to compare against. HEAD suits an uncommitted
#                 change; after committing, pass PARENT=HEAD~1.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ $# -lt 2 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
IFS=, read -r -a workloads <<<"$1"
shift

parent=$(git rev-parse --verify "${PARENT:-HEAD}^{commit}")
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

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# steal prints the cumulative "steal" and total jiffies of all cpus.
steal() { awk '/^cpu / { t = 0; for (i = 2; i <= NF; i++) t += $i; print $9, t }' /proc/stat; }

# one <side> <dir> <workload> <seed>: one benchmark run, one line appended
# to $out and to $runs.
one() {
    local side=$1 dir=$2 workload=$3 seed=$4 before after line status=0
    before=$(steal)
    line=$(bash "$dir/benchmark/run.sh" -workload "$workload" -seconds 15 -trace 0 -seed "$seed" | tail -n 1) || status=$?
    after=$(steal)
    case $line in '{'*) ;; *) line='{}' ;; esac
    printf '%s\n' "$line" | jq -c --sort-keys \
        --arg side "$side" --arg workload "$workload" --argjson seed "$seed" --argjson exit "$status" \
        --arg before "$before" --arg after "$after" '
        ($before | split(" ") | map(tonumber)) as $b | ($after | split(" ") | map(tonumber)) as $a |
        {workload: $workload, seed: $seed, side: $side, exit: $exit,
         steal_frac: (if $a[1] > $b[1] then (($a[0] - $b[0]) / ($a[1] - $b[1]) * 10000 | round / 10000) else null end),
         correct: (.correct // false), attempted: (.attempted // 0), failed: (.failed // 0)}
        + ((.metrics // {}) | map_values(.value))' | tee -a "$out" "$runs" |
        jq -r '"perf-pair: \(.workload) \(.side) seed \(.seed): cpu_us_per_pkt \(.cpu_us_per_pkt) steal \(.steal_frac) correct \(.correct)"' >&2
}

# Workload j of seed i starts with the parent iff i + j is even: sides
# alternate from pair to pair inside a seed, and for each workload from
# seed to seed, whether the list is odd or even in length.
nseed=0
for seed in "$@"; do
    npair=$nseed
    for workload in "${workloads[@]}"; do
        if [ $((npair % 2)) -eq 0 ]; then
            one parent "$parent_dir" "$workload" "$seed"
            one change . "$workload" "$seed"
        else
            one change . "$workload" "$seed"
            one parent "$parent_dir" "$workload" "$seed"
        fi
        npair=$((npair + 1))
    done
    nseed=$((nseed + 1))
done

for workload in "${workloads[@]}"; do
    echo "perf-pair: $workload, parent ${parent:0:7}, $# pairs, runs appended to $out" >&2
    jq -r --slurp --arg workload "$workload" '
        def med: sort | if length == 0 then null
            elif length % 2 == 1 then .[(length - 1) / 2]
            else (.[length / 2 - 1] + .[length / 2]) / 2 end;
        def quart(q): sort | .[((length - 1) * q | floor)];
        def lower_is_better: IN("setup_s", "cpu_us_per_pkt", "peak_rss_mb");
        map(select(.workload == $workload)) |
        (map(select(.correct | not)) | length) as $bad |
        (map(select(.side == "parent")) | map({key: (.seed | tostring), value: .}) | from_entries) as $p |
        (map(select(.side == "change")) | map({key: (.seed | tostring), value: .}) | from_entries) as $c |
        (["metric", "parent", "change", "delta", "parent_iqr", "pairs_won"] | @tsv),
        (("setup_s", "cpu_us_per_pkt", "delivered_frac", "legit_delivery_frac", "attack_blocked_frac",
          "throughput_pps", "peak_rss_mb") as $m |
            [$p[] | .[$m] | numbers] as $pv | [$c[] | .[$m] | numbers] as $cv |
            select(($pv | length) > 0 and ($cv | length) > 0) |
            [$p | keys[] | select($c[.] != null) | {p: $p[.][$m], c: $c[.][$m]} | select(.p != null and .c != null)] as $pairs |
            [$m, ($pv | med), ($cv | med),
             (if ($pv | med) != 0 then ((($cv | med) / ($pv | med) - 1) * 1000 | round / 10 | tostring) + "%" else "-" end),
             (($pv | quart(0.75)) - ($pv | quart(0.25))),
             (($pairs | map(select(if ($m | lower_is_better) then .c < .p else .c > .p end)) | length | tostring)
              + "/" + ($pairs | length | tostring)
              + (($pairs | map(select(.c == .p)) | length) as $ties | if $ties > 0 then " (" + ($ties | tostring) + " tied)" else "" end))]
            | @tsv),
        (if $bad > 0 then "perf-pair: \($bad) run(s) did not report correct:true" else empty end)
    ' "$runs" | awk -F '\t' '
        function num(x) { return x ~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/ ? sprintf("%.6g", x) : x }
        { printf "%-20s %12s %12s %8s %12s  %s\n", $1, num($2), num($3), $4, num($5), $6 }'
done
