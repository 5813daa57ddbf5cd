#!/bin/sh
# check.sh — the repository's full verification gate, run locally before
# pushing and by CI (.github/workflows/ci.yml):
#
#   build        go build ./..., then two offline cross-compiles of
#                stdlib-only code: GOOS=darwin go build ./cmd/flocd (the
#                portable one-datagram-per-call half of internal/udpbatch)
#                and GOARCH=arm64 go vet ./cmd/flocd ./internal/udpbatch
#                (the arm64 syscall numbers and struct layouts)
#   format       gofmt -l (fails on any unformatted file)
#   vet          go vet ./...
#   floclint     repo-specific determinism, equation-guard, atomics and
#                exhaustiveness rules (cmd/floclint); units are
#                internal/units types, checked by the compiler, and
#                per-packet allocation and input bounds are the
#                alloc-gate's and the fuzz targets' to check
#   fixtures     floclint -fixtures: every fixture WANT marker must be
#                reported and every finding must have a marker, so the
#                seeded-violation corpus cannot drift from the rules;
#                per-rule finding counts resurface in the final summary
#   alloc-gate   every TestZeroAlloc* test of every package (go test -run
#                '^TestZeroAlloc' ./..., nothing listed by hand): 0
#                allocs/op on the per-packet paths (wire codec and its
#                decoders over unseen headers, dropfilter ops, limiter
#                bank, router admission and its read-ahead pass,
#                dataplane ring, single and burst enqueue, inline quiesce
#                and live forwarding into a flushing sink, telemetry
#                cells, flocd's ingest and its forwarding sink) and on
#                the loopback socket cycle of internal/udpbatch
#   bench-smoke  the repo benchmark still builds against this tree and runs:
#                (cd benchmark && go vet ./...), then
#                bash benchmark/run.sh -quick -trace 0 on replay_mix and
#                udp_clean must exit 0 with "correct":true for both. The
#                benchmark module compiles against internal signatures and
#                parses flocd's output, and the PR driver runs it after
#                the fact — a change that breaks it must fail here first.
#                Reads benchmark/, writes only under .bench_build/; the
#                numbers of a -quick run mean nothing
#   tests        go test ./...
#   invariants   go test -tags flocinvariants ./... (hot-path assertions on)
#   race         go test -race -short ./... (-short skips the multi-second
#                single-threaded simulations, which race instrumentation
#                slows ~15x past the package timeout)
#   telemetry-overhead
#                internal/core's BenchmarkFLocRouterEnqueue in the default
#                build (telemetry compiled in but not attached) versus
#                -tags flocnotelemetry
#                (compiled out); fails if the disabled-telemetry hot path
#                costs more than TELEMETRY_OVERHEAD_NS (default 2.0) ns/op
#                over the compiled-out baseline, comparing the median of
#                paired back-to-back runs to damp scheduler noise. The
#                budget is absolute, not a percentage: the contract is
#                "one predicted branch per decision point", whose cost
#                does not shrink when the rest of the admission path
#                speeds up
#   dataplane    wire + dataplane + udpbatch + flocd tests under -race;
#                TestRoleUnderFire (bursts that flush and quiesce, singles,
#                barriers and a Close at once) and TestRecycleUnderFire (a
#                buffer of 8 behind rings of 16, nearly every packet
#                dropped and its slot reused) each run ten more times
#                under -race with a 120 s timeout as the hang watchdog;
#                plus the BenchmarkDataplaneEnqueueSharded throughput curve
#                (1/2/4/8 shards); on a 4+ core runner the 4-shard
#                aggregate throughput must be >= DATAPLANE_SPEEDUP x the
#                1-shard figure (default 2.5)
#   ledger-gate  end-to-end forensic loop: generate a capture, replay it
#                through flocd with -ledger sealing on a sharded engine,
#                then require floctrace verify (Merkle roots, record
#                chain, inclusion proofs) and floctrace replay (sealed
#                events fold to the claimed snapshot) to both pass
#   cluster-gate the cluster control plane end to end through real UDP
#                sockets: a 3-tier flocd chain on loopback (data
#                leaf->mid->root, feedback root->mid->leaf) is fed a
#                flooding capture; the root must originate pushback
#                feedback, the mid must apply and relay it, and the leaf
#                must install the propagated limits and drop flood
#                packets before forwarding; the leaf's and the mid's
#                packet slots, forwarded packets given back at every
#                flush, must stay within -capacity + shards x (batch + 64);
#                every sample line of the three daemons' /metrics must
#                read `name{labels} value` (a histogram's suffix before
#                its labels) and none may carry a path= label, so the
#                series count stays fixed by configuration, not traffic
#   perf-gate    scripts/bench-snapshot.sh to a scratch file, compared
#                against the latest committed BENCH_*.json by cmd/perfgate;
#                fails on any family more than PERF_REGRESSION_PCT percent
#                worse (default 10); families new in the fresh snapshot are
#                reported but not gated
#   fuzz smoke   every fuzz target of every package (go test -list
#                '^Fuzz', nothing listed by hand) for FUZZTIME (default 10s)
#
# Each stage's wall-clock time is reported in a summary at the end,
# followed by the size ledger: non-test, non-fixture Go lines per
# top-level directory and the delta against the parent commit (HEAD~1 in
# this repo's one-commit-per-PR history; HEAD while the tree still has
# uncommitted work), so "every PR states its net line delta" (ROADMAP) is
# read off the gate rather than counted by hand. Informational only: it
# never fails the gate and prints what it can outside a git checkout or
# in a shallow clone.
#
# Environment:
#   FUZZTIME=10s   per-target fuzz budget; set FUZZTIME=0 to skip fuzzing.
#   TELEMETRY_OVERHEAD_NS=2.0
#                  disabled-telemetry overhead budget in ns/op (covers the
#                  guard branch plus code-size/layout effects of the
#                  compiled-in observers, measured ~1 ns on the reference
#                  runner, with margin for pairing noise); set to 0 to
#                  skip the benchmark comparison.
#   DATAPLANE_SPEEDUP=2.5
#                  required 4-shard vs 1-shard enqueue speedup on 4+ core
#                  machines; set to 0 to skip the ratio check.
#   PERF_REGRESSION_PCT=10
#                  allowed per-family regression against the latest
#                  committed BENCH_*.json; set to 0 to skip the perf gate.
set -eu
cd "$(dirname "$0")/.."

run() { echo ">> $*" >&2; "$@"; }

timings=""
stage_name=""
stage_t0=0

begin() {
    stage_name="$1"
    stage_t0=$(date +%s)
}

end() {
    timings="${timings}$(printf '%6ss  %s' "$(($(date +%s) - stage_t0))" "$stage_name")
"
}

begin build
run go build ./...
# The files this host never compiles: the !linux half of udpbatch and the
# arm64 syscall table. Both are stdlib-only, so the cross-builds need no
# network and no cgo.
run env GOOS=darwin go build -o /dev/null ./cmd/flocd
run env GOARCH=arm64 go vet ./cmd/flocd ./internal/udpbatch
end

begin format
echo ">> gofmt -l ." >&2
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt required for:" >&2
    echo "$unformatted" >&2
    exit 1
fi
end

begin vet
run go vet ./...
end

begin floclint
run go run ./cmd/floclint ./...
end

begin fixtures
echo ">> go run ./cmd/floclint -fixtures cmd/floclint/testdata/src" >&2
fixtures_out=$(go run ./cmd/floclint -fixtures cmd/floclint/testdata/src)
echo "$fixtures_out" >&2
# The per-rule counts line resurfaces in the stage timing summary so a
# rule whose fixture coverage collapses to zero is visible at a glance.
rule_counts=$(printf '%s\n' "$fixtures_out" | grep '^per-rule fixture findings:' || true)
end

begin alloc-gate
# The per-packet paths allocate nothing, as the compiler's escape analysis
# actually decides it. Every package's gates, found rather than listed, so
# that none is skipped by omission.
run go test -count=1 -run '^TestZeroAlloc' ./...
end

begin bench-smoke
# The build cache run.sh picks, so that vet and the run share one and
# neither writes outside the checkout.
bench_cache="${GOCACHE:-$PWD/.bench_build/gocache}"
echo ">> (cd benchmark && go vet ./...)" >&2
(cd benchmark && GOCACHE="$bench_cache" go vet ./...)
echo ">> bash benchmark/run.sh -quick -trace 0 -workload replay_mix -workload udp_clean" >&2
smoke_out=$(bash benchmark/run.sh -quick -trace 0 -workload replay_mix -workload udp_clean)
printf '%s\n' "$smoke_out" | grep '^{' >&2
if [ "$(printf '%s\n' "$smoke_out" | grep -c '^{"correct":true')" -ne 2 ]; then
    echo "bench-smoke: a workload did not report \"correct\":true" >&2
    exit 1
fi
end

begin tests
run go test ./...
end

begin invariants
run go test -tags flocinvariants ./...
end

begin race
run go test -race -short ./...
end

TELEMETRY_OVERHEAD_NS="${TELEMETRY_OVERHEAD_NS:-2.0}"
if [ "$TELEMETRY_OVERHEAD_NS" != "0" ]; then
    begin telemetry-overhead
    echo ">> telemetry-overhead: BenchmarkFLocRouterEnqueue default vs -tags flocnotelemetry" >&2
    bench_tmp=$(mktemp -d "${TMPDIR:-/tmp}/floc-bench-XXXXXX")
    run go test -c -o "$bench_tmp/default.test" ./internal/core
    run go test -tags flocnotelemetry -c -o "$bench_tmp/notel.test" ./internal/core
    # Paired comparison: the builds alternate back-to-back, each pair
    # yields one absolute overhead delta in ns/op, and the median delta
    # is the verdict. Pairing cancels machine phase drift (a slow phase
    # hits both sides of a pair) and the median rejects outlier pairs,
    # which single-shot or min-of-N comparisons of two separate binaries
    # cannot. The budget is absolute because the guarded branch costs a
    # fixed number of cycles: a percentage budget silently tightens
    # every time the admission path itself gets faster.
    bench_once() {
        ns=$("$1" -test.run='^$' -test.bench='^BenchmarkFLocRouterEnqueue$' \
            -test.benchtime=2000000x 2>/dev/null |
            awk '/^BenchmarkFLocRouterEnqueue/ { print $3; exit }')
        [ -n "$ns" ] || { echo "telemetry-overhead: no benchmark output from $1" >&2; exit 1; }
        echo "$ns"
    }
    overheads="" i=0
    while [ $i -lt 7 ]; do
        base=$(bench_once "$bench_tmp/notel.test")
        cur=$(bench_once "$bench_tmp/default.test")
        overheads="$overheads $(awk -v b="$base" -v c="$cur" 'BEGIN { printf "%.3f", c - b }')"
        i=$((i + 1))
    done
    rm -rf "$bench_tmp"
    echo "   pair overheads (ns/op):$overheads" >&2
    echo "$overheads" | tr ' ' '\n' | grep -v '^$' | sort -n |
        awk -v p="$TELEMETRY_OVERHEAD_NS" '
            { a[NR] = $1 }
            END {
                med = a[int((NR + 1) / 2)]
                printf "   median disabled-telemetry overhead %+.3f ns/op (budget %s ns/op)\n", med, p > "/dev/stderr"
                exit med > p ? 1 : 0
            }' || {
        echo "telemetry-overhead: disabled-telemetry hot path exceeds ${TELEMETRY_OVERHEAD_NS} ns/op budget" >&2
        exit 1
    }
    end
fi

begin dataplane
run go test -race -count=1 ./internal/wire ./internal/dataplane ./internal/udpbatch ./cmd/flocd
run go test -race -count=10 -timeout 120s -run '^TestRoleUnderFire$' ./internal/dataplane
run go test -race -count=10 -timeout 120s -run '^TestRecycleUnderFire$' ./internal/dataplane
bench_out=$(go test -run='^$' -bench='^BenchmarkDataplaneEnqueueSharded$' \
    -benchtime=200000x ./internal/dataplane)
echo "$bench_out" | grep '^Benchmark' >&2
DATAPLANE_SPEEDUP="${DATAPLANE_SPEEDUP:-2.5}"
# go env GOMAXPROCS prints empty on toolchains that don't surface it;
# fall back through the portable cpu-count sources.
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$DATAPLANE_SPEEDUP" != "0" ] && [ "$ncpu" -ge 4 ]; then
    echo "$bench_out" | awk -v want="$DATAPLANE_SPEEDUP" '
        /shards=1/ { one = $3 }
        /shards=4/ { four = $3 }
        END {
            if (one == "" || four == "") { print "dataplane: benchmark output missing shard points" > "/dev/stderr"; exit 1 }
            ratio = one / four
            printf "   4-shard vs 1-shard enqueue speedup: %.2fx (required %.1fx)\n", ratio, want > "/dev/stderr"
            exit ratio >= want ? 0 : 1
        }' || {
        echo "dataplane: 4-shard speedup below ${DATAPLANE_SPEEDUP}x" >&2
        exit 1
    }
else
    echo "   speedup gate skipped (cpus=$ncpu < 4 or DATAPLANE_SPEEDUP=0)" >&2
fi
end

begin ledger-gate
# The forensic loop, end to end through the real binaries: seal a replay,
# then verify and replay the sealed evidence. Sealing rides inside the
# telemetry budget because it only runs when -ledger is given and hashes
# at control-run boundaries, never on the admission path.
ledger_tmp=$(mktemp -d "${TMPDIR:-/tmp}/floc-ledger-XXXXXX")
run go build -o "$ledger_tmp/flocd" ./cmd/flocd
run go build -o "$ledger_tmp/floctrace" ./cmd/floctrace
run "$ledger_tmp/flocd" -gen 20000 -out "$ledger_tmp/capture.pcap"
run "$ledger_tmp/flocd" -replay "$ledger_tmp/capture.pcap" -shards 2 \
    -ledger "$ledger_tmp/ledger"
run "$ledger_tmp/floctrace" verify -ledger "$ledger_tmp/ledger"
run "$ledger_tmp/floctrace" replay -ledger "$ledger_tmp/ledger"
rm -rf "$ledger_tmp"
end

begin cluster-gate
# The multi-router story, end to end through real sockets: traffic enters
# at the leaf daemon, is forwarded hop by hop to the root whose 20 Mb/s
# link is the bottleneck, and the resulting pushback limits must
# propagate the opposite way — root originates control frames, mid
# applies and relays them, leaf installs the limits and sheds the flood
# before forwarding. Every assertion reads the daemons' own /metrics
# through flocd -probe (no curl dependency).
cluster_tmp=$(mktemp -d "${TMPDIR:-/tmp}/floc-cluster-XXXXXX")
run go build -o "$cluster_tmp/flocd" ./cmd/flocd
run "$cluster_tmp/flocd" -gen 64000 -out "$cluster_tmp/capture.pcap"
"$cluster_tmp/flocd" -listen 127.0.0.1:19103 -router-id 3 -peers 127.0.0.1:19202 \
    -link 20e6 -metrics 127.0.0.1:19303 2>"$cluster_tmp/root.log" &
cluster_root=$!
"$cluster_tmp/flocd" -listen 127.0.0.1:19102 -router-id 2 -control 127.0.0.1:19202 \
    -peers 127.0.0.1:19201 -forward 127.0.0.1:19103 -link 100e6 \
    -metrics 127.0.0.1:19302 2>"$cluster_tmp/mid.log" &
cluster_mid=$!
"$cluster_tmp/flocd" -listen 127.0.0.1:19101 -router-id 1 -control 127.0.0.1:19201 \
    -forward 127.0.0.1:19102 -link 100e6 \
    -metrics 127.0.0.1:19301 2>"$cluster_tmp/leaf.log" &
cluster_leaf=$!
# A failed assertion exits the gate; the daemons go down with it.
trap 'kill -INT "$cluster_leaf" "$cluster_mid" "$cluster_root" 2>/dev/null || true' EXIT
cluster_up() { # cluster_up <metrics port>
    i=0
    until "$cluster_tmp/flocd" -probe "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "cluster-gate: daemon on port $1 never came up" >&2
            exit 1
        fi
        sleep 0.1
    done
}
cluster_up 19301; cluster_up 19302; cluster_up 19303
run "$cluster_tmp/flocd" -replay "$cluster_tmp/capture.pcap" \
    -sendto 127.0.0.1:19101 -pace 0.3
sleep 1 # one more publish interval, so in-flight feedback lands
# metric_sum <metrics port> <series prefix> — sum every matching series,
# so the assertions hold at any shard count.
metric_sum() {
    "$cluster_tmp/flocd" -probe "http://127.0.0.1:$1/metrics" |
        awk -v p="$2" 'index($1, p) == 1 { s += $2 } END { print s + 0 }'
}
assert_pos() { # assert_pos <description> <value>
    echo "   $1 = $2" >&2
    awk -v v="$2" 'BEGIN { exit v + 0 > 0 ? 0 : 1 }' || {
        echo "cluster-gate: $1 must be > 0" >&2
        exit 1
    }
}
assert_pos "root: feedback frames sent" \
    "$(metric_sum 19303 'floc_cluster_feedback_sent_total')"
assert_pos "mid: records applied from root (origin 3)" \
    "$(metric_sum 19302 'floc_cluster_feedback_applied_total{peer="3"}')"
assert_pos "mid: installed limits" \
    "$(metric_sum 19302 'floc_cluster_installed_limits')"
assert_pos "mid: feedback frames relayed to leaf" \
    "$(metric_sum 19302 'floc_cluster_feedback_sent_total')"
assert_pos "leaf: records applied from mid (origin 2)" \
    "$(metric_sum 19301 'floc_cluster_feedback_applied_total{peer="2"}')"
assert_pos "leaf: installed limits" \
    "$(metric_sum 19301 'floc_cluster_installed_limits')"
assert_pos "leaf: flood packets shed by propagated limits" \
    "$(metric_sum 19301 'floc_cluster_limit_dropped_total')"
# The leaf and the mid forward through a buffering socket sink, which
# gives back at every flush the packets it was handed, so a shard owns at
# most its share of -capacity (512), one batch and one chunk of 64 packet
# slots however much it forwarded (DESIGN.md "Packet ownership").
assert_slots() { # assert_slots <description> <metrics port>
    "$cluster_tmp/flocd" -probe "http://127.0.0.1:$2/metrics" |
        awk -v what="$1" 'index($1, "floc_dataplane_packet_slots{") == 1 { s += $2; n++ }
            END {
                bound = 512 + n * (64 + 64)
                printf "   %s = %d (bound %d over %d shards)\n", what, s, bound, n > "/dev/stderr"
                exit n > 0 && s > 0 && s <= bound ? 0 : 1
            }' || {
        echo "cluster-gate: $1 outside the stated bound" >&2
        exit 1
    }
}
assert_slots "leaf: packet slots" 19301
assert_slots "mid: packet slots" 19302
# The exposition itself: every sample is `name{labels} value` with one
# label block at the end of the name, and no series is per path — a
# sender that invents paths must not grow /metrics.
assert_exposition() { # assert_exposition <description> <metrics port>
    "$cluster_tmp/flocd" -probe "http://127.0.0.1:$2/metrics" |
        awk -v what="$1" '
            /^#/ || /^$/ { next }
            { n++ }
            !/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$/ {
                print "   " what ": malformed sample: " $0 > "/dev/stderr"; bad++
            }
            /[{,]path="/ {
                print "   " what ": per-path series: " $0 > "/dev/stderr"; bad++
            }
            END {
                printf "   %s: %d samples, %d rejected\n", what, n, bad > "/dev/stderr"
                exit n > 0 && bad == 0 ? 0 : 1
            }' || {
        echo "cluster-gate: $1 /metrics is not well-formed and path-free" >&2
        exit 1
    }
}
assert_exposition "leaf" 19301
assert_exposition "mid" 19302
assert_exposition "root" 19303
kill -INT "$cluster_leaf" "$cluster_mid" "$cluster_root" 2>/dev/null || true
wait "$cluster_leaf" "$cluster_mid" "$cluster_root" 2>/dev/null || true
trap - EXIT
rm -rf "$cluster_tmp"
end

PERF_REGRESSION_PCT="${PERF_REGRESSION_PCT:-10}"
if [ "$PERF_REGRESSION_PCT" != "0" ]; then
    begin perf-gate
    # Latest committed snapshot by sequence number (BENCH_0, BENCH_1, ...).
    baseline=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
    if [ -z "$baseline" ]; then
        echo "   perf-gate skipped (no committed BENCH_*.json baseline)" >&2
    else
        fresh=$(mktemp "${TMPDIR:-/tmp}/floc-bench-XXXXXX")
        # Best-of-5 rather than the snapshot default of 3: the gate
        # compares minima, and the min of a noisy family (the batch
        # benchmarks swing ~15% run to run on a shared runner) only
        # converges near the floor with the extra samples.
        BENCH_RUNS="${BENCH_RUNS:-5}" run scripts/bench-snapshot.sh "$fresh"
        run go run ./cmd/perfgate -old "$baseline" -new "$fresh" -pct "$PERF_REGRESSION_PCT"
        rm -f "$fresh"
    fi
    end
fi

FUZZTIME="${FUZZTIME:-10s}"
if [ "$FUZZTIME" != "0" ]; then
    begin "fuzz ($FUZZTIME/target)"
    # Every Fuzz target of every package, found rather than listed, so that
    # none is skipped by omission; -fuzz takes one target per run. go test
    # -list prints a package's matching names, then its "ok <package>" line.
    fuzz_list=$(go test -list '^Fuzz' ./...)
    fuzz_targets=$(printf '%s\n' "$fuzz_list" | awk '
        /^Fuzz/ { names[++n] = $1; next }
        $1 == "ok" { for (i = 1; i <= n; i++) print $2 "," names[i]; n = 0 }')
    if [ -z "$fuzz_targets" ]; then
        echo "fuzz: go test -list found no Fuzz targets" >&2
        exit 1
    fi
    for target in $fuzz_targets; do
        run go test -run='^$' -fuzz="^${target#*,}\$" -fuzztime "$FUZZTIME" "${target%,*}"
    done
    end
fi

echo "check.sh: all gates passed; stage timings:" >&2
printf '%s' "$timings" >&2
if [ -n "${rule_counts:-}" ]; then
    echo "$rule_counts" >&2
fi

# go_lines [<ref>] — "<path>:<lines>" for every Go file in the work tree
# (tracked or not yet added), or in the tree of <ref>.
go_lines() {
    if [ $# -gt 0 ]; then
        git grep -c -e '' "$1" -- '*.go' | cut -d: -f2-
    else
        git grep -c --untracked -e '' -- '*.go'
    fi
}

line_ledger() {
    base=HEAD~1
    [ -z "$(git status --porcelain)" ] || base=HEAD
    git rev-parse -q --verify "$base^{commit}" >/dev/null || base=""
    {
        go_lines | sed 's/^/new:/'
        [ -z "$base" ] || go_lines "$base" | sed 's/^/old:/'
    } | awk -F: -v base="$base" '
        $2 ~ /_test\.go$/ || $2 ~ /(^|\/)testdata\// { next }
        {
            dir = index($2, "/") ? substr($2, 1, index($2, "/") - 1) : "."
            dirs[dir] = 1
            lines[$1, dir] += $3
        }
        function row(name, new, old) {
            return sprintf("%8d  %7s  %s", new, base == "" ? "-" : sprintf("%+d", new - old), name)
        }
        END {
            printf "non-test, non-fixture Go lines%s:\n", base == "" ? "" : " (delta vs " base ")"
            for (d in dirs) {
                print row(d, lines["new", d], lines["old", d]) | "sort -k3"
                new += lines["new", d]; old += lines["old", d]
            }
            close("sort -k3")
            print row("total", new, old)
        }'
}
line_ledger >&2 2>/dev/null || true
