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
#                bash benchmark/run.sh -quick -trace 0 on all four
#                workloads (replay_mix, udp_clean, udp_flood, udp_limited)
#                must exit 0 with "correct":true for each. The
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
#   telemetry-inline
#                the detached-telemetry contract, "one predicted branch per
#                decision point", as the compiler decides it (go build
#                -gcflags=-m=2): (*Telemetry).Emit and Journals stay
#                inlinable, and the router's observeAdmit, observeDrop and
#                observeDequeue stay out of line behind their nil checks.
#                What the branch costs is perf-gate's router_enqueue
#                family, and the attached path router_enqueue_telemetry
#   dataplane    wire + dataplane + udpbatch + flocd tests under -race;
#                TestRoleUnderFire (the one producer's bursts, flushes,
#                quiesces and singles, barriers and a Close at once) and
#                TestRecycleUnderFire (a buffer of 8 behind rings of 16,
#                nearly every packet dropped and its slot reused) each run
#                ten more times under -race with a 120 s timeout as the
#                hang watchdog, and TestRingFullYieldsCounted (a ring
#                filled behind a held worker, with and without
#                BlockOnFull) 200 more times, which takes milliseconds;
#                TestReadParksWithOneP (a Read under GOMAXPROCS=1 must park
#                and wake: the raw socket calls never block) five times
#                with a 60 s timeout;
#                plus the BenchmarkDataplaneEnqueueSharded throughput curve
#                (1/2/4/8 shards, the engine driven as flocd's replay
#                drives it: one producer through the engine's Burst); on a
#                4+ core runner the 4-shard
#                aggregate throughput must be >= DATAPLANE_SPEEDUP x the
#                1-shard figure (default 2.5)
#   ledger-gate  end-to-end forensic loop: generate a capture, replay it
#                through flocd with -ledger sealing on a sharded engine,
#                send it to a live -ledger daemon stopped by SIGTERM, and
#                seal a flocsim FLoc scenario with -ledger too; for all
#                three ledgers require floctrace verify (Merkle roots,
#                record chain, every line decodes) and floctrace replay
#                (sealed events fold to the claimed snapshot) to pass
#   cluster-gate the cluster control plane end to end through real UDP
#                sockets: a 3-tier flocd chain on loopback (data
#                leaf->mid->root, feedback root->mid->leaf) is fed a
#                flooding capture; the root must originate pushback
#                feedback, the mid must apply and relay it, and the leaf
#                must install the propagated limits and drop flood
#                packets before forwarding; the leaf must drop no frame
#                as stale and name the root as its feedback origin (relays
#                pass frames through); the leaf's and the mid's
#                packet slots, forwarded packets copied at Emit, must stay
#                within -capacity + shards x (batch + 64);
#                every sample line of the three daemons' /metrics must
#                read `name{labels} value` (a histogram's suffix before
#                its labels) and none may carry a path= label, so the
#                series count stays fixed by configuration, not traffic
#   perf-gate    scripts/perf-pair.sh micro: the micro-benchmark families
#                in 10 pairs against the parent commit on this host,
#                alternating which side runs first, every run appended to
#                results/perf/PR-<n>.jsonl; cmd/perfgate fails a family
#                slower in 9 of 10 pairs with a median gap beyond the
#                parent's quartile distance, one whose allocs/op rise in
#                every pair, and one the change no longer reports. Fails,
#                rather than skips, when there is no parent commit
#   fuzz smoke   every fuzz target of every package (go test -list
#                '^Fuzz', nothing listed by hand) for FUZZTIME (default 10s)
#
# Each stage's wall-clock time is reported in a summary at the end,
# followed by the size ledger: non-test, non-fixture Go lines per
# top-level directory and the delta against the parent commit, so "every
# PR states its net line delta" (ROADMAP) is read off the gate rather than
# counted by hand. Informational only: it never fails the gate and prints
# what it can outside a git checkout or in a shallow clone. The parent
# commit is resolved once, before any stage runs (scripts/pairing.sh:
# HEAD~1 on a clean tree, HEAD while it has uncommitted work), and both
# perf-gate and the ledger use that one value, so the runs perf-gate
# appends cannot move the ledger's base.
#
# Environment:
#   FUZZTIME=10s   per-target fuzz budget; set FUZZTIME=0 to skip fuzzing.
#   DATAPLANE_SPEEDUP=2.5
#                  required 4-shard vs 1-shard enqueue speedup on 4+ core
#                  machines; set to 0 to skip the ratio check.
set -eu
cd "$(dirname "$0")/.."
. scripts/pairing.sh
parent=$(parent_commit)

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
smoke_workloads="-workload replay_mix -workload udp_clean -workload udp_flood -workload udp_limited"
echo ">> bash benchmark/run.sh -quick -trace 0 $smoke_workloads" >&2
smoke_out=$(bash benchmark/run.sh -quick -trace 0 $smoke_workloads)
printf '%s\n' "$smoke_out" | grep '^{' >&2
if [ "$(printf '%s\n' "$smoke_out" | grep -c '^{"correct":true')" -ne 4 ]; then
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

begin telemetry-inline
inline=$(go build -gcflags=-m=2 ./internal/telemetry ./internal/core 2>&1)
for want in 'can inline (*Telemetry).Emit ' 'can inline (*Telemetry).Journals ' \
    'cannot inline (*Router).observeAdmit:' 'cannot inline (*Router).observeDrop:' \
    'cannot inline (*Router).observeDequeue:'; do
    printf '%s\n' "$inline" | grep -qF "$want" || {
        echo "telemetry-inline: go build -gcflags=-m=2 no longer reports \"$want\"" >&2
        exit 1
    }
done
end

begin dataplane
run go test -race -count=1 ./internal/wire ./internal/dataplane ./internal/udpbatch ./cmd/flocd
run go test -race -count=10 -timeout 120s -run '^TestRoleUnderFire$' ./internal/dataplane
run go test -count=5 -timeout 60s -run '^TestReadParksWithOneP$' ./internal/udpbatch
run go test -race -count=10 -timeout 120s -run '^TestRecycleUnderFire$' ./internal/dataplane
run go test -race -count=200 -timeout 120s -run '^TestRingFullYieldsCounted$' ./internal/dataplane
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
# The forensic loop, end to end through the real binaries: seal a daemon
# replay, a live daemon and a simulated run through the same sealer, then
# verify and replay the sealed evidence of each. Sealing costs the admission
# path nothing: it only runs when -ledger is given and hashes at
# control-run boundaries.
ledger_tmp=$(mktemp -d "${TMPDIR:-/tmp}/floc-ledger-XXXXXX")
run go build -o "$ledger_tmp/flocd" ./cmd/flocd
run go build -o "$ledger_tmp/floctrace" ./cmd/floctrace
run go build -o "$ledger_tmp/flocsim" ./cmd/flocsim
run "$ledger_tmp/flocd" -gen 20000 -out "$ledger_tmp/capture.pcap"
run "$ledger_tmp/flocd" -replay "$ledger_tmp/capture.pcap" -shards 2 \
    -ledger "$ledger_tmp/ledger"
run "$ledger_tmp/floctrace" verify -ledger "$ledger_tmp/ledger"
run "$ledger_tmp/floctrace" replay -ledger "$ledger_tmp/ledger"
# A live daemon stopped by SIGTERM, as kill, systemd and container
# runtimes stop one, must leave a sealed ledger and snapshot as well.
"$ledger_tmp/flocd" -listen 127.0.0.1:19110 -shards 2 -ledger "$ledger_tmp/live" \
    2>"$ledger_tmp/live.log" &
ledger_live=$!
i=0
until grep -q 'listening on' "$ledger_tmp/live.log"; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "ledger-gate: live daemon never came up" >&2
        kill -KILL "$ledger_live" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
run "$ledger_tmp/flocd" -replay "$ledger_tmp/capture.pcap" -sendto 127.0.0.1:19110 -pace 0
run kill -TERM "$ledger_live"
run wait "$ledger_live"
run "$ledger_tmp/floctrace" verify -ledger "$ledger_tmp/live"
run "$ledger_tmp/floctrace" replay -ledger "$ledger_tmp/live"
run "$ledger_tmp/flocsim" -scenario floc:cbr -duration 10 -ledger "$ledger_tmp/sim"
run "$ledger_tmp/floctrace" verify -ledger "$ledger_tmp/sim"
run "$ledger_tmp/floctrace" replay -ledger "$ledger_tmp/sim"
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
assert_pos "mid: records applied from its one upstream, the root" \
    "$(metric_sum 19302 'floc_cluster_feedback_applied_total')"
assert_pos "mid: installed limits" \
    "$(metric_sum 19302 'floc_cluster_installed_limits')"
assert_pos "mid: feedback frames relayed to leaf" \
    "$(metric_sum 19302 'floc_cluster_feedback_sent_total')"
assert_pos "leaf: records applied, relayed by the mid" \
    "$(metric_sum 19301 'floc_cluster_feedback_applied_total')"
assert_pos "leaf: installed limits" \
    "$(metric_sum 19301 'floc_cluster_installed_limits')"
assert_pos "leaf: flood packets shed by propagated limits" \
    "$(metric_sum 19301 'floc_cluster_limit_dropped_total')"
# Relays pass frames through and each publish is one sequence number, so
# the leaf hears the root itself, and no frame it receives is stale.
leaf_stale=$(metric_sum 19301 'floc_cluster_feedback_stale_dropped_total')
echo "   leaf: frames dropped as stale = $leaf_stale" >&2
if [ "$leaf_stale" != 0 ]; then
    echo "cluster-gate: leaf: frames dropped as stale must be 0" >&2
    exit 1
fi
leaf_health=$("$cluster_tmp/flocd" -probe "http://127.0.0.1:19301/healthz")
echo "   leaf: /healthz $leaf_health" >&2
case "$leaf_health" in
*'"feedback":['*'"origin":3,'*) ;;
*)
    echo "cluster-gate: leaf: /healthz feedback must name origin 3, the root" >&2
    exit 1
    ;;
esac
# The leaf and the mid forward through a buffering socket sink, which
# encodes each packet at Emit and keeps nothing of it, so a shard owns at
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

begin perf-gate
if [ -z "$parent" ]; then
    echo "perf-gate: no parent commit to measure against; a shallow clone needs HEAD~1" >&2
    exit 1
fi
run env PARENT="$parent" scripts/perf-pair.sh micro
end

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
    base=$parent
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
            printf "non-test, non-fixture Go lines%s:\n", base == "" ? "" : " (delta vs " substr(base, 1, 12) ")"
            for (d in dirs) {
                print row(d, lines["new", d], lines["old", d]) | "sort -k3"
                new += lines["new", d]; old += lines["old", d]
            }
            close("sort -k3")
            print row("total", new, old)
        }'
}
line_ledger >&2 2>/dev/null || true
