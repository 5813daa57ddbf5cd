// Command benchmark is the repo benchmark. Its end-to-end runs drive the
// real flocd binary from outside — open-loop UDP over loopback, or a
// closed-loop capture replay — so changes to the daemon's glue show up
// without editing this package; a separate traced in-process run times the
// calls into each module to produce the per-layer table. See README.md.
//
//	bash benchmark/run.sh [-workload name]... [-seed n] [-seconds s] [-trace 0|1] [-quick]
//
// The last line of standard output is one JSON object per workload run:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the metrics
// are the end-to-end ones, with -trace 1 the per-layer ones, by default
// both. The command exits non-zero if an output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metricDef names a metric and its unit. The two tables below are the
// benchmark's contract with BENCHMARK.json; a test keeps them equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_pkt", "us"},
	{"delivered_frac", "ratio"},
	{"legit_delivery_frac", "ratio"},
	{"attack_blocked_frac", "ratio"},
	{"throughput_pps", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"wire.decode_ns", "ns"},
	{"wire.intern_ns", "ns"},
	{"wire.intern_miss_frac", "ratio"},
	{"wire.to_packet_ns", "ns"},
	{"wire.ingest_allocs_per_pkt", "count"},
	{"wire.ingest_bytes_per_pkt", "B"},
	{"wire.from_packet_ns", "ns"},
	{"wire.marshal_ns", "ns"},
	{"wire.egress_frac", "ratio"},
	{"wire.capture_next_ns", "ns"},
	{"dataplane.enqueue_ns", "ns"},
	{"dataplane.drain_wait_ns", "ns"},
	{"dataplane.pipeline_ns", "ns"},
	{"dataplane.ring_drop_frac", "ratio"},
	{"dataplane.snapshot_barrier_us", "us"},
	{"dataplane.install_limit_us", "us"},
	{"dataplane.intern_path_us", "us"},
	{"core.enqueue_batch_ns", "ns"},
	{"core.allocs_per_pkt", "count"},
	{"core.admit_frac", "ratio"},
	{"core.dequeue_ns", "ns"},
	{"defense.bank_admit_ns", "ns"},
	{"defense.bank_shed_frac", "ratio"},
	{"dropfilter.record_ns", "ns"},
	{"dropfilter.query_ns", "ns"},
	{"dropfilter.record_per_pkt", "count"},
	{"dropfilter.query_per_pkt", "count"},
	{"cluster.handle_frame_us", "us"},
	{"cluster.publish_us", "us"},
	{"telemetry.write_text_us", "us"},
	{"flocd.user_us_per_pkt", "us"},
	{"flocd.sys_us_per_pkt", "us"},
	{"flocd.unattributed_us_per_pkt", "us"},
	{"flocd.socket_loss_frac", "ratio"},
	{"flocd.ring_drop_frac", "ratio"},
	{"flocd.limit_drop_frac", "ratio"},
	{"flocd.transit_p50_us", "us"},
	{"flocd.transit_p99_us", "us"},
	{"flocd.transit_samples", "count"},
	{"flocd.replay_admitted_rel_spread", "ratio"},
	{"bench.stage_sum_us_per_pkt", "us"},
	{"bench.sender_late_p99_us", "us"},
	{"bench.sender_paused_frac", "ratio"},
	{"bench.build_s", "s"},
	{"bench.trace_overhead_frac", "ratio"},
}

// values holds measured metrics by name until they are printed in table
// order.
type values map[string]float64

// result is one workload run's outcome.
type result struct {
	workload  string
	attempted int64
	failed    int64
	vals      values
	failures  []string // output checks that did not hold
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// bench is one invocation's fixed state.
type bench struct {
	bin      string // the flocd built from this checkout
	buildS   float64
	tmp      string // removed at exit
	traceOut string
	seed     uint64
	seconds  int
	trace    int // 0: end-to-end only, 1: per-layer only, -1: both
}

type stringList []string

func (s *stringList) String() string     { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var names stringList
	flag.Var(&names, "workload", "workload to run (repeatable; default all)")
	seed := flag.Uint64("seed", 1, "input seed: equal seeds generate identical inputs")
	secs := flag.Int("seconds", 15, "seconds each workload measures")
	trace := flag.Int("trace", -1, "0 = end-to-end metrics only, 1 = per-layer metrics only, default both")
	quick := flag.Bool("quick", false, "smoke run: 2 s windows and a 100k-packet capture, checks on, numbers not comparable")
	traceOut := flag.String("trace-out", "", "directory for trace-<workload>.json (default benchmark/out)")
	flag.Parse()
	os.Exit(run(names, *seed, *secs, *trace, *quick, *traceOut))
}

func run(names []string, seed uint64, secs, trace int, quick bool, traceOut string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if secs < 1 || trace < -1 || trace > 1 {
		return fail(fmt.Errorf("-seconds must be >= 1 and -trace one of 0, 1"))
	}
	var selected []workload
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", name))
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		selected = workloads
	}

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	// Everything the run writes stays inside the checkout, under one
	// directory the root .gitignore names.
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer removeAll(tmp)
	// An interrupt cancels the context; every child is started under it
	// and is killed when it ends.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b := &bench{tmp: tmp, traceOut: traceOut, seed: seed, seconds: secs, trace: trace}
	if b.traceOut == "" {
		b.traceOut = filepath.Join(root, "benchmark", "out")
	}
	if quick {
		b.seconds = 2
		fmt.Println("# -quick: numbers below are a smoke test, not comparable with full runs")
	}
	if b.bin, b.buildS, err = buildFlocd(ctx, root, tmp); err != nil {
		return fail(err)
	}

	code := 0
	for _, w := range selected {
		if quick {
			w.capSeconds *= 100_000 / float64(w.capPackets)
			w.capPackets = 100_000
		}
		res, err := b.runWorkload(ctx, w)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		if !b.print(res) {
			code = 1
		}
	}
	return code
}

func (b *bench) runWorkload(ctx context.Context, w workload) (*result, error) {
	if w.live {
		return b.runLiveWorkload(ctx, w)
	}
	return b.runReplayWorkload(ctx, w)
}

func (b *bench) runLiveWorkload(ctx context.Context, w workload) (*result, error) {
	tr, run, setupS, err := runLive(ctx, b.bin, w, b.seed, b.seconds)
	if err != nil {
		return nil, err
	}
	sent := float64(run.sent)
	rep := run.rep
	legitFrac := ratio(float64(run.sinkLegit), float64(tr.legit))
	attackFrac := ratio(float64(run.sinkAtk), float64(tr.attack))
	res := &result{
		workload:  w.name,
		attempted: run.sent,
		failed:    run.sent - rep.processed,
		vals: values{
			"setup_s":             setupS,
			"cpu_us_per_pkt":      run.use.cpuS() * 1e6 / sent,
			"delivered_frac":      float64(rep.processed) / sent,
			"legit_delivery_frac": legitFrac,
			"attack_blocked_frac": 1 - attackFrac,
			"throughput_pps":      float64(rep.processed) / run.sendS,
			"peak_rss_mb":         run.use.rssMB,

			"flocd.user_us_per_pkt":    run.use.userS * 1e6 / sent,
			"flocd.sys_us_per_pkt":     run.use.sysS * 1e6 / sent,
			"flocd.socket_loss_frac":   float64(run.sent-rep.accepted-rep.ringDrops) / sent,
			"flocd.ring_drop_frac":     float64(rep.ringDrops) / sent,
			"flocd.limit_drop_frac":    rep.metricSum("floc_cluster_limit_dropped_total") / sent,
			"flocd.transit_p50_us":     percentile(run.transitUs, 50),
			"flocd.transit_p99_us":     percentile(run.transitUs, 99),
			"flocd.transit_samples":    float64(len(run.transitUs)),
			"bench.sender_late_p99_us": percentile(run.lateUs, 99),
			"bench.sender_paused_frac": ratio(float64(run.pauses), float64(len(run.lateUs))),
		},
	}

	// Conservation: nothing is counted twice or invented between the
	// sender, the rings, admission and the sink.
	res.check(run.sent == int64(len(tr.sched)), "sent %d of %d scheduled packets", run.sent, len(tr.sched))
	res.check(rep.accepted+rep.ringDrops <= run.sent, "accepted %d + ring drops %d exceed the %d sent", rep.accepted, rep.ringDrops, run.sent)
	res.check(rep.processed == rep.accepted, "processed %d != accepted %d after the drain", rep.processed, rep.accepted)
	res.check(run.sinkLegit+run.sinkAtk <= rep.admitted, "sink saw %d packets, router admitted %d", run.sinkLegit+run.sinkAtk, rep.admitted)
	if w.attackPaths == 0 {
		res.check(legitFrac >= 0.99, "the uncongested link delivered only %.4f of the packets sent", legitFrac)
	} else {
		// The paper's differential guarantee, as a checked output.
		res.check(legitFrac-attackFrac >= 0.3, "legitimate delivery %.3f does not exceed attack delivery %.3f by 0.3", legitFrac, attackFrac)
	}
	if w.limited {
		res.check(rep.metricSum("floc_cluster_limit_dropped_total") > 0, "no packet was dropped by an installed limit")
		res.check(rep.metricSum("floc_cluster_feedback_applied_total") > 0, "no feedback record was applied")
	}
	if b.trace != 0 {
		if err := b.traceWorkload(w, tr, "", res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (b *bench) runReplayWorkload(ctx context.Context, w workload) (*result, error) {
	tr, run, setupS, err := runReplay(ctx, b.bin, b.tmp, w, b.seed, w.capPackets, b.seconds)
	if err != nil {
		return nil, err
	}
	pkts := float64(run.packets)
	med := func(of func(usage) float64) float64 {
		xs := make([]float64, len(run.uses))
		for i, u := range run.uses {
			xs[i] = of(u)
		}
		return median(xs)
	}
	res := &result{
		workload:  w.name,
		attempted: run.packets * int64(len(run.uses)),
		vals: values{
			"setup_s":        setupS,
			"cpu_us_per_pkt": med(usage.cpuS) * 1e6 / pkts,
			"delivered_frac": 1, // replayOnce rejects a replay that processed fewer
			"throughput_pps": pkts / med(func(u usage) float64 { return u.wallS }),
			"peak_rss_mb":    med(func(u usage) float64 { return u.rssMB }),

			"flocd.user_us_per_pkt":            med(func(u usage) float64 { return u.userS }) * 1e6 / pkts,
			"flocd.sys_us_per_pkt":             med(func(u usage) float64 { return u.sysS }) * 1e6 / pkts,
			"flocd.replay_admitted_rel_spread": relSpread(run.admitted),
		},
	}
	if b.trace != 1 {
		legit, attack, err := replayDelivery(ctx, b.bin, b.tmp, w, tr)
		if err != nil {
			return nil, err
		}
		legitFrac := float64(legit) / float64(tr.legit)
		attackFrac := float64(attack) / float64(tr.attack)
		res.vals["legit_delivery_frac"] = legitFrac
		res.vals["attack_blocked_frac"] = 1 - attackFrac
		res.check(legitFrac-attackFrac >= 0.3, "legitimate delivery %.3f does not exceed attack delivery %.3f by 0.3", legitFrac, attackFrac)
		// Replay is not bit-reproducible (batch boundaries follow the wall
		// clock), so the ledger run is compared within a tolerance.
		res.check(math.Abs(float64(legit+attack)/median(run.admitted)-1) <= 0.05, "ledger replay admitted %d, timed replays %.0f", legit+attack, median(run.admitted))
	}
	if b.trace != 0 {
		if err := b.traceWorkload(w, tr, capturePath(b.tmp), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pipelineStages are the span names of runPipeline's stages, batch spans
// excluded; runModules' spans are not part of the pipeline.
var pipelineStages = []string{
	"wire.decode", "wire.capture_next", "wire.intern", "wire.to_packet",
	"dataplane.enqueue", "dataplane.drain_wait", "wire.from_packet", "wire.marshal",
	"dataplane.snapshot_barrier", "cluster.publish", "cluster.handle_frame",
}

// traceWorkload runs the in-process passes and adds the per-layer metrics.
func (b *bench) traceWorkload(w workload, tr *traffic, capture string, res *result) error {
	untraced, err := runPipeline(w, tr, capture, nil)
	if err != nil {
		return err
	}
	tc := &tracer{workload: w.name}
	ps, err := runPipeline(w, tr, capture, tc)
	if err != nil {
		return err
	}
	cs, err := runModules(w, tr, tc)
	if err != nil {
		return err
	}
	if err := tc.write(b.traceOut); err != nil {
		return err
	}

	self := selfTimes(tc.spans)
	calls := make(map[string]float64)
	for _, s := range tc.spans {
		calls[s.Name]++
	}
	pkts := float64(ps.packets)
	fwd := float64(ps.forwarded)
	per := func(name string, den float64) float64 { return ratio(float64(self[name]), den) }
	perCallUS := func(name string) float64 { return ratio(float64(self[name]), calls[name]) / 1e3 }

	// The engine pass's stages; their self times are what the in-process
	// pipeline spends per packet.
	var stageNS int64
	for _, name := range pipelineStages {
		stageNS += self[name]
	}
	stageUS := float64(stageNS) / 1e3 / pkts

	v := res.vals
	v["wire.decode_ns"] = per("wire.decode", pkts)
	v["wire.intern_ns"] = per("wire.intern", pkts)
	v["wire.intern_miss_frac"] = float64(ps.internMisses) / pkts
	v["wire.to_packet_ns"] = per("wire.to_packet", pkts)
	v["wire.ingest_allocs_per_pkt"] = float64(ps.ingestAllocs) / pkts
	v["wire.ingest_bytes_per_pkt"] = float64(ps.ingestBytes) / pkts
	v["wire.from_packet_ns"] = per("wire.from_packet", fwd)
	v["wire.marshal_ns"] = per("wire.marshal", fwd)
	v["wire.egress_frac"] = fwd / pkts
	v["wire.capture_next_ns"] = per("wire.capture_next", pkts)
	v["dataplane.enqueue_ns"] = per("dataplane.enqueue", pkts)
	v["dataplane.drain_wait_ns"] = per("dataplane.drain_wait", pkts)
	v["dataplane.pipeline_ns"] = v["dataplane.enqueue_ns"] + v["dataplane.drain_wait_ns"]
	v["dataplane.ring_drop_frac"] = ratio(float64(ps.stats.RingDrops), float64(ps.stats.Accepted+ps.stats.RingDrops))
	v["dataplane.snapshot_barrier_us"] = perCallUS("dataplane.snapshot_barrier")
	v["dataplane.install_limit_us"] = float64(ps.installNS) / 1e3
	v["dataplane.intern_path_us"] = ratio(float64(ps.internPathNS), float64(ps.internMisses)) / 1e3
	v["core.enqueue_batch_ns"] = per("core.enqueue_batch", float64(cs.arrived))
	v["core.allocs_per_pkt"] = ratio(float64(cs.allocs), float64(cs.arrived))
	v["core.admit_frac"] = ratio(float64(cs.admitted), float64(cs.arrived))
	v["core.dequeue_ns"] = per("core.dequeue", float64(cs.dequeued))
	v["defense.bank_admit_ns"] = per("defense.bank_admit", float64(cs.bankAttempts))
	v["defense.bank_shed_frac"] = ratio(float64(cs.bankDrops), float64(cs.bankAttempts))
	v["dropfilter.record_ns"] = per("dropfilter.record", float64(tr.attack))
	v["dropfilter.query_ns"] = per("dropfilter.query", pkts-float64(tr.probes))
	v["dropfilter.record_per_pkt"] = ratio(float64(cs.recordOps), float64(cs.arrived))
	v["dropfilter.query_per_pkt"] = ratio(float64(cs.queryOps), float64(cs.arrived))
	v["cluster.handle_frame_us"] = perCallUS("cluster.handle_frame")
	v["cluster.publish_us"] = perCallUS("cluster.publish")
	v["telemetry.write_text_us"] = float64(ps.writeTextNS) / 1e3
	v["bench.stage_sum_us_per_pkt"] = stageUS
	v["flocd.unattributed_us_per_pkt"] = v["cpu_us_per_pkt"] - stageUS
	v["bench.build_s"] = b.buildS
	v["bench.trace_overhead_frac"] = float64(ps.wallNS-untraced.wallNS) / float64(untraced.wallNS)

	res.check(ps.packets == int64(len(tr.sched)), "the in-process pipeline saw %d of %d packets", ps.packets, len(tr.sched))
	if w.live {
		res.check(calls["wire.capture_next"] == 0 && calls["wire.decode"] > 0, "a live workload must decode datagrams, not parse a capture")
	} else {
		res.check(calls["wire.marshal"] == 0 && self["wire.capture_next"] > 0, "the replay workload must parse a capture and never reach egress")
	}
	return nil
}

// print writes the result's metrics as "workload metric value unit" lines
// followed by the JSON object, and reports whether every check held.
func (b *bench) print(res *result) bool {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(res.failures) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	var defs []metricDef
	if b.trace != 1 {
		defs = append(defs, endToEnd...)
	}
	if b.trace != 0 {
		defs = append(defs, perLayer...)
	}
	for _, d := range defs {
		v := res.vals[d.name] // a stage the workload bypasses reports 0
		fmt.Printf("%s %s %.6g %s\n", res.workload, d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: CHECK FAILED: %s\n", res.workload, f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	fmt.Println(string(line))
	return out.Correct
}

// removeAll is os.RemoveAll for deferred clean-up; a leftover temp file is
// reported, not fatal.
func removeAll(path string) {
	if err := os.RemoveAll(path); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: clean-up:", err)
	}
}
