package dataplane

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
	"floc/internal/units"
)

// arrival is one scripted packet arrival.
type arrival struct {
	pkt netsim.Packet
	at  float64
}

// genScenario scripts a deterministic CBR mix: each of nPaths paths sends
// a packet every interval seconds for the given duration. Path p's
// packets come from src p+1; sizes are fixed at 1000 bytes.
func genScenario(nPaths int, interval, duration float64) []arrival {
	var out []arrival
	id := uint64(0)
	for t := 0.0; t < duration; t += interval {
		for p := 0; p < nPaths; p++ {
			path := pathid.New(pathid.ASN(100+p), pathid.ASN(10+p%3), 1)
			id++
			out = append(out, arrival{
				at: t,
				pkt: netsim.Packet{
					ID: id, Src: uint32(p + 1), Dst: 9999, Size: 1000,
					Kind: netsim.KindUDP, Path: path, PathKey: path.Key(),
				},
			})
		}
	}
	return out
}

// runBaseline feeds the scenario through one core.Router with the same
// serve-then-enqueue interleaving a Batch=1 shard uses.
func runBaseline(t *testing.T, cfg core.Config, sc []arrival, end float64) core.Snapshot {
	t.Helper()
	r, err := core.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rateBytes := units.BitsPerSec(cfg.LinkRateBits).BytesPerSec()
	free := 0.0
	serve := func(now float64) {
		for free <= now {
			pkt := r.Dequeue(free)
			if pkt == nil {
				free = now
				return
			}
			free += float64(pkt.Size) / rateBytes
		}
	}
	for i := range sc {
		pkt := sc[i].pkt
		serve(sc[i].at)
		r.Enqueue(&pkt, sc[i].at)
	}
	serve(end)
	return r.Snapshot()
}

// runEngine feeds the scenario through an engine, packet by packet, and
// returns the merged snapshot after a full flush.
func runEngine(t *testing.T, cfg Config, sc []arrival, end float64) (core.Snapshot, Stats) {
	t.Helper()
	return runEngineVia(t, cfg, sc, end, viaEnqueue, false)
}

// frontEnd is how a test hands packets to the engine.
type frontEnd int

const (
	viaEnqueue frontEnd = iota // Engine.Enqueue, packet by packet
	viaBurst                   // one producer's Burst, flushed at the end
	viaQuiesce                 // one producer's Burst, cut at seeded random points (cutBurst)
)

// runEngineVia is runEngine with the choice of front end. With reuse one
// packet carries the whole scenario and is scribbled over as soon as each
// hand-in returns, which the engine's copy must not see.
func runEngineVia(t *testing.T, cfg Config, sc []arrival, end float64, via frontEnd, reuse bool) (core.Snapshot, Stats) {
	t.Helper()
	if via == viaQuiesce && cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	b, cut := e.NewBurst(), rng.New(11)
	var one netsim.Packet
	for i := range sc {
		pkt := &one
		if !reuse {
			pkt = new(netsim.Packet)
		}
		*pkt = sc[i].pkt
		if via == viaEnqueue {
			e.Enqueue(pkt, sc[i].at)
		} else {
			b.Enqueue(pkt, sc[i].at)
		}
		if reuse {
			scribble(pkt)
		}
		if via == viaQuiesce {
			cutBurst(e, b, cut, 16)
		}
	}
	if via == viaQuiesce {
		b.Quiesce()
		wentBothWays(t, e)
	} else {
		b.Flush()
	}
	e.Advance(end)
	return e.Snapshot(), e.Stats()
}

// parkWorkers returns once every shard's worker has drained its ring and
// parked, so that the next Quiesce finds every role free. A worker sets
// sleeping before it lets the role go, so the role is what says parked.
func parkWorkers(e *Engine) {
	e.Drain()
	for _, sh := range e.shards {
		for !sh.sleeping.Load() || !sh.role.TryLock() {
			runtime.Gosched()
		}
		sh.role.Unlock()
	}
}

// cutBurst cuts one producer's stream here with probability 3 in every:
// a Flush (hand off to the ring), a Quiesce that goes whichever way the
// workers happen to allow, or a Quiesce behind parked workers, which goes
// inline for certain.
func cutBurst(e *Engine, b *Burst, cut *rng.Source, every int) {
	switch cut.Intn(every) {
	case 0:
		b.Flush()
	case 1:
		b.Quiesce()
	case 2:
		parkWorkers(e)
		b.Quiesce()
	}
}

// shardCounters sums one per-shard counter family over the engine's shards.
func shardCounters(e *Engine, family string) int64 {
	n := int64(0)
	for i := range e.shards {
		n += e.cfg.Telemetry.CounterValue(fmt.Sprintf(`%s{shard="%d"}`, family, i))
	}
	return n
}

// wentBothWays fails a cut-stream run in which no run was processed inline
// or no doorbell ever woke a worker: it would compare nothing.
func wentBothWays(t *testing.T, e *Engine) {
	t.Helper()
	inline := shardCounters(e, "floc_dataplane_inline_runs_total")
	woken := shardCounters(e, "floc_dataplane_worker_wakeups_total")
	if inline == 0 || woken == 0 {
		t.Fatalf("%d inline runs, %d worker wake-ups: the cut points did not exercise both hand-offs", inline, woken)
	}
}

func testRouterConfig() core.Config {
	cfg := core.DefaultConfig(8e6, 64) // 1000 packets/s aggregate
	cfg.Seed = 42
	return cfg
}

func TestConfigValidation(t *testing.T) {
	base := Config{Router: testRouterConfig()}
	cases := []struct {
		name string
		mod  func(*Config)
		ok   bool
	}{
		{"defaults", func(c *Config) {}, true},
		{"negative-shards", func(c *Config) { c.Shards = -1 }, false},
		{"ring-not-pow2", func(c *Config) { c.Shards = 1; c.RingSize = 100 }, false},
		{"ring-one", func(c *Config) { c.Shards = 1; c.RingSize = 1 }, false},
		{"negative-batch", func(c *Config) { c.Shards = 1; c.Batch = -1 }, false},
		{"capacity-too-thin", func(c *Config) { c.Shards = 32 }, false},
		{"bad-router", func(c *Config) { c.Shards = 1; c.Router.Capacity = 2 }, false},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		e, err := New(cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if e != nil {
			if tc.name == "defaults" && e.Shards() != runtime.GOMAXPROCS(0) {
				t.Errorf("defaults: %d shards, want GOMAXPROCS %d", e.Shards(), runtime.GOMAXPROCS(0))
			}
			e.Close()
		}
	}
}

func TestOneShardMatchesSingleRouterExactly(t *testing.T) {
	// Congested scenario: 8 paths x ~250 pkt/s against a 1000 pkt/s link.
	rc := testRouterConfig()
	sc := genScenario(8, 0.004, 3.0)
	end := 3.5
	want := runBaseline(t, rc, sc, end)
	if want.Drops["no-token"]+want.Drops["preferential"]+want.Drops["random-threshold"] == 0 {
		t.Fatal("scenario did not congest the baseline; test has no teeth")
	}
	// The transmitter is served to every packet's own arrival time, so
	// neither the admission batch size nor the burst front end — which
	// change where the batches are cut — nor who admits a run, the worker
	// or a quiescing producer, may show in the result.
	for _, tc := range []struct {
		name  string
		batch int
		via   frontEnd
	}{{"batch-1", 1, viaEnqueue}, {"batch-64", 64, viaEnqueue}, {"burst", 64, viaBurst}, {"quiesce", 64, viaQuiesce}} {
		got, stats := runEngineVia(t, Config{
			Router: rc, Shards: 1, Batch: tc.batch, BlockOnFull: true,
		}, sc, end, tc.via, false)
		if int(stats.RingDrops) != 0 {
			t.Fatalf("%s: ring drops %d under BlockOnFull", tc.name, stats.RingDrops)
		}
		if stats.Accepted != int64(len(sc)) || stats.Processed != int64(len(sc)) {
			t.Fatalf("%s: accepted %d, processed %d of %d", tc.name, stats.Accepted, stats.Processed, len(sc))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: 1-shard engine diverged from single router:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// TestRingDepthIsInvisible: a BlockOnFull ring's depth decides when its
// producer waits, never what a shard decides. Each shard admits its
// ring's FIFO order and serves the transmitter to every packet's own
// arrival time, so a congested run reads the same at 2 slots a shard, at
// liveRingSize and at the default budget: at one shard the same as a
// plain core.Router, at two the same as each other.
func TestRingDepthIsInvisible(t *testing.T) {
	rc := testRouterConfig()
	sc := genScenario(8, 0.004, 3.0)
	end := 3.5
	want := runBaseline(t, rc, sc, end)
	for _, shards := range []int{1, 2} {
		var first core.Snapshot
		for i, ring := range []int{2, liveRingSize, 0} {
			got, stats := runEngineVia(t, Config{
				Router: rc, Shards: shards, RingSize: ring, BlockOnFull: true,
			}, sc, end, viaBurst, false)
			name := fmt.Sprintf("%d shards, ring %d", shards, ring)
			if stats.RingDrops != 0 || stats.Processed != int64(len(sc)) {
				t.Fatalf("%s: stats %+v, want all %d processed", name, stats, len(sc))
			}
			if got.Drops["no-token"]+got.Drops["preferential"]+got.Drops["random-threshold"] == 0 {
				t.Fatalf("%s: the scenario did not congest; the test has no teeth", name)
			}
			switch {
			case shards == 1 && !reflect.DeepEqual(got, want):
				t.Fatalf("%s: diverged from a single router:\n got %+v\nwant %+v", name, got, want)
			case i == 0:
				first = got
			case !reflect.DeepEqual(got, first):
				t.Fatalf("%s: diverged from ring 2:\n got %+v\nwant %+v", name, got, first)
			}
		}
	}
}

// TestDefaultRingDepth pins the default rule: BlockOnFull engines split
// replayRingBudget over their shards in powers of two, never below
// liveRingSize a shard; drop-on-full engines keep liveRingSize at every
// shard count; a caller's RingSize is left alone.
func TestDefaultRingDepth(t *testing.T) {
	for _, tc := range []struct{ shards, block int }{
		{1, 16384}, {2, 8192}, {3, 4096}, {4, 4096}, {64, 1024},
	} {
		for block, want := range map[bool]int{true: tc.block, false: 1024} {
			cfg := Config{Shards: tc.shards, BlockOnFull: block}.withDefaults()
			if cfg.RingSize != want {
				t.Errorf("%d shards, BlockOnFull %v: ring %d, want %d", tc.shards, block, cfg.RingSize, want)
			}
		}
	}
	if got := (Config{Shards: 2, RingSize: 64, BlockOnFull: true}).withDefaults().RingSize; got != 64 {
		t.Errorf("caller's RingSize 64 resolved to %d", got)
	}
}

// pathTally extracts per-path admit/drop counters.
func pathTally(s core.Snapshot) map[string][2]int64 {
	out := make(map[string][2]int64, len(s.Paths))
	for _, p := range s.Paths {
		out[p.Key] = [2]int64{p.AdmittedPackets, p.DroppedPackets}
	}
	return out
}

func TestShardCountInvariantTallies(t *testing.T) {
	// Shard-invariant scenario: 12 paths x 12.5 pkt/s against a 1000
	// pkt/s link, with a buffer large enough that even a 1/8 slice of it
	// keeps its Q_min above any same-tick arrival burst. Every shard then
	// stays uncongested and admits everything, so per-path tallies must
	// agree between the single-router baseline and any shard count. (A
	// congested scenario is deliberately not shard-invariant: each shard
	// classifies congestion against its own slice of the buffer — that
	// semantic difference is covered by the exact 1-shard test above.)
	rc := core.DefaultConfig(8e6, 512)
	rc.Seed = 42
	sc := genScenario(12, 0.08, 4.0)
	end := 5.0
	want := pathTally(runBaseline(t, rc, sc, end))

	var first core.Snapshot
	for _, shards := range []int{1, 8} {
		snap, stats := runEngine(t, Config{
			Router: rc, Shards: shards, BlockOnFull: true,
		}, sc, end)
		if got := pathTally(snap); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: per-path tallies diverge:\n got %v\nwant %v", shards, got, want)
		}
		if snap.Arrived != int64(len(sc)) || snap.Admitted != int64(len(sc)) {
			t.Fatalf("%d shards: arrived=%d admitted=%d, want both %d",
				shards, snap.Arrived, snap.Admitted, len(sc))
		}
		if stats.Processed != int64(len(sc)) || stats.RingDrops != 0 {
			t.Fatalf("%d shards: stats %+v", shards, stats)
		}
		if shards == 8 {
			first = snap
		}
	}

	// Determinism: the same 8-shard run replays to an identical merged
	// snapshot even though worker interleaving differs.
	again, _ := runEngine(t, Config{Router: rc, Shards: 8, BlockOnFull: true}, sc, end)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("8-shard merged snapshot not deterministic:\n run1 %+v\n run2 %+v", first, again)
	}
}

func TestShardingSpreadsPaths(t *testing.T) {
	e, err := New(Config{Router: testRouterConfig(), Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	hit := make([]int, 8)
	for p := 0; p < 256; p++ {
		path := pathid.New(pathid.ASN(p), 1)
		s := e.ShardOf(path)
		if s != pathShard(path, 8) {
			t.Fatal("ShardOf disagrees with pathShard")
		}
		hit[s]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Fatalf("shard %d never hit by 256 distinct paths: %v", s, hit)
		}
	}
	// Same path always maps to the same shard.
	p := pathid.New(7, 3, 1)
	if e.ShardOf(p) != e.ShardOf(pathid.New(7, 3, 1)) {
		t.Fatal("shard mapping not stable")
	}
}

func TestBackpressureAccounting(t *testing.T) {
	// Non-blocking mode with a minimal ring: every offered packet must be
	// accounted as either accepted or ring-dropped, never lost — whether
	// it is offered alone or in a burst the ring has no room for.
	for _, burst := range []bool{false, true} {
		reg := telemetry.NewRegistry()
		e, err := New(Config{Router: testRouterConfig(), Shards: 1, RingSize: 2, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		const offered = 20000
		accepted := 0
		b := e.NewBurst()
		for i := 0; i < offered; i++ {
			path := pathid.New(pathid.ASN(i%4), 1)
			pkt := &netsim.Packet{ID: uint64(i), Src: 1, Dst: 2, Size: 1000,
				Kind: netsim.KindUDP, Path: path, PathKey: path.Key()}
			if burst {
				b.Enqueue(pkt, float64(i)*1e-5)
			} else if e.Enqueue(pkt, float64(i)*1e-5) {
				accepted++
			}
		}
		b.Flush()
		e.Drain()
		st := e.Stats()
		if !burst && st.Accepted != int64(accepted) {
			t.Fatalf("stats accepted %d, Enqueue said %d", st.Accepted, accepted)
		}
		if st.Accepted == 0 || st.RingDrops == 0 {
			t.Fatalf("burst=%v: accepted %d, dropped %d: the ring never filled or never drained", burst, st.Accepted, st.RingDrops)
		}
		if st.Accepted+st.RingDrops != offered {
			t.Fatalf("burst=%v: accounting leak: accepted %d + drops %d != offered %d",
				burst, st.Accepted, st.RingDrops, offered)
		}
		if st.Processed != st.Accepted {
			t.Fatalf("burst=%v: processed %d != accepted %d after Drain", burst, st.Processed, st.Accepted)
		}
		if got := reg.CounterValue(`floc_dataplane_ring_full_drops_total{shard="0"}`); got != st.RingDrops {
			t.Fatalf("burst=%v: telemetry ring-drop counter %d != stats %d", burst, got, st.RingDrops)
		}
		e.Close()
		if e.Enqueue(&netsim.Packet{Size: 1, Kind: netsim.KindUDP}, 0) {
			t.Fatal("Enqueue accepted a packet after Close")
		}
		// A Burst cannot tell its caller, so what it still holds when the
		// engine is closed is counted as dropped at the ring.
		b.Enqueue(&netsim.Packet{Size: 1, Kind: netsim.KindUDP}, 0)
		b.Flush()
		want := st
		want.RingDrops++
		if after := e.Stats(); after != want {
			t.Fatalf("burst=%v: one packet flushed after Close: stats %+v -> %+v, want %+v", burst, st, after, want)
		}
		if got := reg.CounterValue(`floc_dataplane_ring_full_drops_total{shard="0"}`); got != want.RingDrops {
			t.Fatalf("burst=%v: telemetry ring-drop counter %d != stats %d after Close", burst, got, want.RingDrops)
		}
	}
}

// TestBurstCountsWhatCloseDiscards: a producer that is still handing
// packets to a Burst when the engine closes — in mid-run, yielding on a
// full ring under BlockOnFull, quiescing, or arriving afterwards — loses
// none of them uncounted, and what was accepted was processed.
func TestBurstCountsWhatCloseDiscards(t *testing.T) {
	for _, block := range []bool{false, true} {
		reg := telemetry.NewRegistry()
		e, err := New(Config{Router: testRouterConfig(), Shards: 2, RingSize: 8, BlockOnFull: block, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		const handed = 50_000
		loaded, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			b := e.NewBurst()
			for i := 0; i < handed; i++ {
				if i == handed/10 {
					close(loaded)
				}
				path := pathid.New(pathid.ASN(i%8), 1)
				b.Enqueue(&netsim.Packet{ID: uint64(i), Src: 1, Dst: 2, Size: 1000,
					Kind: netsim.KindUDP, Path: path, PathKey: path.Key()}, float64(i)*1e-5)
				if i%53 == 52 {
					b.Quiesce()
				}
			}
			b.Flush()
		}()
		<-loaded
		e.Close()
		<-done
		st := e.Stats()
		if st.Accepted+st.RingDrops != handed {
			t.Fatalf("block=%v: accepted %d + ring drops %d != %d packets handed to Enqueue",
				block, st.Accepted, st.RingDrops, handed)
		}
		if st.Accepted == 0 || st.RingDrops == 0 {
			t.Fatalf("block=%v: accepted %d, dropped %d: the engine did not close under load", block, st.Accepted, st.RingDrops)
		}
		counted := reg.CounterValue(`floc_dataplane_ring_full_drops_total{shard="0"}`) +
			reg.CounterValue(`floc_dataplane_ring_full_drops_total{shard="1"}`)
		if counted != st.RingDrops {
			t.Fatalf("block=%v: telemetry ring-drop counters %d != stats %d", block, counted, st.RingDrops)
		}
		if st.Processed != st.Accepted {
			t.Fatalf("block=%v: processed %d != accepted %d after Close", block, st.Processed, st.Accepted)
		}
		// The workers cleared sleeping on their way out, so a Quiesce after
		// Close cannot take the role of a worker that is gone: its run is
		// counted with the ring's drops like a Flush's.
		for i, sh := range e.shards {
			if sh.sleeping.Load() {
				t.Fatalf("block=%v: shard %d's worker exited with sleeping set", block, i)
			}
		}
		b := e.NewBurst()
		b.Enqueue(&netsim.Packet{Size: 1, Kind: netsim.KindUDP}, 0)
		b.Quiesce()
		want := st
		want.RingDrops++
		if after := e.Stats(); after != want {
			t.Fatalf("block=%v: one packet quiesced after Close: stats %+v -> %+v, want %+v", block, st, after, want)
		}
	}
}

// TestRingFullYieldsCounted: under BlockOnFull a producer that finds its
// ring full yields until the worker frees a slot, and every yield counts
// on floc_dataplane_ring_full_yields_total{shard}, exported from the
// start; nothing is dropped and what was accepted was processed. Without
// BlockOnFull the packet is a ring drop and no yield is counted. The
// worker is held in a command while the ring fills, so that the ring is
// full for certain, not by a race.
func TestRingFullYieldsCounted(t *testing.T) {
	const (
		ringSize = 8
		yields   = `floc_dataplane_ring_full_yields_total{shard="0"}`
	)
	for _, block := range []bool{false, true} {
		reg := telemetry.NewRegistry()
		e, err := New(Config{Router: testRouterConfig(), Shards: 1, RingSize: ringSize, BlockOnFull: block, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		var text strings.Builder
		if err := reg.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text.String(), yields+" 0\n") {
			t.Fatalf("block=%v: %s is not exported at 0", block, yields)
		}
		release, done := make(chan struct{}), make(chan struct{})
		e.shards[0].cmds <- func(*shard) { <-release }
		go func() {
			defer close(done)
			for i := 0; i <= ringSize; i++ {
				path := pathid.New(pathid.ASN(i%4), 1)
				e.Enqueue(&netsim.Packet{ID: uint64(i), Src: 1, Dst: 2, Size: 1000,
					Kind: netsim.KindUDP, Path: path, PathKey: path.Key()}, float64(i)*1e-5)
			}
		}()
		if block {
			for reg.CounterValue(yields) == 0 { // the last packet is waiting on the full ring
				runtime.Gosched()
			}
		} else {
			<-done
		}
		close(release)
		<-done
		e.Drain()
		st, n := e.Stats(), reg.CounterValue(yields)
		t.Logf("block=%v: %d yields, %+v", block, n, st)
		if block && (n == 0 || st.RingDrops != 0 || st.Accepted != ringSize+1) ||
			!block && (n != 0 || st.RingDrops != 1 || st.Accepted != ringSize) {
			t.Fatalf("block=%v: %d yields, stats %+v for %d packets into a full ring of %d", block, n, st, ringSize+1, ringSize)
		}
		if st.Processed != st.Accepted {
			t.Fatalf("block=%v: processed %d != accepted %d", block, st.Processed, st.Accepted)
		}
		e.Close()
	}
}

func TestAdvanceFlushesQueues(t *testing.T) {
	rc := testRouterConfig()
	sc := genScenario(4, 0.01, 1.0)
	e, err := New(Config{Router: rc, Shards: 4, BlockOnFull: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := range sc {
		pkt := sc[i].pkt
		e.Enqueue(&pkt, sc[i].at)
	}
	e.Drain()
	e.Advance(1000)
	if snap := e.Snapshot(); snap.QueueLen != 0 {
		t.Fatalf("queue len %d after Advance far past end of input", snap.QueueLen)
	}
}

func TestTelemetryMergesAcrossShards(t *testing.T) {
	reg := telemetry.NewRegistry()
	rc := testRouterConfig()
	sc := genScenario(12, 0.04, 2.0)
	e, err := New(Config{Router: rc, Shards: 4, BlockOnFull: true, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc {
		pkt := sc[i].pkt
		e.Enqueue(&pkt, sc[i].at)
	}
	e.Advance(3.0)
	snap := e.Snapshot()
	e.Close()
	if got := reg.CounterValue("floc_router_arrived_packets_total"); got != snap.Arrived {
		t.Fatalf("registry arrived %d != merged snapshot %d", got, snap.Arrived)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "floc_router_arrived_packets_total") {
		t.Fatal("exposition text missing router counters")
	}
}

// TestShardFromHandleMatchesPathHash pins the property Enqueue's tag
// route rests on: InternPath mints a path's handle on the shard the path
// hashes to, so routing by the handle's tag and routing by the hash
// agree — and a handle no shard of the engine issued routes by the hash.
func TestShardFromHandleMatchesPathHash(t *testing.T) {
	foreign, err := core.NewRouter(testRouterConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	for _, shards := range []int{1, 2, 3, 8} {
		rc := core.DefaultConfig(8e6, 512)
		e, err := New(Config{Router: rc, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		used := make([]bool, shards)
		for i := 0; i < 10000; i++ {
			path := make(pathid.PathID, 1+src.Intn(6))
			for j := range path {
				path[j] = pathid.ASN(src.Uint64())
			}
			want := e.ShardOf(path)
			handle := e.InternPath(path)
			if handle == 0 || core.HandleTag(handle) != e.tags[want] {
				t.Fatalf("%d shards: path %v hashes to shard %d, InternPath minted %#x (shard tags %#x)", shards, path, want, handle, e.tags)
			}
			if got := e.shardFor(&netsim.Packet{Path: path, PathHandle: handle}); got != want {
				t.Fatalf("%d shards: path %v routed to shard %d by tag, %d by hash", shards, path, got, want)
			}
			used[want] = true
			// Handles that must not steer: none, another router's, a tag
			// no router of this engine has, and the bare tag (no index) of
			// a shard the path does not hash to.
			other := e.tags[(want+1)%shards]
			for _, h := range []uint32{0, foreign.InternPath(path), 0xfff00001, other} {
				if got := e.shardFor(&netsim.Packet{Path: path, PathHandle: h}); got != want {
					t.Fatalf("%d shards: path %v with handle %#x routed to shard %d, hash says %d", shards, path, h, got, want)
				}
			}
		}
		for i, u := range used {
			if !u {
				t.Errorf("%d shards: no path hashed to shard %d", shards, i)
			}
		}
		e.Close()
	}
}
