package dataplane

import (
	"runtime"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
)

// The ring is crossed once per packet in each direction; its staging,
// publish and batched pop must not allocate, and neither may the way
// around a worker: a producer's inline drain under the consumer role.

func TestZeroAllocRingOps(t *testing.T) {
	r := newRing(64)
	var pkt netsim.Packet
	var slots packetSlots
	dst := make([]core.BatchItem, 16)
	drain := func() {
		if n := r.dequeueBatch(dst, &slots); n != 16 {
			t.Fatalf("dequeued %d of 16", n)
		}
		for _, it := range dst {
			slots.release(it.Pkt)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			if !push(r, &pkt, 1.0) {
				t.Fatal("ring unexpectedly full")
			}
		}
		drain()
		// 16 more published as one run.
		for i := 0; i < 16; i++ {
			it := r.stage()
			it.pkt, it.at = pkt, 1.0
		}
		if n, ok := r.publish(); n != 16 || !ok {
			t.Fatalf("published %d of 16", n)
		}
		drain()
	}); avg != 0 {
		t.Fatalf("ring push/pop allocates %.1f times per 16-packet cycle, want 0", avg)
	}
}

// TestZeroAllocBurstIngest: replay's steady state — the producer's Burst
// handing one reused packet after another to the rings of two workers,
// which copy each into a packet slot of their own, admit it against a
// congested link and, there being no egress sink, take the slot back —
// allocates nothing once the slots, the router tables and the rings are
// warm.
func TestZeroAllocBurstIngest(t *testing.T) {
	rc := core.DefaultConfig(80e6, 512) // 10 000 packets/s
	rc.Seed = 42
	e, err := New(Config{Router: rc, Shards: 2, BlockOnFull: true, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const nPaths, flowsPer, gap = 64, 8, 50e-6 // twice the link rate
	paths, handles := make([]pathid.PathID, nPaths), make([]uint32, nPaths)
	for p := range paths {
		paths[p] = pathid.New(pathid.ASN(10000+p), pathid.ASN(100+p/8), 1)
		handles[p] = e.InternPath(paths[p])
	}
	b := e.NewBurst()
	var pkt netsim.Packet
	sent := 0
	ingest := func(n int) {
		for end := sent + n; sent < end; sent++ {
			p := sent % nPaths
			pkt = netsim.Packet{
				ID: uint64(sent), Src: uint32(p)<<8 | uint32(sent/nPaths%flowsPer), Dst: 1,
				Size: 1000, Kind: netsim.KindUDP, Path: paths[p], PathHandle: handles[p],
			}
			b.Enqueue(&pkt, float64(sent)*gap)
		}
		b.Flush()
		for e.Stats().Processed != int64(sent) {
			runtime.Gosched()
		}
	}
	ingest(100_000)
	const perRun = 4096
	if avg := testing.AllocsPerRun(10, func() { ingest(perRun) }); avg != 0 {
		t.Fatalf("steady-state burst ingest allocates %.0f times per %d packets, want 0", avg, perRun)
	}
}

// TestZeroAllocLiveForward: flocd's live steady state — the producer's
// Burst handing one reused packet after another to two workers and
// quiescing after every short read of 32, so that each run is drained by
// the worker or inline, whichever the workers allow, against a congested
// link whose transmitted packets go to a Flusher sink — allocates nothing
// once warm: the sink copies at Emit, and the shard reuses those slots.
func TestZeroAllocLiveForward(t *testing.T) {
	sink := &bufferingSink{}
	rc := core.DefaultConfig(80e6, 512) // 10 000 packets/s
	rc.Seed = 42
	e, err := New(Config{Router: rc, Shards: 2, BlockOnFull: true, Telemetry: telemetry.NewRegistry(), Egress: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const nPaths, flowsPer, gap, read = 64, 8, 50e-6, 32 // twice the link rate
	paths, handles := make([]pathid.PathID, nPaths), make([]uint32, nPaths)
	for p := range paths {
		paths[p] = pathid.New(pathid.ASN(10000+p), pathid.ASN(100+p/8), 1)
		handles[p] = e.InternPath(paths[p])
	}
	b := e.NewBurst()
	var pkt netsim.Packet
	sent := 0
	ingest := func(n int) {
		for end := sent + n; sent < end; {
			p := sent % nPaths
			pkt = netsim.Packet{
				ID: uint64(sent), Src: uint32(p)<<8 | uint32(sent/nPaths%flowsPer), Dst: 1,
				Size: 1000, Kind: netsim.KindUDP, Path: paths[p], PathHandle: handles[p],
			}
			b.Enqueue(&pkt, float64(sent)*gap)
			if sent++; sent%read == 0 {
				b.Quiesce()
			}
		}
		b.Quiesce()
		for e.Stats().Processed != int64(sent) {
			runtime.Gosched()
		}
	}
	ingest(100_000)
	const perRun = 4096
	if avg := testing.AllocsPerRun(10, func() { ingest(perRun) }); avg != 0 {
		t.Fatalf("steady-state forwarding allocates %.0f times per %d packets, want 0", avg, perRun)
	}
	if _, flushed := sink.counts(); flushed < sent/4 {
		t.Fatalf("%d of %d packets forwarded: the link did not transmit", flushed, sent)
	}
	if shardCounters(e, "floc_dataplane_inline_runs_total") == 0 {
		t.Fatal("no run was admitted inline: the gate did not measure the quiescing path")
	}
}

// TestZeroAllocQuiesce: a batch handed to a Burst and quiesced behind
// parked workers — run published, role taken, ring drained, transmitter
// served, role released, sink flushed — allocates nothing.
func TestZeroAllocQuiesce(t *testing.T) {
	cfg := limitTestConfig(2)
	cfg.Egress = &bufferingSink{}
	cfg.Telemetry = telemetry.NewRegistry()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const perRun = 16
	pkts := make([]*netsim.Packet, perRun)
	for i := range pkts {
		path := pathid.New(pathid.ASN(50+i%4), 5, 1)
		pkts[i] = limitPkt(path, e.InternPath(path), 1000)
	}
	b := e.NewBurst()
	parkWorkers(e)
	now, runs := 0.0, 0
	if avg := testing.AllocsPerRun(200, func() {
		for _, pkt := range pkts {
			now += 0.001
			b.Enqueue(pkt, now)
		}
		b.Quiesce()
		runs++
	}); avg != 0 {
		t.Fatalf("enqueue and quiesce of %d packets allocates %.1f times, want 0", perRun, avg)
	}
	if st := e.Stats(); st.Processed != int64(runs*perRun) {
		t.Fatalf("%d packets processed behind %d quiesces of %d", st.Processed, runs, perRun)
	}
	if got := shardCounters(e, "floc_dataplane_inline_runs_total"); got != int64(2*runs) {
		t.Fatalf("%d inline runs over %d quiesces of two shards: the gate did not measure the inline path", got, runs)
	}
}

// TestZeroAllocEnqueue: single-packet Enqueue without BlockOnFull into a
// ring of two — most packets find it full and are dropped and counted,
// the rest are admitted by the worker — allocates nothing once warm.
func TestZeroAllocEnqueue(t *testing.T) {
	e, err := New(Config{Router: testRouterConfig(), Shards: 1, RingSize: 2, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const nPaths = 4
	paths, handles := make([]pathid.PathID, nPaths), make([]uint32, nPaths)
	for p := range paths {
		paths[p] = pathid.New(pathid.ASN(p), 1)
		handles[p] = e.InternPath(paths[p])
	}
	var pkt netsim.Packet
	sent := 0
	offer := func(n int) {
		for end := sent + n; sent < end; sent++ {
			p := sent % nPaths
			pkt = netsim.Packet{ID: uint64(sent), Src: 1, Dst: 2, Size: 1000, Kind: netsim.KindUDP,
				Path: paths[p], PathHandle: handles[p]}
			e.Enqueue(&pkt, float64(sent)*1e-5)
		}
		for st := e.Stats(); st.Processed != st.Accepted; st = e.Stats() {
			runtime.Gosched()
		}
	}
	offer(20_000)
	before := e.Stats()
	const perRun = 2048
	if avg := testing.AllocsPerRun(10, func() { offer(perRun) }); avg != 0 {
		t.Fatalf("Enqueue of %d packets allocates %.0f times, want 0", perRun, avg)
	}
	st := e.Stats()
	if st.Accepted == before.Accepted || st.RingDrops == before.RingDrops {
		t.Fatalf("accepted %d and dropped %d while measured: the ring never filled or never drained",
			st.Accepted-before.Accepted, st.RingDrops-before.RingDrops)
	}
}
