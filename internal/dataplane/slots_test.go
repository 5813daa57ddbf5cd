package dataplane

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
)

// scribble overwrites a packet already handed to the engine, the way a
// producer reusing it for the next packet would.
func scribble(pkt *netsim.Packet) {
	*pkt = netsim.Packet{
		ID: ^uint64(0), Src: 0xdead, Dst: 0xbeef, Size: 1, Kind: netsim.KindSYN,
		Path: pathid.New(1), PathKey: "scribbled", PathHandle: ^uint32(0),
	}
}

// varySizes gives the scenario's packets seeded sizes of 64 to 1499
// bytes, so that a packet whose slot was taken again while it was queued
// would leave the link at another time.
func varySizes(sc []arrival, seed uint64) []arrival {
	src := rng.New(seed)
	for i := range sc {
		sc[i].pkt.Size = 64 + src.Intn(1436)
	}
	return sc
}

// slotsOwned reads shard i's floc_dataplane_packet_slots gauge from the
// registry of an engine built from cfg.
func slotsOwned(cfg Config, i int) int {
	return int(cfg.Telemetry.GaugeValue(fmt.Sprintf(`floc_dataplane_packet_slots{shard="%d"}`, i)))
}

// checkSlotBound fails if a shard of an engine built from cfg owns more
// packet slots than its share of the buffer, one batch and one allocation
// chunk.
func checkSlotBound(t *testing.T, cfg Config) {
	t.Helper()
	cfg = cfg.withDefaults()
	for i := 0; i < cfg.Shards; i++ {
		bound := cfg.Router.Capacity/cfg.Shards + cfg.Batch + slotChunk
		if got := slotsOwned(cfg, i); got > bound || got == 0 {
			t.Errorf("shard %d owns %d packet slots; want 1..%d", i, got, bound)
		}
	}
}

// checkingSink is a Flusher that holds the engine to the copy contract
// from the sink's side: it keeps only the copy it takes at Emit, never
// the packet, and checks each copy against the packets the producer sent
// — a slot handed out again while still queued would show as a packet
// that was never sent, or as one sent once and handed over twice.
type checkingSink struct {
	t       *testing.T
	mu      sync.Mutex
	sent    map[uint64]netsim.Packet // by ID
	seen    map[uint64]bool
	emitted int
	flushes int
	bad     int
}

func newCheckingSink(t *testing.T) *checkingSink {
	return &checkingSink{t: t, sent: map[uint64]netsim.Packet{}, seen: map[uint64]bool{}}
}

// sending records a packet the producer is about to hand in.
func (s *checkingSink) sending(pkt *netsim.Packet) {
	s.mu.Lock()
	s.sent[pkt.ID] = *pkt
	s.mu.Unlock()
}

func (s *checkingSink) Emit(pkt *netsim.Packet, _ float64) {
	got := *pkt
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emitted++
	want, ok := s.sent[got.ID]
	switch {
	case !ok || got.Size != want.Size || got.Src != want.Src || got.Path.Key() != want.Path.Key():
		s.fail("emitted %+v, which was never sent", got)
	case s.seen[got.ID]:
		s.fail("packet %d emitted twice", got.ID)
	}
	s.seen[got.ID] = true
}

func (s *checkingSink) fail(format string, args ...any) {
	if s.bad++; s.bad == 1 {
		s.t.Errorf(format, args...)
	}
}

func (s *checkingSink) Flush() {
	s.mu.Lock()
	s.flushes++
	s.mu.Unlock()
}

// handedEach fails unless the sink, flushed at least once, was handed
// every packet the engine admitted and no longer queues, once each.
func (s *checkingSink) handedEach(t *testing.T, snap core.Snapshot) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.emitted == 0 || s.flushes == 0 || int64(s.emitted) != snap.Admitted-int64(snap.QueueLen) {
		t.Fatalf("sink was handed %d packets over %d flushes; %d admitted, %d still queued",
			s.emitted, s.flushes, snap.Admitted, snap.QueueLen)
	}
}

// TestCallerMayReusePacket: Engine.Enqueue and Burst.Enqueue copy the
// packet, so a producer that overwrites it the moment the call returns
// leaves exactly the snapshot a producer handing in fresh packets leaves.
func TestCallerMayReusePacket(t *testing.T) {
	rc := testRouterConfig()
	sc := varySizes(genScenario(8, 0.004, 3.0), 3)
	for _, via := range []frontEnd{viaEnqueue, viaBurst, viaQuiesce} {
		cfg := Config{Router: rc, Shards: 2, BlockOnFull: true}
		fresh, _ := runEngineVia(t, cfg, sc, 3.5, via, false)
		reused, _ := runEngineVia(t, cfg, sc, 3.5, via, true)
		if fresh.Arrived != int64(len(sc)) || fresh.Admitted == fresh.Arrived {
			t.Fatalf("front end %d: %d of %d arrived, %d admitted: the scenario did not congest", via, fresh.Arrived, len(sc), fresh.Admitted)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("front end %d: reusing the packet changed the run:\nfresh  %+v\nreused %+v", via, fresh, reused)
		}
	}
}

// keepingSink keeps every packet it is handed, and a copy of each as it
// was when handed over.
type keepingSink struct {
	mu   sync.Mutex
	kept []*netsim.Packet
	as   []netsim.Packet
}

func (s *keepingSink) Emit(pkt *netsim.Packet, _ float64) {
	s.mu.Lock()
	s.kept = append(s.kept, pkt)
	s.as = append(s.as, *pkt)
	s.mu.Unlock()
}

// TestSinkOwnsEmittedPackets: a packet handed to the sink is the sink's.
// Behind a link offered four times its rate, most packets are dropped and
// their slots taken again at once; every packet the sink kept is still
// the one it was handed — ID, size and path — after more traffic and a
// Drain, and no slot was handed to it twice.
func TestSinkOwnsEmittedPackets(t *testing.T) {
	sink := &keepingSink{}
	e, err := New(Config{Router: testRouterConfig(), Shards: 2, RingSize: 64, BlockOnFull: true, Egress: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sc := varySizes(genScenario(8, 0.002, 4.0), 5)
	sent := make(map[uint64]*netsim.Packet, len(sc))
	for i := range sc {
		sent[sc[i].pkt.ID] = &sc[i].pkt
	}
	b := e.NewBurst()
	var one netsim.Packet
	feed := func(part []arrival) {
		for i := range part {
			one = part[i].pkt
			b.Enqueue(&one, part[i].at)
			scribble(&one)
			if i%97 == 0 {
				b.Quiesce()
			}
		}
		b.Flush()
		e.Drain()
	}
	half := len(sc) / 2
	feed(sc[:half])
	sink.mu.Lock()
	early := len(sink.kept)
	sink.mu.Unlock()
	feed(sc[half:])

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if early == 0 || len(sink.kept) == early {
		t.Fatalf("sink kept %d packets in the first half, %d in all: nothing to check across traffic", early, len(sink.kept))
	}
	if snap := e.Snapshot(); snap.Admitted*2 > snap.Arrived {
		t.Fatalf("%d of %d packets admitted: too few drops to recycle slots", snap.Admitted, snap.Arrived)
	}
	handed := make(map[*netsim.Packet]bool, len(sink.kept))
	for i, pkt := range sink.kept {
		if handed[pkt] {
			t.Fatalf("packet %d: a slot was handed to the sink twice", i)
		}
		handed[pkt] = true
		was, want := &sink.as[i], sent[sink.as[i].ID]
		if want == nil || was.Size != want.Size || was.Path.Key() != want.Path.Key() {
			t.Fatalf("packet %d left the link as %+v, no such packet was sent", i, *was)
		}
		if pkt.ID != was.ID || pkt.Size != was.Size || pkt.Path.Key() != was.Path.Key() {
			t.Fatalf("packet %d: the sink was handed %d (%d bytes, %s) and now holds %d (%d bytes, %s)",
				i, was.ID, was.Size, was.Path.Key(), pkt.ID, pkt.Size, pkt.Path.Key())
		}
	}
}

// TestPacketSlotsBounded: replay_mix in miniature — 200 000 packets on 64
// paths at twice the link rate through a 2-shard engine with a buffer of
// 480, from the Burst cut now and then by a Flush or a Quiesce — leaves
// each shard owning at most its 240-packet share of the buffer, one batch
// of 4 and one allocation chunk of packet slots, however many packets
// went through: with no egress sink, and with a Flusher sink, which
// copies at Emit and so holds no slot at all. The share is 16 short of a
// chunk boundary: an engine that held a run's emitted packets until the
// Flush after them would pass it by some 30 slots at an inline drain and
// own a fifth chunk, over the bound.
func TestPacketSlotsBounded(t *testing.T) {
	t.Run("no-sink", func(t *testing.T) { packetSlotsBounded(t, nil) })
	t.Run("flusher", func(t *testing.T) {
		sink := newCheckingSink(t)
		sink.handedEach(t, packetSlotsBounded(t, sink))
	})
}

func packetSlotsBounded(t *testing.T, sink *checkingSink) core.Snapshot {
	rc := core.DefaultConfig(80e6, 480) // 10 000 packets/s
	rc.Seed = 42
	cfg := Config{Router: rc, Shards: 2, RingSize: 1024, Batch: 4, BlockOnFull: true, Telemetry: telemetry.NewRegistry()}
	if sink != nil {
		cfg.Egress = sink
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const nPaths, flowsPer, packets, gap = 64, 8, 200_000, 50e-6
	paths, handles := make([]pathid.PathID, nPaths), make([]uint32, nPaths)
	for p := range paths {
		paths[p] = pathid.New(pathid.ASN(10000+p), pathid.ASN(100+p/8), 1)
		handles[p] = e.InternPath(paths[p])
	}
	b, cut := e.NewBurst(), rng.New(13)
	var pkt netsim.Packet
	for i := 0; i < packets; i++ {
		p := i % nPaths
		pkt = netsim.Packet{
			ID: uint64(i), Src: uint32(p)<<8 | uint32(i/nPaths%flowsPer), Dst: 1,
			Size: 1000, Kind: netsim.KindUDP, Path: paths[p], PathHandle: handles[p],
		}
		if sink != nil {
			sink.sending(&pkt)
		}
		b.Enqueue(&pkt, float64(i)*gap)
		cutBurst(e, b, cut, 1024)
	}
	b.Flush()
	e.Drain()
	snap := e.Snapshot()
	if snap.Arrived != packets || snap.QueueLen == 0 {
		t.Fatalf("%d of %d packets arrived, %d queued at the end: the buffer was not in use", snap.Arrived, packets, snap.QueueLen)
	}
	checkSlotBound(t, cfg)
	t.Logf("packet slots owned: %d and %d", slotsOwned(cfg, 0), slotsOwned(cfg, 1))
	return snap
}

// TestRecycleUnderFire: a buffer of 8 behind rings of 16, offered ten times
// the link, so that nearly every packet is dropped and its slot taken
// again at once, from the producer handing in one reused packet and
// cutting its stream with Flush and Quiesce at seeded points. At one
// shard the engine decides exactly what a plain core.Router given the
// same arrivals decides: a slot handed out again while still queued would
// change the size or the time of a packet in the queue, and so the
// snapshot. At two shards the producer multiplexes three sources; blocking
// on full rings, it decides exactly what the same engine fed without cuts
// decides, and dropping on them it loses nothing and counts nothing
// twice. Either way the slots stay bounded. Each runs again with a
// Flusher sink, which must be handed, once each, every admitted packet
// not still queued, each as it was sent. That the link is under fire is
// read off the baseline, which the arrivals alone decide.
func TestRecycleUnderFire(t *testing.T) {
	rc := core.DefaultConfig(8e6, 8) // 1 000 packets/s of 1 000 bytes
	rc.Seed = 42
	one := varySizes(genScenario(8, 0.0008, 2.0), 17) // 10 000 packets/s
	three := threeSources(60000)
	for _, tc := range []struct {
		name    string
		cfg     Config
		sc      []arrival
		flusher bool
	}{
		{"one-producer", Config{Router: rc, Shards: 1, RingSize: 16, BlockOnFull: true}, one, false},
		// Batches of 4: an inline drain admits several batches before its
		// one Flush, and every slot emitted in them is reused meanwhile.
		{"one-producer-flusher", Config{Router: rc, Shards: 1, RingSize: 16, Batch: 4, BlockOnFull: true}, one, true},
		{"three-producers", Config{Router: rc, Shards: 2, RingSize: 16}, three, false},
		{"three-producers-flusher", Config{Router: rc, Shards: 2, RingSize: 16, BlockOnFull: true}, three, true},
	} {
		t.Run(tc.name, func(t *testing.T) { recycleUnderFire(t, tc.cfg, tc.sc, tc.flusher) })
	}
}

// threeSources scripts n arrivals, 10 000 a second, from three sources
// that one producer multiplexes in a seeded order, the way flocd's one
// reader serves many senders: each source draws its own paths, of 16,
// and sizes, of 64 to 1499 bytes.
func threeSources(n int) []arrival {
	const nPaths = 16
	paths := make([]pathid.PathID, nPaths)
	for i := range paths {
		paths[i] = pathid.New(pathid.ASN(3000+i), pathid.ASN(i/4), 1)
	}
	srcs, pick := []*rng.Source{rng.New(1), rng.New(2), rng.New(3)}, rng.New(4)
	sc := make([]arrival, n)
	for i := range sc {
		s := pick.Intn(len(srcs))
		p := srcs[s].Intn(nPaths)
		sc[i] = arrival{at: float64(i+1) * 1e-4, pkt: netsim.Packet{
			ID: uint64(i + 1), Src: uint32(s + 1), Dst: 9, Size: 64 + srcs[s].Intn(1436),
			Kind: netsim.KindUDP, Path: paths[p], PathKey: paths[p].Key(),
		}}
	}
	return sc
}

func recycleUnderFire(t *testing.T, cfg Config, sc []arrival, flusher bool) {
	end := sc[len(sc)-1].at + 0.5
	var want core.Snapshot
	if cfg.Shards == 1 {
		want = runBaseline(t, cfg.Router, sc, end)
	} else {
		want, _ = runEngineVia(t, Config{Router: cfg.Router, Shards: cfg.Shards, BlockOnFull: true}, sc, end, viaBurst, false)
	}
	if drops := want.Arrived - want.Admitted; drops*10 < want.Arrived*8 {
		t.Fatalf("the baseline dropped %d of %d: not under fire", drops, want.Arrived)
	}
	var sink *checkingSink
	if flusher {
		sink = newCheckingSink(t)
		for i := range sc {
			sink.sending(&sc[i].pkt)
		}
		cfg.Egress = sink
	}
	cfg.Telemetry = telemetry.NewRegistry()
	got, st := runEngineVia(t, cfg, sc, end, viaQuiesce, true)
	if st.Accepted+st.RingDrops != int64(len(sc)) || st.Processed != st.Accepted {
		t.Fatalf("%d handed in: accepted %d, ring drops %d, processed %d", len(sc), st.Accepted, st.RingDrops, st.Processed)
	}
	drops := int64(0)
	for _, n := range got.Drops {
		drops += n
	}
	if got.Arrived != st.Processed || got.Arrived != got.Admitted+drops {
		t.Fatalf("routers saw %d arrivals, %d admitted + %d dropped; shards processed %d", got.Arrived, got.Admitted, drops, st.Processed)
	}
	if cfg.BlockOnFull && !reflect.DeepEqual(got, want) {
		t.Fatalf("engine diverged from its baseline:\n got %+v\nwant %+v", got, want)
	}
	checkSlotBound(t, cfg)
	if sink != nil {
		sink.handedEach(t, got)
	}
}
