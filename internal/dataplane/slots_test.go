package dataplane

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
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

// slotsOwned reads shard i's floc_dataplane_packet_slots gauge.
func slotsOwned(e *Engine, i int) int {
	return int(e.cfg.Telemetry.GaugeValue(fmt.Sprintf(`floc_dataplane_packet_slots{shard="%d"}`, i)))
}

// checkSlotBound fails if a shard owns more packet slots than its share
// of the buffer, one batch — with a Flusher sink, one burst run if that
// is longer, since a quiescing producer flushes once after its whole run
// — and one allocation chunk.
func checkSlotBound(t *testing.T, e *Engine) {
	t.Helper()
	inFlight := e.cfg.Batch
	if e.shards[0].flusher != nil {
		inFlight = max(inFlight, burstRun)
	}
	for i := range e.shards {
		bound := e.cfg.Router.Capacity/len(e.shards) + inFlight + slotChunk
		if got := slotsOwned(e, i); got > bound || got == 0 {
			t.Errorf("shard %d owns %d packet slots; want 1..%d", i, got, bound)
		}
	}
}

// checkingSink is a Flusher that copies every packet at Emit and, at each
// Flush, checks that every packet handed to it since the last Flush is
// still what it was handed: a slot the engine took back before Flush
// returned would have been overwritten by a later packet.
type checkingSink struct {
	t       *testing.T
	mu      sync.Mutex
	pending []*netsim.Packet
	as      []netsim.Packet
	emitted int
	flushes int
	bad     int
}

func (s *checkingSink) Emit(pkt *netsim.Packet, _ float64) {
	s.mu.Lock()
	s.pending = append(s.pending, pkt)
	s.as = append(s.as, *pkt)
	s.emitted++
	s.mu.Unlock()
}

func (s *checkingSink) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, pkt := range s.pending {
		if !reflect.DeepEqual(*pkt, s.as[i]) {
			if s.bad++; s.bad == 1 {
				s.t.Errorf("packet %d of %d since the last Flush changed before this one: handed %+v, now %+v",
					i, len(s.pending), s.as[i], *pkt)
			}
		}
	}
	s.pending, s.as = s.pending[:0], s.as[:0]
	s.flushes++
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
// 512, from one Burst cut now and then by a Flush or a Quiesce — leaves
// each shard owning at most its 256-packet share of the buffer, one batch
// of 64 and one allocation chunk of packet slots, however many packets
// went through: with no egress sink, and with a Flusher sink, whose
// emitted packets count as owned until the Flush after them returns.
func TestPacketSlotsBounded(t *testing.T) {
	t.Run("no-sink", func(t *testing.T) { packetSlotsBounded(t, nil) })
	t.Run("flusher", func(t *testing.T) {
		sink := &checkingSink{t: t}
		sink.handedEach(t, packetSlotsBounded(t, sink))
	})
}

func packetSlotsBounded(t *testing.T, egress PacketSink) core.Snapshot {
	rc := core.DefaultConfig(80e6, 512) // 10 000 packets/s
	rc.Seed = 42
	e, err := New(Config{Router: rc, Shards: 2, RingSize: 1024, Batch: 64, BlockOnFull: true,
		Telemetry: telemetry.NewRegistry(), Egress: egress})
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
		b.Enqueue(&pkt, float64(i)*gap)
		cutBurst(e, b, cut, 1024)
	}
	b.Flush()
	e.Drain()
	snap := e.Snapshot()
	if snap.Arrived != packets || snap.QueueLen == 0 {
		t.Fatalf("%d of %d packets arrived, %d queued at the end: the buffer was not in use", snap.Arrived, packets, snap.QueueLen)
	}
	checkSlotBound(t, e)
	t.Logf("packet slots owned: %d and %d", slotsOwned(e, 0), slotsOwned(e, 1))
	return snap
}

// TestRecycleUnderFire: a buffer of 8 behind rings of 16, offered ten times
// the link, so that nearly every packet is dropped and its slot taken
// again at once. At one shard, one producer handing in one reused packet
// and cutting its stream with Flush and Quiesce at seeded points makes
// the engine decide exactly what a plain core.Router given the same
// arrivals decides: a slot handed out again while still queued would
// change the size or the time of a packet in the queue, and so the
// snapshot. At two shards, three such producers, dropping on full rings,
// lose nothing and count nothing twice, and the slots stay bounded. Each
// runs again with a Flusher sink (the three producers blocking, not
// dropping), which must find every packet it was handed unchanged when it
// flushes and be handed every admitted packet not still queued, once.
func TestRecycleUnderFire(t *testing.T) {
	rc := core.DefaultConfig(8e6, 8) // 1 000 packets/s of 1 000 bytes
	rc.Seed = 42
	t.Run("one-producer", func(t *testing.T) {
		recycleOneProducer(t, Config{Router: rc, Shards: 1, RingSize: 16, BlockOnFull: true})
	})
	t.Run("one-producer-flusher", func(t *testing.T) {
		// Batches of 4: a quiesced run is admitted in several batches
		// before its one Flush, so a slot taken back at Emit would be
		// overwritten while the sink still holds it.
		sink := &checkingSink{t: t}
		sink.handedEach(t, recycleOneProducer(t, Config{Router: rc, Shards: 1, RingSize: 16, Batch: 4, BlockOnFull: true, Egress: sink}))
	})
	t.Run("three-producers", func(t *testing.T) {
		recycleThreeProducers(t, Config{Router: rc, Shards: 2, RingSize: 16})
	})
	t.Run("three-producers-flusher", func(t *testing.T) {
		// Blocking on full rings: workers slowed by the sink under -race
		// would otherwise let so few packets in that the link is not
		// under fire.
		sink := &checkingSink{t: t}
		sink.handedEach(t, recycleThreeProducers(t, Config{Router: rc, Shards: 2, RingSize: 16, BlockOnFull: true, Egress: sink}))
	})
}

func recycleOneProducer(t *testing.T, cfg Config) core.Snapshot {
	sc := varySizes(genScenario(8, 0.0008, 2.0), 17) // 10 000 packets/s
	want := runBaseline(t, cfg.Router, sc, 2.5)
	if drops := want.Arrived - want.Admitted; drops*10 < want.Arrived*8 {
		t.Fatalf("the baseline dropped %d of %d: not under fire", drops, want.Arrived)
	}
	got, stats := runEngineVia(t, cfg, sc, 2.5, viaQuiesce, true)
	if stats.Processed != int64(len(sc)) {
		t.Fatalf("%d of %d packets processed", stats.Processed, len(sc))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("1-shard engine diverged from the single router:\n got %+v\nwant %+v", got, want)
	}
	return got
}

func recycleThreeProducers(t *testing.T, cfg Config) core.Snapshot {
	const (
		producers   = 3
		perProducer = 20000
		nPaths      = 16
		gap         = 1e-4 // 10 000 packets/s offered to a 1 000 packets/s link
	)
	cfg.Telemetry = telemetry.NewRegistry()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	paths, keys, handles := make([]pathid.PathID, nPaths), make([]string, nPaths), make([]uint32, nPaths)
	for i := range paths {
		paths[i] = pathid.New(pathid.ASN(3000+i), pathid.ASN(i/4), 1)
		keys[i], handles[i] = paths[i].Key(), e.InternPath(paths[i])
	}
	var clock atomic.Int64
	var wg sync.WaitGroup
	for i := 1; i <= producers; i++ {
		wg.Add(1)
		go func(producer int) {
			defer wg.Done()
			b, src := e.NewBurst(), rng.New(uint64(producer))
			var pkt netsim.Packet
			for n := 1; n <= perProducer; n++ {
				p := src.Intn(nPaths)
				pkt = netsim.Packet{
					ID: uint64(n), Src: uint32(producer), Dst: 9, Size: 64 + src.Intn(1436),
					Kind: netsim.KindUDP, Path: paths[p], PathKey: keys[p], PathHandle: handles[p],
				}
				b.Enqueue(&pkt, float64(clock.Add(1))*gap)
				scribble(&pkt)
				switch src.Intn(16) {
				case 0:
					b.Flush()
				case 1:
					b.Quiesce()
				}
			}
			b.Quiesce()
		}(i)
	}
	wg.Wait()
	e.Drain()

	st := e.Stats()
	if st.Accepted+st.RingDrops != producers*perProducer {
		t.Fatalf("accepted %d + ring drops %d != %d packets handed in", st.Accepted, st.RingDrops, producers*perProducer)
	}
	if st.Processed != st.Accepted {
		t.Fatalf("processed %d != accepted %d after Drain", st.Processed, st.Accepted)
	}
	snap := e.Snapshot()
	drops := int64(0)
	for _, n := range snap.Drops {
		drops += n
	}
	if snap.Arrived != st.Processed || snap.Arrived != snap.Admitted+drops {
		t.Fatalf("routers saw %d arrivals, %d admitted + %d dropped; shards processed %d", snap.Arrived, snap.Admitted, drops, st.Processed)
	}
	if drops*10 < snap.Arrived*8 {
		t.Fatalf("%d of %d arrivals dropped: not under fire", drops, snap.Arrived)
	}
	checkSlotBound(t, e)
	return snap
}
