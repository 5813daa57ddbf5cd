package dataplane

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
)

// orderSink checks, as packets leave, that each producer's packets leave
// each shard in the order the producer handed them in: Src names the
// producer, ID counts its packets from 1.
type orderSink struct {
	shards int
	mu     sync.Mutex
	last   map[[2]uint32]uint64 // (producer, shard) -> last ID seen
	bad    string               // the first violation
}

func (s *orderSink) Emit(pkt *netsim.Packet, _ float64) {
	key := [2]uint32{pkt.Src, uint32(pathShard(pkt.Path, s.shards))}
	s.mu.Lock()
	if last := s.last[key]; pkt.ID <= last && s.bad == "" {
		s.bad = fmt.Sprintf("producer %d, shard %d: packet %d left after packet %d", key[0], key[1], pkt.ID, last)
	}
	s.last[key] = pkt.ID
	s.mu.Unlock()
}

func (s *orderSink) Flush() {}

// TestRoleUnderFire runs everything that can reach a shard at once: three
// producers each mixing Enqueue, Flush and Quiesce on a Burst of its own,
// one goroutine of Engine.Enqueue singles, one looping the barriers
// (Snapshot, InstallLimit, SweepLimits, Drain), and a Close that lands in
// mid-stream — on rings of 2 and of 1024 slots, dropping and blocking. A
// producer holding shard 0's role while it yields on shard 1's full ring
// must not deadlock a barrier (go test's -timeout is the watchdog). Every
// packet handed in is accepted or counted as a ring drop, every accepted
// packet is processed by the time Close returns, and on an uncongested
// link each producer's packets leave each shard in order.
func TestRoleUnderFire(t *testing.T) {
	for _, ringSize := range []int{2, 1024} {
		for _, block := range []bool{false, true} {
			t.Run(fmt.Sprintf("ring-%d/block-%v", ringSize, block), func(t *testing.T) {
				roleUnderFire(t, ringSize, block)
			})
		}
	}
}

func roleUnderFire(t *testing.T, ringSize int, block bool) {
	const (
		producers   = 3
		perProducer = 20000
		nPaths      = 16
		gap         = 10e-6 // 100 000 packets/s offered to a 1 000 000 packets/s link
	)
	reg := telemetry.NewRegistry()
	sink := &orderSink{shards: 2, last: map[[2]uint32]uint64{}}
	rc := core.DefaultConfig(8e9, 2048)
	rc.Seed = 3
	e, err := New(Config{Router: rc, Shards: 2, RingSize: ringSize, BlockOnFull: block, Telemetry: reg, Egress: sink})
	if err != nil {
		t.Fatal(err)
	}
	paths, keys, handles := make([]pathid.PathID, nPaths), make([]string, nPaths), make([]uint32, nPaths)
	for i := range paths {
		paths[i] = pathid.New(pathid.ASN(2000+i), pathid.ASN(i%4), 1)
		keys[i], handles[i] = paths[i].Key(), e.InternPath(paths[i])
	}
	var clock, handed atomic.Int64 // arrival ticks; packets handed in and accounted for
	pkt := func(producer, n, p int) (*netsim.Packet, float64) {
		return &netsim.Packet{
			ID: uint64(n), Src: uint32(producer), Dst: 9, Size: 1000, Kind: netsim.KindUDP,
			Path: paths[p], PathKey: keys[p], PathHandle: handles[p],
		}, float64(clock.Add(1)) * gap
	}

	var bursts, singles, control sync.WaitGroup
	// Close lands while the producers are in their middle third: they
	// report in after the first and hold the last back until it returned.
	loaded, closed := make(chan struct{}, producers), make(chan struct{})
	for i := 1; i <= producers; i++ {
		bursts.Add(1)
		go func(producer int) {
			defer bursts.Done()
			b, src := e.NewBurst(), rng.New(uint64(100*ringSize+producer))
			for n := 1; n <= perProducer; n++ {
				b.Enqueue(pkt(producer, n, src.Intn(nPaths)))
				switch src.Intn(48) {
				case 0:
					b.Flush()
				case 1, 2:
					b.Quiesce()
				}
				switch n {
				case perProducer / 3:
					loaded <- struct{}{}
				case 2 * perProducer / 3:
					<-closed
				}
			}
			b.Quiesce()
			handed.Add(perProducer)
		}(i)
	}
	// Engine.Enqueue reports an engine already closed through its return
	// value alone, so the singles stop before Close begins: each of theirs
	// is then accepted or a counted drop.
	stopSingles := make(chan struct{})
	singles.Add(1)
	go func() {
		defer singles.Done()
		src := rng.New(uint64(ringSize))
		for n := 0; ; runtime.Gosched() { // one of five goroutines, not a spin that starves them
			select {
			case <-stopSingles:
				handed.Add(int64(n))
				return
			default:
			}
			if n < perProducer { // then its share is in: wait to be stopped
				n++
				e.Enqueue(pkt(producers+1, n, src.Intn(nPaths)))
			}
		}
	}()
	stopControl := make(chan struct{})
	control.Add(1)
	go func() {
		defer control.Done()
		for k := 0; ; k++ {
			select {
			case <-stopControl:
				return
			default:
			}
			now := float64(clock.Load()) * gap
			e.Snapshot()
			e.InstallLimit(paths[k%nPaths], 1e15, 0, 7, now) // far above anything offered: sheds nothing
			e.SweepLimits(now)
			e.Drain()
			e.InstallLimit(paths[k%nPaths], 0, 0, 7, now)
			runtime.Gosched()
		}
	}()

	for i := 0; i < producers; i++ {
		<-loaded
	}
	close(stopSingles)
	singles.Wait()
	e.Close()
	close(closed)
	bursts.Wait()
	close(stopControl)
	control.Wait()

	st := e.Stats()
	if st.Accepted+st.RingDrops != handed.Load() {
		t.Fatalf("accepted %d + ring drops %d != %d packets handed in", st.Accepted, st.RingDrops, handed.Load())
	}
	if st.Processed != st.Accepted {
		t.Fatalf("processed %d != accepted %d after Close", st.Processed, st.Accepted)
	}
	if st.Accepted == 0 || st.RingDrops == 0 {
		t.Fatalf("accepted %d, dropped %d: Close did not land in mid-stream", st.Accepted, st.RingDrops)
	}
	if st.LimitDrops != 0 {
		t.Fatalf("%d packets shed by a limit far above the offered rate", st.LimitDrops)
	}
	if got := shardCounters(e, "floc_dataplane_ring_full_drops_total"); got != st.RingDrops {
		t.Fatalf("telemetry ring-drop counters %d != stats %d", got, st.RingDrops)
	}
	if snap := e.Snapshot(); snap.Arrived != st.Processed {
		t.Fatalf("routers saw %d arrivals, shards processed %d", snap.Arrived, st.Processed)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.bad != "" {
		t.Fatal(sink.bad)
	}
	if len(sink.last) == 0 {
		t.Fatal("nothing was transmitted: the order check saw no packet")
	}
}

// TestFlushNeverRunsInline: Flush means hand off and keep producing. A
// saturated producer that only ever flushes takes no role, however often
// it finds the workers parked.
func TestFlushNeverRunsInline(t *testing.T) {
	cfg := limitTestConfig(2)
	cfg.Telemetry = telemetry.NewRegistry()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	path := []pathid.PathID{pathid.New(50, 5, 1), pathid.New(51, 5, 1), pathid.New(52, 6, 1), pathid.New(53, 6, 1)}
	b := e.NewBurst()
	const packets = 20000
	for i := 0; i < packets; i++ {
		b.Enqueue(limitPkt(path[i%len(path)], 0, 1000), float64(i)*1e-5)
		if i%97 == 0 {
			parkWorkers(e)
			b.Flush()
		}
	}
	b.Flush()
	e.Drain()
	if st := e.Stats(); st.Processed != packets {
		t.Fatalf("%d of %d packets processed", st.Processed, packets)
	}
	if got := shardCounters(e, "floc_dataplane_inline_runs_total"); got != 0 {
		t.Fatalf("%d inline runs from a producer that never quiesced", got)
	}
	if got := shardCounters(e, "floc_dataplane_worker_wakeups_total"); got == 0 {
		t.Fatal("no worker wake-up counted although runs were flushed to parked workers")
	}
}
