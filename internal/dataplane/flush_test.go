package dataplane

import (
	"runtime"
	"sync"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
)

// bufferingSink is a PacketSink that holds what it is given until Flush,
// the way flocd's batching forwarder does.
type bufferingSink struct {
	mu      sync.Mutex
	pending int // emitted since the last Flush
	flushed int
	flushes int // Flush calls
}

func (s *bufferingSink) Emit(*netsim.Packet, float64) {
	s.mu.Lock()
	s.pending++
	s.mu.Unlock()
}

func (s *bufferingSink) Flush() {
	s.mu.Lock()
	s.flushed += s.pending
	s.pending = 0
	s.flushes++
	s.mu.Unlock()
}

func (s *bufferingSink) counts() (pending, flushed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending, s.flushed
}

// TestEgressFlushedAtQuiescence pins the flush invariant: nothing emitted
// is unflushed when a worker parks or a barrier command returns.
func TestEgressFlushedAtQuiescence(t *testing.T) {
	sink := &bufferingSink{}
	cfg := limitTestConfig(2)
	cfg.Egress = sink
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := []pathid.PathID{pathid.New(50, 5, 1), pathid.New(51, 5, 1), pathid.New(52, 6, 1), pathid.New(53, 6, 1)}
	handles := make([]uint32, len(paths))
	for i, p := range paths {
		handles[i] = e.InternPath(p)
	}
	now, sent := 0.0, int64(0)
	burst := func(n int) {
		for i := 0; i < n; i++ {
			now += 0.001
			p := i % len(paths)
			if !e.Enqueue(limitPkt(paths[p], handles[p], 1000), now) {
				t.Fatal("enqueue refused")
			}
			sent++
		}
	}
	clean := func(when string) {
		t.Helper()
		if pending, _ := sink.counts(); pending != 0 {
			t.Fatalf("%s: %d emitted packets still unflushed", when, pending)
		}
	}

	// Parks: after each burst the workers run out of work on their own, with
	// no barrier to flush for them.
	for round := 0; round < 20; round++ {
		burst(1 + 7*round)
		for parked := false; !parked; runtime.Gosched() {
			parked = e.Stats().Processed == sent
			for _, sh := range e.shards {
				parked = parked && sh.sleeping.Load() && sh.ring.empty()
			}
		}
		clean("workers parked")
	}
	if _, flushed := sink.counts(); flushed == 0 {
		t.Fatal("twenty bursts on a fast link transmitted nothing: the test exercises no emit")
	}

	// Barriers: each is issued straight behind a burst, while the workers
	// are still busy.
	burst(300)
	e.Drain()
	clean("Drain returned")
	burst(300)
	e.Snapshot()
	clean("Snapshot returned")
	burst(300)
	e.Advance(now + 10)
	clean("Advance returned")
	if _, flushed := sink.counts(); int64(flushed) != e.Snapshot().Admitted {
		t.Fatalf("%d packets flushed after Advance, router admitted %d", flushed, e.Snapshot().Admitted)
	}
	burst(300)
	e.Close()
	clean("Close returned")

	// A sink with no Flush half is never asked for one.
	plain := limitTestConfig(2)
	plain.Egress = &egressRecorder{}
	pe, err := New(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	for _, sh := range pe.shards {
		if sh.flusher != nil {
			t.Fatal("engine resolved a Flusher from a sink that has no Flush")
		}
	}
	h := pe.InternPath(paths[0])
	for i := 0; i < 50; i++ {
		pe.Enqueue(limitPkt(paths[0], h, 1000), 0.001*float64(i))
	}
	pe.Advance(10)
	for _, sh := range pe.shards {
		if sh.unflushed {
			t.Fatal("a shard without a Flusher owes its sink a Flush")
		}
	}
}

// TestQuiesceProcessesInlineAndFlushesOnce pins what Quiesce promises a
// producer about to block. Behind parked workers every run is drained by
// the producer itself: when Quiesce returns every packet handed in has
// been processed, nothing emitted is unflushed, the sink was flushed once
// for a quiesce that fed two shards, and no worker was woken. A shard
// whose role someone else holds gets its run through the ring, doorbell
// and all, and the woken worker waits for the role before it touches it.
func TestQuiesceProcessesInlineAndFlushesOnce(t *testing.T) {
	sink := &bufferingSink{}
	cfg := limitTestConfig(2)
	cfg.Egress = sink
	cfg.Telemetry = telemetry.NewRegistry()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// One path per shard.
	paths, handles := make([]pathid.PathID, 2), make([]uint32, 2)
	for as := pathid.ASN(50); paths[0] == nil || paths[1] == nil; as++ {
		p := pathid.New(as, 5, 1)
		s := pathShard(p, e.Shards())
		paths[s], handles[s] = p, e.InternPath(p)
	}
	b := e.NewBurst()
	now, sent := 0.0, int64(0)
	hand := func(n int) {
		for i := 0; i < n; i++ {
			for s := range paths {
				now += 0.001
				b.Enqueue(limitPkt(paths[s], handles[s], 1000), now)
				sent++
			}
		}
	}
	flushes := func() int {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return sink.flushes
	}

	const rounds = 50
	for round := 0; round < rounds; round++ {
		parkWorkers(e)
		before := flushes()
		hand(1 + round%7)
		if st := e.Stats(); st.Accepted != sent-int64(2*(1+round%7)) {
			t.Fatalf("round %d: accepted %d before the quiesce: a staged packet reached the engine", round, st.Accepted)
		}
		b.Quiesce()
		if st := e.Stats(); st.Accepted != sent || st.Processed != sent {
			t.Fatalf("round %d: Quiesce returned with %d accepted, %d processed of %d handed in", round, st.Accepted, st.Processed, sent)
		}
		if pending, _ := sink.counts(); pending != 0 {
			t.Fatalf("round %d: Quiesce returned with %d emitted packets unflushed", round, pending)
		}
		// From the second round on both shards transmit what the round
		// before left queued, so both owe a flush and share the one.
		if got := flushes() - before; round > 0 && got != 1 {
			t.Fatalf("round %d: sink flushed %d times for one quiesce over two shards", round, got)
		}
		for i, sh := range e.shards {
			if !sh.sleeping.Load() || !sh.role.TryLock() {
				t.Fatalf("round %d: shard %d's role not free behind the quiesce", round, i)
			}
			if sh.unflushed {
				t.Fatalf("round %d: shard %d still owes its sink a Flush", round, i)
			}
			sh.role.Unlock()
		}
	}
	if got := shardCounters(e, "floc_dataplane_inline_runs_total"); got != 2*rounds {
		t.Fatalf("%d inline runs counted over %d quiesces of two shards", got, rounds)
	}
	if got := shardCounters(e, "floc_dataplane_worker_wakeups_total"); got != 0 {
		t.Fatalf("%d worker wake-ups: an inline run rang a doorbell", got)
	}

	// Shard 0's role is taken: its run goes to the ring and its worker is
	// woken, but processes nothing until the role is free.
	parkWorkers(e)
	held := e.shards[0]
	held.role.Lock()
	hand(3)
	b.Quiesce()
	if st := e.Stats(); st.Accepted != sent || st.Processed != sent-3 {
		t.Fatalf("shard 0's role held: %d accepted, %d processed of %d; want shard 1 inline and shard 0 waiting in its ring", st.Accepted, st.Processed, sent)
	}
	if held.ring.empty() {
		t.Fatal("shard 0's role held: its run is not in its ring")
	}
	held.role.Unlock()
	e.Drain()
	if st := e.Stats(); st.Processed != sent {
		t.Fatalf("role released: %d processed of %d", st.Processed, sent)
	}
	if pending, _ := sink.counts(); pending != 0 {
		t.Fatalf("role released: %d emitted packets unflushed behind Drain", pending)
	}
	if got := shardCounters(e, "floc_dataplane_worker_wakeups_total"); got != 1 {
		t.Fatalf("%d worker wake-ups for one run handed to a parked worker's ring", got)
	}
}

// TestQuiesceQueuesBehindUnpublishedClaim: the producer's runs leave a
// shard in the order it staged them, whoever drains them. Two runs are
// published to a parked worker that nobody rings, the way a run can sit
// in the ring when the worker parked just before it: a quiesce that finds
// the worker parked drains them ahead of its own run, inline, and wakes
// nobody.
func TestQuiesceQueuesBehindUnpublishedClaim(t *testing.T) {
	rec := &egressRecorder{}
	cfg := limitTestConfig(1)
	cfg.Egress = rec
	cfg.Telemetry = telemetry.NewRegistry()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	path := pathid.New(50, 5, 1)
	h := e.InternPath(path)
	pkts := make([]*netsim.Packet, 5)
	for i := range pkts {
		pkts[i] = limitPkt(path, h, 1000)
		pkts[i].ID = uint64(i)
	}
	parkWorkers(e)

	b, sh := e.NewBurst(), e.shards[0]
	for i, pkt := range pkts[:4] {
		b.Enqueue(pkt, 0.001*float64(i+1))
		if i%2 == 1 {
			sh.publish() // no doorbell: the worker stays parked
		}
	}
	if st := e.Stats(); st.Accepted != 4 || st.Processed != 0 || sh.ring.occupancy() != 4 {
		t.Fatalf("%d accepted, %d processed, %d in the ring; want 4 waiting in the ring", st.Accepted, st.Processed, sh.ring.occupancy())
	}
	b.Enqueue(pkts[4], 0.005)
	b.Quiesce()
	if st := e.Stats(); st.Accepted != 5 || st.Processed != 5 {
		t.Fatalf("%d accepted, %d processed after the quiesce; want all 5", st.Accepted, st.Processed)
	}
	if inline, woken := shardCounters(e, "floc_dataplane_inline_runs_total"), shardCounters(e, "floc_dataplane_worker_wakeups_total"); inline != 1 || woken != 0 {
		t.Fatalf("%d inline runs, %d wake-ups; want the one quiesce drained inline", inline, woken)
	}
	e.Advance(1)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, pkt := range rec.pkts {
		if i >= len(pkts) || pkt.ID != pkts[i].ID {
			t.Fatalf("packet %d to leave is not the %dth staged", i, i)
		}
	}
	if len(rec.pkts) != len(pkts) {
		t.Fatalf("%d of %d packets left", len(rec.pkts), len(pkts))
	}
}
