package dataplane

import (
	"runtime"
	"sync"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
)

// bufferingSink is a PacketSink that holds what it is given until Flush,
// the way flocd's batching forwarder does.
type bufferingSink struct {
	mu      sync.Mutex
	pending int // emitted since the last Flush
	flushed int
}

// floc:unit now seconds
func (s *bufferingSink) Emit(*netsim.Packet, float64) {
	s.mu.Lock()
	s.pending++
	s.mu.Unlock()
}

func (s *bufferingSink) Flush() {
	s.mu.Lock()
	s.flushed += s.pending
	s.pending = 0
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
			t.Fatal("a shard without a Flusher recorded a flush debt")
		}
	}
}
