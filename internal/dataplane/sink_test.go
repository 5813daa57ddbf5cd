package dataplane

import (
	"strings"
	"sync"
	"testing"

	"floc/internal/telemetry"
)

// lockedSink is a concurrency-safe event collector (the shard workers
// all emit into the engine sink concurrently).
type lockedSink struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (s *lockedSink) Emit(e telemetry.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *lockedSink) snapshot() []telemetry.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]telemetry.Event(nil), s.events...)
}

func TestSinkReceivesShardStampedEvents(t *testing.T) {
	needTelemetry(t)
	sink := &lockedSink{}
	reg := telemetry.NewRegistry()
	sc := genScenario(12, 0.004, 2.0)
	e, err := New(Config{Router: testRouterConfig(), Shards: 2, BlockOnFull: true,
		Telemetry: reg, TraceCapacity: 1 << 16, Sink: sink})
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

	events := sink.snapshot()
	if len(events) == 0 {
		t.Fatal("sink received no events")
	}
	var admitted, dropped int64
	shards := map[uint32]bool{}
	for _, ev := range events {
		shards[ev.Shard] = true
		switch ev.Type {
		case telemetry.EventPacketAdmitted:
			admitted++
		case telemetry.EventPacketDropped:
			dropped++
		}
	}
	for sh := range shards {
		if sh >= 2 {
			t.Fatalf("event stamped with shard %d on a 2-shard engine", sh)
		}
	}
	if admitted != snap.Admitted {
		t.Fatalf("sink saw %d admissions, snapshot says %d", admitted, snap.Admitted)
	}
	if got := snap.Arrived - snap.Admitted; dropped != got {
		t.Fatalf("sink saw %d drops, snapshot says %d", dropped, got)
	}
}

func TestSinkAndTraceRequireTelemetry(t *testing.T) {
	if _, err := New(Config{Router: testRouterConfig(), Shards: 1, Sink: &lockedSink{}}); err == nil {
		t.Fatal("Sink without Telemetry must be rejected")
	}
	if _, err := New(Config{Router: testRouterConfig(), Shards: 1, TraceCapacity: 64}); err == nil {
		t.Fatal("TraceCapacity without Telemetry must be rejected")
	}
}

func TestHealthSurfaceExported(t *testing.T) {
	reg := telemetry.NewRegistry()
	sc := genScenario(8, 0.004, 1.0)
	e, err := New(Config{Router: testRouterConfig(), Shards: 2, BlockOnFull: true,
		Telemetry: reg, TraceCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc {
		pkt := sc[i].pkt
		e.Enqueue(&pkt, sc[i].at)
	}
	e.Advance(2.0)
	e.Close()

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		`floc_dataplane_ring_occupancy{shard="0"}`,
		`floc_dataplane_ring_occupancy{shard="1"}`,
		`floc_dataplane_admission_batch_seconds_count{shard="0"}`,
		telemetry.TraceDroppedMetric,
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("exposition missing %s:\n%s", name, out)
		}
	}
	h := reg.Histogram(`floc_dataplane_admission_batch_seconds{shard="0"}`,
		"wall-clock time to admit one drained batch", "seconds", admissionLatencyBounds)
	if h.Count() == 0 {
		t.Fatal("admission latency histogram never observed a batch")
	}
}
