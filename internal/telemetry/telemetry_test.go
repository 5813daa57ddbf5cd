package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

type collectSink struct{ events []Event }

func (c *collectSink) Emit(e Event) { c.events = append(c.events, e) }

func TestTraceDropCounterCountsWraparound(t *testing.T) {
	tel := New(4)
	for i := 0; i < 10; i++ {
		tel.Emit(Event{Time: float64(i), Type: EventPacketAdmitted})
	}
	if got := tel.Registry.CounterValue(TraceDroppedMetric); got != 6 {
		t.Fatalf("%s = %d, want 6 (10 events into a 4-slot ring)", TraceDroppedMetric, got)
	}
	if n := len(tel.Trace.Events()); n != 4 {
		t.Fatalf("trace holds %d events, want 4", n)
	}
}

func TestTraceDropCounterExportsZeroWhenClean(t *testing.T) {
	tel := New(16)
	tel.Emit(Event{Type: EventPacketAdmitted})
	var buf bytes.Buffer
	if err := tel.Registry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), TraceDroppedMetric+" 0") {
		t.Fatalf("clean run must export an explicit zero drop counter:\n%s", buf.String())
	}
}

func TestEmitForwardsToTraceAndSink(t *testing.T) {
	sink := &collectSink{}
	tel := New(8)
	tel.Sink = sink
	tel.Emit(Event{Type: EventPacketDropped, Reason: "no-token"})
	if n := len(tel.Trace.Events()); n != 1 {
		t.Fatalf("trace len = %d, want 1", n)
	}
	if len(sink.events) != 1 || sink.events[0].Reason != "no-token" {
		t.Fatalf("sink got %+v", sink.events)
	}
}

func TestEmitSafeWhenDisabled(t *testing.T) {
	var tel *Telemetry
	tel.Emit(Event{Type: EventPacketAdmitted}) // nil receiver: no-op

	tel = New(0) // no trace, no sink
	tel.Emit(Event{Type: EventPacketAdmitted})
	if tel.Trace != nil {
		t.Fatal("New(0) must leave the trace disabled")
	}
}

func TestRegistryStampsBuildInfo(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `floc_build_info{version="`) || !strings.Contains(out, `go="go`) {
		t.Fatalf("registry must stamp floc_build_info with version and go labels:\n%s", out)
	}
}

// TestCompiledDefault: telemetry is always compiled in, and what a
// pipeline journals is decided when it is built. The default (a registry
// only, what flocd attaches) journals nothing, so per-packet producers
// build no events; a trace ring or a sink makes Journals true.
func TestCompiledDefault(t *testing.T) {
	if New(0).Journals() {
		t.Fatal("a registry-only pipeline journals events")
	}
	if !New(8).Journals() {
		t.Fatal("a pipeline with a trace ring journals nothing")
	}
	withSink := New(0)
	withSink.Sink = &collectSink{}
	if !withSink.Journals() {
		t.Fatal("a pipeline with a sink journals nothing")
	}
}
