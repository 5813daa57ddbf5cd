package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestEventTypeLabelsExhaustive(t *testing.T) {
	seen := make(map[string]EventType)
	for i := 0; i < NumEventTypes(); i++ {
		et := EventType(i)
		name := et.String()
		if name == "" || strings.HasPrefix(name, "EventType(") {
			t.Fatalf("event type %d has no stable label", i)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("label %q reused by types %d and %d", name, prev, i)
		}
		seen[name] = et
		back, err := ParseEventType(name)
		if err != nil || back != et {
			t.Fatalf("ParseEventType(%q) = %v, %v; want %v", name, back, err, et)
		}
	}
	if _, err := ParseEventType("NoSuchEvent"); err == nil {
		t.Fatal("ParseEventType must reject unknown labels")
	}
}

func TestTraceWraparound(t *testing.T) {
	tr := NewTrace(4)
	reg := NewRegistry()
	tr.SetDropCounter(reg.Counter(TraceDroppedMetric, "", ""))
	for i := 0; i < 10; i++ {
		tr.Add(Event{Time: float64(i), Type: EventPacketAdmitted})
	}
	if got := reg.CounterValue(TraceDroppedMetric); got != 6 {
		t.Fatalf("dropped = %d, want 6 (10 events into a 4-slot ring)", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("held %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := float64(6 + i); e.Time != want {
			t.Fatalf("event %d time = %v, want %v (oldest-first after wrap)", i, e.Time, want)
		}
	}
}

func TestTracePartialFill(t *testing.T) {
	tr := NewTrace(8)
	reg := NewRegistry()
	tr.SetDropCounter(reg.Counter(TraceDroppedMetric, "", ""))
	tr.Add(Event{Time: 1})
	tr.Add(Event{Time: 2})
	if got := reg.CounterValue(TraceDroppedMetric); got != 0 {
		t.Fatalf("dropped = %d, want 0", got)
	}
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Time != 1 || evs[1].Time != 2 {
		t.Fatalf("events = %+v", evs)
	}
}

// TestNDJSONRoundTrip: every event type's canonical encoding, the bytes
// the ledger seals one per line, decodes back to the same event.
func TestNDJSONRoundTrip(t *testing.T) {
	in := []Event{
		{Time: 0.000125, Type: EventPacketAdmitted, Path: "10.0.0.0/8", Flow: 0xdeadbeefcafe},
		{Time: 0.5, Type: EventPacketDropped, Path: "10.0.0.0/8", Flow: 7, Reason: "no_token"},
		{Time: 1, Type: EventFlowClassifiedAttack, Path: "a/b", Flow: 42},
		{Time: 2, Type: EventPathAggregated, Path: "a/b", Agg: "agg:1"},
		{Time: 3, Type: EventPathReleased, Path: "a/b", Agg: "agg:1"},
		{Time: 4, Type: EventPathExpired, Path: "a/b"},
		{Time: 5, Type: EventModeChanged, Mode: "Flooding", Value: 900, Shard: 3},
		{Time: 6, Type: EventControlRunCompleted, Value: 3},
		{Time: 7, Type: EventFeedbackApplied, Path: "a/b", Value: 2e6, Peer: 9},
	}
	seen := map[EventType]bool{}
	for _, e := range in {
		seen[e.Type] = true
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(line, '\n') {
			t.Fatalf("canonical encoding spans lines: %s", line)
		}
		var out Event
		if err := json.Unmarshal(line, &out); err != nil {
			t.Fatalf("decoding %s: %v", line, err)
		}
		if out != e {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", e, out)
		}
	}
	if len(seen) != NumEventTypes() {
		t.Fatalf("round trip covers %d of %d event types", len(seen), NumEventTypes())
	}
}

// TestReadNDJSONSkipsBlankRejectsGarbage: decoding a sealed line fails
// on anything that is not an event: no JSON, or an unknown type label.
func TestReadNDJSONSkipsBlankRejectsGarbage(t *testing.T) {
	var e Event
	if err := json.Unmarshal([]byte(`{"t":1,"type":"PacketAdmitted"}`), &e); err != nil || e.Type != EventPacketAdmitted {
		t.Fatalf("valid line: %+v, %v", e, err)
	}
	for _, bad := range []string{"{not json}", `{"t":1,"type":"Bogus"}`, `{"t":1,"type":7}`, ""} {
		if err := json.Unmarshal([]byte(bad), &e); err == nil {
			t.Fatalf("%q decoded as an event", bad)
		}
	}
	if _, err := json.Marshal(Event{Type: EventType(NumEventTypes())}); err == nil {
		t.Fatal("an out-of-range event type encoded")
	}
}

func TestEmitNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.Emit(Event{Type: EventPacketAdmitted}) // must not panic
	tel = New(0)
	tel.Emit(Event{Type: EventPacketAdmitted}) // trace disabled: no-op
	tel = New(2)
	tel.Emit(Event{Type: EventPacketAdmitted})
	if n := len(tel.Trace.Events()); n != 1 {
		t.Fatalf("trace len = %d, want 1", n)
	}
}
