package telemetry

import (
	"bytes"
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
	for i := 0; i < 10; i++ {
		tr.Add(Event{Time: float64(i), Type: EventPacketAdmitted})
	}
	if tr.Len() != 4 || tr.Cap() != 4 {
		t.Fatalf("len/cap = %d/%d, want 4/4", tr.Len(), tr.Cap())
	}
	if tr.Total() != 10 || tr.Overwritten() != 6 {
		t.Fatalf("total/overwritten = %d/%d, want 10/6", tr.Total(), tr.Overwritten())
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := float64(6 + i); e.Time != want {
			t.Fatalf("event %d time = %v, want %v (oldest-first after wrap)", i, e.Time, want)
		}
	}
}

func TestTracePartialFill(t *testing.T) {
	tr := NewTrace(8)
	tr.Add(Event{Time: 1})
	tr.Add(Event{Time: 2})
	if tr.Overwritten() != 0 {
		t.Fatalf("overwritten = %d, want 0", tr.Overwritten())
	}
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Time != 1 || evs[1].Time != 2 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	tr := NewTrace(16)
	in := []Event{
		{Time: 0.000125, Type: EventPacketAdmitted, Path: "10.0.0.0/8", Flow: 0xdeadbeefcafe},
		{Time: 0.5, Type: EventPacketDropped, Path: "10.0.0.0/8", Flow: 7, Reason: "no_token"},
		{Time: 1, Type: EventFlowClassifiedAttack, Path: "a/b", Flow: 42},
		{Time: 2, Type: EventPathAggregated, Path: "a/b", Agg: "agg:1"},
		{Time: 3, Type: EventPathReleased, Path: "a/b", Agg: "agg:1"},
		{Time: 4, Type: EventPathExpired, Path: "a/b"},
		{Time: 5, Type: EventModeChanged, Mode: "Flooding", Value: 900},
		{Time: 6, Type: EventControlRunCompleted, Value: 3},
	}
	for _, e := range in {
		tr.Add(e)
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("event %d round trip mismatch:\n in: %+v\nout: %+v", i, in[i], out[i])
		}
	}
}

func TestReadNDJSONSkipsBlankRejectsGarbage(t *testing.T) {
	evs, err := ReadNDJSON(strings.NewReader("\n{\"t\":1,\"type\":\"PacketAdmitted\"}\n\n"))
	if err != nil || len(evs) != 1 {
		t.Fatalf("evs=%v err=%v", evs, err)
	}
	if _, err := ReadNDJSON(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("garbage line must error")
	}
	if _, err := ReadNDJSON(strings.NewReader(`{"t":1,"type":"Bogus"}` + "\n")); err == nil {
		t.Fatal("unknown event type must error")
	}
}

func TestEmitNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.Emit(Event{Type: EventPacketAdmitted}) // must not panic
	tel = New(0)
	tel.Emit(Event{Type: EventPacketAdmitted}) // trace disabled: no-op
	tel = New(2)
	tel.Emit(Event{Type: EventPacketAdmitted})
	if tel.Trace.Len() != 1 {
		t.Fatalf("trace len = %d, want 1", tel.Trace.Len())
	}
}
