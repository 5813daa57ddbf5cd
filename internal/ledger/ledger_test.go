package ledger

import (
	"fmt"
	"path/filepath"
	"testing"

	"floc/internal/telemetry"
)

// synthRun emits count packet events per control run across runs control
// runs, closing each with a ControlRunCompleted carrying the cumulative
// run counter, plus tail extra events left unsealed until Close.
func synthRun(runs, count, tail int) []telemetry.Event {
	var events []telemetry.Event
	tick := 0.0
	for run := 1; run <= runs; run++ {
		for i := 0; i < count; i++ {
			tick += 0.001
			e := telemetry.Event{Time: tick, Type: telemetry.EventPacketAdmitted,
				Path: fmt.Sprintf("10-%d-1", i%4)}
			if i%5 == 4 {
				e.Type = telemetry.EventPacketDropped
				e.Reason = "no-token"
			}
			events = append(events, e)
		}
		tick += 0.001
		events = append(events, telemetry.Event{Time: tick,
			Type: telemetry.EventControlRunCompleted, Value: float64(run)})
	}
	for i := 0; i < tail; i++ {
		tick += 0.001
		events = append(events, telemetry.Event{Time: tick,
			Type: telemetry.EventPacketAdmitted, Path: "10-0-1"})
	}
	return events
}

// sealDir seals events into a fresh ledger under t.TempDir.
func sealDir(t *testing.T, events []telemetry.Event) (string, Hash) {
	return sealDirRotating(t, rotateBytes, events)
}

// sealDirRotating is sealDir with the events file rotating at rotateAt
// bytes.
func sealDirRotating(t *testing.T, rotateAt int64, events []telemetry.Event) (string, Hash) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ledger")
	s, err := NewSealer(dir)
	if err != nil {
		t.Fatalf("NewSealer: %v", err)
	}
	s.rotateAt = rotateAt
	for _, e := range events {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir, s.Head()
}

func TestSealVerifyRoundTrip(t *testing.T) {
	events := synthRun(3, 20, 5)
	dir, head := sealDir(t, events)

	rep, got, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Segments != 4 { // 3 control-run segments + 1 partial tail
		t.Fatalf("segments = %d, want 4", rep.Segments)
	}
	if rep.Events != int64(len(events)) {
		t.Fatalf("events = %d, want %d", rep.Events, len(events))
	}
	if rep.Head != head {
		t.Fatalf("verified head %x != sealer head %x", rep.Head[:8], head[:8])
	}
	if len(got) != len(events) {
		t.Fatalf("collected %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d round-trip mismatch: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestSealIsDeterministic(t *testing.T) {
	events := synthRun(2, 10, 0)
	_, h1 := sealDir(t, events)
	_, h2 := sealDir(t, events)
	if h1 != h2 {
		t.Fatalf("identical event streams sealed to different heads: %x != %x", h1[:8], h2[:8])
	}
	_, h3 := sealDir(t, synthRun(2, 11, 0))
	if h3 == h1 {
		t.Fatal("different event streams sealed to the same head")
	}
}

func TestRotationSpansFiles(t *testing.T) {
	events := synthRun(8, 30, 0)
	dir, _ := sealDirRotating(t, 512, events)
	rep, _, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Files < 3 {
		t.Fatalf("expected rotation across >= 3 files, got %d", rep.Files)
	}
	if rep.Segments != 8 {
		t.Fatalf("segments = %d, want 8", rep.Segments)
	}
}

func TestNoTailNoPartialSegment(t *testing.T) {
	dir, _ := sealDir(t, synthRun(2, 5, 0))
	rep, _, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Segments != 2 {
		t.Fatalf("segments = %d, want 2 (no partial tail)", rep.Segments)
	}
}

func TestEmptyRunVerifies(t *testing.T) {
	dir, _ := sealDir(t, nil)
	rep, _, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Segments != 0 || rep.Events != 0 {
		t.Fatalf("empty run reported %d segments / %d events", rep.Segments, rep.Events)
	}
	if rep.Head != chainSeed() {
		t.Fatal("empty run's head must be the chain seed")
	}
}

func TestResealRefused(t *testing.T) {
	dir, _ := sealDir(t, synthRun(1, 3, 0))
	if _, err := NewSealer(dir); err == nil {
		t.Fatal("NewSealer over an existing ledger must refuse")
	}
}

func TestErrorKindLabels(t *testing.T) {
	seen := map[string]ErrorKind{}
	for k := ErrorKind(0); k < numErrorKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("ErrorKind %d has no label", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("label %q shared by kinds %d and %d", name, prev, k)
		}
		seen[name] = k
	}
	if got := ErrorKind(250).String(); got != "ErrorKind(250)" {
		t.Fatalf("out-of-range label = %q", got)
	}
}
