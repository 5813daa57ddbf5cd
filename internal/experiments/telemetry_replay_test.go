package experiments

import (
	"bytes"
	"strings"
	"testing"

	"floc/internal/ledger"
	"floc/internal/telemetry"
)

// TestTraceReplayMatchesSnapshot is the observability acceptance test: a
// full FLoc attack run with the event trace enabled must emit an NDJSON
// stream from which the per-domain admission counters, the aggregation
// membership, and the final queue mode reconstruct *exactly* — the trace
// is a faithful journal of the run, not a sampled approximation. The
// reconstruction itself is ledger.Replay/Diff, the same fold floctrace
// uses on sealed evidence, so this test also pins the forensic tool to
// the live router's semantics.
func TestTraceReplayMatchesSnapshot(t *testing.T) {
	if !telemetry.Compiled {
		t.Skip("telemetry is compiled out")
	}
	skipIfShort(t)
	sc := shortScenario(DefFLoc, AttackCBR)
	sc.SMax = 25 // force attack-path aggregation so transitions appear
	sc.TraceCapacity = 1 << 20
	m, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Tel.Trace
	if tr == nil {
		t.Fatal("TraceCapacity set but no trace attached")
	}
	if tr.Overwritten() != 0 {
		t.Fatalf("trace overwrote %d events; replay would be incomplete", tr.Overwritten())
	}

	// Round-trip through the NDJSON exporter: the replay below reads only
	// the decoded stream, never the in-memory ring.
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != tr.Len() {
		t.Fatalf("round-trip lost events: %d decoded, %d in ring", len(events), tr.Len())
	}

	res := ledger.Replay(events)
	if len(res.Aggregates) == 0 {
		t.Error("no aggregation transitions replayed despite SMax pressure")
	}
	if diffs := res.Diff(m.FLocSnapshot); len(diffs) != 0 {
		t.Errorf("replayed events do not reproduce the snapshot:\n  %s",
			strings.Join(diffs, "\n  "))
	}
}
