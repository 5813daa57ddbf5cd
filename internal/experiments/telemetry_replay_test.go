package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"floc/internal/ledger"
)

// TestTraceReplayMatchesSnapshot is the observability acceptance test: a
// full FLoc attack run sealed through Scenario.Sink must leave a ledger
// that verifies and from whose events the per-domain admission counters,
// the aggregation membership, and the final queue mode reconstruct
// *exactly* — the journal is a faithful record of the run, not a sampled
// approximation. The reconstruction itself is ledger.Replay/Diff, the
// same fold floctrace uses on sealed evidence, so this test also pins
// the forensic tool to the live router's semantics.
func TestTraceReplayMatchesSnapshot(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	dir := filepath.Join(t.TempDir(), "ledger")
	sealer, err := ledger.NewSealer(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := shortScenario(DefFLoc, AttackCBR)
	sc.SMax = 25 // force attack-path aggregation so transitions appear
	sc.Sink = sealer
	m, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sealer.Close(); err != nil {
		t.Fatal(err)
	}

	// The replay below reads only what Verify decoded from disk, never
	// the events the run emitted.
	replayer := ledger.NewReplayer()
	rep, err := ledger.Verify(dir, replayer.Fold)
	if err != nil {
		t.Fatal(err)
	}
	if head := sealer.Head(); rep.Events != sealer.Events() || rep.Head != head {
		t.Fatalf("verified %d events to head %x, sealed %d to %x",
			rep.Events, rep.Head[:8], sealer.Events(), head[:8])
	}

	res := replayer.Result()
	if len(res.Aggregates) == 0 {
		t.Error("no aggregation transitions replayed despite SMax pressure")
	}
	if diffs := res.Diff(m.FLocSnapshot); len(diffs) != 0 {
		t.Errorf("replayed events do not reproduce the snapshot:\n  %s",
			strings.Join(diffs, "\n  "))
	}
}
