package ledger

import (
	"strings"
	"testing"

	"floc/internal/core"
	"floc/internal/telemetry"
)

// shardedEvents builds an interleaved two-shard stream whose fold is
// known by construction.
func shardedEvents() []telemetry.Event {
	ev := func(typ telemetry.EventType, shard uint32, mut func(*telemetry.Event)) telemetry.Event {
		e := telemetry.Event{Type: typ, Shard: shard}
		if mut != nil {
			mut(&e)
		}
		return e
	}
	admit := func(shard uint32, path string) telemetry.Event {
		return ev(telemetry.EventPacketAdmitted, shard, func(e *telemetry.Event) { e.Path = path })
	}
	drop := func(shard uint32, path, reason string) telemetry.Event {
		return ev(telemetry.EventPacketDropped, shard, func(e *telemetry.Event) { e.Path, e.Reason = path, reason })
	}
	return []telemetry.Event{
		admit(0, "10-1-1"), admit(1, "10-2-1"), admit(0, "10-1-1"),
		drop(1, "10-2-1", "no-token"),
		ev(telemetry.EventPathAggregated, 0, func(e *telemetry.Event) { e.Path, e.Agg = "10-1-1", "10-1" }),
		ev(telemetry.EventPathAggregated, 0, func(e *telemetry.Event) { e.Path, e.Agg = "10-3-1", "10-1" }),
		ev(telemetry.EventPathReleased, 0, func(e *telemetry.Event) { e.Path, e.Agg = "10-3-1", "10-1" }),
		ev(telemetry.EventModeChanged, 0, func(e *telemetry.Event) { e.Mode = "congested" }),
		ev(telemetry.EventModeChanged, 1, func(e *telemetry.Event) { e.Mode = "flooding" }),
		ev(telemetry.EventModeChanged, 1, func(e *telemetry.Event) { e.Mode = "uncongested" }),
		ev(telemetry.EventControlRunCompleted, 0, func(e *telemetry.Event) { e.Value = 3 }),
		ev(telemetry.EventControlRunCompleted, 1, func(e *telemetry.Event) { e.Value = 2 }),
		admit(1, "10-2-1"),
	}
}

// replay folds a whole stream in one call.
func replay(events []telemetry.Event) *ReplayResult {
	p := NewReplayer()
	p.Fold(events)
	return p.Result()
}

// matchingSnapshot is the Snapshot shardedEvents folds to.
func matchingSnapshot() core.Snapshot {
	return core.Snapshot{
		Mode:        core.ModeCongested, // max(congested, uncongested-last)
		Arrived:     5,
		Admitted:    4,
		Drops:       map[string]int64{"no-token": 1},
		ControlRuns: 5, // 3 (shard 0) + 2 (shard 1)
		Aggregates:  map[string][]string{"10-1": {"10-1-1"}},
		Paths: []core.PathInfo{
			{Key: "10-1-1", AdmittedPackets: 2},
			{Key: "10-2-1", AdmittedPackets: 2, DroppedPackets: 1},
		},
	}
}

func TestReplayFoldsShardedStream(t *testing.T) {
	res := replay(shardedEvents())
	if res.Admitted != 4 || res.Dropped != 1 || res.Arrived != 5 {
		t.Fatalf("counters admitted=%d dropped=%d arrived=%d", res.Admitted, res.Dropped, res.Arrived)
	}
	if res.Mode != core.ModeCongested {
		t.Fatalf("mode = %s, want congested (max across shards' last modes)", res.Mode)
	}
	if res.ControlRuns != 5 {
		t.Fatalf("control runs = %d, want 5", res.ControlRuns)
	}
	if len(res.Aggregates["10-1"]) != 1 || res.Aggregates["10-1"][0] != "10-1-1" {
		t.Fatalf("aggregates = %v (release must remove 10-3-1)", res.Aggregates)
	}
	if diffs := res.Diff(matchingSnapshot()); len(diffs) != 0 {
		t.Fatalf("unexpected diffs: %v", diffs)
	}
}

func TestReplayDiffNamesDisagreements(t *testing.T) {
	res := replay(shardedEvents())

	snap := matchingSnapshot()
	snap.Admitted = 7
	diffs := res.Diff(snap)
	if len(diffs) == 0 || !strings.Contains(diffs[0], "admitted") {
		t.Fatalf("forged admitted count not flagged: %v", diffs)
	}

	snap = matchingSnapshot()
	snap.Paths[0].DroppedPackets = 9
	if diffs := res.Diff(snap); len(diffs) != 1 || !strings.Contains(diffs[0], "10-1-1") {
		t.Fatalf("forged per-path drops not flagged: %v", diffs)
	}

	snap = matchingSnapshot()
	snap.Paths = snap.Paths[:1]
	if diffs := res.Diff(snap); len(diffs) == 0 {
		t.Fatal("path missing from snapshot not flagged")
	}

	snap = matchingSnapshot()
	snap.Drops["spoofed-reason"] = 2
	if diffs := res.Diff(snap); len(diffs) == 0 {
		t.Fatal("invented drop reason not flagged")
	}

	snap = matchingSnapshot()
	snap.Mode = core.ModeFlooding
	if diffs := res.Diff(snap); len(diffs) != 1 || !strings.Contains(diffs[0], "mode") {
		t.Fatalf("forged mode not flagged: %v", diffs)
	}
}

func TestReplayExpiryResetsPathState(t *testing.T) {
	events := []telemetry.Event{
		{Type: telemetry.EventPacketAdmitted, Path: "10-9-1"},
		{Type: telemetry.EventPathAggregated, Path: "10-9-1", Agg: "10-9"},
		{Type: telemetry.EventPathExpired, Path: "10-9-1"},
	}
	res := replay(events)
	if len(res.AdmittedByPath) != 0 {
		t.Fatalf("expired path retained counters: %v", res.AdmittedByPath)
	}
	if len(res.Aggregates) != 0 {
		t.Fatalf("expired path retained aggregate membership: %v", res.Aggregates)
	}
	// Lifetime totals survive expiry, as in the router.
	if res.Admitted != 1 || res.Arrived != 1 {
		t.Fatalf("lifetime counters wrong: %+v", res)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := t.TempDir() + "/" + SnapshotName
	want := matchingSnapshot()
	if err := WriteSnapshot(path, want); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if diffs := replay(shardedEvents()).Diff(got); len(diffs) != 0 {
		t.Fatalf("snapshot changed across the round trip: %v", diffs)
	}
}
