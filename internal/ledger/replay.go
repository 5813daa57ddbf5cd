package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"

	"floc/internal/core"
	"floc/internal/telemetry"
)

// ReplayResult is the router state reconstructed from an event stream —
// the forensic generalization of the replay-equals-snapshot test: fold
// the journal, then Diff against the Snapshot the run claims it ended
// in. Events may come from a single router (shard 0 throughout) or a
// sharded dataplane (per-shard streams interleaved arbitrarily); the
// fold keeps per-shard mode and control-run state and merges them the
// way dataplane.Engine merges shard snapshots.
type ReplayResult struct {
	Arrived  int64
	Admitted int64
	Dropped  int64

	AdmittedByPath map[string]int64
	DroppedByPath  map[string]int64
	DropsByReason  map[string]int64
	// Aggregates maps aggregate keys to sorted member path keys, as
	// reconstructed from aggregation/release/expiry transitions.
	Aggregates map[string][]string
	// Mode is the most severe final queue mode across shards.
	Mode core.Mode
	// ControlRuns sums each shard's last cumulative control-run count.
	ControlRuns int
	// Events is the number of events folded.
	Events int
}

// modeSeverity orders the queue-mode labels for the cross-shard merge.
func modeSeverity(label string) core.Mode {
	for _, m := range [3]core.Mode{core.ModeUncongested, core.ModeCongested, core.ModeFlooding} {
		if m.String() == label {
			return m
		}
	}
	return core.ModeUncongested
}

// Replayer folds a sealed event stream into a ReplayResult one segment
// at a time, so a replay holds the reconstructed state and never the
// stream: its Fold is what Verify hands each verified segment to.
type Replayer struct {
	res       ReplayResult
	member    map[string]string    // origin path -> aggregate key
	shardMode map[uint32]core.Mode // shard -> last observed mode
	shardRuns map[uint32]int64     // shard -> last cumulative control-run count
}

// NewReplayer returns a Replayer that has folded nothing.
func NewReplayer() *Replayer {
	return &Replayer{
		res: ReplayResult{
			AdmittedByPath: map[string]int64{},
			DroppedByPath:  map[string]int64{},
			DropsByReason:  map[string]int64{},
		},
		member:    map[string]string{},
		shardMode: map[uint32]core.Mode{},
		shardRuns: map[uint32]int64{},
	}
}

// Fold folds the next events of the stream, oldest first. It keeps no
// reference to events.
func (p *Replayer) Fold(events []telemetry.Event) {
	res := &p.res
	res.Events += len(events)
	for _, e := range events {
		switch e.Type {
		case telemetry.EventPacketAdmitted:
			res.Admitted++
			res.AdmittedByPath[e.Path]++
		case telemetry.EventPacketDropped:
			res.Dropped++
			res.DroppedByPath[e.Path]++
			res.DropsByReason[e.Reason]++
		case telemetry.EventPathExpired:
			// Expiry deletes the origin state: counters restart if the
			// path reappears, and the next plan rebuild drops it from
			// its aggregate without a release event.
			delete(res.AdmittedByPath, e.Path)
			delete(res.DroppedByPath, e.Path)
			delete(p.member, e.Path)
		case telemetry.EventPathAggregated:
			p.member[e.Path] = e.Agg
		case telemetry.EventPathReleased:
			if p.member[e.Path] == e.Agg {
				delete(p.member, e.Path)
			}
		case telemetry.EventModeChanged:
			p.shardMode[e.Shard] = modeSeverity(e.Mode)
		case telemetry.EventControlRunCompleted:
			p.shardRuns[e.Shard] = int64(e.Value)
		case telemetry.EventFlowClassifiedAttack:
			// Flow-level accusations carry no snapshot counterpart to
			// reconcile; they stand on their sealed segment roots.
		case telemetry.EventFeedbackApplied:
			// Cluster limit installs gate admission *before* the router,
			// so they change no router counter the snapshot records; the
			// drops they cause never reach the router at all. Folded as a
			// no-op to keep replay-equals-snapshot exact.
		}
	}
}

// Result returns the state the events folded so far reconstruct. The
// result shares its per-path and per-reason maps with the Replayer, so
// read it once the stream is done.
func (p *Replayer) Result() *ReplayResult {
	res := p.res
	res.Arrived = res.Admitted + res.Dropped
	res.Aggregates = map[string][]string{}
	for path, agg := range p.member {
		res.Aggregates[agg] = append(res.Aggregates[agg], path)
	}
	for _, members := range res.Aggregates {
		sort.Strings(members)
	}
	res.Mode = core.ModeUncongested
	for _, m := range p.shardMode {
		if m > res.Mode {
			res.Mode = m
		}
	}
	var runs int64
	for _, n := range p.shardRuns {
		runs += n
	}
	res.ControlRuns = int(runs)
	return &res
}

// Diff compares the reconstruction against a claimed Snapshot and
// returns one human-readable line per disagreement (empty = the journal
// reproduces the claim exactly). The checks mirror the replay-equals-
// snapshot test: lifetime counters, per-reason drops both ways,
// per-path tallies both ways, aggregation membership, final mode, and
// control-run count.
func (r *ReplayResult) Diff(snap core.Snapshot) []string {
	var diffs []string
	addf := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if r.Admitted != snap.Admitted {
		addf("admitted: replayed %d, snapshot %d", r.Admitted, snap.Admitted)
	}
	if r.Arrived != snap.Arrived {
		addf("arrived: replayed %d, snapshot %d", r.Arrived, snap.Arrived)
	}
	for _, reason := range sortedKeys(snap.Drops) {
		if got, want := r.DropsByReason[reason], snap.Drops[reason]; got != want {
			addf("drops[%s]: replayed %d, snapshot %d", reason, got, want)
		}
	}
	for _, reason := range sortedKeys(r.DropsByReason) {
		if _, ok := snap.Drops[reason]; !ok {
			addf("drops[%s]: replayed %d, snapshot has no such reason", reason, r.DropsByReason[reason])
		}
	}
	snapPaths := map[string]bool{}
	for _, p := range snap.Paths {
		snapPaths[p.Key] = true
		if got := r.AdmittedByPath[p.Key]; got != p.AdmittedPackets {
			addf("path %s admitted: replayed %d, snapshot %d", p.Key, got, p.AdmittedPackets)
		}
		if got := r.DroppedByPath[p.Key]; got != p.DroppedPackets {
			addf("path %s dropped: replayed %d, snapshot %d", p.Key, got, p.DroppedPackets)
		}
	}
	for _, key := range sortedKeys(r.AdmittedByPath) {
		if !snapPaths[key] {
			addf("path %s admitted %d packets but is absent from the snapshot", key, r.AdmittedByPath[key])
		}
	}
	for _, key := range sortedKeys(r.DroppedByPath) {
		if !snapPaths[key] {
			addf("path %s dropped %d packets but is absent from the snapshot", key, r.DroppedByPath[key])
		}
	}
	snapAggs := snap.Aggregates
	if snapAggs == nil {
		snapAggs = map[string][]string{}
	}
	if !reflect.DeepEqual(r.Aggregates, snapAggs) {
		addf("aggregates: replayed %v, snapshot %v", r.Aggregates, snapAggs)
	}
	if r.Mode != snap.Mode {
		addf("mode: replayed %s, snapshot %s", r.Mode, snap.Mode)
	}
	if r.ControlRuns != snap.ControlRuns {
		addf("control runs: replayed %d, snapshot %d", r.ControlRuns, snap.ControlRuns)
	}
	return diffs
}

// sortedKeys returns m's keys sorted, for deterministic diff output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteSnapshot stores a claimed Snapshot as indented JSON (map keys
// sorted by encoding/json, so output is deterministic).
func WriteSnapshot(path string, snap core.Snapshot) error {
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("ledger: encoding snapshot: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadSnapshot loads a claimed Snapshot.
func ReadSnapshot(path string) (core.Snapshot, error) {
	var snap core.Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		return snap, fmt.Errorf("ledger: decoding snapshot %s: %w", path, err)
	}
	return snap, nil
}
