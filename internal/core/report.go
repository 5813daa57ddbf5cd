package core

import (
	"fmt"
	"sort"
	"strings"
)

// Snapshot is a point-in-time view of the router's complete externally
// relevant state, for debugging, experiment post-mortems, and operator
// tooling.
type Snapshot struct {
	// Mode is the current queue mode.
	Mode Mode
	// QueueLen, QMin and QMax describe the buffer state.
	QueueLen int
	QMin     float64
	QMax     float64
	// GuaranteedPaths is the number of bandwidth-guaranteed identifiers.
	GuaranteedPaths int
	// Paths is the per-origin-path state.
	Paths []PathInfo
	// Aggregates maps aggregate keys to member path keys.
	Aggregates map[string][]string
	// Arrived, Admitted and Drops summarize lifetime counters.
	Arrived  int64
	Admitted int64
	Drops    map[string]int64
	// FilterLive is the number of live drop records.
	FilterLive int
	// FilterMemoryBytes is the drop filter's memory footprint.
	FilterMemoryBytes int
	// ControlRuns counts control-loop executions.
	ControlRuns int
}

// dropReasonNames maps reasons to stable labels. Being an array of
// [numDropReasons] rather than a map, adding a DropReason without a label
// leaves an empty string that the exhaustiveness test rejects — a reason
// can no longer silently vanish from reports.
var dropReasonNames = [numDropReasons]string{
	DropNoToken:         "no-token",
	DropRandomThreshold: "random-threshold",
	DropPreferential:    "preferential",
	DropBlocked:         "blocked",
	DropOverflow:        "overflow",
}

// String returns the reason's stable label, shared by Snapshot.Drops and
// the telemetry PacketDropped event's Reason field.
func (d DropReason) String() string {
	if d < numDropReasons {
		return dropReasonNames[d]
	}
	return "unknown"
}

// ParseDropReason maps a stable label back to its DropReason.
func ParseDropReason(s string) (DropReason, bool) {
	for i, name := range dropReasonNames {
		if name == s {
			return DropReason(i), true
		}
	}
	return 0, false
}

// Snapshot captures the router's current state.
func (r *Router) Snapshot() Snapshot {
	drops := make(map[string]int64, int(numDropReasons))
	// Iterate the reasons, not the label table: every reason below
	// numDropReasons appears even if a label were missing.
	for reason := DropReason(0); reason < numDropReasons; reason++ {
		drops[reason.String()] = r.dropCounts[reason]
	}
	return Snapshot{
		Mode:              r.Mode(),
		QueueLen:          r.fifo.Len(),
		QMin:              r.qmin,
		QMax:              r.qmax,
		GuaranteedPaths:   r.GuaranteedPathCount(),
		Paths:             r.PathInfos(),
		Aggregates:        r.Aggregates(),
		Arrived:           r.arrived,
		Admitted:          r.admitted,
		Drops:             drops,
		FilterLive:        r.filter.Live(),
		FilterMemoryBytes: r.filter.MemoryBytes(),
		ControlRuns:       r.controlRuns,
	}
}

// String renders the snapshot as a human-readable report.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FLoc router: mode=%s queue=%d (Qmin=%.0f Qmax=%.0f) paths=%d admitted=%d\n",
		s.Mode, s.QueueLen, s.QMin, s.QMax, s.GuaranteedPaths, s.Admitted)
	names := make([]string, 0, len(s.Drops))
	for name := range s.Drops {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("drops:")
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%d", name, s.Drops[name])
	}
	fmt.Fprintf(&b, "\nfilter: live=%d mem=%dB control-runs=%d\n",
		s.FilterLive, s.FilterMemoryBytes, s.ControlRuns)
	for _, p := range s.Paths {
		flag := " "
		if p.Attack {
			flag = "A"
		}
		agg := ""
		if p.Aggregated {
			agg = " -> " + p.AggregateKey
		}
		fmt.Fprintf(&b, "  [%s] %-12s E=%.2f flows=%d(%d atk) alloc=%.0fpkt/s T=%.1fms rtt=%.0fms%s\n",
			flag, p.Key, p.Conformance, p.Flows, p.AttackFlows,
			p.AllocPackets, p.Period*1000, p.RTT*1000, agg)
	}
	aggKeys := make([]string, 0, len(s.Aggregates))
	for key := range s.Aggregates {
		aggKeys = append(aggKeys, key)
	}
	sort.Strings(aggKeys)
	for _, key := range aggKeys {
		fmt.Fprintf(&b, "  aggregate %s: %s\n", key, strings.Join(s.Aggregates[key], ", "))
	}
	return b.String()
}
