package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// EventType enumerates the pipeline decision points recorded in the trace.
type EventType uint8

const (
	// EventPacketAdmitted: a packet passed every filter and entered the
	// output queue.
	EventPacketAdmitted EventType = iota
	// EventPacketDropped: a packet was discarded; Reason carries the
	// router drop-reason label.
	EventPacketDropped
	// EventFlowClassifiedAttack: a flow was first classified as an attack
	// flow by the identification machinery (Section IV-B).
	EventFlowClassifiedAttack
	// EventPathAggregated: a path joined an aggregate (Section IV-C);
	// Agg carries the aggregate key.
	EventPathAggregated
	// EventPathReleased: a path left its aggregate and is regulated
	// individually again; Agg carries the former aggregate key.
	EventPathReleased
	// EventPathExpired: a path's flow state idled out and its accounting
	// was discarded.
	EventPathExpired
	// EventModeChanged: the output queue crossed Qmin/Qmax; Mode carries
	// the new mode label.
	EventModeChanged
	// EventControlRunCompleted: one control-loop run finished; Value
	// carries the cumulative run count.
	EventControlRunCompleted
	// EventFeedbackApplied: a cluster peer's congestion-feedback record
	// was installed as a per-path rate limit; Path carries the limited
	// path, Value the limit in bits/second (0 = released), and Peer the
	// advertising router's ID.
	EventFeedbackApplied

	numEventTypes
)

// eventTypeNames is indexed by EventType; the exhaustiveness test asserts
// every type below numEventTypes has a unique non-empty label.
var eventTypeNames = [numEventTypes]string{
	EventPacketAdmitted:       "PacketAdmitted",
	EventPacketDropped:        "PacketDropped",
	EventFlowClassifiedAttack: "FlowClassifiedAttack",
	EventPathAggregated:       "PathAggregated",
	EventPathReleased:         "PathReleased",
	EventPathExpired:          "PathExpired",
	EventModeChanged:          "ModeChanged",
	EventControlRunCompleted:  "ControlRunCompleted",
	EventFeedbackApplied:      "FeedbackApplied",
}

// NumEventTypes returns the number of defined event types.
func NumEventTypes() int { return int(numEventTypes) }

// String returns the stable wire label for t.
func (t EventType) String() string {
	if t < numEventTypes {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("EventType(%d)", uint8(t))
}

// ParseEventType maps a wire label back to its EventType.
func ParseEventType(s string) (EventType, error) {
	for i, name := range eventTypeNames {
		if name == s {
			return EventType(i), nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown event type %q", s)
}

// MarshalJSON encodes the type as its wire label.
func (t EventType) MarshalJSON() ([]byte, error) {
	if t >= numEventTypes {
		return nil, fmt.Errorf("telemetry: cannot marshal out-of-range event type %d", uint8(t))
	}
	return json.Marshal(t.String())
}

// UnmarshalJSON decodes a wire label.
func (t *EventType) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseEventType(s)
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// Event is one decision record. The struct is flat and comparable so that
// NDJSON round-trips can be checked with ==. Unused fields are omitted on
// the wire. The bytes json.Marshal produces for an Event are its
// *canonical encoding*: the ledger hashes exactly those bytes, so field
// order here is part of the evidence format (new fields append at the
// end, omitempty, never reorder).
type Event struct {
	Time   float64   `json:"t"`
	Type   EventType `json:"type"`
	Path   string    `json:"path,omitempty"`   // origin path key
	Agg    string    `json:"agg,omitempty"`    // aggregate key
	Flow   uint64    `json:"flow,omitempty"`   // flow hash
	Reason string    `json:"reason,omitempty"` // drop reason label
	Mode   string    `json:"mode,omitempty"`   // queue mode label
	Value  float64   `json:"value,omitempty"`  // event-specific payload
	Shard  uint32    `json:"shard,omitempty"`  // dataplane shard index (0 in single-router runs)
	Peer   uint32    `json:"peer,omitempty"`   // advertising router ID (cluster feedback events)
}

// Trace is a bounded ring buffer of events. Once full, the oldest events
// are overwritten; Total and Overwritten report how much history was lost.
// It is single-writer, like the simulator loop that feeds it.
type Trace struct {
	buf     []Event
	next    int
	total   int64
	dropped *Counter // optional wraparound-loss counter (nil = uncounted)
}

// NewTrace returns a trace holding at most capacity events (minimum 1).
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, 0, capacity)}
}

// SetDropCounter attaches a counter that is incremented once per event
// lost to ring wraparound, so bounded-trace losses surface on /metrics
// (TraceDroppedMetric) instead of vanishing silently. Pass nil to detach.
func (t *Trace) SetDropCounter(c *Counter) { t.dropped = c }

// Add appends one event, overwriting the oldest if the ring is full.
func (t *Trace) Add(e Event) {
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		if t.dropped != nil {
			t.dropped.Inc()
		}
		t.buf[t.next] = e
		t.next++
		if t.next == len(t.buf) {
			t.next = 0
		}
	}
	t.total++
}

// Len returns the number of events currently held.
func (t *Trace) Len() int { return len(t.buf) }

// Cap returns the ring capacity.
func (t *Trace) Cap() int { return cap(t.buf) }

// Total returns the number of events ever added.
func (t *Trace) Total() int64 { return t.total }

// Overwritten returns how many events were lost to ring wraparound.
func (t *Trace) Overwritten() int64 { return t.total - int64(len(t.buf)) }

// Events returns the held events oldest-first as a fresh slice.
func (t *Trace) Events() []Event {
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// WriteNDJSON writes the held events oldest-first, one JSON object per
// line.
func (t *Trace) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON parses an NDJSON event stream produced by WriteNDJSON. Blank
// lines are skipped; any malformed line is an error.
func ReadNDJSON(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("telemetry: NDJSON line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
