package telemetry

// TraceDroppedMetric is the registry counter name for events lost to
// trace-ring wraparound. It is registered wherever a bounded trace is
// wired to a registry, so a clean run exports an explicit zero.
const TraceDroppedMetric = "floc_trace_dropped_events_total"

// EventSink receives a copy of every emitted event, in emission order.
// It is the one way events leave a process: flocd -ledger and flocsim
// -ledger attach a ledger.Sealer here, which streams the full history
// to disk. An implementation shared by several emitters (e.g. the
// dataplane's shard routers) must be safe for concurrent use; the
// bounded Trace ring, which tests read, stays single-writer.
type EventSink interface {
	Emit(Event)
}

// Telemetry bundles the observability surfaces. A nil *Telemetry is
// the disabled state: producers guard emission with `if t != nil`, so a
// disabled pipeline takes a single predictable branch and allocates
// nothing.
type Telemetry struct {
	Registry *Registry
	Trace    *Trace    // nil unless New was given a trace capacity
	Sink     EventSink // nil unless an event stream consumer is attached
	// Labels, such as `shard="1"`, name this producer's own series among
	// producers sharing Registry: a router adds them to the gauges of its
	// state, which would otherwise overwrite each other. Counters and
	// histograms sum across producers and take none. Empty for a producer
	// alone on its registry.
	Labels string
}

// New returns a Telemetry with a fresh registry and, when traceCapacity
// is positive, an event ring of that many events that counts its
// wraparound losses on the registry's TraceDroppedMetric counter.
func New(traceCapacity int) *Telemetry {
	t := &Telemetry{Registry: NewRegistry()}
	if traceCapacity > 0 {
		t.Trace = NewTrace(traceCapacity)
		t.Trace.SetDropCounter(t.Registry.Counter(TraceDroppedMetric,
			"events lost to trace ring wraparound", "events"))
	}
	return t
}

// Emit hands e to the trace ring and the sink, whichever are enabled.
// Safe on a nil receiver and with both disabled, so producers can call
// it unconditionally off the hot path. The nil fast path must stay
// inlinable — a disabled pipeline's whole budget is one predicted
// branch — so everything past the receiver check lives in emit.
func (t *Telemetry) Emit(e Event) {
	if t == nil {
		return
	}
	t.emit(e)
}

// Journals reports whether an emitted event would reach a ring or a
// sink. A producer that emits per packet asks before it builds the
// event, so a pipeline with only a registry attached constructs nothing
// for Emit to discard. t must not be nil.
func (t *Telemetry) Journals() bool { return t.Trace != nil || t.Sink != nil }

func (t *Telemetry) emit(e Event) {
	if t.Trace != nil {
		t.Trace.Add(e)
	}
	if t.Sink != nil {
		t.Sink.Emit(e)
	}
}
