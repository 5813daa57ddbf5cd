package telemetry

// TraceDroppedMetric is the registry counter name for events lost to
// trace-ring wraparound. It is registered wherever a bounded trace is
// wired to a registry, so a clean run exports an explicit zero.
const TraceDroppedMetric = "floc_trace_dropped_events_total"

// Options configures a Telemetry instance.
type Options struct {
	// TraceCapacity is the event ring size; 0 disables the trace.
	TraceCapacity int
	// RecorderBinWidth is the recorder time-series bin width in seconds
	// (defaults to 1s when a recorder is enabled).
	RecorderBinWidth float64
	// Recorder enables the control-run time-series recorder.
	Recorder bool
}

// EventSink receives a copy of every emitted event, in emission order.
// It is the seam the forensic ledger plugs into: the bounded Trace ring
// keeps a recent window in memory, while a sink can stream the full
// event history somewhere durable. An implementation shared by several
// emitters (e.g. the dataplane's shard routers) must be safe for
// concurrent use; the Trace itself stays single-writer.
type EventSink interface {
	Emit(Event)
}

// Telemetry bundles the observability surfaces. A nil *Telemetry is
// the disabled state: producers guard emission with
// `if telemetry.Compiled && t != nil`, so a disabled pipeline takes a
// single predictable branch and allocates nothing.
type Telemetry struct {
	Registry *Registry
	Trace    *Trace    // nil unless Options.TraceCapacity > 0
	Recorder *Recorder // nil unless Options.Recorder
	Sink     EventSink // nil unless an event stream consumer is attached
	// Labels, such as `shard="1"`, name this producer's own series among
	// producers sharing Registry: a router adds them to the gauges of its
	// state, which would otherwise overwrite each other. Counters and
	// histograms sum across producers and take none. Empty for a producer
	// alone on its registry.
	Labels string
}

// New returns a Telemetry with a fresh registry and, per opts, a trace
// ring and recorder. A trace created here counts its wraparound losses
// on the registry's TraceDroppedMetric counter.
func New(opts Options) *Telemetry {
	t := &Telemetry{Registry: NewRegistry()}
	if opts.TraceCapacity > 0 {
		t.Trace = NewTrace(opts.TraceCapacity)
		t.Trace.SetDropCounter(t.Registry.Counter(TraceDroppedMetric,
			"events lost to trace ring wraparound", "events"))
	}
	if opts.Recorder {
		t.Recorder = NewRecorder(opts.RecorderBinWidth)
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
