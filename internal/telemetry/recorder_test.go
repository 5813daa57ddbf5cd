package telemetry

import (
	"reflect"
	"testing"
)

func TestRecorderSamplesAndPaths(t *testing.T) {
	r := NewRecorder(0) // defaults to 1s bins
	if r.BinWidth() != 1 {
		t.Fatalf("default bin width = %v, want 1", r.BinWidth())
	}
	r.Record(PathSample{Time: 1, Path: "b", Conformance: 0.9})
	r.Record(PathSample{Time: 1, Path: "a", Conformance: 0.5})
	r.Record(PathSample{Time: 2, Path: "b", Conformance: 0.8, Attack: true})
	if got := r.Paths(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("paths = %v", got)
	}
	bs := r.PathSamples("b")
	if len(bs) != 2 || bs[0].Time != 1 || bs[1].Time != 2 || !bs[1].Attack {
		t.Fatalf("path samples = %+v", bs)
	}
	if len(r.Samples()) != 3 {
		t.Fatalf("samples = %d, want 3", len(r.Samples()))
	}
}

func TestRecorderSeries(t *testing.T) {
	r := NewRecorder(0.5)
	s := r.Series("delivered")
	if s != r.Series("delivered") {
		t.Fatal("same name must return same series")
	}
	s.Add(0.1, 1)
	s.Add(0.6, 1)
	if got := len(s.Bins()); got != 2 {
		t.Fatalf("bins = %d, want 2", got)
	}
	r.Series("dropped")
	if got := r.SeriesNames(); !reflect.DeepEqual(got, []string{"delivered", "dropped"}) {
		t.Fatalf("series names = %v", got)
	}
}

// TestCompiledDefault: telemetry is always compiled in, and what a
// pipeline journals is decided when it is built. The default (a registry
// only, what flocd attaches) journals nothing, so per-packet producers
// build no events; a trace ring or a sink makes Journals true.
func TestCompiledDefault(t *testing.T) {
	if New(Options{}).Journals() {
		t.Fatal("a registry-only pipeline journals events")
	}
	if !New(Options{TraceCapacity: 8}).Journals() {
		t.Fatal("a pipeline with a trace ring journals nothing")
	}
	withSink := New(Options{})
	withSink.Sink = &collectSink{}
	if !withSink.Journals() {
		t.Fatal("a pipeline with a sink journals nothing")
	}
}
