package telemetry

import (
	"sort"

	"floc/internal/stats"
	"floc/internal/units"
)

// PathSample is one per-path observation taken at a control run. It
// replaces the ad-hoc per-path accumulation the experiment harness used to
// keep on the side: the recorder is the single source of truth for
// per-path allocation, drop, and conformance history. Time and Period are
// in seconds, BucketSize and Arrived in tokens.
type PathSample struct {
	Time         float64
	Path         string
	Aggregate    string // aggregate key, "" if regulated individually
	Attack       bool
	Conformance  float64
	AllocPackets units.PacketsPerSec
	BucketSize   float64
	Period       float64
	Flows        int
	AttackFlows  int
	Arrived      float64
	Drops        int64
}

// Recorder accumulates per-path control-run samples and named fixed-bin
// time series (e.g. delivered/dropped packets over sim-time). Single
// writer; reads are expected after the run finishes.
type Recorder struct {
	binWidth float64
	samples  []PathSample
	series   map[string]*stats.TimeSeries
}

// NewRecorder returns a recorder whose time series use the given bin
// width.
func NewRecorder(binWidth float64) *Recorder {
	if binWidth <= 0 {
		binWidth = 1
	}
	return &Recorder{binWidth: binWidth, series: make(map[string]*stats.TimeSeries)}
}

// BinWidth returns the time-series bin width.
func (r *Recorder) BinWidth() float64 { return r.binWidth }

// Record appends one per-path sample.
func (r *Recorder) Record(s PathSample) { r.samples = append(r.samples, s) }

// Samples returns all samples in insertion order (shared slice; callers
// must not mutate).
func (r *Recorder) Samples() []PathSample { return r.samples }

// PathSamples returns the samples for one path key, in time order.
func (r *Recorder) PathSamples(path string) []PathSample {
	var out []PathSample
	for _, s := range r.samples {
		if s.Path == path {
			out = append(out, s)
		}
	}
	return out
}

// Paths returns the sorted set of path keys that appear in the samples.
func (r *Recorder) Paths() []string {
	seen := make(map[string]bool)
	for _, s := range r.samples {
		seen[s.Path] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Series returns the named time series, creating it on first use.
func (r *Recorder) Series(name string) *stats.TimeSeries {
	ts, ok := r.series[name]
	if !ok {
		ts = stats.NewTimeSeries(r.binWidth)
		r.series[name] = ts
	}
	return ts
}

// SeriesNames returns the sorted names of all series created so far.
func (r *Recorder) SeriesNames() []string {
	out := make([]string, 0, len(r.series))
	for k := range r.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
