// Package telemetry is FLoc's observability layer: a metrics registry cheap
// enough for the per-packet hot path, a bounded ring buffer of typed
// decision events with an NDJSON exporter, and a control-run time-series
// recorder. The pipeline (router, control loop, drop filter, defenses,
// experiment harness) emits into it; binaries surface it behind -metrics
// and -trace flags.
//
// Everything here is passive and deterministic: the package never reads
// clocks or random state, it only stamps what callers hand it (sim-time).
// Counters, gauges and histograms are safe for concurrent use; their
// cells (cell.go), Trace and Recorder are single-writer like the
// simulator itself.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and allocation-free. A writer that would
// otherwise share the counter with another per event takes a Cell. Two
// words on purpose: a counter nobody writes through a cell pays for
// nothing else.
type Counter struct {
	v     atomic.Int64
	cells cellList[CounterCell]
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be non-negative for the exposition to stay
// monotone; this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count: what Inc and Add put in the counter
// itself plus every cell.
func (c *Counter) Value() int64 {
	n := c.v.Load()
	for _, cell := range c.cells.all() {
		n += cell.v.Load()
	}
	return n
}

// Gauge is a float64 metric that can go up and down. All methods are safe
// for concurrent use and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value stored (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with the Prometheus cumulative
// bucket convention: bucket i counts observations <= bounds[i], with an
// implicit +Inf bucket at the end. Observe is safe for concurrent use and
// allocation-free; a writer that would otherwise share the histogram with
// another per event takes a Cell. Every reader adds the cells in.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Int64
	sumBits atomic.Uint64 // CAS-updated float64 running sum
	n       atomic.Int64
	cells   cellList[HistogramCell]
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[bucket(h.bounds, v)].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Bounds returns a copy of the finite bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Counts returns the per-bucket (non-cumulative) counts; the final entry
// is the +Inf bucket.
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	for _, cell := range h.cells.all() {
		for i := range cell.counts {
			out[i] += cell.counts[i].Load()
		}
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	n := h.n.Load()
	for _, cell := range h.cells.all() {
		for i := range cell.counts {
			n += cell.counts[i].Load()
		}
	}
	return n
}

// Sum returns the running sum of observed values: the shared sum plus
// each cell's, in the order the cells were made.
func (h *Histogram) Sum() float64 {
	sum := math.Float64frombits(h.sumBits.Load())
	for _, cell := range h.cells.all() {
		sum += math.Float64frombits(cell.sumBits.Load())
	}
	return sum
}

// metricKind discriminates the exposition families; the text encoder
// switches over it and must render every kind.
//
//floc:enum
type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "unknown"
}

type metricMeta struct {
	kind metricKind
	help string
	unit string
}

// Registry is a get-or-create store of named metrics. Series names follow
// the Prometheus text convention: a bare family name
// ("floc_admitted_packets_total") or a family with a label set
// ("floc_drops_total{reason=\"no_token\"}"). Registration takes a lock;
// the returned handles are lock-free, so hot paths resolve their handles
// once up front.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	families map[string]metricMeta
	collect  []func() // OnCollect hooks, run before every exposition
}

// NewRegistry returns a registry pre-stamped with the build-info gauge.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		families: make(map[string]metricMeta),
	}
	r.stampBuildInfo()
	return r
}

// stampBuildInfo registers the floc_build_info{version,go} identity
// gauge (value always 1) so every /metrics scrape names the binary that
// produced it. Version prefers the VCS revision over the module version
// ("(devel)" for an un-tagged local build); both are constant for the
// life of the process, so stamping at init keeps exposition text
// deterministic within a run.
func (r *Registry) stampBuildInfo() {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" {
			version = v
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				version = s.Value[:12]
			}
		}
	}
	r.Gauge(`floc_build_info{version="`+version+`",go="`+runtime.Version()+`"}`,
		"build identity of this binary; value is always 1", "").Set(1)
}

// OnCollect registers fn to run at the start of every WriteText, before
// any value is read: the place to refresh a metric whose source of truth
// lives outside the process (a kernel table, say) and is read when
// someone looks, never per event. fn is called from whichever goroutine
// renders the exposition and must be safe for concurrent use.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.collect = append(r.collect, fn)
	r.mu.Unlock()
}

// family strips a trailing {label="..."} block from a series name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) register(name, help, unit string, kind metricKind) {
	fam := family(name)
	if m, ok := r.families[fam]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric family %q registered as %s and %s", fam, m.kind, kind))
		}
		return
	}
	r.families[fam] = metricMeta{kind: kind, help: help, unit: unit}
}

// Counter returns the counter registered under name, creating it with the
// given help text and unit label on first use. Unit is documentation (e.g.
// "packets", "bits/s").
func (r *Registry) Counter(name, help, unit string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.register(name, help, unit, counterKind)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help, unit string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.register(name, help, unit, gaugeKind)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use. Later calls ignore bounds.
func (r *Registry) Histogram(name, help, unit string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.register(name, help, unit, histogramKind)
	h := newHistogram(bounds)
	r.hists[name] = h
	return h
}

// CounterValue returns the value of the named counter, or 0 if it was
// never registered. Intended for readers (reports, tests) that do not want
// to force-create series.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// GaugeValue returns the value of the named gauge, or 0 if absent.
func (r *Registry) GaugeValue(name string) float64 {
	r.mu.Lock()
	g := r.gauges[name]
	r.mu.Unlock()
	if g == nil {
		return 0
	}
	return g.Value()
}

// Names returns every registered series name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in the Prometheus text exposition format,
// series sorted by name so output is deterministic. Unit labels are folded
// into the HELP line as a "[unit]" suffix.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	collect := r.collect
	r.mu.Unlock()
	for _, fn := range collect {
		fn()
	}

	r.mu.Lock()
	type series struct {
		name string
		kind metricKind
		c    *Counter
		g    *Gauge
		h    *Histogram
	}
	all := make([]series, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n, c := range r.counters {
		all = append(all, series{name: n, kind: counterKind, c: c})
	}
	for n, g := range r.gauges {
		all = append(all, series{name: n, kind: gaugeKind, g: g})
	}
	for n, h := range r.hists {
		all = append(all, series{name: n, kind: histogramKind, h: h})
	}
	fams := make(map[string]metricMeta, len(r.families))
	for f, m := range r.families {
		fams[f] = m
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	var b strings.Builder
	lastFam := ""
	for _, s := range all {
		fam := family(s.name)
		if fam != lastFam {
			meta := fams[fam]
			help := meta.help
			if meta.unit != "" {
				help += " [" + meta.unit + "]"
			}
			fmt.Fprintf(&b, "# HELP %s %s\n", fam, help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam, meta.kind)
			lastFam = fam
		}
		switch s.kind {
		case counterKind:
			fmt.Fprintf(&b, "%s %d\n", s.name, s.c.Value())
		case gaugeKind:
			fmt.Fprintf(&b, "%s %s\n", s.name, formatFloat(s.g.Value()))
		case histogramKind:
			// The suffixes go on the family name, before its labels:
			// fam_bucket{shard="0",le="1"}, fam_sum{shard="0"}.
			labels := s.name[len(fam):]
			sep := "{"
			if labels != "" {
				sep = labels[:len(labels)-1] + ","
			}
			counts := s.h.Counts()
			bounds := s.h.Bounds()
			var cum int64
			for i, n := range counts {
				cum += n
				le := "+Inf"
				if i < len(bounds) {
					le = formatFloat(bounds[i])
				}
				fmt.Fprintf(&b, "%s_bucket%sle=%q} %d\n", fam, sep, le, cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", fam, labels, formatFloat(s.h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", fam, labels, s.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
