// Package stats provides the measurement utilities shared by the simulators
// and the experiment harness: running moments, EWMAs, empirical CDFs,
// fixed-bin time series, and rate meters.
//
// All types are plain values with useful zero states where possible, and
// none of them allocate on the hot path once constructed.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Running accumulates count, mean and variance of a stream of samples using
// Welford's online algorithm. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples seen.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 if no samples were added.
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance, or 0 with fewer than 2 samples.
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest sample, or 0 if no samples were added.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample, or 0 if no samples were added.
func (r *Running) Max() float64 { return r.max }

// Sum returns n*mean, the total of all samples.
func (r *Running) Sum() float64 { return float64(r.n) * r.mean }

// EWMA is an exponentially weighted moving average with smoothing factor
// beta: v' = beta*x + (1-beta)*v. The first sample initializes the average.
type EWMA struct {
	Beta  float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1].
func NewEWMA(beta float64) *EWMA {
	if beta <= 0 || beta > 1 {
		panic(fmt.Sprintf("stats: EWMA beta %v out of (0,1]", beta))
	}
	return &EWMA{Beta: beta}
}

// Add incorporates one observation and returns the updated average.
func (e *EWMA) Add(x float64) float64 {
	if !e.init {
		e.value, e.init = x, true
		return x
	}
	e.value = e.Beta*x + (1-e.Beta)*e.value
	return e.value
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample has been added.
func (e *EWMA) Initialized() bool { return e.init }

// Set forces the average to v and marks it initialized.
func (e *EWMA) Set(v float64) { e.value, e.init = v, true }

// CDF is an empirical cumulative distribution function over collected
// samples. The zero value is ready to use.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-th empirical quantile (q in [0,1]) using the
// nearest-rank method. It returns 0 when no samples exist.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.samples[idx]
}

// At returns the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.samples))
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}

// Points returns n evenly spaced (value, cumulative-fraction) points
// suitable for plotting the CDF curve.
func (c *CDF) Points(n int) []Point {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.ensureSorted()
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i+1) / float64(n)
		pts = append(pts, Point{X: c.Quantile(q), Y: q})
	}
	return pts
}

// Point is one (x, y) sample of a curve.
type Point struct {
	X, Y float64
}

// TimeSeries accumulates values into fixed-width time bins, e.g. bandwidth
// per second. Bins start at time 0.
type TimeSeries struct {
	binWidth float64
	bins     []float64
}

// NewTimeSeries returns a TimeSeries with the given bin width (> 0).
func NewTimeSeries(binWidth float64) *TimeSeries {
	if binWidth <= 0 {
		panic("stats: TimeSeries bin width must be positive")
	}
	return &TimeSeries{binWidth: binWidth}
}

// Add accumulates value v at time t (t >= 0; negative times go to bin 0).
func (ts *TimeSeries) Add(t, v float64) {
	bin := 0
	if t > 0 {
		bin = int(t / ts.binWidth)
	}
	for bin >= len(ts.bins) {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[bin] += v
}

// BinWidth returns the configured bin width.
func (ts *TimeSeries) BinWidth() float64 { return ts.binWidth }

// Bins returns the accumulated per-bin totals. The returned slice is the
// internal buffer; callers must not modify it.
func (ts *TimeSeries) Bins() []float64 { return ts.bins }

// Rate returns per-bin totals divided by the bin width (a rate series).
func (ts *TimeSeries) Rate() []float64 {
	out := make([]float64, len(ts.bins))
	for i, v := range ts.bins {
		out[i] = v / ts.binWidth
	}
	return out
}

// Total returns the sum over all bins.
func (ts *TimeSeries) Total() float64 {
	sum := 0.0
	for _, v := range ts.bins {
		sum += v
	}
	return sum
}

// RangeTotal sums the value accumulated in [t0, t1) (aligned to bins).
func (ts *TimeSeries) RangeTotal(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	lo := int(t0 / ts.binWidth)
	hi := int(math.Ceil(t1 / ts.binWidth))
	if lo < 0 {
		lo = 0
	}
	if hi > len(ts.bins) {
		hi = len(ts.bins)
	}
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += ts.bins[i]
	}
	return sum
}

// Histogram counts samples in fixed-width value bins over [lo, hi); values
// outside the range are clamped to the first/last bin.
type Histogram struct {
	lo, hi float64
	counts []int
	n      int
}

// NewHistogram returns a Histogram with nbins bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if hi <= lo || nbins <= 0 {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]int, nbins)}
}

// Add counts one sample.
func (h *Histogram) Add(x float64) {
	i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

// Counts returns the per-bin counts (internal buffer; do not modify).
func (h *Histogram) Counts() []int { return h.counts }

// N returns the total number of samples.
func (h *Histogram) N() int { return h.n }

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.hi - h.lo) / float64(len(h.counts))
	return h.lo + (float64(i)+0.5)*w
}

// FormatRow renders a label followed by columns, tab-separated, for the
// experiment harnesses' plain-text table output.
func FormatRow(label string, cols ...float64) string {
	var b strings.Builder
	b.WriteString(label)
	for _, c := range cols {
		fmt.Fprintf(&b, "\t%.4f", c)
	}
	return b.String()
}
