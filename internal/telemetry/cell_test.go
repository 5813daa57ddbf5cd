package telemetry

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

func text(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCellsAddIntoEveryRead: a cell made before the first read, a cell
// made after it, and the shared handle's own Inc sum exactly, on every
// read surface there is.
func TestCellsAddIntoEveryRead(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pkts_total", "", "packets")
	h := reg.Histogram("delay", "", "seconds", []float64{1, 2})

	c1, h1 := c.Cell(), h.Cell()
	for i := 0; i < 5; i++ {
		c1.Inc()
	}
	c.Inc()
	h1.Observe(0.5)
	h.Observe(1.5)
	if c.Value() != 6 || reg.CounterValue("pkts_total") != 6 {
		t.Fatalf("counter reads %d and %d, want 6", c.Value(), reg.CounterValue("pkts_total"))
	}
	if got := h.Counts(); !reflect.DeepEqual(got, []int64{1, 1, 0}) || h.Count() != 2 || h.Sum() != 2 {
		t.Fatalf("histogram reads counts %v count %d sum %v", got, h.Count(), h.Sum())
	}

	c2, h2 := c.Cell(), h.Cell() // after the first read
	c2.Inc()
	c2.Inc()
	c1.Inc()
	h2.Observe(7)
	h2.Observe(2)
	if c.Value() != 9 || reg.CounterValue("pkts_total") != 9 {
		t.Fatalf("counter reads %d and %d, want 9", c.Value(), reg.CounterValue("pkts_total"))
	}
	if got := h.Counts(); !reflect.DeepEqual(got, []int64{1, 2, 1}) || h.Count() != 4 || h.Sum() != 11 {
		t.Fatalf("histogram reads counts %v count %d sum %v", got, h.Count(), h.Sum())
	}
	out := text(t, reg)
	for _, want := range []string{
		"pkts_total 9\n",
		`delay_bucket{le="1"} 1` + "\n",
		`delay_bucket{le="2"} 3` + "\n",
		`delay_bucket{le="+Inf"} 4` + "\n",
		"delay_sum 11\n",
		"delay_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}
}

// TestHistogramCellBucketsLikeSearch: le is inclusive, so a value equal
// to a bound belongs to that bound's bucket; NaN compares false with
// everything and belongs to +Inf. The reference is the binary search
// Observe used before the two shared one scan.
func TestHistogramCellBucketsLikeSearch(t *testing.T) {
	bounds := []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1}
	values := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, -1, 2}
	for _, b := range bounds {
		values = append(values, b, math.Nextafter(b, 0), math.Nextafter(b, 2))
	}
	for _, v := range values {
		shared, viaCell := newHistogram(bounds), newHistogram(bounds)
		shared.Observe(v)
		viaCell.Cell().Observe(v)
		want := make([]int64, len(bounds)+1)
		want[sort.SearchFloat64s(bounds, v)] = 1
		if got := shared.Counts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Observe(%v) counted %v, want %v", v, got, want)
		}
		if got := viaCell.Counts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cell Observe(%v) counted %v, want %v", v, got, want)
		}
		if viaCell.Count() != 1 {
			t.Fatalf("cell Observe(%v): count %d", v, viaCell.Count())
		}
	}
}

// TestWriteTextSameThroughCells: the exposition cannot tell whether its
// samples arrived through cells or through the shared handles.
func TestWriteTextSameThroughCells(t *testing.T) {
	samples := []float64{0.3, 0.0007, 0.1, 12, 0.031, 1e-4, 0.9999, 0.25}
	build := func(cells bool) string {
		reg := NewRegistry()
		c := reg.Counter(`drops_total{reason="no-token"}`, "drops by reason", "packets")
		h := reg.Histogram("delay_seconds", "queue delay", "seconds", []float64{1e-3, 1e-2, 0.1, 1})
		inc, observe := c.Inc, h.Observe
		if cells {
			inc, observe = c.Cell().Inc, h.Cell().Observe
		}
		for _, v := range samples {
			inc()
			observe(v)
		}
		return text(t, reg)
	}
	if shared, viaCells := build(false), build(true); shared != viaCells {
		t.Fatalf("expositions differ:\n--- shared handles\n%s--- cells\n%s", shared, viaCells)
	}
}

// TestCellsOwnTheirCacheLines pins the padding arithmetic.
func TestCellsOwnTheirCacheLines(t *testing.T) {
	if n := reflect.TypeOf(CounterCell{}).Size(); n != cacheLine {
		t.Fatalf("CounterCell is %d bytes, want %d", n, cacheLine)
	}
	if n := reflect.TypeOf(HistogramCell{}).Size(); n != cacheLine {
		t.Fatalf("HistogramCell is %d bytes, want %d", n, cacheLine)
	}
	if n := reflect.TypeOf(Counter{}).Size(); n > 16 {
		t.Fatalf("Counter is %d bytes, want at most two words", n)
	}
	if n := cap(newHistogram(make([]float64, 9)).Cell().counts); n%8 != 0 {
		t.Fatalf("cell bucket array holds %d words, not whole cache lines", n)
	}
}

// TestCellWritersBesideAScraper: one writer per cell, Inc on the shared
// handle, and a reader, all at once; every read is monotone and the
// final one exact. Meaningful under -race.
func TestCellWritersBesideAScraper(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pkts_total", "", "packets")
	h := reg.Histogram("delay", "", "seconds", []float64{1, 2})
	const writers, each = 3, 20000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		cc, hc := c.Cell(), h.Cell()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				cc.Inc()
				hc.Observe(1)
				c.Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var lastC, lastH int64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		nc, nh := reg.CounterValue("pkts_total"), h.Count()
		if nc < lastC || nh < lastH {
			t.Fatalf("reads went backwards: counter %d after %d, histogram %d after %d", nc, lastC, nh, lastH)
		}
		lastC, lastH = nc, nh
		_ = text(t, reg)
	}
	if c.Value() != 2*writers*each || h.Count() != writers*each || h.Sum() != writers*each {
		t.Fatalf("final counter %d, histogram count %d sum %v", c.Value(), h.Count(), h.Sum())
	}
}

func TestZeroAllocCellInc(t *testing.T) {
	cell := NewRegistry().Counter("c_total", "", "packets").Cell()
	if n := testing.AllocsPerRun(100, cell.Inc); n != 0 {
		t.Fatalf("counter cell allocates %v per op", n)
	}
}

func TestZeroAllocCellObserve(t *testing.T) {
	cell := NewRegistry().Histogram("h", "", "seconds", []float64{1, 2, 4}).Cell()
	if n := testing.AllocsPerRun(100, func() { cell.Observe(1.5) }); n != 0 {
		t.Fatalf("histogram cell allocates %v per op", n)
	}
}

// BenchmarkRegistryTwoWriters is the mechanism in isolation: two
// goroutines metering one series, through the shared handle and through
// a cell each. ns/op is wall time per write with both writers running.
func BenchmarkRegistryTwoWriters(b *testing.B) {
	twoWriters := func(b *testing.B, writer func() func()) {
		b.SetParallelism(1)
		prev := runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
		b.RunParallel(func(pb *testing.PB) {
			write := writer()
			for pb.Next() {
				write()
			}
		})
	}
	bounds := []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1}
	b.Run("counter/shared", func(b *testing.B) {
		c := NewRegistry().Counter("c_total", "", "")
		twoWriters(b, func() func() { return c.Inc })
	})
	b.Run("counter/cells", func(b *testing.B) {
		c := NewRegistry().Counter("c_total", "", "")
		twoWriters(b, func() func() { return c.Cell().Inc })
	})
	b.Run("histogram/shared", func(b *testing.B) {
		h := NewRegistry().Histogram("h", "", "", bounds)
		twoWriters(b, func() func() { return func() { h.Observe(2e-3) } })
	})
	b.Run("histogram/cells", func(b *testing.B) {
		h := NewRegistry().Histogram("h", "", "", bounds)
		twoWriters(b, func() func() { cell := h.Cell(); return func() { cell.Observe(2e-3) } })
	})
}
