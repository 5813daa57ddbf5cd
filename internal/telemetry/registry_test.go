package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestConcurrentCounterIncrements(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("floc_test_total", "concurrent increment test", "packets")
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestConcurrentHistogramAndGauge(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("floc_test_hist", "concurrent histogram", "seconds", []float64{1, 2})
	g := reg.Gauge("floc_test_gauge", "concurrent gauge", "ratio")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1.5)
				g.Set(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("hist count = %d, want 4000", h.Count())
	}
	if math.Abs(h.Sum()-4000*1.5) > 1e-6 {
		t.Fatalf("hist sum = %v, want %v", h.Sum(), 4000*1.5)
	}
	if g.Value() != 0.5 {
		t.Fatalf("gauge = %v, want 0.5", g.Value())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x", "packets")
	b := reg.Counter("x_total", "ignored", "ignored")
	if a != b {
		t.Fatal("same name must return same counter")
	}
	a.Add(3)
	if reg.CounterValue("x_total") != 3 {
		t.Fatalf("CounterValue = %d, want 3", reg.CounterValue("x_total"))
	}
	if reg.CounterValue("absent") != 0 {
		t.Fatal("absent counter must read 0")
	}
	reg.Gauge("y", "y", "ratio").Set(2.5)
	if reg.GaugeValue("y") != 2.5 {
		t.Fatalf("GaugeValue = %v, want 2.5", reg.GaugeValue("y"))
	}
	if reg.GaugeValue("absent") != 0 {
		t.Fatal("absent gauge must read 0")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering gauge over counter family must panic")
		}
	}()
	reg.Gauge("m", "m", "")
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{10, 1, 5}) // unsorted on purpose
	for _, v := range []float64{0.5, 1, 3, 5, 7, 11} {
		h.Observe(v)
	}
	// bounds sorted to [1 5 10]; buckets (<=1, <=5, <=10, +Inf)
	want := []int64{2, 2, 1, 1}
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`floc_drops_total{reason="no_token"}`, "drops by reason", "packets").Add(4)
	reg.Counter(`floc_drops_total{reason="overflow"}`, "drops by reason", "packets").Add(2)
	reg.Gauge("floc_queue_len", "queue length", "packets").Set(17)
	reg.Histogram("floc_delay", "queue delay", "seconds", []float64{0.001, 0.01}).Observe(0.005)
	reg.Histogram(`floc_batch{shard="0"}`, "batch time", "seconds", []float64{1e-6}).Observe(0.5)

	var a, b strings.Builder
	if err := reg.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteText must be deterministic")
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE floc_drops_total counter",
		`floc_drops_total{reason="no_token"} 4`,
		`floc_drops_total{reason="overflow"} 2`,
		"# HELP floc_queue_len queue length [packets]",
		"floc_queue_len 17",
		`floc_delay_bucket{le="0.01"} 1`,
		`floc_delay_bucket{le="+Inf"} 1`,
		"floc_delay_sum 0.005",
		"floc_delay_count 1",
		`floc_batch_bucket{shard="0",le="1e-06"} 0`,
		`floc_batch_bucket{shard="0",le="+Inf"} 1`,
		`floc_batch_sum{shard="0"} 0.5`,
		`floc_batch_count{shard="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE emitted once per family even with two labeled series.
	if strings.Count(out, "# TYPE floc_drops_total") != 1 {
		t.Fatalf("family header repeated:\n%s", out)
	}
}

// TestOnCollectRunsBeforeEveryExposition: a hook may update a series, or
// register one, and the exposition it precedes shows the result.
func TestOnCollectRunsBeforeEveryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.OnCollect(func() { reg.Counter("floc_pulled_total", "read at scrape", "").Inc() })
	for _, want := range []string{"floc_pulled_total 1\n", "floc_pulled_total 2\n"} {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "", "packets")
	g := reg.Gauge("g", "", "ratio")
	h := reg.Histogram("h", "", "seconds", []float64{1, 2, 4})
	if n := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(2) }); n != 0 {
		t.Fatalf("counter allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.Set(1.25) }); n != 0 {
		t.Fatalf("gauge allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(1.5) }); n != 0 {
		t.Fatalf("histogram allocates %v per op", n)
	}
}
