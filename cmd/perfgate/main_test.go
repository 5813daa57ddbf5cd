package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// micro renders one family's paired runs as the perf-gate records them:
// pair k is parent[k] and change[k], the side that runs first
// alternating. A NaN value stands for a run whose binary reported
// nothing, which the gate records without a metric.
func micro(family string, parent, change []float64) string {
	var b strings.Builder
	line := func(side string, ns float64) {
		if math.IsNaN(ns) {
			fmt.Fprintf(&b, `{"family":%q,"side":%q}`+"\n", family, side)
			return
		}
		fmt.Fprintf(&b, `{"family":%q,"side":%q,"ns_per_op":%g,"allocs_per_op":0}`+"\n", family, side, ns)
	}
	for k := 0; k < len(parent) || k < len(change); k++ {
		first, second := "parent", "change"
		if k%2 == 1 {
			first, second = second, first
		}
		for _, side := range []string{first, second} {
			vals := parent
			if side == "change" {
				vals = change
			}
			if k < len(vals) {
				line(side, vals[k])
			}
		}
	}
	return b.String()
}

// writeFile writes text to a file of its own and returns the path.
func writeFile(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustRuns(t *testing.T, text, key string) []run {
	t.Helper()
	runs, err := readRuns(writeFile(t, text), key)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// runGate gates text and returns whether it failed and what it printed.
func runGate(t *testing.T, text string) (bool, string) {
	t.Helper()
	var out strings.Builder
	failed := gate(&out, mustRuns(t, text, "family"))
	return failed, out.String()
}

// ten is a parent family with a spread: median 29, quartiles 24 and 32,
// so a shift needs a median gap above 8.
var ten = []float64{20, 22, 24, 26, 28, 30, 32, 34, 36, 38}

// shifted returns ten with d added to the pairs in slower, the value of
// the pairs in tied kept, and 1 taken from the rest.
func shifted(d float64, slower, tied int) []float64 {
	out := make([]float64, len(ten))
	for k, p := range ten {
		switch {
		case k < slower:
			out[k] = p + d
		case k < slower+tied:
			out[k] = p
		default:
			out[k] = p - 1
		}
	}
	return out
}

func TestWithinBudgetPasses(t *testing.T) {
	change := []float64{21, 21, 25, 25, 29, 29, 33, 33, 37, 37} // won 5, lost 5
	failed, out := runGate(t, micro("router_enqueue", ten, change))
	if failed || !strings.Contains(out, "router_enqueue ns/op") {
		t.Fatalf("failed=%v, want a passing router_enqueue row:\n%s", failed, out)
	}
}

func TestNsRegressionFails(t *testing.T) {
	failed, out := runGate(t, micro("router_enqueue", ten, shifted(10, 10, 0)))
	if !failed || !strings.Contains(out, "router_enqueue ns/op") || !strings.Contains(out, "FAIL: slower") {
		t.Fatalf("failed=%v, want router_enqueue named slower:\n%s", failed, out)
	}
}

// TestRegressionRule is §8's rule at its edges: nine pairs in ten, ties
// counting for neither side, and a median gap beyond the parent's
// quartile distance.
func TestRegressionRule(t *testing.T) {
	for _, tc := range []struct {
		name             string
		change           []float64
		regressed, gains bool
	}{
		{"10 of 10 slower", shifted(20, 10, 0), true, false},
		{"9 of 10 slower", shifted(20, 9, 0), true, false},
		{"8 of 10 slower", shifted(20, 8, 0), false, false},
		{"9 slower, 1 tie", shifted(20, 9, 1), true, false},
		{"8 slower, 2 ties", shifted(20, 8, 2), false, false},
		{"10 of 10 slower inside the quartiles", shifted(5, 10, 0), false, false},
		{"10 of 10 faster", shifted(-20, 10, 0), false, true},
		{"9 faster, 1 tie", shifted(-20, 9, 1), false, true},
		{"8 faster, 2 ties", shifted(-20, 8, 2), false, false},
	} {
		g := groups(mustRuns(t, micro("f", ten, tc.change), "family"))[0]
		v, ok := compare(g, "ns_per_op", true)
		if !ok || v.pairs != 10 {
			t.Fatalf("%s: ok=%v pairs=%d, want 10 pairs", tc.name, ok, v.pairs)
		}
		if v.regressed() != tc.regressed || v.gained() != tc.gains {
			t.Errorf("%s: regressed=%v gained=%v (won %d lost %d, medians %g -> %g, iqr %g), want %v %v",
				tc.name, v.regressed(), v.gained(), v.won, v.lost, v.parentMed, v.changeMed, v.parentIQR,
				tc.regressed, tc.gains)
		}
	}
}

// TestQuartileIndexing: quartiles index the sorted values at
// floor((n-1)·q) without interpolating, and the median averages the two
// middle values of an even count.
func TestQuartileIndexing(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 1, 3, 2}, 1, 2.5, 3},
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{ten, 24, 29, 32},
		{[]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 10}, 2, 5, 7},
	} {
		s := append([]float64(nil), tc.xs...)
		sort.Float64s(s)
		if q1, m, q3 := quartile(s, 0.25), median(s), quartile(s, 0.75); q1 != tc.q1 || m != tc.median || q3 != tc.q3 {
			t.Errorf("%v: quartiles %g %g %g, want %g %g %g", tc.xs, q1, m, q3, tc.q1, tc.median, tc.q3)
		}
	}
}

func TestAllocsIncreaseFails(t *testing.T) {
	withAllocs := func(parent, change []int) string {
		var b strings.Builder
		for k := range parent {
			fmt.Fprintf(&b, `{"family":"limit_install","side":"parent","ns_per_op":2000,"allocs_per_op":%d}`+"\n", parent[k])
			fmt.Fprintf(&b, `{"family":"limit_install","side":"change","ns_per_op":2000,"allocs_per_op":%d}`+"\n", change[k])
		}
		return b.String()
	}
	six := []int{6, 6, 6, 6, 6, 6, 6, 6, 6, 6}
	failed, out := runGate(t, withAllocs(six, []int{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}))
	if !failed || !strings.Contains(out, "limit_install allocs/op") || !strings.Contains(out, "FAIL: more allocations") {
		t.Fatalf("one more allocation in every pair: failed=%v\n%s", failed, out)
	}
	if failed, out := runGate(t, withAllocs(six, []int{7, 7, 7, 7, 7, 7, 7, 7, 7, 6})); failed {
		t.Fatalf("one more allocation in 9 of 10 pairs failed the gate:\n%s", out)
	}
}

func TestDroppedFamilyFails(t *testing.T) {
	nan := []float64{math.NaN()}
	for name, text := range map[string]string{
		"reported nothing": micro("wire_decode", ten[:1], nan),
		"never ran":        micro("wire_decode", ten[:1], nil),
	} {
		failed, out := runGate(t, text)
		if !failed || !strings.Contains(out, "wire_decode") || !strings.Contains(out, "did not report") {
			t.Errorf("%s: failed=%v, want wire_decode named:\n%s", name, failed, out)
		}
	}
}

func TestDroppedArrayEntryFails(t *testing.T) {
	text := micro("router_admit_ws/prefetch", ten, ten) + micro("router_admit_ws/plain", ten, nil)
	failed, out := runGate(t, text)
	if !failed || !strings.Contains(out, "router_admit_ws/plain") || strings.Count(out, "FAIL") != 1 {
		t.Fatalf("failed=%v, want router_admit_ws/plain alone to fail:\n%s", failed, out)
	}
}

// TestNewFamilySkipped: a family the parent's binary does not have is
// listed and not gated, as is a parent run of a family the change splits
// into sub-benchmarks.
func TestNewFamilySkipped(t *testing.T) {
	nan := []float64{math.NaN()}
	text := micro("capture_next", nan, ten[:1]) +
		micro("router_admit_ws", nan, nil) + micro("router_admit_ws/prefetch", nil, ten[:1])
	failed, out := runGate(t, text)
	if failed || strings.Count(out, "new:") != 2 {
		t.Fatalf("failed=%v, want capture_next and router_admit_ws/prefetch listed as new:\n%s", failed, out)
	}
}

func TestSchemaMismatchErrors(t *testing.T) {
	for _, text := range []string{
		`{"family":"router_enqueue","side":"baseline","ns_per_op":30}`,
		`{"family":"router_enqueue","ns_per_op":30}`,
		`BenchmarkFLocRouterEnqueue-2  1000000  30.0 ns/op`,
	} {
		if _, err := readRuns(writeFile(t, text), "family"); err == nil {
			t.Errorf("%s: no error", text)
		}
	}
	if _, err := readSpec(writeFile(t, `{"end_to_end":[{"name":"x","better":"sideways","bound":0.1}]}`)); err == nil {
		t.Error("a metric with no direction was accepted")
	}
}

// e2e renders benchmark runs of one workload: pair k is one parent and
// one change run of seed, each with one metric.
func e2e(workload, metric string, seed int, parent, change []float64) string {
	var b strings.Builder
	for k := range parent {
		for _, r := range []struct {
			side string
			v    float64
		}{{"parent", parent[k]}, {"change", change[k]}} {
			fmt.Fprintf(&b, `{"workload":%q,"seed":%d,"side":%q,%q:%g}`+"\n",
				workload, seed, r.side, metric, r.v)
		}
	}
	return b.String()
}

func summary(t *testing.T, runs, spec string) (bool, string) {
	t.Helper()
	metrics, err := readSpec(writeFile(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	failed := summarise(&out, mustRuns(t, runs, "workload"), metrics)
	return failed, out.String()
}

func TestMppsRegressionFails(t *testing.T) {
	runs := e2e("replay_mix", "throughput_pps", 1, []float64{3.2e6, 3.3e6, 3.1e6}, []float64{2.2e6, 2.3e6, 2.1e6})
	failed, out := summary(t, runs, `{"end_to_end":[{"name":"throughput_pps","better":"higher","bound":0.25}]}`)
	if !failed || !strings.Contains(out, "throughput_pps") || !strings.Contains(out, "BEYOND 0.25") {
		t.Fatalf("a 31 %% throughput drop: failed=%v\n%s", failed, out)
	}
}

// TestThresholdOverride: the bound a metric is held to is the one
// BENCHMARK.json gives it.
func TestThresholdOverride(t *testing.T) {
	runs := e2e("udp_flood", "cpu_us_per_pkt", 1, []float64{3.0, 3.0, 3.0}, []float64{3.3, 3.3, 3.3})
	if failed, out := summary(t, runs, `{"end_to_end":[{"name":"cpu_us_per_pkt","better":"lower","bound":0.25}]}`); failed || !strings.Contains(out, "inside 0.25") {
		t.Fatalf("10 %% worse against a 0.25 bound: failed=%v\n%s", failed, out)
	}
	if failed, out := summary(t, runs, `{"end_to_end":[{"name":"cpu_us_per_pkt","better":"lower","bound":0.05}]}`); !failed || !strings.Contains(out, "BEYOND 0.05") {
		t.Fatalf("10 %% worse against a 0.05 bound: failed=%v\n%s", failed, out)
	}
}

// TestRepeatedSeedCountsTwice: runs pair by position, so a seed given
// twice is two pairs, not one kept and one lost.
func TestRepeatedSeedCountsTwice(t *testing.T) {
	runs := mustRuns(t, e2e("udp_clean", "cpu_us_per_pkt", 7, []float64{3.0, 3.1}, []float64{2.9, 3.0}), "workload")
	g := groups(runs)
	if len(g) != 1 {
		t.Fatalf("%d workloads, want 1", len(g))
	}
	if v, ok := compare(g[0], "cpu_us_per_pkt", true); !ok || v.pairs != 2 || v.won != 2 {
		t.Fatalf("ok=%v pairs=%d won=%d, want 2 pairs won", ok, v.pairs, v.won)
	}
}
