// Command perfgate applies choosing-metrics §8's rule to paired runs,
// JSON lines whose "side" is "parent" or "change"; the k-th parent run of
// a group pairs with its k-th change run. The change loses (wins) a pair
// when it reads worse (better), a tie being neither, and regresses
// (gains) when it loses (wins) nine pairs in ten and its median is worse
// (better) by more than the parent's quartile distance.
//
// "perfgate runs.jsonl" gates micro-benchmark "family" lines: a family
// fails when ns_per_op regresses, when allocs_per_op rises in every pair,
// or when the change reports no metric for it. "perfgate runs.jsonl
// BENCHMARK.json" summarises "workload" lines: an end-to-end metric fails
// when the change's median is worse than the parent's by more than the
// metric's bound, a share of the parent's median.
//
// Exit status 0 when nothing fails, 1 when something does, 2 on errors.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func main() {
	if len(os.Args) < 2 || len(os.Args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: perfgate <runs.jsonl> [<BENCHMARK.json>]")
		os.Exit(2)
	}
	var spec []metricSpec
	var err error
	key := "family"
	if len(os.Args) == 3 {
		key = "workload"
		spec, err = readSpec(os.Args[2])
	}
	var runs []run
	if err == nil {
		runs, err = readRuns(os.Args[1], key)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}
	if key == "family" && gate(os.Stdout, runs) || key == "workload" && summarise(os.Stdout, runs, spec) {
		os.Exit(1)
	}
}

// run is one line: its side, group (family or workload) and numbers.
type run struct {
	parent bool
	group  string
	values map[string]float64
}

func readRuns(path, key string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		side, _ := line["side"].(string)
		if side != "parent" && side != "change" {
			return nil, fmt.Errorf("%s:%d: side %v, want \"parent\" or \"change\"", path, n, line["side"])
		}
		ru := run{parent: side == "parent", values: map[string]float64{}}
		ru.group, _ = line[key].(string)
		for k, v := range line {
			if x, ok := v.(float64); ok {
				ru.values[k] = x
			}
		}
		runs = append(runs, ru)
	}
	return runs, sc.Err()
}

// group is the runs of one family or workload, each side in file order.
type group struct {
	name           string
	parent, change []run
}

// groups splits runs by group, sorted by name.
func groups(runs []run) []*group {
	byName := map[string]*group{}
	var out []*group
	for _, ru := range runs {
		g := byName[ru.group]
		if g == nil {
			g = &group{name: ru.group}
			byName[ru.group], out = g, append(out, g)
		}
		if ru.parent {
			g.parent = append(g.parent, ru)
		} else {
			g.change = append(g.change, ru)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// verdict is one metric of one group. worse is how far the change's
// median is worse than the parent's, negative when it is better.
type verdict struct {
	parentMed, changeMed, parentIQR, worse float64
	won, lost, pairs                       int
}

// compare measures metric over g's pairs; ok is false when a side has no
// value for it.
func compare(g *group, metric string, lowerBetter bool) (v verdict, ok bool) {
	pv, cv := values(g.parent, metric), values(g.change, metric)
	if len(pv) == 0 || len(cv) == 0 {
		return v, false
	}
	v = verdict{parentMed: median(pv), changeMed: median(cv), parentIQR: quartile(pv, 0.75) - quartile(pv, 0.25)}
	if v.worse = v.changeMed - v.parentMed; !lowerBetter {
		v.worse = -v.worse
	}
	for k := 0; k < len(g.parent) && k < len(g.change); k++ {
		p, pok := g.parent[k].values[metric]
		c, cok := g.change[k].values[metric]
		if !pok || !cok {
			continue
		}
		v.pairs++
		better, worse := c < p, c > p // a tie is neither
		if !lowerBetter {
			better, worse = worse, better
		}
		if better {
			v.won++
		} else if worse {
			v.lost++
		}
	}
	return v, true
}

func (v verdict) regressed() bool {
	return v.pairs > 0 && v.lost*10 >= 9*v.pairs && v.worse > v.parentIQR
}

func (v verdict) gained() bool {
	return v.pairs > 0 && v.won*10 >= 9*v.pairs && -v.worse > v.parentIQR
}

// values returns the runs' values of metric, sorted.
func values(runs []run, metric string) []float64 {
	var out []float64
	for _, ru := range runs {
		if x, ok := ru.values[metric]; ok {
			out = append(out, x)
		}
	}
	sort.Float64s(out)
	return out
}

// median and quartile take sorted values; quartile does not interpolate.
func median(s []float64) float64 {
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func quartile(s []float64, q float64) float64 {
	return s[int(math.Floor(float64(len(s)-1)*q))]
}

const columns = "%-36s %12s %12s %8s %12s  %s\n"

func row(w io.Writer, name string, v verdict, mark string) {
	delta := "-"
	if v.parentMed != 0 {
		delta = fmt.Sprintf("%+.1f%%", (v.changeMed/v.parentMed-1)*100)
	}
	fmt.Fprintf(w, columns, name, fmt.Sprintf("%.6g", v.parentMed), fmt.Sprintf("%.6g", v.changeMed), delta,
		fmt.Sprintf("%.6g", v.parentIQR), fmt.Sprintf("%d/%d won, %d lost  %s", v.won, v.pairs, v.lost, mark))
}

// gate reports whether any micro-benchmark family failed.
func gate(w io.Writer, runs []run) (failed bool) {
	fmt.Fprintf(w, columns, "family", "parent", "change", "delta", "parent_iqr", "pairs")
	for _, g := range groups(runs) {
		ns, ok := compare(g, "ns_per_op", true)
		switch changeReported := len(values(g.change, "ns_per_op")) > 0; {
		case !changeReported && len(g.change) == 0 && len(values(g.parent, "ns_per_op")) == 0:
			continue // the parent's run of what the change reports under sub-benchmark names
		case !changeReported:
			fmt.Fprintf(w, "%-36s FAIL: the change did not report it\n", g.name)
			failed = true
			continue
		case !ok:
			fmt.Fprintf(w, "%-36s new: the parent did not report it, not gated\n", g.name)
			continue
		}
		mark := "ok"
		if ns.regressed() {
			mark, failed = "FAIL: slower", true
		}
		row(w, g.name+" ns/op", ns, mark)
		// allocs/op is a count: any rise in every pair fails. Shown for a
		// family that allocates at all.
		if a, ok := compare(g, "allocs_per_op", true); ok && (a.parentMed != 0 || a.changeMed != 0) {
			mark = "ok"
			if a.lost == a.pairs && a.pairs > 0 {
				mark, failed = "FAIL: more allocations", true
			}
			row(w, g.name+" allocs/op", a, mark)
		}
	}
	return failed
}

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) ([]metricSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range spec.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better %q, want \"lower\" or \"higher\"", path, m.Name, m.Better)
		}
	}
	return spec.EndToEnd, nil
}

// summarise marks each workload's metrics inside or beyond their bound,
// and a gain by §8, and reports whether any is beyond it.
func summarise(w io.Writer, runs []run, spec []metricSpec) (failed bool) {
	for _, g := range groups(runs) {
		fmt.Fprintf(w, "perfgate: %s, %d parent and %d change runs\n", g.name, len(g.parent), len(g.change))
		fmt.Fprintf(w, columns, "metric", "parent", "change", "delta", "parent_iqr", "pairs")
		for _, m := range spec {
			v, ok := compare(g, m.Name, m.Better == "lower")
			if !ok {
				continue
			}
			mark := fmt.Sprintf("inside %g", m.Bound)
			if v.worse > m.Bound*math.Abs(v.parentMed) {
				mark, failed = fmt.Sprintf("BEYOND %g", m.Bound), true
			}
			if v.gained() {
				mark += ", gain"
			}
			row(w, m.Name, v, mark)
		}
	}
	return failed
}
