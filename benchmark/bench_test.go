package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"regexp"
	"testing"
)

func mustGenerate(t *testing.T, name string, seed uint64, packets int) *traffic {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	tr, err := generate(w, seed, packets)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func sameTraffic(a, b *traffic) bool {
	if len(a.sched) != len(b.sched) || len(a.frames) != len(b.frames) {
		return false
	}
	for i := range a.sched {
		if a.sched[i] != b.sched[i] {
			return false
		}
	}
	for i := range a.frames {
		if !bytes.Equal(a.frames[i], b.frames[i]) {
			return false
		}
	}
	return a.probe == b.probe
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := mustGenerate(t, w.name, 7, 20000)
		b := mustGenerate(t, w.name, 7, 20000)
		c := mustGenerate(t, w.name, 8, 20000)
		if !sameTraffic(a, b) {
			t.Errorf("%s: equal seeds generated different inputs", w.name)
		}
		if sameTraffic(a, c) {
			t.Errorf("%s: different seeds generated identical inputs", w.name)
		}
	}
}

func TestCaptureIsByteIdenticalForEqualSeeds(t *testing.T) {
	w, _ := findWorkload("replay_mix")
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		tr := mustGenerate(t, w.name, 3, 5000)
		if err := writeCapture(capturePath(dir), w, tr); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(capturePath(dir))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("equal seeds wrote different captures")
	}
	if n := bytes.Count(files[0], []byte("\n")); n != 5000 {
		t.Errorf("capture holds %d lines, want 5000", n)
	}
}

func TestScheduleAccounting(t *testing.T) {
	for _, w := range workloads {
		const packets = 128 * 1000
		tr := mustGenerate(t, w.name, 1, packets)
		var legit, attack, probed int64
		perPath := make([]int64, len(tr.paths))
		for _, s := range tr.sched {
			switch {
			case s == probeSlot:
				probed++
				legit++
			case tr.isAttack(s):
				attack++
				perPath[tr.pathOf(s)]++
			default:
				legit++
				perPath[tr.pathOf(s)]++
			}
		}
		if legit != tr.legit || attack != tr.attack || legit+attack != packets {
			t.Errorf("%s: schedule holds %d legit + %d attack, generator says %d + %d of %d",
				w.name, legit, attack, tr.legit, tr.attack, packets)
		}
		if w.live != (probed > 0) || (w.live && probed != packets/probeEvery) {
			t.Errorf("%s: %d probes in %d packets", w.name, probed, packets)
		}
		// Rounds send each legit path once and each attack path
		// attackWeight times, so the attack share is fixed by the mix.
		slots := w.legitPaths + w.attackPaths*w.attackWeight
		want := float64(w.attackPaths*w.attackWeight) / float64(slots)
		if got := float64(attack) / float64(packets-int(probed)); math.Abs(got-want) > 0.01 {
			t.Errorf("%s: attack share %.4f, mix says %.4f", w.name, got, want)
		}
		if w.attackPaths > 0 {
			l, a := float64(perPath[0]), float64(perPath[w.legitPaths])
			if r := a / l; math.Abs(r-float64(w.attackWeight)) > 0.15*float64(w.attackWeight) {
				t.Errorf("%s: an attack path sent %.1fx a legit path's packets, want %dx", w.name, r, w.attackWeight)
			}
		}
	}
}

func TestLimitFrameNamesEveryAttackPath(t *testing.T) {
	tr := mustGenerate(t, "udp_limited", 1, 1000)
	frame, err := limitFrame(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.attackPathIDs()) != 8 || len(frame) == 0 {
		t.Fatalf("%d attack paths, %d-byte frame", len(tr.attackPathIDs()), len(frame))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 || relSpread(nil) != 0 {
		t.Error("empty samples must read 0")
	}
	if got := relSpread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("relSpread = %v, want 0.3", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "batch", StartNS: 0, EndNS: 100},
		{ID: 2, Name: "a", StartNS: 10, EndNS: 40, Parent: 1},
		{ID: 3, Name: "b", StartNS: 30, EndNS: 60, Parent: 1},  // overlaps a by 10
		{ID: 4, Name: "a", StartNS: 90, EndNS: 120, Parent: 1}, // runs past its parent
		{ID: 5, Name: "leaf", StartNS: 12, EndNS: 20, Parent: 2},
	}
	self := selfTimes(spans)
	// batch: 100 - (30 + 20 + 10) covered = 40.
	for name, want := range map[string]int64{"batch": 40, "a": 22 + 30, "b": 30, "leaf": 8} {
		if self[name] != want {
			t.Errorf("self[%s] = %d, want %d", name, self[name], want)
		}
	}
}

func TestParseReport(t *testing.T) {
	out := "FLoc router: mode=flooding queue=3 (Qmin=102 Qmax=512) paths=73 admitted=1234\n" +
		"drops: blocked=1 no-token=2\n" +
		"dataplane: accepted=2000 ring-drops=5 processed=2000\n" +
		"# HELP floc_cluster_limit_dropped_total x\n" +
		`floc_cluster_limit_dropped_total{shard="0"} 7` + "\n" +
		`floc_cluster_limit_dropped_total{shard="1"} 4` + "\n" +
		"floc_router_admitted_packets_total 1234\n"
	r, err := parseReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if r.admitted != 1234 || r.accepted != 2000 || r.ringDrops != 5 || r.processed != 2000 {
		t.Errorf("parsed %+v", r)
	}
	if got := r.metricSum("floc_cluster_limit_dropped_total"); got != 11 {
		t.Errorf("metricSum = %v, want 11", got)
	}
	if _, err := parseReport("nothing useful\n"); err == nil {
		t.Error("a report without the summary lines must be an error")
	}
	pk, bad, err := parseReplayed("flocd: replayed 1000 packets over 2.000s of capture time on 2 shards (3 malformed lines skipped)\n")
	if err != nil || pk != 1000 || bad != 3 {
		t.Errorf("parseReplayed = %d, %d, %v", pk, bad, err)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the names, units and workloads
// this package prints equal to what BENCHMARK.json promises the driver.
// The sender's loss-free guarantee rests on two things: that it sees what a
// reader has left in its socket, and that one datagram is charged no more
// than maxTruesize.
func TestRxQueueSeesUnreadDatagrams(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rcvbuf, err := defaultRcvbuf(srv)
	if err != nil {
		t.Fatal(err)
	}
	q, err := openRxQueue(srv.LocalAddr().String(), rcvbuf)
	if err != nil {
		t.Fatal(err)
	}
	defer q.close()
	if q.burst < 40 {
		t.Fatalf("a %d-byte receive buffer leaves room for bursts of only %d packets", rcvbuf, q.burst)
	}
	if got, err := q.queued(); err != nil || got != 0 {
		t.Fatalf("idle socket: queued %d, err %v", got, err)
	}
	c, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := mustGenerate(t, "udp_clean", 1, 1).frames[0]
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	got, err := q.queued()
	if err != nil {
		t.Fatal(err)
	}
	if got < n*int64(len(frame)) || got > n*maxTruesize {
		t.Fatalf("%d unread %d-byte datagrams are charged %d bytes, want at most %d each", n, len(frame), got, maxTruesize)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(what string, defs []metricDef, entries []entry) {
		if len(defs) != len(entries) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(defs), len(entries))
			return
		}
		for i, d := range defs {
			if !nameRe.MatchString(d.name) {
				t.Errorf("%s: metric name %q is outside the contract's alphabet", what, d.name)
			}
			if entries[i].Name != d.name || entries[i].Unit != d.unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json has %s (%s)", what, i, d.name, d.unit, entries[i].Name, entries[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, doc.EndToEnd)
	compare("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in code, %d in BENCHMARK.json", len(workloads), len(doc.Workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: code has %s, BENCHMARK.json has %s", i, w.name, doc.Workloads[i].Name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s is named twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestQuickSmoke drives one -quick run through the real binary and the
// in-process passes; run returns 0 only if every output check held.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs flocd")
	}
	if code := run([]string{"udp_limited"}, 1, 15, -1, true, t.TempDir()); code != 0 {
		t.Fatalf("quick run exited %d", code)
	}
}
