// Benchmarks regenerating every figure of the paper's evaluation, one
// bench per figure, at a reduced scale that preserves every rate ratio
// (per-flow fair shares, attack-to-capacity ratios). Run the cmd/flocsim
// and cmd/inetsim binaries at -scale 1.0 for paper-scale numbers; run
// these with
//
//	go test -bench=. -benchmem
//
// for quick regeneration and performance tracking. Each bench reports
// the figure's headline metric as a custom benchmark metric so shape
// regressions are visible in benchmark output.
package floc_test

import (
	"fmt"
	"testing"

	"floc"
)

// benchScale keeps one iteration around a second.
const benchScale = 0.05

func benchScenario(def floc.DefenseKind, atk floc.AttackKind) floc.Scenario {
	sc := floc.DefaultScenario(def, atk, benchScale)
	sc.Duration = 25
	sc.MeasureFrom = 10
	return sc
}

// BenchmarkFig2 regenerates the service-vs-drop-rate motivation data.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := floc.Fig2(benchScale, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates the packet-size distribution.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := floc.Fig3(benchScale, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates the token-request model curves.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := floc.Fig4(10, 8); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// benchFig6 runs one attack-confinement scenario and reports the mean
// legitimate-path share.
func benchFig6(b *testing.B, kind floc.AttackKind) {
	b.Helper()
	var share float64
	for i := 0; i < b.N; i++ {
		m, err := floc.RunScenario(benchScenario(floc.DefFLoc, kind))
		if err != nil {
			b.Fatal(err)
		}
		share = m.ClassShare(floc.ClassLegitLegit)
	}
	b.ReportMetric(share, "legit_share")
}

// BenchmarkFig6a: high-population TCP attack confinement.
func BenchmarkFig6a(b *testing.B) { benchFig6(b, floc.AttackTCPPop) }

// BenchmarkFig6b: CBR attack confinement.
func BenchmarkFig6b(b *testing.B) { benchFig6(b, floc.AttackCBR) }

// BenchmarkFig6c: Shrew attack confinement.
func BenchmarkFig6c(b *testing.B) { benchFig6(b, floc.AttackShrew) }

// BenchmarkFig7 regenerates the robustness CDF comparison (one attack
// rate per defense to keep iterations bounded).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScenario(floc.DefFLoc, floc.AttackCBR)
		m, err := floc.RunScenario(sc)
		if err != nil {
			b.Fatal(err)
		}
		cdf := m.FlowBandwidthCDF(floc.ClassLegitLegit)
		if i == b.N-1 {
			b.ReportMetric(cdf.Quantile(0.5)/1e6, "p50_mbps")
		}
	}
}

// BenchmarkFig8 regenerates the differential-guarantee comparison at one
// attack rate for all three defenses.
func BenchmarkFig8(b *testing.B) {
	var legit float64
	for i := 0; i < b.N; i++ {
		for _, def := range []floc.DefenseKind{floc.DefFLoc, floc.DefPushback, floc.DefREDPD} {
			sc := benchScenario(def, floc.AttackCBR)
			if def == floc.DefFLoc {
				sc.SMax = 25
			}
			m, err := floc.RunScenario(sc)
			if err != nil {
				b.Fatal(err)
			}
			if def == floc.DefFLoc {
				legit = m.ClassShare(floc.ClassLegitLegit)
			}
		}
	}
	b.ReportMetric(legit, "floc_legit_share")
}

// BenchmarkFig9 regenerates the legitimate-path aggregation comparison.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScenario(floc.DefFLoc, floc.AttackCBR)
		sc.SMax = 25
		sc.LegitAgg = true
		sc.SmallLeaves = []int{6, 7, 8}
		if _, err := floc.RunScenario(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates the covert-attack comparison at one fanout.
func BenchmarkFig10(b *testing.B) {
	var legit float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(floc.DefFLoc, floc.AttackCovert)
		sc.AttackRateBits = 0.2e6
		sc.CovertFanout = 8
		sc.NMax = 2
		m, err := floc.RunScenario(sc)
		if err != nil {
			b.Fatal(err)
		}
		legit = m.ClassShare(floc.ClassLegitLegit) + m.ClassShare(floc.ClassLegitAttackPath)
	}
	b.ReportMetric(legit, "legit_share")
}

// BenchmarkTopogen regenerates the Fig. 11/12 topology summaries.
func BenchmarkTopogen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := floc.FigTopology(100, false, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInet runs one Internet-scale figure at reduced scale.
func benchInet(b *testing.B, figure string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg, err := floc.DefaultInetFigConfig(figure, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Profiles = cfg.Profiles[:1] // one profile per iteration
		cfg.Ticks = 300
		cfg.WarmupTicks = 100
		tab, err := floc.FigInternet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig13: Internet-scale, attackers in 100 ASes.
func BenchmarkFig13(b *testing.B) { benchInet(b, "fig13") }

// BenchmarkFig14: Internet-scale, attackers in 300 ASes.
func BenchmarkFig14(b *testing.B) { benchInet(b, "fig14") }

// BenchmarkFig15: Internet-scale, separated legitimate/attack ASes.
func BenchmarkFig15(b *testing.B) { benchInet(b, "fig15") }

// BenchmarkFLocRouterEnqueue measures the router's per-packet cost on a
// steady stream (the data-plane hot path). The router is driven through
// the Discipline interface exactly as a Link invokes it, so the numbers
// reflect the simulator's real call pattern (and build tags cannot skew
// the comparison via call-site inlining).
func BenchmarkFLocRouterEnqueue(b *testing.B) {
	r, err := floc.NewRouter(floc.DefaultRouterConfig(1e9, 1000))
	if err != nil {
		b.Fatal(err)
	}
	var q floc.Discipline = r
	path := floc.NewPathID(7, 3, 1)
	pkt := &floc.Packet{Src: 1, Dst: 2, Size: 1000, Kind: floc.KindUDP, Path: path, PathKey: path.Key()}
	pkt.PathHandle = r.InternPath(path) // producers stamp handles, as the wire pipeline does
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 8e-6 // 125k packets/s
		q.Enqueue(pkt, now)
		q.Dequeue(now)
	}
}

// BenchmarkFLocRouterEnqueueBatch measures the handle-stamped batched
// admission path at the dataplane's batch sizes. Items rotate over enough
// distinct paths to defeat the router's last-key memo, so the numbers
// reflect the open-addressed table probes rather than the memo hit.
func BenchmarkFLocRouterEnqueueBatch(b *testing.B) {
	for _, size := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			r, err := floc.NewRouter(floc.DefaultRouterConfig(1e9, 1000))
			if err != nil {
				b.Fatal(err)
			}
			const nPaths = 8
			paths := make([]floc.PathID, nPaths)
			keys := make([]string, nPaths)
			handles := make([]uint32, nPaths)
			for i := range paths {
				paths[i] = floc.NewPathID(floc.ASN(100+i), 3, 1)
				keys[i] = paths[i].Key()
				handles[i] = r.InternPath(paths[i])
			}
			pkts := make([]floc.Packet, size)
			items := make([]floc.BatchItem, size)
			now := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				for j := range items {
					now += 8e-6
					pi := (i + j) % nPaths
					pkts[j] = floc.Packet{
						ID: uint64(i + j), Src: uint32(j), Dst: 2, Size: 1000,
						Kind: floc.KindUDP, Path: paths[pi], PathKey: keys[pi],
						PathHandle: handles[pi],
					}
					items[j] = floc.BatchItem{Pkt: &pkts[j], At: now}
				}
				r.EnqueueBatch(items)
				for j := 0; j < size; j++ {
					r.Dequeue(now)
				}
			}
		})
	}
}

// BenchmarkFLocRouterEnqueueTelemetry is the same hot path with what
// flocd attaches: a registry (counter and histogram cells, per-path
// counters) and no event ring, showing the enabled-path cost a daemon
// pays. The disabled-path cost — the one the CI overhead gate bounds — is
// BenchmarkFLocRouterEnqueue in the default build versus the same bench
// under -tags flocnotelemetry.
func BenchmarkFLocRouterEnqueueTelemetry(b *testing.B) {
	r, err := floc.NewRouter(floc.DefaultRouterConfig(1e9, 1000))
	if err != nil {
		b.Fatal(err)
	}
	r.SetTelemetry(&floc.Telemetry{Registry: floc.NewMetricsRegistry()})
	var q floc.Discipline = r
	path := floc.NewPathID(7, 3, 1)
	pkt := &floc.Packet{Src: 1, Dst: 2, Size: 1000, Kind: floc.KindUDP, Path: path, PathKey: path.Key()}
	pkt.PathHandle = r.InternPath(path)
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 8e-6 // 125k packets/s
		q.Enqueue(pkt, now)
		q.Dequeue(now)
	}
}

// BenchmarkNetsimThroughput measures raw simulator event throughput: a
// saturated link with a self-rescheduling source (two events per packet
// plus delivery).
func BenchmarkNetsimThroughput(b *testing.B) {
	net := floc.NewNetwork(1)
	link, err := floc.NewLink("l", 1e9, 0.001, floc.NewFIFO(1000), &endpointSink{})
	if err != nil {
		b.Fatal(err)
	}
	pkt := &floc.Packet{Src: 1, Dst: 2, Size: 1000, Kind: floc.KindUDP}
	sent := 0
	var send func()
	send = func() {
		link.Send(net, pkt)
		sent++
		if sent < b.N {
			net.ScheduleIn(8e-6, send)
		}
	}
	b.ResetTimer()
	net.Schedule(0, send)
	net.Run(1e18)
	if link.Stats().Delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// BenchmarkFLocControlLoop measures the control loop with 200 active
// paths and 1000 flows.
func BenchmarkFLocControlLoop(b *testing.B) {
	r, err := floc.NewRouter(floc.DefaultRouterConfig(1e9, 2000))
	if err != nil {
		b.Fatal(err)
	}
	now := 0.0
	paths := make([]floc.PathID, 200)
	keys := make([]string, 200)
	for i := range paths {
		paths[i] = floc.NewPathID(floc.ASN(100+i), floc.ASN(i%10), 1)
		keys[i] = paths[i].Key()
	}
	// Populate 5 flows per path.
	for i, p := range paths {
		for f := 0; f < 5; f++ {
			pkt := &floc.Packet{
				Src: uint32(i*10 + f), Dst: 2, Size: 1000,
				Kind: floc.KindUDP, Path: p, PathKey: keys[i],
			}
			r.Enqueue(pkt, now)
			r.Dequeue(now)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each iteration crosses a control boundary (interval 0.5 s).
		now += 0.51
		pkt := &floc.Packet{Src: 1, Dst: 2, Size: 1000, Kind: floc.KindUDP, Path: paths[0], PathKey: keys[0]}
		r.Enqueue(pkt, now)
		r.Dequeue(now)
	}
}
