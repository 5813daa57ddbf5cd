package core

import (
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
	"floc/internal/units"
)

// BenchmarkControlRun times one control-loop execution on a router
// holding 2048 paths x 16 flows with telemetry attached as in flocd.
// Between runs (untimed) every flow sends a packet, then one flow in
// twenty is aged past the timeout, so each timed run expires ~5 % of the
// population in place and the refill re-creates it.
func BenchmarkControlRun(b *testing.B) {
	const nPaths, flowsPer = 2048, 16
	fx := newControlFixture(b, nPaths, flowsPer, nil)
	r := fx.r
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fx.now += r.cfg.ControlInterval
		for k := range fx.pkts {
			fx.send(k) // lastControl is ahead of now: no control run in here
		}
		n := i
		r.origins.each(func(ps *pathState) {
			flows := ps.flows.all()
			for j := range flows {
				if n++; n%20 == 0 {
					flows[j].lastSeen = fx.now - 2*r.cfg.FlowTimeout
				}
			}
		})
		b.StartTimer()
		r.runControl(fx.now + r.cfg.ControlInterval)
	}
	b.StopTimer()
	if got := r.tel.Registry.CounterValue("floc_router_expired_flows_total"); got == 0 {
		b.Fatal("no flow expired: the benchmark does not exercise in-place expiry")
	}
}

// admitWorkload offers a router the repo benchmark's replay_mix capture
// (benchmark/gen.go): flowsPer flows on each of nPaths paths, the last
// quarter of the paths attacking — one packet per round from a legitimate
// path, eight from an attacking one, rounds freshly shuffled, the flow
// drawn per packet — 1 000 000 packets over 20 s, twice what the link
// carries, over and over. It is offered in worker-sized batches, with the
// registry flocd attaches and the transmitter served up to each packet's
// arrival time as a shard worker serves it.
type admitWorkload struct {
	r     *Router
	pkts  []netsim.Packet // one per flow: pkts[path*flowsPer+flow]
	sched []uint32        // the capture: packet n is pkts[sched[n%len(sched)]]
	sent  int             // packet n arrives at n*admitGap
	free  float64         // when the transmitter is next idle
	batch []BatchItem
}

const (
	admitLinkBits = 200e6     // 25 000 packets/s of 1000 bytes
	admitGap      = 20e-6     // 50 000 packets/s offered
	admitCapture  = 1_000_000 // packets
	admitBatch    = 64
)

func newAdmitWorkload(tb testing.TB, nPaths, flowsPer int) *admitWorkload {
	tb.Helper()
	cfg := DefaultConfig(admitLinkBits, 512)
	cfg.Seed = 7
	r, err := NewRouter(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r.SetTelemetry(&telemetry.Telemetry{Registry: telemetry.NewRegistry()})
	w := &admitWorkload{
		r:     r,
		pkts:  make([]netsim.Packet, nPaths*flowsPer),
		sched: make([]uint32, 0, admitCapture),
		batch: make([]BatchItem, 0, admitBatch),
	}
	var round []int // path of each packet of one round
	for p := 0; p < nPaths; p++ {
		path := pathid.New(pathid.ASN(10000+p), pathid.ASN(100+p%8), 1)
		handle := r.InternPath(path)
		for f := 0; f < flowsPer; f++ {
			w.pkts[p*flowsPer+f] = netsim.Packet{
				Src: 0x0a000000 | uint32(p)<<8 | uint32(f), Dst: 0xc0a80001,
				Size: 1000, Kind: netsim.KindUDP, Path: path, PathHandle: handle,
			}
		}
		reps := 1
		if p >= nPaths-nPaths/4 {
			reps = 8
		}
		for i := 0; i < reps; i++ {
			round = append(round, p)
		}
	}
	src := rng.New(11)
	for next := len(round); len(w.sched) < admitCapture; next++ {
		if next == len(round) {
			src.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			next = 0
		}
		w.sched = append(w.sched, uint32(round[next]*flowsPer+src.Intn(flowsPer)))
	}
	return w
}

// admit offers the next n packets of the capture as one batch, the way
// dataplane's shard.process does.
func (w *admitWorkload) admit(n int, prefetch bool) {
	w.batch = w.batch[:0]
	for ; n > 0; n-- {
		flow := w.sched[w.sent%len(w.sched)]
		w.batch = append(w.batch, BatchItem{Pkt: &w.pkts[flow], At: float64(w.sent) * admitGap})
		w.sent++
	}
	if prefetch {
		w.r.Prefetch(w.batch)
	}
	rateBytes := units.BitsPerSec(w.r.cfg.LinkRateBits).BytesPerSec()
	for _, it := range w.batch {
		for w.free <= it.At {
			pkt := w.r.Dequeue(w.free)
			if pkt == nil {
				w.free = it.At
				break
			}
			w.free += float64(pkt.Size) / rateBytes
		}
		w.r.Enqueue(it.Pkt, it.At)
	}
}

// BenchmarkAdmitWorkingSet is the admission cost per packet at the working
// set the repo benchmark's replay_mix workload gives a router: 65 536
// flows over 4 096 paths, some 10 MB of flow slabs, probe tables, path
// states and drop filter, so that every packet's state has left the cache
// by the time its flow sends again. An op is everything a shard worker
// does for one packet — reading it off the batch, transmitter service,
// Enqueue, and the packet's share of the control runs its arrival time
// triggers. BenchmarkFLocRouterEnqueue is the same path over a working
// set that never leaves the cache.
func BenchmarkAdmitWorkingSet(b *testing.B) {
	for _, mode := range []struct {
		name     string
		prefetch bool
	}{{"plain", false}, {"prefetch", true}} {
		var w *admitWorkload // warmed once, not once per calibration round
		b.Run(mode.name, func(b *testing.B) {
			if w == nil {
				w = newAdmitWorkload(b, 4096, 16)
				for w.sent < admitCapture { // once through: tables grown, attack paths found
					w.admit(admitBatch, mode.prefetch)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for left := b.N; left > 0; left -= admitBatch {
				w.admit(min(left, admitBatch), mode.prefetch)
			}
			b.StopTimer()
			// What replay_mix itself reaches: congested mode, up to the
			// physical buffer.
			if w.r.Drops(DropRandomThreshold) == 0 || w.r.Drops(DropOverflow) == 0 {
				b.Fatalf("the queue never left uncongested mode or never filled: %v", w.r.Snapshot().Drops)
			}
		})
	}
}
