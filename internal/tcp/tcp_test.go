package tcp

import (
	"math"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/units"
)

// pair is a two-host test topology:
//
//	client --access--> router --bottleneck--> server
//	server --reverse(fast)--> client
type pair struct {
	net        *netsim.Network
	client     *netsim.Host
	server     *netsim.Host
	bottle     *netsim.Link
	bottleneck *netsim.FIFO
}

const (
	clientAddr = 1
	serverAddr = 2
)

func newPair(t *testing.T, bottleneckBits units.BitsPerSec, delay float64, bufPkts int) *pair {
	t.Helper()
	net := netsim.New(7)
	client := netsim.NewHost("client", clientAddr)
	server := netsim.NewHost("server", serverAddr)
	router := netsim.NewRouter("r")

	fifo := netsim.NewFIFO(bufPkts)
	bottle, err := netsim.NewLink("bottleneck", bottleneckBits, delay, fifo, server)
	if err != nil {
		t.Fatal(err)
	}
	router.SetDefault(bottle)

	access, err := netsim.NewLink("access", bottleneckBits*10, delay, netsim.NewFIFO(1000), router)
	if err != nil {
		t.Fatal(err)
	}
	client.SetAccess(access)

	reverse, err := netsim.NewLink("reverse", bottleneckBits*10, delay, netsim.NewFIFO(10000), client)
	if err != nil {
		t.Fatal(err)
	}
	server.SetAccess(reverse)

	return &pair{net: net, client: client, server: server, bottle: bottle, bottleneck: fifo}
}

func (p *pair) flow(t *testing.T, totalPkts int) (*Source, *Sink) {
	t.Helper()
	src := NewSource(p.client, SourceConfig{
		Src: clientAddr, Dst: serverAddr,
		Path:         pathid.New(10, 1),
		TotalPackets: totalPkts,
	})
	if err := p.client.Attach(serverAddr, src); err != nil {
		t.Fatal(err)
	}
	sink := NewSink(p.server, clientAddr, pathid.New(20, 2))
	if err := p.server.Attach(clientAddr, sink); err != nil {
		t.Fatal(err)
	}
	return src, sink
}

func TestTransferCompletesUncongested(t *testing.T) {
	p := newPair(t, 10e6, 0.01, 100)
	src, sink := p.flow(t, 100)
	src.Start(p.net, 0)
	p.net.Run(60)

	if !src.Done() {
		t.Fatalf("transfer not done; sndUna-ish sink.Expected=%d", sink.Expected())
	}
	if sink.GoodputPackets != 100 {
		t.Fatalf("goodput = %d packets, want 100", sink.GoodputPackets)
	}
	if src.Retransmits() != 0 {
		t.Fatalf("retransmits = %d on clean path", src.Retransmits())
	}
	if src.CompletedAt() <= 0 {
		t.Fatal("no completion time")
	}
}

func TestOnCompleteCallback(t *testing.T) {
	p := newPair(t, 10e6, 0.01, 100)
	var doneAt float64
	src := NewSource(p.client, SourceConfig{
		Src: clientAddr, Dst: serverAddr, Path: pathid.New(10, 1),
		TotalPackets: 10,
		OnComplete:   func(now float64) { doneAt = now },
	})
	if err := p.client.Attach(serverAddr, src); err != nil {
		t.Fatal(err)
	}
	if err := p.server.Attach(clientAddr, NewSink(p.server, clientAddr, nil)); err != nil {
		t.Fatal(err)
	}
	src.Start(p.net, 1.0)
	p.net.Run(30)
	if doneAt <= 1.0 {
		t.Fatalf("OnComplete at %v", doneAt)
	}
}

func TestSRTTEstimate(t *testing.T) {
	// One-way delay 25 ms on each of 2 forward hops + 25 ms reverse:
	// RTT = 2*0.025 (client->server via access+bottleneck) + 0.025 back,
	// plus serialization. SRTT should be within 2x of 75 ms.
	p := newPair(t, 10e6, 0.025, 100)
	src, _ := p.flow(t, 200)
	src.Start(p.net, 0)
	p.net.Run(60)
	if !src.Done() {
		t.Fatal("not done")
	}
	rtt := src.SRTT()
	if rtt < 0.05 || rtt > 0.2 {
		t.Fatalf("SRTT = %v, want ~0.075", rtt)
	}
}

func TestCongestionCausesRetransmitsButNoLoss(t *testing.T) {
	// Slow bottleneck, small buffer: heavy drops, yet the transfer must
	// complete with exact in-order delivery.
	p := newPair(t, 1e6, 0.01, 8)
	src, sink := p.flow(t, 500)
	src.Start(p.net, 0)
	p.net.Run(300)
	if !src.Done() {
		t.Fatalf("transfer stalled: delivered %d/500", sink.Expected())
	}
	if sink.GoodputPackets != 500 {
		t.Fatalf("goodput = %d, want exactly 500", sink.GoodputPackets)
	}
	if src.Retransmits() == 0 {
		t.Fatal("no retransmits despite tiny buffer")
	}
	if p.bottle.Stats().Dropped == 0 {
		t.Fatal("no drops at bottleneck")
	}
}

func TestCwndCapRespected(t *testing.T) {
	p := newPair(t, 100e6, 0.001, 1000)
	src := NewSource(p.client, SourceConfig{
		Src: clientAddr, Dst: serverAddr, Path: pathid.New(10, 1),
		TotalPackets: 0, MaxCwnd: 8,
	})
	if err := p.client.Attach(serverAddr, src); err != nil {
		t.Fatal(err)
	}
	if err := p.server.Attach(clientAddr, NewSink(p.server, clientAddr, nil)); err != nil {
		t.Fatal(err)
	}
	src.Start(p.net, 0)
	// Sample cwnd during the run.
	maxSeen := 0.0
	for i := 1; i <= 50; i++ {
		at := float64(i) * 0.1
		p.net.Schedule(at, func() {
			if src.Cwnd() > maxSeen {
				maxSeen = src.Cwnd()
			}
		})
	}
	p.net.Run(6)
	if maxSeen > 8 {
		t.Fatalf("cwnd reached %v, cap 8", maxSeen)
	}
	if src.Done() {
		t.Fatal("unbounded flow claims completion")
	}
	if src.SentData() == 0 {
		t.Fatal("persistent flow sent nothing")
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	// Two identical flows over one 2 Mb/s bottleneck: each should get
	// roughly half, and together they should keep the link busy.
	net := netsim.New(11)
	server := netsim.NewHost("server", serverAddr)
	router := netsim.NewRouter("r")
	rback := netsim.NewRouter("rback")
	fifo := netsim.NewFIFO(50)
	bottle, err := netsim.NewLink("bottleneck", 2e6, 0.01, fifo, server)
	if err != nil {
		t.Fatal(err)
	}
	router.SetDefault(bottle)
	reverse, err := netsim.NewLink("rev", 20e6, 0.01, netsim.NewFIFO(1000), rback)
	if err != nil {
		t.Fatal(err)
	}
	server.SetAccess(reverse)

	var sinks []*Sink
	for i := 0; i < 2; i++ {
		addr := uint32(100 + i)
		client := netsim.NewHost("c", addr)
		access, err := netsim.NewLink("a", 20e6, 0.005, netsim.NewFIFO(100), router)
		if err != nil {
			t.Fatal(err)
		}
		client.SetAccess(access)
		back, err := netsim.NewLink("back", 20e6, 0.005, netsim.NewFIFO(1000), client)
		if err != nil {
			t.Fatal(err)
		}
		rback.AddRoute(addr, back)

		src := NewSource(client, SourceConfig{
			Src: addr, Dst: serverAddr, Path: pathid.New(10, 1), TotalPackets: 0,
			// Cap windows below the buffer so neither deterministic flow
			// can monopolize the drop-tail queue (lockout).
			MaxCwnd: 12,
		})
		if err := client.Attach(serverAddr, src); err != nil {
			t.Fatal(err)
		}
		sink := NewSink(server, addr, nil)
		if err := server.Attach(addr, sink); err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, sink)
		src.Start(net, float64(i)*0.1)
	}

	net.Run(30)
	g0, g1 := float64(sinks[0].GoodputPackets), float64(sinks[1].GoodputPackets)
	if g0 == 0 || g1 == 0 {
		t.Fatalf("a flow starved: %v, %v", g0, g1)
	}
	ratio := g0 / g1
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("unfair split: %v vs %v", g0, g1)
	}
	// Aggregate utilization: ~2 Mb/s for ~30 s = ~7500 packets of 1000 B;
	// expect at least half of that.
	if total := g0 + g1; total < 4000 {
		t.Fatalf("aggregate goodput too low: %v packets", total)
	}
	_ = math.Pi
}

func TestGoBackNRecoversFromWindowLoss(t *testing.T) {
	// Drop a whole window mid-transfer via a gate discipline, then
	// verify the source recovers promptly (go-back-N after RTO) instead
	// of one-hole-per-RTO crawling.
	net := netsim.New(21)
	client := netsim.NewHost("c", clientAddr)
	server := netsim.NewHost("s", serverAddr)
	router := netsim.NewRouter("r")

	gate := &gateDisc{inner: netsim.NewFIFO(100)}
	bottle, err := netsim.NewLink("b", 10e6, 0.01, gate, server)
	if err != nil {
		t.Fatal(err)
	}
	router.SetDefault(bottle)
	access, err := netsim.NewLink("a", 100e6, 0.005, netsim.NewFIFO(100), router)
	if err != nil {
		t.Fatal(err)
	}
	client.SetAccess(access)
	reverse, err := netsim.NewLink("rev", 100e6, 0.005, netsim.NewFIFO(1000), client)
	if err != nil {
		t.Fatal(err)
	}
	server.SetAccess(reverse)

	src := NewSource(client, SourceConfig{
		Src: clientAddr, Dst: serverAddr, Path: pathid.New(1), TotalPackets: 2000,
	})
	if err := client.Attach(serverAddr, src); err != nil {
		t.Fatal(err)
	}
	sink := NewSink(server, clientAddr, nil)
	if err := server.Attach(clientAddr, sink); err != nil {
		t.Fatal(err)
	}
	src.Start(net, 0)
	// Black-hole the forward path for 2 seconds mid-transfer.
	net.Schedule(1.0, func() { gate.blocked = true })
	net.Schedule(3.0, func() { gate.blocked = false })
	net.Run(60)
	if !src.Done() {
		t.Fatalf("transfer did not recover: %d/2000 delivered", sink.Expected())
	}
	if sink.GoodputPackets != 2000 {
		t.Fatalf("goodput = %d", sink.GoodputPackets)
	}
	// Recovery should take seconds, not tens of seconds.
	if src.CompletedAt() > 30 {
		t.Fatalf("recovery too slow: completed at %v", src.CompletedAt())
	}
}

// gateDisc drops everything while blocked.
type gateDisc struct {
	inner   *netsim.FIFO
	blocked bool
}

func (g *gateDisc) Enqueue(pkt *netsim.Packet, now float64) bool {
	if g.blocked {
		return false
	}
	return g.inner.Enqueue(pkt, now)
}
func (g *gateDisc) Dequeue(now float64) *netsim.Packet { return g.inner.Dequeue(now) }
func (g *gateDisc) Len() int                           { return g.inner.Len() }

func TestRTOBackoffResetsOnProgress(t *testing.T) {
	// After heavy loss and recovery, subsequent clean transfers must not
	// inherit a backed-off RTO: measured indirectly via completion time.
	p := newPair(t, 2e6, 0.01, 6)
	src, sink := p.flow(t, 1500)
	src.Start(p.net, 0)
	p.net.Run(120)
	if !src.Done() {
		t.Fatalf("stalled at %d/1500", sink.Expected())
	}
	// 1500 pkts * 8000 bits / 2 Mb/s = 6 s of pure transmission; allow
	// generous loss overhead but catch multi-RTO crawling.
	if src.CompletedAt() > 60 {
		t.Fatalf("completion at %v, RTO crawl suspected", src.CompletedAt())
	}
}

func TestSinkBuffersOutOfOrder(t *testing.T) {
	net := netsim.New(1)
	server := netsim.NewHost("s", serverAddr)
	client := netsim.NewHost("c", clientAddr)
	rev, err := netsim.NewLink("rev", 100e6, 0.001, netsim.NewFIFO(100), client)
	if err != nil {
		t.Fatal(err)
	}
	server.SetAccess(rev)
	sink := NewSink(server, clientAddr, nil)
	deliver := func(seq int) {
		sink.Deliver(net, &netsim.Packet{
			Src: clientAddr, Dst: serverAddr, Size: 1000,
			Kind: netsim.KindData, Seq: seq,
		})
	}
	deliver(0)
	deliver(2) // gap at 1
	deliver(3)
	if sink.Expected() != 1 {
		t.Fatalf("expected = %d, want 1", sink.Expected())
	}
	deliver(1) // fill the hole: cumulative jump to 4
	if sink.Expected() != 4 {
		t.Fatalf("expected = %d, want 4", sink.Expected())
	}
	if sink.GoodputPackets != 4 {
		t.Fatalf("goodput = %d", sink.GoodputPackets)
	}
	// Duplicate delivery does not double-count.
	deliver(2)
	if sink.GoodputPackets != 4 {
		t.Fatalf("duplicate counted: %d", sink.GoodputPackets)
	}
}
