package main

import (
	"net"
	"runtime"
	"testing"

	"floc/internal/core"
	"floc/internal/dataplane"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
	"floc/internal/udpbatch"
	"floc/internal/wire"
)

// The daemon's per-packet code allocates nothing once warm, as the
// codec, the engine and the socket layer below it each do on their own:
// producer.ingest resolves a decoded header, builds its packet and hands
// it to the burst, and udpForwarder encodes transmitted packets into one
// socket vector.

// TestZeroAllocIngest: both packet sources' shared body, in steady state —
// every path interned and bound to its router handle — allocates nothing
// per packet, through the interner, the burst and the workers that admit
// what it hands them against a congested link.
func TestZeroAllocIngest(t *testing.T) {
	rc := core.DefaultConfig(80e6, 512) // 10 000 packets/s
	rc.Seed = 42
	e, err := dataplane.New(dataplane.Config{Router: rc, Shards: 2, BlockOnFull: true, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const nPaths, flowsPer, gap = 64, 8, 50e-6 // twice the link rate
	hs := make([]wire.Header, nPaths)
	for i := range hs {
		hs[i] = wire.Header{Version: wire.Version1, Kind: netsim.KindUDP, Dst: 1, Length: 1000, PathLen: 3}
		hs[i].Path[0], hs[i].Path[1], hs[i].Path[2] = pathid.ASN(10000+i), pathid.ASN(100+i/8), 1
	}
	p := newProducer(e)
	sent := 0
	ingest := func(n int) {
		for end := sent + n; sent < end; sent++ {
			h := &hs[sent%nPaths]
			h.Src = uint32(sent%nPaths)<<8 | uint32(sent/nPaths%flowsPer)
			p.ingest(h, uint64(sent+1), float64(sent)*gap)
		}
		p.burst.Flush()
		for e.Stats().Processed != int64(sent) {
			runtime.Gosched()
		}
	}
	ingest(100_000)
	const perRun = 4096
	if avg := testing.AllocsPerRun(10, func() { ingest(perRun) }); avg != 0 {
		t.Fatalf("steady-state ingest allocates %.0f times per %d packets, want 0", avg, perRun)
	}
	if p.in.Len() != nPaths {
		t.Fatalf("interner holds %d paths, want %d", p.in.Len(), nPaths)
	}
}

// TestZeroAllocForward: the egress sink's steady-state cycle — a vector
// and a half of packets emitted, so that Emit sends the full vector
// itself, then the rest flushed — allocates nothing, and every datagram
// reaches the next hop.
func TestZeroAllocForward(t *testing.T) {
	next, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	r, err := udpbatch.NewReader(next, wire.MaxEncodedLen+1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	fwd, err := newUDPForwarder(next.LocalAddr().String(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	pkt := netsim.Packet{Kind: netsim.KindUDP, Src: 7, Dst: 1, Size: 1000, Path: pathid.New(100, 10, 1)}
	const perCycle = udpbatch.MaxBatch + udpbatch.MaxBatch/2
	cycle := func() {
		for i := 0; i < perCycle; i++ {
			fwd.Emit(&pkt, 0)
		}
		fwd.Flush()
		for got := 0; got < perCycle; {
			n, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("Emit/Flush of %d packets allocates %.1f times, want 0", perCycle, avg)
	}
	if lost := reg.CounterValue(`floc_egress_errors_total{stage="send"}`); lost != 0 {
		t.Fatalf("%d packets lost at send", lost)
	}
}
