package netsim

import (
	"fmt"
	"strings"
	"testing"

	"floc/internal/pathid"
	"floc/internal/units"
)

// collector is an Endpoint that records received packets.
type collector struct {
	pkts  []*Packet
	times []float64
}

func (c *collector) Receive(net *Network, pkt *Packet) {
	c.pkts = append(c.pkts, pkt)
	c.times = append(c.times, net.Now())
}

func mkPacket(id uint64, size int) *Packet {
	return &Packet{ID: id, Src: 1, Dst: 2, Size: size, Kind: KindData}
}

func TestEventOrdering(t *testing.T) {
	net := New(1)
	var order []int
	net.Schedule(2.0, func() { order = append(order, 2) })
	net.Schedule(1.0, func() { order = append(order, 1) })
	net.Schedule(1.0, func() { order = append(order, 11) }) // same time: FIFO
	net.Schedule(3.0, func() { order = append(order, 3) })
	net.Run(10)
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	net := New(1)
	fired := false
	net.Schedule(5.0, func() { fired = true })
	end := net.Run(2.0)
	if fired {
		t.Fatal("event beyond until fired")
	}
	if end != 2.0 {
		t.Fatalf("end = %v", end)
	}
	if net.Pending() != 1 {
		t.Fatalf("pending = %d", net.Pending())
	}
	net.Run(10)
	if !fired {
		t.Fatal("event did not fire on resumed run")
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	net := New(1)
	var at float64 = -1
	net.Schedule(1.0, func() {
		net.Schedule(0.5, func() { at = net.Now() }) // in the past
	})
	net.Run(10)
	if at != 1.0 {
		t.Fatalf("past event ran at %v, want clamped to 1.0", at)
	}
}

func TestStop(t *testing.T) {
	net := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		tm := float64(i)
		net.Schedule(tm, func() {
			count++
			if count == 3 {
				net.Stop()
			}
		})
	}
	net.Run(100)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestNextPacketIDUnique(t *testing.T) {
	net := New(1)
	a, b := net.NextPacketID(), net.NextPacketID()
	if a == b {
		t.Fatal("packet IDs collide")
	}
}

func TestLinkValidation(t *testing.T) {
	dst := &collector{}
	fifo := NewFIFO(10)
	cases := []struct {
		rate  units.BitsPerSec
		delay float64
		disc  Discipline
		dst   Endpoint
	}{
		{0, 0.01, fifo, dst},
		{-5, 0.01, fifo, dst},
		{1e6, -1, fifo, dst},
		{1e6, 0.01, nil, dst},
		{1e6, 0.01, fifo, nil},
	}
	for i, tc := range cases {
		if _, err := NewLink("l", tc.rate, tc.delay, tc.disc, tc.dst); err == nil {
			t.Errorf("case %d: invalid link accepted", i)
		}
	}
}

func TestLinkSerializationAndDelay(t *testing.T) {
	// 8000 bits/s = 1000 bytes/s; a 500-byte packet takes 0.5s to
	// serialize plus 0.1s propagation.
	dst := &collector{}
	l, err := NewLink("l", 8000, 0.1, NewFIFO(10), dst)
	if err != nil {
		t.Fatal(err)
	}
	net := New(1)
	net.Schedule(0, func() { l.Send(net, mkPacket(1, 500)) })
	net.Run(10)
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(dst.pkts))
	}
	if got, want := dst.times[0], 0.6; got != want {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	// Two packets sent simultaneously serialize one after the other.
	dst := &collector{}
	l, err := NewLink("l", 8000, 0, NewFIFO(10), dst)
	if err != nil {
		t.Fatal(err)
	}
	net := New(1)
	net.Schedule(0, func() {
		l.Send(net, mkPacket(1, 1000))
		l.Send(net, mkPacket(2, 1000))
	})
	net.Run(10)
	if len(dst.times) != 2 {
		t.Fatalf("delivered %d", len(dst.times))
	}
	if dst.times[0] != 1.0 || dst.times[1] != 2.0 {
		t.Fatalf("delivery times %v, want [1 2]", dst.times)
	}
	if dst.pkts[0].ID != 1 || dst.pkts[1].ID != 2 {
		t.Fatal("FIFO order violated")
	}
}

func TestLinkDropsWhenFull(t *testing.T) {
	dst := &collector{}
	l, err := NewLink("l", 8000, 0, NewFIFO(2), dst)
	if err != nil {
		t.Fatal(err)
	}
	var dropped []*Packet
	l.DropHook = func(pkt *Packet, _ float64) { dropped = append(dropped, pkt) }
	net := New(1)
	net.Schedule(0, func() {
		// First starts transmitting immediately (leaves the queue), two
		// queue up, fourth drops.
		for i := 1; i <= 4; i++ {
			l.Send(net, mkPacket(uint64(i), 1000))
		}
	})
	net.Run(10)
	if len(dst.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(dst.pkts))
	}
	if len(dropped) != 1 || dropped[0].ID != 4 {
		t.Fatalf("dropped %v", dropped)
	}
	st := l.Stats()
	if st.Dropped != 1 || st.Delivered != 3 || st.Enqueued != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DeliveredBytes != 3000 {
		t.Fatalf("delivered bytes = %d", st.DeliveredBytes)
	}
}

func TestDeliverHook(t *testing.T) {
	dst := &collector{}
	l, err := NewLink("l", 8e6, 0.001, NewFIFO(10), dst)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	l.DeliverHook = func(pkt *Packet, now float64) { seen++ }
	net := New(1)
	net.Schedule(0, func() { l.Send(net, mkPacket(1, 100)) })
	net.Run(1)
	if seen != 1 {
		t.Fatalf("DeliverHook saw %d", seen)
	}
}

func TestLinkUtilizationNearCapacity(t *testing.T) {
	// Saturate a 1 Mb/s link for 10 seconds; delivered bytes must be close
	// to capacity and never above.
	dst := &collector{}
	l, err := NewLink("l", 1e6, 0, NewFIFO(50), dst)
	if err != nil {
		t.Fatal(err)
	}
	net := New(1)
	const pktSize = 1250 // 10000 bits
	var send func()
	sent := 0
	send = func() {
		l.Send(net, mkPacket(uint64(sent), pktSize))
		sent++
		if net.Now() < 10 {
			net.ScheduleIn(0.005, send) // 2 Mb/s offered load
		}
	}
	net.Schedule(0, send)
	net.Run(12)
	gotBits := float64(l.Stats().DeliveredBytes) * 8
	if gotBits > 1e6*12.01 {
		t.Fatalf("delivered %v bits exceeds capacity", gotBits)
	}
	if gotBits < 1e6*9.5 {
		t.Fatalf("delivered %v bits, link underutilized", gotBits)
	}
}

func TestFIFOCapClamped(t *testing.T) {
	f := NewFIFO(0)
	if f.Cap() != 1 {
		t.Fatalf("cap = %d", f.Cap())
	}
}

func TestFIFOLongRun(t *testing.T) {
	// Exercise the compaction path.
	f := NewFIFO(10)
	next := uint64(0)
	for round := 0; round < 1000; round++ {
		for i := 0; i < 5; i++ {
			if !f.Enqueue(mkPacket(next, 100), 0) {
				t.Fatal("enqueue failed below cap")
			}
			next++
		}
		for i := 0; i < 5; i++ {
			p := f.Dequeue(0)
			if p == nil {
				t.Fatal("dequeue returned nil with items queued")
			}
		}
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after balanced ops", f.Len())
	}
	if f.Dequeue(0) != nil {
		t.Fatal("empty dequeue returned a packet")
	}
}

func TestFIFOOrderPreservedAcrossCompaction(t *testing.T) {
	f := NewFIFO(1000)
	var want uint64
	id := uint64(0)
	for i := 0; i < 500; i++ {
		f.Enqueue(mkPacket(id, 1), 0)
		id++
	}
	for i := 0; i < 5000; i++ {
		p := f.Dequeue(0)
		if p.ID != want {
			t.Fatalf("order broken: got %d want %d", p.ID, want)
		}
		want++
		f.Enqueue(mkPacket(id, 1), 0)
		id++
	}
}

func TestRouterForwarding(t *testing.T) {
	a, b := &collector{}, &collector{}
	r := NewRouter("r")
	la, err := NewLink("to-a", 8e6, 0, NewFIFO(10), a)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLink("to-b", 8e6, 0, NewFIFO(10), b)
	if err != nil {
		t.Fatal(err)
	}
	r.AddRoute(100, la)
	r.SetDefault(lb)
	net := New(1)
	net.Schedule(0, func() {
		r.Receive(net, &Packet{ID: 1, Dst: 100, Size: 100, Kind: KindData})
		r.Receive(net, &Packet{ID: 2, Dst: 999, Size: 100, Kind: KindData})
	})
	net.Run(1)
	if len(a.pkts) != 1 || a.pkts[0].ID != 1 {
		t.Fatalf("route to a: %v", a.pkts)
	}
	if len(b.pkts) != 1 || b.pkts[0].ID != 2 {
		t.Fatalf("default route: %v", b.pkts)
	}
}

func TestRouterUnroutableDropsSilently(t *testing.T) {
	r := NewRouter("r")
	net := New(1)
	// Must not panic.
	r.Receive(net, &Packet{ID: 1, Dst: 5, Size: 10})
}

type recordingAgent struct{ got []*Packet }

func (a *recordingAgent) Deliver(_ *Network, pkt *Packet) { a.got = append(a.got, pkt) }

func TestHostDispatchAndFactory(t *testing.T) {
	h := NewHost("server", 500)
	known := &recordingAgent{}
	if err := h.Attach(7, known); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(7, known); err == nil {
		t.Fatal("duplicate Attach accepted")
	}
	net := New(1)
	h.Receive(net, &Packet{ID: 1, Src: 7, Dst: 500})
	h.Receive(net, &Packet{ID: 2, Src: 8, Dst: 500}) // unknown peer: ignored
	h.Receive(net, &Packet{ID: 3, Src: 7, Dst: 500})
	if len(known.got) != 2 || known.got[0].ID != 1 || known.got[1].ID != 3 {
		t.Fatalf("known agent got %v", known.got)
	}
	if h.Agent(8) != nil {
		t.Fatal("a packet from an unknown peer registered an agent")
	}
}

func TestHostSendWithoutAccessPanics(t *testing.T) {
	h := NewHost("h", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Send without access link did not panic")
		}
	}()
	h.Send(New(1), mkPacket(1, 10))
}

func TestHostNoFactoryIgnoresUnknown(t *testing.T) {
	h := NewHost("h", 1)
	h.Receive(New(1), &Packet{Src: 9}) // must not panic
}

func TestPacketFlowAndKindString(t *testing.T) {
	p := &Packet{Src: 3, Dst: 4, Path: pathid.New(1, 2)}
	if p.Flow() != (FlowID{Src: 3, Dst: 4}) {
		t.Fatalf("Flow = %+v", p.Flow())
	}
	kinds := map[PacketKind]string{
		KindSYN: "SYN", KindSYNACK: "SYNACK", KindData: "DATA",
		KindACK: "ACK", KindUDP: "UDP", PacketKind(99): "PacketKind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// TestConservationThroughRouterChain: every packet sent into a chain of
// routers/links is either delivered or counted dropped, never duplicated
// or lost silently.
func TestConservationThroughRouterChain(t *testing.T) {
	net := New(5)
	final := &collector{}
	// chain: src -> l1 -> r1 -> l2 -> r2 -> l3 -> final (tight buffers).
	l3, err := NewLink("l3", 4e6, 0.001, NewFIFO(5), final)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRouter("r2")
	r2.SetDefault(l3)
	l2, err := NewLink("l2", 6e6, 0.001, NewFIFO(5), r2)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRouter("r1")
	r1.SetDefault(l2)
	l1, err := NewLink("l1", 50e6, 0.001, NewFIFO(5), r1)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	var send func()
	send = func() {
		l1.Send(net, mkPacket(uint64(sent), 1000))
		sent++
		if net.Now() < 5 {
			net.ScheduleIn(0.0008, send) // 10 Mb/s offered into 4 Mb/s tail
		}
	}
	net.Schedule(0, send)
	net.Run(20)

	dropped := l1.Stats().Dropped + l2.Stats().Dropped + l3.Stats().Dropped
	if len(final.pkts)+dropped != sent {
		t.Fatalf("conservation: sent %d, delivered %d + dropped %d",
			sent, len(final.pkts), dropped)
	}
	if dropped == 0 {
		t.Fatal("expected drops at the 4 Mb/s tail")
	}
	// No duplication.
	seen := map[uint64]bool{}
	for _, p := range final.pkts {
		if seen[p.ID] {
			t.Fatalf("packet %d duplicated", p.ID)
		}
		seen[p.ID] = true
	}
	// FIFO order preserved end to end.
	last := int64(-1)
	for _, p := range final.pkts {
		if int64(p.ID) < last {
			t.Fatal("reordering across links")
		}
		last = int64(p.ID)
	}
}

func TestLinkStatsDeliveredBytesMatch(t *testing.T) {
	dst := &collector{}
	l, err := NewLink("l", 8e6, 0, NewFIFO(100), dst)
	if err != nil {
		t.Fatal(err)
	}
	net := New(1)
	sizes := []int{40, 1000, 1300, 1500}
	total := 0
	net.Schedule(0, func() {
		for i, sz := range sizes {
			l.Send(net, mkPacket(uint64(i), sz))
			total += sz
		}
	})
	net.Run(1)
	if got := l.Stats().DeliveredBytes; got != int64(total) {
		t.Fatalf("DeliveredBytes = %d, want %d", got, total)
	}
}

// TestPacketKindRoundTrip checks that every defined kind survives the
// String/ParsePacketKind round trip, and that values outside the closed
// set are rejected rather than aliased onto a real kind.
func TestPacketKindRoundTrip(t *testing.T) {
	kinds := []PacketKind{KindSYN, KindSYNACK, KindData, KindACK, KindUDP}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if strings.HasPrefix(s, "PacketKind(") {
			t.Errorf("kind %d has no name", uint8(k))
			continue
		}
		if seen[s] {
			t.Errorf("kind name %q not unique", s)
		}
		seen[s] = true
		got, ok := ParsePacketKind(s)
		if !ok || got != k {
			t.Errorf("ParsePacketKind(%q) = %v, %v; want %v, true", s, got, ok, k)
		}
	}
	for _, k := range []PacketKind{0, PacketKind(len(kinds) + 1), 99} {
		if s := k.String(); s != fmt.Sprintf("PacketKind(%d)", uint8(k)) {
			t.Errorf("out-of-range kind %d stringified as %q", uint8(k), s)
		}
	}
	for _, s := range []string{"", "syn", "BOGUS", "PacketKind(1)"} {
		if k, ok := ParsePacketKind(s); ok {
			t.Errorf("ParsePacketKind(%q) accepted as %v", s, k)
		}
	}
}
