package netsim

import "testing"

// discard is an Endpoint that drops what it receives; the link's own
// stats count deliveries.
type discard struct{}

func (discard) Receive(*Network, *Packet) {}

// BenchmarkNetsimThroughput measures raw simulator event throughput: a
// saturated link with a self-rescheduling source (two events per packet
// plus delivery).
func BenchmarkNetsimThroughput(b *testing.B) {
	net := New(1)
	link, err := NewLink("l", 1e9, 0.001, NewFIFO(1000), discard{})
	if err != nil {
		b.Fatal(err)
	}
	pkt := &Packet{Src: 1, Dst: 2, Size: 1000, Kind: KindUDP}
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
