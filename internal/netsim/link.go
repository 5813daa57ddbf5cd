package netsim

import (
	"fmt"

	"floc/internal/units"
)

// Discipline is a link's queue management policy — the attachment point
// for FLoc and the baseline defenses. Implementations are driven entirely
// by the owning link: Enqueue on every arrival, Dequeue when the
// transmitter frees up.
type Discipline interface {
	// Enqueue offers an arriving packet to the queue at time now. It
	// returns false to drop the packet. Implementations that drop other
	// (already-queued) packets instead must report them via the link's
	// drop hook themselves; the simple disciplines never do.
	Enqueue(pkt *Packet, now float64) bool
	// Dequeue returns the next packet to transmit, or nil when empty.
	Dequeue(now float64) *Packet
	// Len returns the number of queued packets.
	Len() int
}

// LinkStats aggregates a link's lifetime counters.
type LinkStats struct {
	Enqueued  int
	Dropped   int
	Delivered int
	// DeliveredBytes counts payload delivered to the far endpoint.
	DeliveredBytes int64
}

// Link is a unidirectional link: a queue discipline, a serializing
// transmitter of fixed rate, and a propagation delay, delivering to a
// destination endpoint.
type Link struct {
	Name string

	rate  float64 // bytes/s: packet sizes are in bytes
	delay float64
	disc  Discipline
	dst   Endpoint

	busy  bool
	stats LinkStats

	// DropHook, if set, observes every packet dropped at enqueue.
	DropHook func(pkt *Packet, now float64)
	// DeliverHook, if set, observes every packet delivered to dst. The
	// experiment harness uses this on the flooded link to measure
	// per-flow/per-path bandwidth.
	DeliverHook func(pkt *Packet, now float64)
}

// NewLink creates a link with rate in bits per second (as network links
// are usually specified), propagation delay in seconds, queue discipline
// disc, and destination dst.
func NewLink(name string, rateBits units.BitsPerSec, delay float64, disc Discipline, dst Endpoint) (*Link, error) {
	if rateBits <= 0 {
		return nil, fmt.Errorf("netsim: link %s: non-positive rate %v", name, rateBits)
	}
	if delay < 0 {
		return nil, fmt.Errorf("netsim: link %s: negative delay %v", name, delay)
	}
	if disc == nil {
		return nil, fmt.Errorf("netsim: link %s: nil discipline", name)
	}
	if dst == nil {
		return nil, fmt.Errorf("netsim: link %s: nil destination", name)
	}
	return &Link{Name: name, rate: rateBits.BytesPerSec(), delay: delay, disc: disc, dst: dst}, nil
}

// RateBits returns the link rate in bits per second.
func (l *Link) RateBits() units.BitsPerSec { return units.FromBytesPerSec(l.rate) }

// Discipline returns the link's queue discipline.
func (l *Link) Discipline() Discipline { return l.disc }

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueLen returns the number of packets currently queued.
func (l *Link) QueueLen() int { return l.disc.Len() }

// Send offers pkt to the link at the current simulation time.
func (l *Link) Send(net *Network, pkt *Packet) {
	now := net.Now()
	if !l.disc.Enqueue(pkt, now) {
		l.stats.Dropped++
		if l.DropHook != nil {
			l.DropHook(pkt, now)
		}
		return
	}
	l.stats.Enqueued++
	if !l.busy {
		l.startTransmission(net)
	}
}

// startTransmission pulls the next packet and schedules its wire time.
func (l *Link) startTransmission(net *Network) {
	pkt := l.disc.Dequeue(net.Now())
	if pkt == nil {
		l.busy = false
		return
	}
	l.busy = true
	txTime := float64(pkt.Size) / l.rate
	net.ScheduleIn(txTime, func() {
		// Serialization complete: packet enters the wire.
		net.ScheduleIn(l.delay, func() {
			l.stats.Delivered++
			l.stats.DeliveredBytes += int64(pkt.Size)
			if l.DeliverHook != nil {
				l.DeliverHook(pkt, net.Now())
			}
			l.dst.Receive(net, pkt)
		})
		l.startTransmission(net)
	})
}

// FIFO is a bounded drop-tail queue: the "no defense" baseline. Dequeue is
// amortized O(1) via a head index with periodic compaction.
type FIFO struct {
	q    []*Packet
	head int
	cap  int
}

var _ Discipline = (*FIFO)(nil)

// NewFIFO returns a drop-tail queue holding at most capacity packets.
func NewFIFO(capacity int) *FIFO {
	if capacity < 1 {
		capacity = 1
	}
	return &FIFO{cap: capacity}
}

// Enqueue implements Discipline.
func (f *FIFO) Enqueue(pkt *Packet, _ float64) bool {
	if f.Len() >= f.cap {
		return false
	}
	f.q = append(f.q, pkt)
	return true
}

// Dequeue implements Discipline.
func (f *FIFO) Dequeue(_ float64) *Packet {
	if f.head >= len(f.q) {
		return nil
	}
	pkt := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head > 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		for i := n; i < len(f.q); i++ {
			f.q[i] = nil
		}
		f.q = f.q[:n]
		f.head = 0
	}
	return pkt
}

// Len implements Discipline.
func (f *FIFO) Len() int { return len(f.q) - f.head }

// Cap returns the queue capacity in packets.
func (f *FIFO) Cap() int { return f.cap }
