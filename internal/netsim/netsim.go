// Package netsim is a discrete-event, packet-level network simulator: the
// substrate for FLoc's functional evaluation (paper Section VI), standing
// in for ns-2.
//
// The simulator models hosts, routers, and unidirectional links. Every
// link serializes packets at its configured rate, delays them by its
// propagation latency, and queues excess arrivals in a pluggable queue
// discipline — which is where FLoc and the baseline defenses (DropTail,
// RED, RED-PD, Pushback) attach.
//
// Determinism: all randomness is drawn from the Network's seeded rng
// stream, events at equal times fire in schedule order, and map iteration
// never influences event order.
package netsim

import (
	"fmt"

	"floc/internal/pathid"
	"floc/internal/rng"
)

// PacketKind discriminates the packet types the simulator carries.
type PacketKind uint8

// Packet kinds.
const (
	// KindSYN is a TCP connection request (also FLoc's capability request).
	KindSYN PacketKind = iota + 1
	// KindSYNACK is the server's connection accept.
	KindSYNACK
	// KindData is a TCP data segment.
	KindData
	// KindACK is a TCP acknowledgment.
	KindACK
	// KindUDP is connectionless traffic (CBR, Shrew, covert attack flows).
	KindUDP
)

// String implements fmt.Stringer.
func (k PacketKind) String() string {
	switch k {
	case KindSYN:
		return "SYN"
	case KindSYNACK:
		return "SYNACK"
	case KindData:
		return "DATA"
	case KindACK:
		return "ACK"
	case KindUDP:
		return "UDP"
	default:
		return fmt.Sprintf("PacketKind(%d)", uint8(k))
	}
}

// ParsePacketKind inverts String for the defined kinds, reporting
// whether the name was one of them. Capture tooling round-trips kinds
// through their names.
func ParsePacketKind(s string) (PacketKind, bool) {
	switch s {
	case "SYN":
		return KindSYN, true
	case "SYNACK":
		return KindSYNACK, true
	case "DATA":
		return KindData, true
	case "ACK":
		return KindACK, true
	case "UDP":
		return KindUDP, true
	default:
		return 0, false
	}
}

// FlowID identifies a flow by its endpoints.
type FlowID struct {
	Src, Dst uint32
}

// Packet is one simulated packet. Packets are allocated once at the source
// and passed by pointer; they must not be mutated after being sent except
// by the owning endpoint when reusing retransmission buffers.
type Packet struct {
	ID   uint64
	Src  uint32
	Dst  uint32
	Size int // bytes, including headers
	Kind PacketKind
	Seq  int // data sequence number (packets, not bytes)
	Ack  int // cumulative acknowledgment

	// Path is the domain path identifier stamped by the origin domain's
	// BGP speaker (paper Section III-A).
	Path pathid.PathID
	// PathKey optionally caches Path.Key() so per-packet admission does
	// not re-stringify the path; sources that send many packets on one
	// path should set it.
	PathKey string
	// PathHandle optionally carries the dense integer handle a router
	// assigned to Path (core.Router.InternPath). Zero means unset. A
	// handle is local to the router that issued it — the router tags its
	// handles and ignores foreign ones, falling back to PathKey/Path —
	// so stamping it is always safe and makes steady-state admission
	// hash-free.
	PathHandle uint32

	// Attack is ground truth used only by measurement code; no defense
	// reads it.
	Attack bool

	// Priority marks high-priority packets for the per-flow fairness
	// baseline of Section VII-C.
	Priority bool

	// SentAt is the time the packet left its origin.
	SentAt float64
}

// Flow returns the packet's flow identity.
func (p *Packet) Flow() FlowID { return FlowID{Src: p.Src, Dst: p.Dst} }

// Endpoint consumes packets delivered by a link.
type Endpoint interface {
	// Receive handles a packet arriving at this endpoint at net.Now().
	Receive(net *Network, pkt *Packet)
}

// event is one scheduled callback.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

// eventHeap is a min-heap ordered by (time, sequence). Sequence numbers
// are unique, so the order is total and the heap pops events in exactly
// one order.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push adds an event: typed, so scheduling boxes nothing.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes the earliest event.
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], event{} // the cleared slot lets fn's closure go
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q.less(r, m) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
}

// Network is the simulation engine. Create one with New, attach links and
// endpoints, schedule initial events, then Run.
type Network struct {
	events  eventHeap
	now     float64
	nextSeq uint64
	nextPkt uint64
	rng     *rng.Source
	stopped bool
}

// New returns an empty network whose random stream is seeded with seed.
func New(seed uint64) *Network {
	return &Network{rng: rng.New(seed)}
}

// Now returns the current simulation time in seconds.
func (n *Network) Now() float64 { return n.now }

// Rand returns the network's deterministic random source.
func (n *Network) Rand() *rng.Source { return n.rng }

// NextPacketID returns a fresh unique packet ID.
func (n *Network) NextPacketID() uint64 {
	n.nextPkt++
	return n.nextPkt
}

// Schedule runs fn at time at (>= Now; earlier times are clamped to Now).
func (n *Network) Schedule(at float64, fn func()) {
	if at < n.now {
		at = n.now
	}
	n.nextSeq++
	n.events.push(event{at: at, seq: n.nextSeq, fn: fn})
}

// ScheduleIn runs fn after delay seconds.
func (n *Network) ScheduleIn(delay float64, fn func()) {
	n.Schedule(n.now+delay, fn)
}

// Run processes events until the queue empties or simulation time exceeds
// until. It returns the final simulation time.
func (n *Network) Run(until float64) float64 {
	n.stopped = false
	for len(n.events) > 0 && !n.stopped {
		ev := n.events[0]
		if ev.at > until {
			n.now = until
			break
		}
		n.events.pop()
		n.now = ev.at
		ev.fn()
	}
	if n.now < until && len(n.events) == 0 {
		n.now = until
	}
	return n.now
}

// Stop halts Run after the current event.
func (n *Network) Stop() { n.stopped = true }

// Pending returns the number of scheduled events, for tests.
func (n *Network) Pending() int { return len(n.events) }
