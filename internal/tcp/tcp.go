// Package tcp implements per-packet TCP Reno endpoints for the netsim
// simulator: a Source that performs a SYN handshake, congestion avoidance
// with slow start, fast retransmit on triple duplicate ACKs, and
// retransmission timeouts; and a Sink that acknowledges cumulatively.
//
// The model is deliberately at the granularity the FLoc paper needs:
// sequence numbers count packets (not bytes), there is no SACK, and flow
// control is a fixed receive-window cap. What matters for the paper's
// evaluation — AIMD window dynamics, drop-driven rate adaptation, RTT
// dependence, and the SYN-to-first-data pattern FLoc uses to measure RTT —
// is all faithfully reproduced.
package tcp

import (
	"math"

	"floc/internal/netsim"
	"floc/internal/pathid"
)

// Sizes of simulated packets in bytes.
const (
	// CtlSize is the size of SYN, SYN-ACK and ACK packets.
	CtlSize = 40
	// DefaultDataSize is the default data packet size.
	DefaultDataSize = 1000
)

// Default protocol parameters.
const (
	defaultInitialCwnd = 2.0
	defaultMaxCwnd     = 64.0
	defaultInitialRTO  = 1.0
	minRTO             = 0.2
	maxRTO             = 8.0
)

// SourceConfig configures a TCP source.
type SourceConfig struct {
	// Src and Dst are the flow's endpoint addresses.
	Src, Dst uint32
	// Path is the domain path identifier stamped on every packet.
	Path pathid.PathID
	// TotalPackets is the transfer length in data packets; 0 means
	// unbounded (a persistent flow).
	TotalPackets int
	// DataSize is the data packet size in bytes (default DefaultDataSize).
	DataSize int
	// MaxCwnd caps the congestion window in packets (default 64).
	MaxCwnd float64
	// Attack labels the flow's packets as ground-truth attack traffic
	// (used by high-population TCP attack sources). No defense reads it.
	Attack bool
	// OnComplete, if set, runs when the last data packet is acknowledged.
	OnComplete func(now float64)
}

// Source is the sending TCP endpoint. It must be attached to a Host (as
// the agent for the destination address) and started with Start.
type Source struct {
	cfg     SourceConfig
	host    *netsim.Host
	pathKey string

	state    srcState
	cwnd     float64
	ssthresh float64
	nextSeq  int
	sndUna   int
	dupacks  int

	srtt     float64
	rttvar   float64
	rto      float64
	hasSRTT  bool
	rtoGen   uint64 // invalidates stale RTO timers
	rtoArmed bool

	sendTimes map[int]float64 // seq -> first-send time (Karn: deleted on rexmit)

	// Stats.
	sentData    int
	retransmits int
	completedAt float64
	startedAt   float64
	synSentAt   float64
}

type srcState uint8

const (
	stateIdle srcState = iota
	stateSYNSent
	stateEstablished
	stateDone
)

var _ netsim.Agent = (*Source)(nil)

// NewSource creates a TCP source on host for cfg. The caller must also
// Attach it to the host for peer cfg.Dst.
func NewSource(host *netsim.Host, cfg SourceConfig) *Source {
	if cfg.DataSize <= 0 {
		cfg.DataSize = DefaultDataSize
	}
	if cfg.MaxCwnd <= 0 {
		cfg.MaxCwnd = defaultMaxCwnd
	}
	return &Source{
		cfg:       cfg,
		host:      host,
		pathKey:   cfg.Path.Key(),
		cwnd:      defaultInitialCwnd,
		ssthresh:  cfg.MaxCwnd,
		rto:       defaultInitialRTO,
		sendTimes: map[int]float64{},
	}
}

// Start schedules connection establishment at time at.
func (s *Source) Start(net *netsim.Network, at float64) {
	net.Schedule(at, func() {
		if s.state != stateIdle {
			return
		}
		s.state = stateSYNSent
		s.startedAt = net.Now()
		s.sendSYN(net)
	})
}

func (s *Source) sendSYN(net *netsim.Network) {
	s.synSentAt = net.Now()
	s.host.Send(net, &netsim.Packet{
		ID: net.NextPacketID(), Src: s.cfg.Src, Dst: s.cfg.Dst,
		Size: CtlSize, Kind: netsim.KindSYN, Path: s.cfg.Path, PathKey: s.pathKey,
		Attack: s.cfg.Attack, SentAt: net.Now(),
	})
	// SYN retransmission timer.
	gen := s.bumpRTO()
	net.ScheduleIn(s.rto, func() { s.onRTO(net, gen) })
}

// Deliver implements netsim.Agent (packets from the peer arrive here).
func (s *Source) Deliver(net *netsim.Network, pkt *netsim.Packet) {
	// A source consumes only the reverse-path SYNACK/ACK; forward kinds
	// are what it emits.
	switch pkt.Kind {
	case netsim.KindSYNACK:
		if s.state != stateSYNSent {
			return
		}
		s.state = stateEstablished
		s.sampleRTT(net.Now() - s.synSentAt)
		s.disarmRTO()
		s.trySend(net)
	case netsim.KindACK:
		if s.state != stateEstablished {
			return
		}
		s.onACK(net, pkt.Ack)
	default:
		// Sources ignore stray data.
	}
}

// onACK processes a cumulative acknowledgment for all seq < ack.
func (s *Source) onACK(net *netsim.Network, ack int) {
	if ack > s.sndUna {
		newly := ack - s.sndUna
		// RTT sample from the highest newly acked, if never retransmitted.
		if t0, ok := s.sendTimes[ack-1]; ok {
			s.sampleRTT(net.Now() - t0)
		}
		for seq := s.sndUna; seq < ack; seq++ {
			delete(s.sendTimes, seq)
		}
		s.sndUna = ack
		s.dupacks = 0
		// Progress clears exponential backoff (the next timeout starts
		// from the smoothed estimate again).
		if s.hasSRTT {
			s.rto = clampRTO(s.srtt + 4*s.rttvar)
		}
		// Window growth: slow start below ssthresh, else congestion
		// avoidance (+1 per window per RTT).
		for i := 0; i < newly; i++ {
			if s.cwnd < s.ssthresh {
				s.cwnd++
			} else {
				s.cwnd += 1 / s.cwnd
			}
			if s.cwnd > s.cfg.MaxCwnd {
				s.cwnd = s.cfg.MaxCwnd
			}
		}
		if s.cfg.TotalPackets > 0 && s.sndUna >= s.cfg.TotalPackets {
			s.finish(net)
			return
		}
		s.armRTO(net)
		s.trySend(net)
		return
	}
	// Duplicate ACK.
	s.dupacks++
	if s.dupacks == 3 {
		// Fast retransmit + (simplified) fast recovery.
		s.ssthresh = math.Max(s.cwnd/2, 2)
		s.cwnd = s.ssthresh
		s.retransmit(net, s.sndUna)
		s.armRTO(net)
	}
}

func (s *Source) finish(net *netsim.Network) {
	if s.state == stateDone {
		return
	}
	s.state = stateDone
	s.completedAt = net.Now()
	s.disarmRTO()
	if s.cfg.OnComplete != nil {
		s.cfg.OnComplete(net.Now())
	}
}

// trySend transmits new data while the window allows.
func (s *Source) trySend(net *netsim.Network) {
	for {
		inflight := s.nextSeq - s.sndUna
		if float64(inflight) >= s.cwnd {
			return
		}
		if s.cfg.TotalPackets > 0 && s.nextSeq >= s.cfg.TotalPackets {
			return
		}
		seq := s.nextSeq
		s.nextSeq++
		s.sendTimes[seq] = net.Now()
		s.sendData(net, seq)
	}
}

func (s *Source) sendData(net *netsim.Network, seq int) {
	s.sentData++
	s.host.Send(net, &netsim.Packet{
		ID: net.NextPacketID(), Src: s.cfg.Src, Dst: s.cfg.Dst,
		Size: s.cfg.DataSize, Kind: netsim.KindData, Seq: seq,
		Path: s.cfg.Path, PathKey: s.pathKey, Attack: s.cfg.Attack, SentAt: net.Now(),
	})
	if !s.rtoArmed {
		s.armRTO(net)
	}
}

func (s *Source) retransmit(net *netsim.Network, seq int) {
	s.retransmits++
	delete(s.sendTimes, seq) // Karn: never sample a retransmitted segment
	s.sendData(net, seq)
}

// sampleRTT updates SRTT/RTTVAR/RTO per RFC 6298.
func (s *Source) sampleRTT(sample float64) {
	if sample <= 0 {
		return
	}
	if !s.hasSRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.hasSRTT = true
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		s.rttvar = (1-beta)*s.rttvar + beta*math.Abs(s.srtt-sample)
		s.srtt = (1-alpha)*s.srtt + alpha*sample
	}
	s.rto = clampRTO(s.srtt + 4*s.rttvar)
}

func clampRTO(v float64) float64 {
	if v < minRTO {
		return minRTO
	}
	if v > maxRTO {
		return maxRTO
	}
	return v
}

// bumpRTO invalidates outstanding timers and returns the new generation.
func (s *Source) bumpRTO() uint64 {
	s.rtoGen++
	s.rtoArmed = true
	return s.rtoGen
}

func (s *Source) disarmRTO() {
	s.rtoGen++
	s.rtoArmed = false
}

// armRTO (re)starts the retransmission timer.
func (s *Source) armRTO(net *netsim.Network) {
	gen := s.bumpRTO()
	net.ScheduleIn(s.rto, func() { s.onRTO(net, gen) })
}

// onRTO fires when the retransmission timer expires.
func (s *Source) onRTO(net *netsim.Network, gen uint64) {
	if gen != s.rtoGen || s.state == stateDone {
		return
	}
	switch s.state {
	case stateSYNSent:
		s.rto = clampRTO(s.rto * 2)
		s.sendSYN(net)
	case stateEstablished:
		if s.nextSeq == s.sndUna {
			// Nothing outstanding.
			s.rtoArmed = false
			return
		}
		s.ssthresh = math.Max(s.cwnd/2, 2)
		s.cwnd = 1
		s.dupacks = 0
		s.rto = clampRTO(s.rto * 2)
		// Go-back-N: after a timeout the sender assumes everything
		// unacknowledged was lost and rewinds its send point; slow start
		// re-clocks the rest (cumulative ACKs skip whatever the receiver
		// had buffered).
		s.retransmit(net, s.sndUna)
		s.nextSeq = s.sndUna + 1
		s.armRTO(net)
	default:
	}
}

// Cwnd returns the current congestion window in packets.
func (s *Source) Cwnd() float64 { return s.cwnd }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Source) SRTT() float64 { return s.srtt }

// Done reports whether the transfer completed.
func (s *Source) Done() bool { return s.state == stateDone }

// CompletedAt returns the completion time (0 if not done).
func (s *Source) CompletedAt() float64 { return s.completedAt }

// Retransmits returns the number of retransmitted data packets.
func (s *Source) Retransmits() int { return s.retransmits }

// SentData returns the number of data packet transmissions (including
// retransmissions).
func (s *Source) SentData() int { return s.sentData }

// Sink is the receiving TCP endpoint: it completes the handshake and sends
// one cumulative ACK per received data packet.
type Sink struct {
	addr    uint32
	peer    uint32
	host    *netsim.Host
	path    pathid.PathID // path identifier for the reverse direction
	pathKey string

	expected int
	buffered map[int]bool

	// GoodputPackets counts in-order data packets delivered to the
	// application.
	GoodputPackets int
	// GoodputBytes counts in-order data bytes.
	GoodputBytes int64
}

var _ netsim.Agent = (*Sink)(nil)

// NewSink creates a sink on host (address host.Addr) for packets from
// peer. Reverse-direction packets carry path identifier reversePath.
func NewSink(host *netsim.Host, peer uint32, reversePath pathid.PathID) *Sink {
	return &Sink{addr: host.Addr, peer: peer, host: host, path: reversePath, pathKey: reversePath.Key(), buffered: map[int]bool{}}
}

// Deliver implements netsim.Agent.
func (k *Sink) Deliver(net *netsim.Network, pkt *netsim.Packet) {
	// A sink answers the forward-path SYN/Data; reverse kinds and UDP are
	// not addressed to it.
	switch pkt.Kind {
	case netsim.KindSYN:
		k.send(net, netsim.KindSYNACK, 0)
	case netsim.KindData:
		if pkt.Seq == k.expected {
			k.expected++
			k.GoodputPackets++
			k.GoodputBytes += int64(pkt.Size)
			for k.buffered[k.expected] {
				delete(k.buffered, k.expected)
				k.expected++
				k.GoodputPackets++
				k.GoodputBytes += int64(pkt.Size)
			}
		} else if pkt.Seq > k.expected {
			k.buffered[pkt.Seq] = true
		}
		k.send(net, netsim.KindACK, k.expected)
	default:
	}
}

func (k *Sink) send(net *netsim.Network, kind netsim.PacketKind, ack int) {
	k.host.Send(net, &netsim.Packet{
		ID: net.NextPacketID(), Src: k.addr, Dst: k.peer,
		Size: CtlSize, Kind: kind, Ack: ack, Path: k.path, PathKey: k.pathKey,
		SentAt: net.Now(),
	})
}

// Expected returns the next expected sequence number (== in-order packets
// received).
func (k *Sink) Expected() int { return k.expected }
