// Package traffic implements the attack traffic generators of the paper's
// functional evaluation (Section VI): constant-bit-rate (CBR) flooders,
// low-rate synchronized Shrew sources, and covert multi-destination
// sources whose individual flows look legitimate.
//
// All generators emit UDP-kind packets (no congestion response), stamped
// with their origin's path identifier and the ground-truth Attack label
// used only by measurement code.
package traffic

import (
	"fmt"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/units"
)

// CBRConfig configures a constant-bit-rate source.
type CBRConfig struct {
	// Src and Dst are the flow endpoints.
	Src, Dst uint32
	// Path is the origin's path identifier.
	Path pathid.PathID
	// RateBits is the send rate in bits per second.
	RateBits units.BitsPerSec
	// PacketSize is the packet size in bytes (default 1000).
	PacketSize int
	// Start and Stop bound the sending interval; Stop <= Start means
	// "until the simulation ends".
	Start, Stop float64
	// Attack is the ground-truth label (defaults to true in attack
	// scenarios; set explicitly).
	Attack bool
	// Jitter, in [0, 1), randomizes each inter-packet gap by the given
	// fraction to avoid artificial phase effects. 0 means none.
	Jitter float64
}

// CBR is a constant-bit-rate packet source.
type CBR struct {
	cfg     CBRConfig
	host    *netsim.Host
	gap     float64
	sent    int
	pathKey string
}

// NewCBR creates a CBR source on host.
func NewCBR(host *netsim.Host, cfg CBRConfig) (*CBR, error) {
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = 1000
	}
	if cfg.RateBits <= 0 {
		return nil, fmt.Errorf("traffic: CBR rate %v <= 0", cfg.RateBits)
	}
	if cfg.Jitter < 0 || cfg.Jitter >= 1 {
		return nil, fmt.Errorf("traffic: CBR jitter %v out of [0,1)", cfg.Jitter)
	}
	gap := float64(units.FromPacket(cfg.PacketSize)) / float64(cfg.RateBits)
	return &CBR{cfg: cfg, host: host, gap: gap, pathKey: cfg.Path.Key()}, nil
}

// Sent returns the number of packets emitted.
func (c *CBR) Sent() int { return c.sent }

// Start schedules the source's first packet.
func (c *CBR) Start(net *netsim.Network) {
	net.Schedule(c.cfg.Start, func() { c.emit(net) })
}

func (c *CBR) emit(net *netsim.Network) {
	if c.cfg.Stop > c.cfg.Start && net.Now() >= c.cfg.Stop {
		return
	}
	c.sent++
	c.host.Send(net, &netsim.Packet{
		ID: net.NextPacketID(), Src: c.cfg.Src, Dst: c.cfg.Dst,
		Size: c.cfg.PacketSize, Kind: netsim.KindUDP,
		Path: c.cfg.Path, PathKey: c.pathKey, Attack: c.cfg.Attack, SentAt: net.Now(),
	})
	gap := c.gap
	if c.cfg.Jitter > 0 {
		gap *= 1 + c.cfg.Jitter*(2*net.Rand().Float64()-1)
	}
	net.ScheduleIn(gap, func() { c.emit(net) })
}

// ShrewConfig configures a Shrew (low-rate, pulsed) attack source
// (Kuzmanovic & Knightly; paper Section VI-A). The source sends at
// BurstRateBits only during the first BurstFraction of every Period,
// synchronized across all sources started with the same phase.
type ShrewConfig struct {
	Src, Dst uint32
	Path     pathid.PathID
	// BurstRateBits is the in-burst send rate, bits/second.
	BurstRateBits units.BitsPerSec
	// Period is the pulse period in seconds (the paper uses the flows'
	// RTT so drops synchronize with legitimate retransmissions).
	Period float64
	// BurstFraction is the on fraction of each period (paper: 0.25).
	BurstFraction float64
	// PacketSize in bytes (default 1000).
	PacketSize int
	// Start and Stop bound the attack; Stop <= Start means unbounded.
	Start, Stop float64
}

// Shrew is a pulsed on-off attack source.
type Shrew struct {
	cfg     ShrewConfig
	host    *netsim.Host
	gap     float64
	sent    int
	pathKey string
}

// NewShrew creates a Shrew source on host.
func NewShrew(host *netsim.Host, cfg ShrewConfig) (*Shrew, error) {
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = 1000
	}
	if cfg.BurstRateBits <= 0 {
		return nil, fmt.Errorf("traffic: shrew burst rate %v <= 0", cfg.BurstRateBits)
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("traffic: shrew period %v <= 0", cfg.Period)
	}
	if cfg.BurstFraction <= 0 || cfg.BurstFraction > 1 {
		return nil, fmt.Errorf("traffic: shrew burst fraction %v out of (0,1]", cfg.BurstFraction)
	}
	gap := float64(units.FromPacket(cfg.PacketSize)) / float64(cfg.BurstRateBits)
	return &Shrew{cfg: cfg, host: host, gap: gap, pathKey: cfg.Path.Key()}, nil
}

// Sent returns the number of packets emitted.
func (s *Shrew) Sent() int { return s.sent }

// Start schedules the attack.
func (s *Shrew) Start(net *netsim.Network) {
	net.Schedule(s.cfg.Start, func() { s.emit(net) })
}

func (s *Shrew) emit(net *netsim.Network) {
	now := net.Now()
	if s.cfg.Stop > s.cfg.Start && now >= s.cfg.Stop {
		return
	}
	// Position within the current period, measured from attack start.
	phase := (now - s.cfg.Start) / s.cfg.Period
	phase -= float64(int(phase))
	if phase < s.cfg.BurstFraction {
		s.sent++
		s.host.Send(net, &netsim.Packet{
			ID: net.NextPacketID(), Src: s.cfg.Src, Dst: s.cfg.Dst,
			Size: s.cfg.PacketSize, Kind: netsim.KindUDP,
			Path: s.cfg.Path, PathKey: s.pathKey, Attack: true, SentAt: now,
		})
		net.ScheduleIn(s.gap, func() { s.emit(net) })
		return
	}
	// Off phase: sleep until the next period boundary. Guard against
	// floating-point boundaries landing at (or a few ULPs after) now,
	// which would re-enter emit with essentially no time progress.
	periodsDone := float64(int((now-s.cfg.Start)/s.cfg.Period)) + 1
	next := s.cfg.Start + periodsDone*s.cfg.Period
	if next-now < 1e-9 {
		next = now + s.cfg.Period
	}
	net.Schedule(next, func() { s.emit(net) })
}

// CovertConfig configures a covert attack source (paper Section IV-B.3 and
// VI-D): one source opens Fanout concurrent low-rate flows to distinct
// destinations, each individually indistinguishable from a legitimate flow.
type CovertConfig struct {
	Src uint32
	// Dsts are the destination addresses; one flow per destination.
	Dsts []uint32
	Path pathid.PathID
	// PerFlowRateBits is each flow's rate (paper: 0.2 Mb/s — exactly the
	// fair share, so each flow looks legitimate).
	PerFlowRateBits units.BitsPerSec
	// PacketSize in bytes (default 1000).
	PacketSize  int
	Start, Stop float64
}

// Covert is a multi-destination covert attack source: a bundle of CBR
// flows from one source.
type Covert struct {
	flows []*CBR
}

// NewCovert creates the bundle.
func NewCovert(host *netsim.Host, cfg CovertConfig) (*Covert, error) {
	if len(cfg.Dsts) == 0 {
		return nil, fmt.Errorf("traffic: covert source with no destinations")
	}
	c := &Covert{}
	for i, dst := range cfg.Dsts {
		f, err := NewCBR(host, CBRConfig{
			Src: cfg.Src, Dst: dst, Path: cfg.Path,
			RateBits: cfg.PerFlowRateBits, PacketSize: cfg.PacketSize,
			// Stagger flow starts slightly so the bundle doesn't emit
			// perfectly phase-locked packets.
			Start: cfg.Start + float64(i)*0.001, Stop: cfg.Stop,
			Attack: true, Jitter: 0.1,
		})
		if err != nil {
			return nil, err
		}
		c.flows = append(c.flows, f)
	}
	return c, nil
}

// Start begins all of the bundle's flows.
func (c *Covert) Start(net *netsim.Network) {
	for _, f := range c.flows {
		f.Start(net)
	}
}

// Sent returns total packets emitted across all flows.
func (c *Covert) Sent() int {
	total := 0
	for _, f := range c.flows {
		total += f.Sent()
	}
	return total
}

// Flows returns the number of flows in the bundle.
func (c *Covert) Flows() int { return len(c.flows) }
