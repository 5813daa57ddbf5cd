// Package inetsim is the Internet-scale discrete-tick simulator of paper
// Section VII-B: packets advance one router (AS) hop per tick, a router
// handles all packets that arrived during a tick at once, and drops are
// chosen uniformly at random among the tick's queued packets. With the
// paper's 5 ms tick, the 16000 packets/tick bottleneck corresponds to a
// 40 Gb/s (OC-768) link.
//
// The simulator scales to the paper's 110,000 sources by keeping flows,
// packets and queues in flat slices: a packet in flight is a single int32
// flow reference in its current link's buffer.
package inetsim

import (
	"fmt"

	"floc/internal/rng"
	"floc/internal/topology"
)

// DefenseKind selects the policy at the target link.
type DefenseKind string

// Target-link policies (paper Section VII-C).
const (
	// NoDefense is the "ND" baseline: a plain random-drop queue.
	NoDefense DefenseKind = "nd"
	// FairFlow is the "FF" baseline: legitimate packets get high
	// priority; attack packets get high priority only up to their
	// per-flow fair bandwidth.
	FairFlow DefenseKind = "ff"
	// FLoc applies per-domain quotas, per-flow preferential drops and
	// (optionally) attack-path aggregation at the target link.
	FLoc DefenseKind = "floc"
)

// Config parameterizes a run.
type Config struct {
	// Topology is the generated Internet topology.
	Topology *topology.Inet
	// Defense selects the target-link policy.
	Defense DefenseKind
	// SMax bounds the number of bandwidth-guaranteed paths for FLoc
	// (paper: 0 = no aggregation ("NA"), 200 ("A-200"), 100 ("A-100")).
	SMax int

	// CapacityPerTick is the target link's service capacity in packets
	// per tick (paper: 16000).
	CapacityPerTick int
	// Ticks and WarmupTicks control run length and the measurement
	// window (measurement covers ticks in [WarmupTicks, Ticks)).
	Ticks, WarmupTicks int
	// AttackRate is each bot's send rate in packets/tick.
	AttackRate float64
	// Seed drives all randomness.
	Seed uint64
}

// The model's fixed link and window parameters.
const (
	// interiorFactor scales interior AS uplinks relative to the target
	// link; interior links are finite (heavily contaminated subtrees
	// clog their own uplinks, as the paper observes) but the target is
	// the bottleneck.
	interiorFactor = 4
	// queueFactor bounds each link's backlog at queueFactor * capacity.
	queueFactor = 2
	// maxWindow caps legitimate TCP windows (packets).
	maxWindow = 64
)

// DefaultConfig returns the paper's Section VII parameters for a
// topology.
func DefaultConfig(topo *topology.Inet, def DefenseKind) Config {
	return Config{
		Topology:        topo,
		Defense:         def,
		SMax:            0,
		CapacityPerTick: 16000,
		Ticks:           600,
		WarmupTicks:     200,
		AttackRate:      0.64,
		Seed:            11,
	}
}

// Class indexes the measured traffic classes.
type Class int

// Traffic classes (paper Figs. 13-15).
const (
	// LegitLegit: legitimate flows of uncontaminated ASes.
	LegitLegit Class = iota
	// LegitAttack: legitimate flows of contaminated ASes.
	LegitAttack
	// Attack: bot flows.
	Attack
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case LegitLegit:
		return "legit/legit-AS"
	case LegitAttack:
		return "legit/attack-AS"
	case Attack:
		return "attack"
	default:
		return "unknown"
	}
}

// Result summarizes a run.
type Result struct {
	// Share[c] is class c's delivered traffic as a fraction of the
	// target link's capacity over the measurement window.
	Share [3]float64
	// Delivered[c] counts packets delivered to the destination.
	Delivered [3]int64
	// Injected counts packets sources emitted over the whole run.
	Injected int64
	// DroppedAtTarget and DroppedInTransit count drops.
	DroppedAtTarget, DroppedInTransit int64
	// GuaranteedPaths is FLoc's final guaranteed-identifier count.
	GuaranteedPaths int
}

// flow is one source's transport state.
type flow struct {
	asIdx int32
	class Class
	// TCP state (legitimate flows).
	cwnd      float32
	credit    float32
	rttTicks  int32
	phase     int32
	dropped   bool
	slowStart bool
	// attack rate (bots).
	rate float32
	// FLoc per-flow measurement.
	sent     float64 // packets injected this control period
	sentRate float64 // smoothed send rate (pkts/tick)
	escal    float64
}

// link is one AS's uplink toward the target.
type link struct {
	dstLink int32 // index of the next link toward the target; -1 = target link
	inbox   []int32
	next    []int32
	backlog []int32
}

// Sim is a configured simulation.
type Sim struct {
	cfg   Config
	rng   *rng.Source
	topo  *topology.Inet
	flows []flow
	links []link // links[i] = uplink of AS i+1... index == AS index
	// target is the final link into the destination.
	target targetLink

	res    Result
	tick   int
	policy policy
	met    *simMetrics // nil unless SetTelemetry attached a registry
}

// targetLink is the defended bottleneck.
type targetLink struct {
	inbox   []int32
	next    []int32
	backlog []int32
}

// policy decides, each tick, which of the target link's queued packets
// are serviced (delivered to the destination).
type policy interface {
	// admit receives the tick's queued packet flow-refs and returns the
	// serviced subset (length <= capacity) plus the packets it declined
	// only for lack of room (eligible to wait in the router buffer).
	// Packets dropped for cause (preferential drops, strict quota
	// enforcement) are reported via dropAtTarget and appear in neither
	// slice.
	admit(s *Sim, queued []int32) (served, wait []int32)
	// control runs periodic bookkeeping.
	control(s *Sim)
}

// New builds a simulation.
func New(cfg Config) (*Sim, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("inetsim: nil topology")
	}
	if cfg.CapacityPerTick < 1 {
		return nil, fmt.Errorf("inetsim: capacity %d < 1", cfg.CapacityPerTick)
	}
	if cfg.Ticks <= cfg.WarmupTicks {
		return nil, fmt.Errorf("inetsim: ticks %d <= warmup %d", cfg.Ticks, cfg.WarmupTicks)
	}
	if cfg.AttackRate <= 0 {
		return nil, fmt.Errorf("inetsim: attack rate %v <= 0", cfg.AttackRate)
	}
	s := &Sim{cfg: cfg, rng: rng.New(cfg.Seed), topo: cfg.Topology}

	// Links: one uplink per AS, chained toward the target.
	ases := cfg.Topology.ASes
	s.links = make([]link, len(ases))
	for i := range ases {
		if ases[i].Parent == 0 {
			s.links[i].dstLink = -1
		} else {
			s.links[i].dstLink = int32(ases[i].Parent - 1)
		}
	}

	// Flows.
	s.flows = make([]flow, len(cfg.Topology.Sources))
	for i, src := range cfg.Topology.Sources {
		f := &s.flows[i]
		f.asIdx = int32(src.ASIdx)
		f.escal = 1
		// RTT: one tick per hop each way, minimum 2.
		depth := int32(ases[src.ASIdx].Depth)
		f.rttTicks = 2 * (depth + 1)
		if f.rttTicks < 2 {
			f.rttTicks = 2
		}
		f.phase = int32(s.rng.Intn(int(f.rttTicks)))
		if src.Attack {
			f.class = Attack
			f.rate = float32(cfg.AttackRate)
		} else {
			f.cwnd = 2
			f.slowStart = true
			if ases[src.ASIdx].Bots > 0 {
				f.class = LegitAttack
			} else {
				f.class = LegitLegit
			}
		}
	}

	switch cfg.Defense {
	case NoDefense:
		s.policy = &ndPolicy{}
	case FairFlow:
		s.policy = newFFPolicy(s)
	case FLoc:
		p, err := newFLocPolicy(s)
		if err != nil {
			return nil, err
		}
		s.policy = p
	default:
		return nil, fmt.Errorf("inetsim: unknown defense %q", cfg.Defense)
	}
	return s, nil
}

// Run executes the simulation and returns the result.
func (s *Sim) Run() Result {
	for s.tick = 0; s.tick < s.cfg.Ticks; s.tick++ {
		s.inject()
		s.transit()
		s.serveTarget()
		s.advanceFlows()
		if s.tick%20 == 19 {
			s.policy.control(s)
			if s.met != nil {
				s.publishTelemetry()
			}
		}
	}
	if s.met != nil {
		s.publishTelemetry()
	}
	capacity := float64(s.cfg.CapacityPerTick) * float64(s.cfg.Ticks-s.cfg.WarmupTicks)
	for c := 0; c < int(numClasses); c++ {
		s.res.Share[c] = float64(s.res.Delivered[c]) / capacity
	}
	if fp, ok := s.policy.(*flocPolicy); ok {
		s.res.GuaranteedPaths = fp.guaranteedPaths()
	}
	return s.res
}

// inject adds each flow's packets for this tick into its AS's uplink.
func (s *Sim) inject() {
	for i := range s.flows {
		f := &s.flows[i]
		if f.class == Attack {
			f.credit += f.rate
		} else {
			f.credit += f.cwnd / float32(f.rttTicks)
		}
		for f.credit >= 1 {
			f.credit--
			l := &s.links[f.asIdx]
			l.inbox = append(l.inbox, int32(i))
			f.sent++
			s.res.Injected++
		}
	}
}

// transit moves packets one hop: each link serves up to capacity from its
// backlog+inbox into the downstream link's next-tick inbox, keeps a
// bounded backlog, and randomly drops the excess.
func (s *Sim) transit() {
	capacity := s.cfg.CapacityPerTick * interiorFactor
	maxBacklog := capacity * queueFactor
	for i := range s.links {
		l := &s.links[i]
		if len(l.inbox) == 0 && len(l.backlog) == 0 {
			continue
		}
		// Combined queue: backlog first (FIFO), then this tick's inbox.
		queued := append(l.backlog, l.inbox...)
		serve := queued
		if len(queued) > capacity {
			serve = queued[:capacity]
			rest := queued[capacity:]
			if len(rest) > maxBacklog {
				// Random drops among the excess (paper: random selection
				// among the tick's queued packets).
				s.rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
				dropped := rest[maxBacklog:]
				for _, fi := range dropped {
					s.dropInTransit(fi)
				}
				rest = rest[:maxBacklog]
			}
			l.backlog = append(l.backlog[:0:0], rest...)
		} else {
			l.backlog = l.backlog[:0]
		}
		// Forward the served packets.
		if l.dstLink < 0 {
			s.target.next = append(s.target.next, serve...)
		} else {
			dst := &s.links[l.dstLink]
			dst.next = append(dst.next, serve...)
		}
		l.inbox = l.inbox[:0]
	}
	// Swap next->inbox for all links and the target.
	for i := range s.links {
		l := &s.links[i]
		l.inbox, l.next = l.next, l.inbox[:0]
	}
	s.target.inbox, s.target.next = s.target.next, s.target.inbox[:0]
}

// serveTarget applies the defense policy to the target link's tick
// queue: the carried backlog plus this tick's arrivals. Unserved packets
// wait in the router buffer up to queueFactor * capacity; the excess is
// dropped at random (paper VII-B: "a router randomly selects a packet
// from the all queued packets").
func (s *Sim) serveTarget() {
	queued := append(s.target.backlog, s.target.inbox...)
	s.target.inbox = s.target.inbox[:0]
	if len(queued) == 0 {
		s.target.backlog = s.target.backlog[:0]
		return
	}
	served, wait := s.policy.admit(s, queued)
	for _, fi := range served {
		f := &s.flows[fi]
		if s.tick >= s.cfg.WarmupTicks {
			s.res.Delivered[f.class]++
		}
	}
	s.res.DroppedAtTarget += int64(len(queued) - len(served) - len(wait))
	maxBacklog := s.cfg.CapacityPerTick * queueFactor
	if len(wait) > maxBacklog {
		s.rng.Shuffle(len(wait), func(a, b int) { wait[a], wait[b] = wait[b], wait[a] })
		for _, fi := range wait[maxBacklog:] {
			s.dropAtTarget(fi)
		}
		s.res.DroppedAtTarget += int64(len(wait) - maxBacklog)
		wait = wait[:maxBacklog]
	}
	s.target.backlog = append(s.target.backlog[:0:0], wait...)
}

// dropInTransit records an interior-link drop and signals the flow.
func (s *Sim) dropInTransit(fi int32) {
	s.res.DroppedInTransit++
	f := &s.flows[fi]
	if f.class != Attack {
		f.dropped = true
	}
}

// dropAtTarget signals a flow about a target-link drop (policies call it).
func (s *Sim) dropAtTarget(fi int32) {
	f := &s.flows[fi]
	if f.class != Attack {
		f.dropped = true
	}
}

// advanceFlows runs the per-RTT TCP window update.
func (s *Sim) advanceFlows() {
	t := int32(s.tick)
	for i := range s.flows {
		f := &s.flows[i]
		if f.class == Attack {
			continue
		}
		if (t+f.phase)%f.rttTicks != 0 {
			continue
		}
		if f.dropped {
			f.cwnd /= 2
			if f.cwnd < 1 {
				f.cwnd = 1
			}
			f.dropped = false
			f.slowStart = false
		} else {
			if f.slowStart {
				f.cwnd *= 2
			} else {
				f.cwnd++
			}
			if f.cwnd > maxWindow {
				f.cwnd = maxWindow
			}
		}
	}
}

// Tick returns the current tick (for tests).
func (s *Sim) Tick() int { return s.tick }
