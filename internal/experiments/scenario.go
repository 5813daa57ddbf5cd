// Package experiments defines the paper's evaluation scenarios (Sections
// VI and VII) as runnable, parameterized experiments: one function per
// figure, each returning the data series the figure plots.
//
// Scale: every functional experiment takes a Scale factor that shrinks
// the topology (hosts and link rates together), preserving per-flow fair
// shares and attack-to-capacity ratios, so tests and benchmarks can run
// the same scenarios in seconds while `cmd/flocsim` reproduces the
// paper's full size.
package experiments

import (
	"fmt"

	"floc/internal/core"
	"floc/internal/defense"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/tcp"
	"floc/internal/telemetry"
	"floc/internal/topology"
	"floc/internal/traffic"
	"floc/internal/units"
)

// DefenseKind names the queue discipline protecting the target link.
type DefenseKind string

// Defenses under evaluation.
const (
	// DefFLoc is the paper's contribution.
	DefFLoc DefenseKind = "floc"
	// DefPushback is aggregate-based local ACC.
	DefPushback DefenseKind = "pushback"
	// DefREDPD is per-flow preferential dropping.
	DefREDPD DefenseKind = "red-pd"
	// DefRED is a plain RED queue (the no-attack fairness reference).
	DefRED DefenseKind = "red"
	// DefDropTail is no defense at all.
	DefDropTail DefenseKind = "droptail"
)

// AttackKind names the attack traffic model (Section VI-A).
type AttackKind string

// Attack models.
const (
	// AttackNone runs only legitimate traffic.
	AttackNone AttackKind = "none"
	// AttackTCPPop is the high-population TCP attack: extra TCP sources
	// in contaminated domains.
	AttackTCPPop AttackKind = "tcp-pop"
	// AttackCBR is constant-bit-rate flooding.
	AttackCBR AttackKind = "cbr"
	// AttackShrew is the pulsed low-rate attack.
	AttackShrew AttackKind = "shrew"
	// AttackCovert is the multi-destination covert attack.
	AttackCovert AttackKind = "covert"
	// AttackOnOff is the timed on-off attack of Section II: bots
	// synchronously alternate seconds-long full-rate bursts with silence
	// to evade defenses that react to sustained overload.
	AttackOnOff AttackKind = "on-off"
	// AttackRolling is the timed rolling attack of Section II: the
	// contaminated domains take turns attacking, moving the flood's
	// origin before location-based filters converge.
	AttackRolling AttackKind = "rolling"
)

// Scenario fully describes one functional-evaluation run.
type Scenario struct {
	Defense DefenseKind
	Attack  AttackKind

	// Scale shrinks hosts and link rates together (1.0 = paper scale:
	// 500 Mb/s target, 30 legit sources/leaf, 60 bots/attack leaf).
	Scale float64
	// AttackRateBits is the per-bot rate for CBR/Shrew, and the per-flow
	// rate for covert attacks (paper: 2.0 Mb/s CBR, 0.2 Mb/s covert).
	AttackRateBits units.BitsPerSec
	// CovertFanout is the number of concurrent destinations per covert
	// source (paper: 1..20).
	CovertFanout int

	// SMax enables FLoc attack-path aggregation when > 0 (paper: 25).
	SMax int
	// LegitAgg enables FLoc legitimate-path aggregation.
	LegitAgg bool
	// NMax enables FLoc's covert countermeasure (paper: 2).
	NMax int
	// SmallLeaves lists leaf domains given half the legitimate sources
	// (the Fig. 9 scenario).
	SmallLeaves []int
	// DataSizes, when set, assigns legitimate sources data packet sizes
	// round-robin (the Fig. 3 packet-size-mix scenario).
	DataSizes []int
	// NoPreferentialDrop and NoEscalation are FLoc ablations.
	NoPreferentialDrop, NoEscalation bool
	// ScalableMode enables the full Section V-B efficient design at
	// once: drop-ratio flow counting, probabilistic filter updates, and
	// probabilistic array selection (k=2 of 4).
	ScalableMode bool
	// MarkingFraction is the fraction of leaf domains whose BGP speakers
	// stamp path identifiers (Section III-A: marking "can be adopted by
	// individual domains independently and incrementally"). Domains that
	// do not mark send unmarked packets, which the router lumps into one
	// shared identifier. 0 means 1.0 (full deployment).
	MarkingFraction float64

	// Sink, when set, receives every event the FLoc router emits, in
	// order (the registry is always on): flocsim -ledger attaches a
	// ledger.Sealer here. Only FLoc emits events.
	Sink telemetry.EventSink

	// Duration is total simulated seconds (paper: 80); measurement covers
	// [MeasureFrom, Duration] (paper: 20..80).
	Duration    float64
	MeasureFrom float64

	Seed uint64
}

// DefaultScenario returns the paper's base setup at the given scale.
func DefaultScenario(def DefenseKind, atk AttackKind, scale float64) Scenario {
	return Scenario{
		Defense:        def,
		Attack:         atk,
		Scale:          scale,
		AttackRateBits: 2e6,
		CovertFanout:   1,
		Duration:       80,
		MeasureFrom:    20,
		Seed:           7,
	}
}

// Fixed scenario constants (paper Section VI).
const (
	paperTargetBits   = 500e6
	paperLegitPerLeaf = 30
	paperBotsPerLeaf  = 60
	paperFilePackets  = 12000 // 12 MB of 1000-byte packets
	bufferSecs        = 0.064 // target buffer: 64 ms worth of packets
)

// attackLeavesFor returns the six contaminated leaf domains: three pairs
// of siblings, so attack-path aggregation has shared parents to use.
func attackLeavesFor(numLeaves int) []int {
	if numLeaves >= 27 {
		return []int{3, 4, 12, 13, 21, 22}
	}
	// Degenerate small trees: first two leaves.
	if numLeaves >= 2 {
		return []int{0, 1}
	}
	return []int{0}
}

// built is a fully constructed scenario ready to run.
type built struct {
	sc       Scenario
	net      *netsim.Network
	tree     *topology.Tree
	meas     *Measurement
	flocRtr  *core.Router      // nil unless Defense == DefFLoc
	pushback *defense.Pushback // nil unless Defense == DefPushback
	red      *defense.RED      // nil unless Defense == DefRED
	// unmarkedLeaf reports whether a leaf domain does not deploy path
	// marking (nil = full deployment).
	unmarkedLeaf func(leaf int) bool
}

// unmarkedPath is the shared identifier the router attributes unmarked
// traffic to.
var unmarkedPath = pathid.New(0)

// pathOf returns the path identifier leaf-domain sources stamp (or the
// shared unmarked identifier under partial deployment).
func (b *built) pathOf(leaf int) pathid.PathID {
	if b.unmarkedLeaf != nil && b.unmarkedLeaf(leaf) {
		return unmarkedPath
	}
	return b.tree.Path(leaf)
}

// build constructs the network, defense, sources and measurement hooks.
func build(sc Scenario) (*built, error) {
	if sc.Scale <= 0 || sc.Scale > 1 {
		return nil, fmt.Errorf("experiments: scale %v out of (0,1]", sc.Scale)
	}
	if sc.MarkingFraction < 0 || sc.MarkingFraction > 1 {
		return nil, fmt.Errorf("experiments: marking fraction %v out of [0,1]", sc.MarkingFraction)
	}
	if sc.Duration <= sc.MeasureFrom {
		return nil, fmt.Errorf("experiments: duration %v <= measure-from %v", sc.Duration, sc.MeasureFrom)
	}
	net := netsim.New(sc.Seed)

	targetBits := units.BitsPerSec(paperTargetBits * sc.Scale)
	bufPkts := int(targetBits.Times(bufferSecs).Bytes() / 1000) // 1000-byte packets
	if bufPkts < 50 {
		bufPkts = 50
	}

	b := &built{sc: sc, net: net}
	disc, err := b.buildDefense(targetBits, bufPkts)
	if err != nil {
		return nil, err
	}

	treeCfg := topology.DefaultTreeConfig()
	treeCfg.TargetRateBits = targetBits
	treeCfg.InnerRateBits = 4 * targetBits
	treeCfg.BufferPackets = bufPkts * 4
	treeCfg.NumServers = 25
	tree, err := topology.NewTree(net, treeCfg, disc)
	if err != nil {
		return nil, err
	}
	b.tree = tree

	attackLeaves := attackLeavesFor(tree.NumLeaves())
	smallLeaf := map[int]bool{}
	for _, l := range sc.SmallLeaves {
		smallLeaf[l] = true
	}

	b.meas = newMeasurement(tree, attackLeaves, sc.MeasureFrom, sc.Duration, sc.Sink)

	// Every defense that exposes a telemetry seam shares the run's registry
	// so figures and dumps read one surface regardless of the discipline.
	switch {
	case b.flocRtr != nil:
		b.flocRtr.SetTelemetry(b.meas.Tel)
	case b.pushback != nil:
		b.pushback.SetTelemetry(b.meas.Tel.Registry)
	case b.red != nil:
		b.red.SetTelemetry(b.meas.Tel.Registry)
	}

	// Incremental deployment: only the first MarkingFraction of leaf
	// domains stamp path identifiers; the rest send unmarked traffic that
	// the router can only attribute to a single shared identifier.
	if sc.MarkingFraction > 0 && sc.MarkingFraction < 1 {
		marked := int(sc.MarkingFraction*float64(tree.NumLeaves()) + 0.5)
		b.unmarkedLeaf = func(leaf int) bool { return leaf >= marked }
	}

	// Legitimate sources: persistent TCP transfers started in [0, 5).
	legitPerLeaf := scaleCount(paperLegitPerLeaf, sc.Scale)
	serverIdx := 0
	legitIdx := 0
	for leaf := 0; leaf < tree.NumLeaves(); leaf++ {
		n := legitPerLeaf
		if smallLeaf[leaf] {
			n = (legitPerLeaf + 1) / 2
		}
		for i := 0; i < n; i++ {
			if err := b.addLegitTCP(leaf, &serverIdx, legitIdx); err != nil {
				return nil, err
			}
			legitIdx++
		}
	}

	// Attack sources.
	botsPerLeaf := scaleCount(paperBotsPerLeaf, sc.Scale)
	if sc.Attack != AttackNone {
		for _, leaf := range attackLeaves {
			for i := 0; i < botsPerLeaf; i++ {
				if err := b.addBot(leaf, &serverIdx); err != nil {
					return nil, err
				}
			}
		}
	}
	return b, nil
}

// attackGroupOf returns a leaf's position among the attack leaves (its
// rotation slot in the rolling attack).
func attackGroupOf(tree *topology.Tree, leaf int) int {
	for i, l := range attackLeavesFor(tree.NumLeaves()) {
		if l == leaf {
			return i
		}
	}
	return 0
}

// scaleCount scales a host count, keeping at least 1.
func scaleCount(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// buildDefense constructs the discipline for the target link.
func (b *built) buildDefense(targetBits units.BitsPerSec, bufPkts int) (netsim.Discipline, error) {
	sc := b.sc
	switch sc.Defense {
	case DefDropTail:
		return netsim.NewFIFO(bufPkts), nil
	case DefRED:
		r, err := defense.NewRED(defense.DefaultREDConfig(bufPkts, sc.Seed+1))
		if err != nil {
			return nil, err
		}
		b.red = r
		return r, nil
	case DefREDPD:
		return defense.NewREDPD(defense.DefaultREDPDConfig(bufPkts, sc.Seed+1))
	case DefPushback:
		pb, err := defense.NewPushback(defense.DefaultPushbackConfig(bufPkts, targetBits, sc.Seed+1))
		if err != nil {
			return nil, err
		}
		b.pushback = pb
		return pb, nil
	case DefFLoc:
		cfg := core.DefaultConfig(float64(targetBits), bufPkts)
		cfg.SMax = sc.SMax
		cfg.LegitAggregation = sc.LegitAgg
		cfg.NMax = sc.NMax
		cfg.Seed = sc.Seed + 1
		cfg.DisablePreferentialDrop = sc.NoPreferentialDrop
		cfg.DisableEscalation = sc.NoEscalation
		if sc.ScalableMode {
			cfg.EstimateFlows = true
			cfg.ProbabilisticUpdate = true
			cfg.FilterK = 2
		}
		r, err := core.NewRouter(cfg)
		if err != nil {
			return nil, err
		}
		b.flocRtr = r
		return r, nil
	default:
		return nil, fmt.Errorf("experiments: unknown defense %q", sc.Defense)
	}
}

// addLegitTCP attaches one legitimate persistent TCP source at a leaf.
func (b *built) addLegitTCP(leaf int, serverIdx *int, legitIdx int) error {
	host, err := b.tree.AddHost(leaf)
	if err != nil {
		return err
	}
	server := b.tree.Servers[*serverIdx%len(b.tree.Servers)]
	*serverIdx++
	dataSize := 0 // default
	if len(b.sc.DataSizes) > 0 {
		dataSize = b.sc.DataSizes[legitIdx%len(b.sc.DataSizes)]
	}
	src := tcp.NewSource(host, tcp.SourceConfig{
		Src: host.Addr, Dst: server.Addr, Path: b.pathOf(leaf),
		TotalPackets: paperFilePackets, DataSize: dataSize,
	})
	if err := host.Attach(server.Addr, src); err != nil {
		return err
	}
	sink := tcp.NewSink(server, host.Addr, nil)
	if err := server.Attach(host.Addr, sink); err != nil {
		return err
	}
	src.Start(b.net, 5*b.net.Rand().Float64())
	return nil
}

// addBot attaches one attack source of the scenario's kind at a leaf.
func (b *built) addBot(leaf int, serverIdx *int) error {
	host, err := b.tree.AddHost(leaf)
	if err != nil {
		return err
	}
	server := b.tree.Servers[*serverIdx%len(b.tree.Servers)]
	*serverIdx++
	path := b.pathOf(leaf)
	sc := b.sc
	switch sc.Attack {
	case AttackTCPPop:
		src := tcp.NewSource(host, tcp.SourceConfig{
			Src: host.Addr, Dst: server.Addr, Path: path,
			TotalPackets: 0, Attack: true,
		})
		if err := host.Attach(server.Addr, src); err != nil {
			return err
		}
		sink := tcp.NewSink(server, host.Addr, nil)
		if err := server.Attach(host.Addr, sink); err != nil {
			return err
		}
		src.Start(b.net, 5*b.net.Rand().Float64())
	case AttackCBR:
		cbr, err := traffic.NewCBR(host, traffic.CBRConfig{
			Src: host.Addr, Dst: server.Addr, Path: path,
			RateBits: sc.AttackRateBits, Attack: true, Jitter: 0.1,
			Start: b.net.Rand().Float64(),
		})
		if err != nil {
			return err
		}
		cbr.Start(b.net)
	case AttackShrew:
		// Pulse period matched to typical legitimate RTT (~0.1 s),
		// synchronized across bots (same start phase).
		sh, err := traffic.NewShrew(host, traffic.ShrewConfig{
			Src: host.Addr, Dst: server.Addr, Path: path,
			BurstRateBits: sc.AttackRateBits * 4, Period: 0.1, BurstFraction: 0.25,
			Start: 0,
		})
		if err != nil {
			return err
		}
		sh.Start(b.net)
	case AttackOnOff:
		// Seconds-scale synchronized on-off bursts at 4x the nominal rate
		// (same long-run average as the CBR attack) to whipsaw defenses
		// that trigger on sustained drop rates.
		sh, err := traffic.NewShrew(host, traffic.ShrewConfig{
			Src: host.Addr, Dst: server.Addr, Path: path,
			BurstRateBits: sc.AttackRateBits * 4, Period: 8.0, BurstFraction: 0.25,
			Start: 0,
		})
		if err != nil {
			return err
		}
		sh.Start(b.net)
	case AttackRolling:
		// The contaminated domains attack in rotation: each leaf's bots
		// are on for one slot of the cycle, at a rate that keeps the
		// long-run average equal to the CBR attack. The flood's origin
		// moves before location-based filters converge.
		groups := len(attackLeavesFor(b.tree.NumLeaves()))
		slot := 6.0
		sh, err := traffic.NewShrew(host, traffic.ShrewConfig{
			Src: host.Addr, Dst: server.Addr, Path: path,
			BurstRateBits: sc.AttackRateBits.Scale(float64(groups)),
			Period:        slot * float64(groups),
			BurstFraction: 1.0 / float64(groups),
			Start:         float64(attackGroupOf(b.tree, leaf)) * slot,
		})
		if err != nil {
			return err
		}
		sh.Start(b.net)
	case AttackCovert:
		fan := sc.CovertFanout
		if fan < 1 {
			fan = 1
		}
		dsts := make([]uint32, 0, fan)
		for i := 0; i < fan; i++ {
			dsts = append(dsts, b.tree.Servers[(*serverIdx+i)%len(b.tree.Servers)].Addr)
		}
		cv, err := traffic.NewCovert(host, traffic.CovertConfig{
			Src: host.Addr, Dsts: dsts, Path: path,
			PerFlowRateBits: sc.AttackRateBits,
			Start:           b.net.Rand().Float64(),
		})
		if err != nil {
			return err
		}
		cv.Start(b.net)
	default:
		return fmt.Errorf("experiments: unknown attack %q", sc.Attack)
	}
	return nil
}

// Run executes the scenario and returns its measurement.
func Run(sc Scenario) (*Measurement, error) {
	b, err := build(sc)
	if err != nil {
		return nil, err
	}
	b.net.Run(sc.Duration)
	b.meas.finish(b.flocRtr)
	return b.meas, nil
}
