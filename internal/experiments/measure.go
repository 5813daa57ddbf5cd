package experiments

import (
	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/stats"
	"floc/internal/telemetry"
	"floc/internal/topology"
	"floc/internal/units"
)

// FlowClass categorizes a flow for the differential-guarantee metrics.
type FlowClass uint8

// Flow classes (paper Figs. 8, 13-15).
const (
	// ClassLegitLegit: legitimate flow from an uncontaminated domain.
	ClassLegitLegit FlowClass = iota + 1
	// ClassLegitAttackPath: legitimate flow from a contaminated domain.
	ClassLegitAttackPath
	// ClassAttack: attack flow.
	ClassAttack
)

// String implements fmt.Stringer.
func (c FlowClass) String() string {
	switch c {
	case ClassLegitLegit:
		return "legit/legit-path"
	case ClassLegitAttackPath:
		return "legit/attack-path"
	case ClassAttack:
		return "attack"
	default:
		return "unknown"
	}
}

// Recorder series names for the target-link tallies (Fig. 2).
const (
	// SeriesService counts packets serviced per second at the target link.
	SeriesService = "target_service"
	// SeriesDrop counts packets dropped per second at the target link.
	SeriesDrop = "target_drop"
)

// Measurement collects everything the figures need from one run, by
// observing deliveries over the target link.
type Measurement struct {
	// Tel is the run's telemetry: the registry and recorder are always on
	// (the recorder's series are the source of truth for the target-link
	// tallies below); the event trace is enabled by Scenario.TraceCapacity.
	Tel *telemetry.Telemetry

	// PerPathBits accumulates delivered payload bits per path identifier
	// in 1-second bins (full run, for Fig. 6 time series).
	PerPathBits map[string]*stats.TimeSeries
	// FlowBits accumulates per-flow delivered bits within the
	// measurement window.
	FlowBits map[netsim.FlowID]float64
	// FlowClasses labels each observed flow.
	FlowClasses map[netsim.FlowID]FlowClass
	// FlowPaths records each observed flow's path identifier key.
	FlowPaths map[netsim.FlowID]string
	// ClassBits accumulates per-class delivered bits within the window.
	ClassBits map[FlowClass]float64
	// SizeHist counts delivered packet sizes over the whole run (Fig. 3).
	SizeHist *stats.Histogram

	// Filled by finish:

	// TargetBits is the target link capacity.
	TargetBits units.BitsPerSec
	// Window is the measurement window length in seconds.
	Window float64
	// Utilization is delivered bits in the window / capacity.
	Utilization float64
	// AttackPathKeys marks the contaminated domains' path keys.
	AttackPathKeys map[string]bool
	// LeafKeys[i] is leaf domain i's path identifier key.
	LeafKeys []string
	// FLocPaths snapshots FLoc's per-path state at the end (nil for
	// other defenses).
	FLocPaths []core.PathInfo
	// FLocAggregates snapshots FLoc's aggregates.
	FLocAggregates map[string][]string
	// FLocSnapshot is FLoc's end-of-run counter snapshot (zero value for
	// other defenses).
	FLocSnapshot core.Snapshot
	// PushbackUpstreamDrops counts packets shed by propagated upstream
	// limiters (Pushback with upstream propagation only).
	PushbackUpstreamDrops int

	measureFrom, measureTo float64
}

// newMeasurement wires delivery/drop hooks onto the tree's target link.
// traceCap > 0 additionally enables the event trace ring.
func newMeasurement(tree *topology.Tree, attackLeaves []int, from, to float64, traceCap int) *Measurement {
	m := &Measurement{
		Tel: telemetry.New(telemetry.Options{
			TraceCapacity:    traceCap,
			Recorder:         true,
			RecorderBinWidth: 1.0,
		}),
		PerPathBits:    map[string]*stats.TimeSeries{},
		FlowBits:       map[netsim.FlowID]float64{},
		FlowClasses:    map[netsim.FlowID]FlowClass{},
		FlowPaths:      map[netsim.FlowID]string{},
		ClassBits:      map[FlowClass]float64{},
		SizeHist:       stats.NewHistogram(0, 1600, 40),
		AttackPathKeys: map[string]bool{},
		measureFrom:    from,
		measureTo:      to,
	}
	for _, leaf := range attackLeaves {
		m.AttackPathKeys[tree.Path(leaf).Key()] = true
	}
	for i := 0; i < tree.NumLeaves(); i++ {
		m.LeafKeys = append(m.LeafKeys, tree.Path(i).Key())
	}
	m.TargetBits = tree.Target.RateBits()

	// Target-link tallies live in the telemetry recorder and registry; the
	// handles are resolved once so the hooks stay allocation-free.
	serviceSeries := m.Tel.Recorder.Series(SeriesService)
	dropSeries := m.Tel.Recorder.Series(SeriesDrop)
	delivered := m.Tel.Registry.Counter("floc_target_delivered_packets_total",
		"packets serviced by the target link", "packets")
	droppedAtTarget := m.Tel.Registry.Counter("floc_target_dropped_packets_total",
		"packets dropped at the target link", "packets")

	tree.Target.DeliverHook = func(pkt *netsim.Packet, now float64) {
		serviceSeries.Add(now, 1)
		delivered.Inc()
		m.SizeHist.Add(float64(pkt.Size))
		if pkt.Kind != netsim.KindData && pkt.Kind != netsim.KindUDP {
			return
		}
		bits := float64(units.FromPacket(pkt.Size))
		key := pkt.PathKey
		if key == "" {
			key = pkt.Path.Key()
		}
		ts := m.PerPathBits[key]
		if ts == nil {
			ts = stats.NewTimeSeries(1.0)
			m.PerPathBits[key] = ts
		}
		ts.Add(now, bits)

		if now < m.measureFrom || now > m.measureTo {
			return
		}
		flow := pkt.Flow()
		if _, ok := m.FlowClasses[flow]; !ok {
			m.FlowClasses[flow] = m.classify(pkt, key)
			m.FlowPaths[flow] = key
		}
		m.FlowBits[flow] += bits
		m.ClassBits[m.FlowClasses[flow]] += bits
	}
	tree.Target.DropHook = func(pkt *netsim.Packet, now float64) {
		dropSeries.Add(now, 1)
		droppedAtTarget.Inc()
	}
	return m
}

// ServiceBins returns per-second packets serviced at the target link.
func (m *Measurement) ServiceBins() []float64 { return m.Tel.Recorder.Series(SeriesService).Bins() }

// DropBins returns per-second packets dropped at the target link.
func (m *Measurement) DropBins() []float64 { return m.Tel.Recorder.Series(SeriesDrop).Bins() }

// DeliveredPackets returns the registry's target-link service count.
func (m *Measurement) DeliveredPackets() int64 {
	return m.Tel.Registry.CounterValue("floc_target_delivered_packets_total")
}

// DroppedPackets returns the registry's target-link drop count.
func (m *Measurement) DroppedPackets() int64 {
	return m.Tel.Registry.CounterValue("floc_target_dropped_packets_total")
}

func (m *Measurement) classify(pkt *netsim.Packet, pathKey string) FlowClass {
	switch {
	case pkt.Attack:
		return ClassAttack
	case m.AttackPathKeys[pathKey]:
		return ClassLegitAttackPath
	default:
		return ClassLegitLegit
	}
}

// finish computes derived metrics after the run.
func (m *Measurement) finish(sc Scenario, flocRtr *core.Router) {
	m.Window = m.measureTo - m.measureFrom
	total := 0.0
	for _, bits := range m.ClassBits {
		total += bits
	}
	if m.TargetBits > 0 && m.Window > 0 {
		m.Utilization = total / float64(m.TargetBits.Times(units.Seconds(m.Window)))
	}
	if flocRtr != nil {
		m.FLocPaths = flocRtr.PathInfos()
		m.FLocAggregates = flocRtr.Aggregates()
		m.FLocSnapshot = flocRtr.Snapshot()
	}
	_ = sc
}

// ClassShare returns a class's fraction of link capacity over the window.
func (m *Measurement) ClassShare(c FlowClass) float64 {
	if m.TargetBits <= 0 || m.Window <= 0 {
		return 0
	}
	return m.ClassBits[c] / float64(m.TargetBits.Times(units.Seconds(m.Window)))
}

// FlowBandwidthCDF returns the per-flow delivered-bandwidth CDF (bits/s
// over the window) for flows of the given class.
func (m *Measurement) FlowBandwidthCDF(c FlowClass) *stats.CDF {
	cdf := &stats.CDF{}
	for flow, bits := range m.FlowBits {
		if m.FlowClasses[flow] == c && m.Window > 0 {
			cdf.Add(bits / m.Window)
		}
	}
	return cdf
}

// FlowBandwidthCDFForPaths returns the per-flow bandwidth CDF restricted
// to flows of the given class whose path key satisfies keep.
func (m *Measurement) FlowBandwidthCDFForPaths(c FlowClass, keep func(pathKey string) bool) *stats.CDF {
	cdf := &stats.CDF{}
	for flow, bits := range m.FlowBits {
		if m.FlowClasses[flow] == c && keep(m.FlowPaths[flow]) && m.Window > 0 {
			cdf.Add(bits / m.Window)
		}
	}
	return cdf
}

// PathBandwidth returns a path's mean delivered bandwidth (bits/s) over
// [from, to].
func (m *Measurement) PathBandwidth(pathKey string, from, to float64) float64 {
	ts := m.PerPathBits[pathKey]
	if ts == nil || to <= from {
		return 0
	}
	return ts.RangeTotal(from, to) / (to - from)
}

// MeanPathSeries averages the per-second bandwidth series (bits/s) over
// the given path keys, up to maxSeconds bins.
func (m *Measurement) MeanPathSeries(keys []string, maxSeconds int) []float64 {
	out := make([]float64, maxSeconds)
	if len(keys) == 0 {
		return out
	}
	for _, key := range keys {
		ts := m.PerPathBits[key]
		if ts == nil {
			continue
		}
		bins := ts.Bins()
		for i := 0; i < maxSeconds && i < len(bins); i++ {
			out[i] += bins[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(keys))
	}
	return out
}
