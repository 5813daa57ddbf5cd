// Package core implements FLoc itself (paper Sections IV and V): the
// router subsystem that provides per-domain bandwidth guarantees via
// path-identifier token buckets, identifies attack flows by their
// mean-time-to-drop, preferentially drops attack traffic, and aggregates
// the path identifiers of contaminated domains.
//
// The Router type is a netsim.Discipline: attach it to the flooded link.
package core

import (
	"fmt"

	"floc/internal/dropfilter"
	"floc/internal/pathid"
	"floc/internal/units"
)

// Config parameterizes a FLoc router.
type Config struct {
	// LinkRateBits is the protected link capacity in bits/second.
	LinkRateBits float64
	// Capacity is the physical buffer size in packets.
	Capacity int
	// PacketSize is the reference full packet size in bytes; one token
	// admits one full-sized packet (Section III-D).
	PacketSize int
	// QMinFrac positions Q_min as a fraction of Capacity (paper: 0.2).
	QMinFrac float64
	// SMax is |S|max, the maximum number of bandwidth-guaranteed path
	// identifiers; 0 disables attack-path aggregation.
	SMax int
	// EThreshold is E_th: leaves with conformance below it form the
	// attack tree T^A.
	EThreshold float64
	// Beta is the conformance smoothing factor of Eq. (IV.6).
	Beta float64
	// ControlInterval is the period of the measurement/control loop
	// (parameter recomputation, conformance update, aggregation).
	ControlInterval float64
	// RTTScale deflates the measured average RTT to avoid over-estimates
	// (paper Section V-A: divide by 2).
	RTTScale float64
	// DefaultRTT seeds a path's RTT estimate before any measurement.
	DefaultRTT float64
	// FlowTimeout expires idle flows from the per-path flow count.
	FlowTimeout float64
	// NMax is the per-source capability fan-out limit (Section IV-B.3);
	// 0 disables the covert-attack countermeasure (flows are then
	// accounted individually by (src, dst)).
	NMax int
	// RouterAS is the router's own domain, the traffic tree root.
	RouterAS pathid.ASN
	// Secret keys the capability issuer.
	Secret []byte
	// Filter configures the drop-record filter.
	Filter dropfilter.Config
	// AttackExcessThreshold is the filter excess (extra drops per epoch)
	// at which a flow counts as an attack flow for conformance purposes.
	AttackExcessThreshold float64
	// BlockExcess outright blocks flows whose measured excess exceeds it
	// (Section V-B.3's "block those high-rate flows"); 0 disables.
	BlockExcess float64
	// LegitAggregation enables legitimate-path aggregation (Section
	// IV-C.2).
	LegitAggregation bool
	// LegitAggGuard is the maximal fractional increase of any member
	// path's bandwidth allocation permitted by legitimate-path
	// aggregation (paper: 0.5, i.e. +50%).
	LegitAggGuard float64
	// ProbabilisticUpdate enables the sampled filter updates of Section
	// V-B.4 (memory-access reduction). Off by default: exact updates.
	ProbabilisticUpdate bool
	// FilterK restricts flows of attack paths to k of the filter's m
	// arrays (Section V-B.5); 0 means all arrays.
	FilterK int
	// EstimateFlows uses the drop-ratio flow-count estimator of Section
	// V-B.1 instead of exact per-flow tracking (scalable mode ablation).
	EstimateFlows bool
	// DisablePreferentialDrop turns off the per-flow preferential drop
	// policy (ablation: per-path guarantees only).
	DisablePreferentialDrop bool
	// DisableEscalation turns off the non-responsiveness escalation
	// (ablation: flows are pinned at fair share but never below).
	DisableEscalation bool
	// Seed seeds the router's private random stream.
	Seed uint64
}

// DefaultConfig returns the configuration used throughout the functional
// evaluation, for a link of linkRateBits and a buffer of capacity packets.
func DefaultConfig(linkRateBits float64, capacity int) Config {
	filter := dropfilter.DefaultConfig()
	// The preferential-drop equilibrium needs d to reach (alpha-1)*t_s for
	// the strongest attack factor alpha (BlockExcess); a 10-bit counter
	// covers alpha = 64 at t_s = 15 (the paper instead rescales t_s).
	filter.DMax = 1023
	return Config{
		LinkRateBits:          linkRateBits,
		Capacity:              capacity,
		PacketSize:            1000,
		QMinFrac:              0.2,
		SMax:                  0,
		EThreshold:            0.5,
		Beta:                  0.2,
		ControlInterval:       0.5,
		RTTScale:              0.5,
		DefaultRTT:            0.2,
		FlowTimeout:           5.0,
		NMax:                  0,
		RouterAS:              0,
		Secret:                []byte("floc-router-secret"),
		Filter:                filter,
		AttackExcessThreshold: 0.5,
		BlockExcess:           64,
		LegitAggregation:      false,
		LegitAggGuard:         0.5,
		ProbabilisticUpdate:   false,
		FilterK:               0,
		EstimateFlows:         false,
	}
}

// validate checks the configuration.
func (c Config) validate() error {
	switch {
	case c.LinkRateBits <= 0:
		return fmt.Errorf("core: link rate %v <= 0", c.LinkRateBits)
	case c.Capacity < 4:
		return fmt.Errorf("core: capacity %d < 4", c.Capacity)
	case c.PacketSize <= 0:
		return fmt.Errorf("core: packet size %d <= 0", c.PacketSize)
	case c.QMinFrac <= 0 || c.QMinFrac >= 1:
		return fmt.Errorf("core: QMinFrac %v out of (0,1)", c.QMinFrac)
	case c.EThreshold < 0 || c.EThreshold > 1:
		return fmt.Errorf("core: EThreshold %v out of [0,1]", c.EThreshold)
	case c.Beta <= 0 || c.Beta > 1:
		return fmt.Errorf("core: Beta %v out of (0,1]", c.Beta)
	case c.ControlInterval <= 0:
		return fmt.Errorf("core: control interval %v <= 0", c.ControlInterval)
	case c.RTTScale <= 0 || c.RTTScale > 1:
		return fmt.Errorf("core: RTTScale %v out of (0,1]", c.RTTScale)
	case c.DefaultRTT <= 0:
		return fmt.Errorf("core: DefaultRTT %v <= 0", c.DefaultRTT)
	case c.FlowTimeout <= 0:
		return fmt.Errorf("core: FlowTimeout %v <= 0", c.FlowTimeout)
	case c.NMax < 0:
		return fmt.Errorf("core: NMax %d < 0", c.NMax)
	case len(c.Secret) == 0:
		return fmt.Errorf("core: empty secret")
	case c.LegitAggGuard < 0:
		return fmt.Errorf("core: LegitAggGuard %v < 0", c.LegitAggGuard)
	}
	return nil
}

// linkRatePackets returns the link capacity in reference packets/second.
func (c Config) linkRatePackets() units.PacketsPerSec {
	return units.BitsPerSec(c.LinkRateBits).Packets(c.PacketSize)
}
