// Package defense implements the baseline queue disciplines the paper
// compares FLoc against (Section VI): RED (the no-attack fairness
// reference), RED-PD (per-flow preferential dropping), and Pushback
// (aggregate-based congestion control).
//
// Each defense is a netsim.Discipline attached to the flooded link.
package defense

import (
	"fmt"
	"math"

	"floc/internal/netsim"
	"floc/internal/rng"
)

// REDConfig configures a RED queue (Floyd & Jacobson).
type REDConfig struct {
	// Capacity is the physical buffer size in packets.
	Capacity int
	// MinTh and MaxTh are the average-queue thresholds in packets.
	MinTh, MaxTh float64
	// MaxP is the drop probability at MaxTh.
	MaxP float64
	// Wq is the EWMA weight for the average queue estimate.
	Wq float64
	// Seed seeds the discipline's private random stream.
	Seed uint64
}

// DefaultREDConfig returns a standard parameterization for a buffer of
// capacity packets: min_th at 20%, max_th at 80%, max_p 0.1, w_q 0.002.
func DefaultREDConfig(capacity int, seed uint64) REDConfig {
	return REDConfig{
		Capacity: capacity,
		MinTh:    0.2 * float64(capacity),
		MaxTh:    0.8 * float64(capacity),
		MaxP:     0.1,
		Wq:       0.002,
		Seed:     seed,
	}
}

// RED is the classic random-early-detection queue.
type RED struct {
	cfg   REDConfig
	fifo  *netsim.FIFO
	rng   *rng.Source
	avg   float64
	count int // packets since last drop, for drop spreading
	// idleAt is when the queue went empty (for idle-time avg decay).
	idleAt float64
	idle   bool

	drops int
	met   *redMetrics // nil unless SetTelemetry attached a registry
}

var _ netsim.Discipline = (*RED)(nil)

// NewRED creates a RED queue.
func NewRED(cfg REDConfig) (*RED, error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("defense: RED capacity %d < 1", cfg.Capacity)
	}
	if cfg.MinTh <= 0 || cfg.MaxTh <= cfg.MinTh || cfg.MaxTh > float64(cfg.Capacity) {
		return nil, fmt.Errorf("defense: RED thresholds (%v, %v) invalid for capacity %d",
			cfg.MinTh, cfg.MaxTh, cfg.Capacity)
	}
	if cfg.MaxP <= 0 || cfg.MaxP > 1 {
		return nil, fmt.Errorf("defense: RED MaxP %v out of (0,1]", cfg.MaxP)
	}
	if cfg.Wq <= 0 || cfg.Wq > 1 {
		return nil, fmt.Errorf("defense: RED Wq %v out of (0,1]", cfg.Wq)
	}
	return &RED{cfg: cfg, fifo: netsim.NewFIFO(cfg.Capacity), rng: rng.New(cfg.Seed), count: -1}, nil
}

// AvgQueue returns the current average queue estimate.
func (r *RED) AvgQueue() float64 { return r.avg }

// Drops returns the number of RED (early + overflow) drops.
func (r *RED) Drops() int { return r.drops }

// Enqueue implements netsim.Discipline.
func (r *RED) Enqueue(pkt *netsim.Packet, now float64) bool {
	q := float64(r.fifo.Len())
	if r.idle {
		// Decay the average over the idle period as if the queue drained
		// one packet per "typical" transmission time; we approximate with
		// a halving per idle second, which suffices for simulation.
		idleTime := now - r.idleAt
		r.avg *= math.Exp(-idleTime)
		r.idle = false
	}
	r.avg = (1-r.cfg.Wq)*r.avg + r.cfg.Wq*q

	drop := false
	switch {
	case r.avg < r.cfg.MinTh:
		r.count = -1
	case r.avg >= r.cfg.MaxTh:
		drop = true
		r.count = 0
	default:
		r.count++
		pb := r.cfg.MaxP * (r.avg - r.cfg.MinTh) / (r.cfg.MaxTh - r.cfg.MinTh)
		pa := pb / math.Max(1e-9, 1-float64(r.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if r.rng.Float64() < pa {
			drop = true
			r.count = 0
		}
	}
	if r.met != nil {
		r.met.avgQueue.Set(r.avg)
	}
	if drop {
		r.drops++
		if r.met != nil {
			r.met.drops.Inc()
		}
		return false
	}
	if !r.fifo.Enqueue(pkt, now) {
		r.drops++
		if r.met != nil {
			r.met.drops.Inc()
		}
		r.count = 0
		return false
	}
	return true
}

// Dequeue implements netsim.Discipline.
func (r *RED) Dequeue(now float64) *netsim.Packet {
	pkt := r.fifo.Dequeue(now)
	if r.fifo.Len() == 0 {
		r.idle = true
		r.idleAt = now
	}
	return pkt
}

// Len implements netsim.Discipline.
func (r *RED) Len() int { return r.fifo.Len() }
