package defense

import (
	"fmt"
	"sort"

	"floc/internal/netsim"
	"floc/internal/units"
)

// PushbackConfig configures the Pushback (aggregate congestion control)
// discipline (Mahajan, Bellovin, Floyd et al., "Controlling High Bandwidth
// Aggregates in the Network").
//
// The congested router performs local ACC: sustained overload triggers
// identification of the highest-rate aggregates and installs
// per-aggregate rate limiters sized by water-filling so the admitted
// load fits the link. With AttachUpstream, limits are additionally
// propagated to rate limiters at the routers feeding those aggregates
// (the pushback protocol proper); at a single shared bottleneck this
// changes where the excess is shed, not the bottleneck's shares.
type PushbackConfig struct {
	// RED parameterizes the underlying queue.
	RED REDConfig
	// LinkRateBits is the protected link's capacity in bits/second.
	LinkRateBits units.BitsPerSec
	// Interval is the ACC review period in seconds.
	Interval float64
	// DropRateTrigger is the drop fraction over an interval that triggers
	// aggregate rate limiting.
	DropRateTrigger float64
	// TargetUtil is the fraction of link capacity the water-fill aims
	// to admit.
	TargetUtil float64
	// AggDepth is the path-postfix depth that defines an aggregate
	// (0 means the full path, i.e. per-origin-domain aggregates).
	AggDepth int
	// ReleaseFactor loosens limits each quiet interval; an aggregate is
	// released when its limit exceeds its demand.
	ReleaseFactor float64
}

// DefaultPushbackConfig returns the parameterization used in experiments.
func DefaultPushbackConfig(capacity int, linkRateBits units.BitsPerSec, seed uint64) PushbackConfig {
	return PushbackConfig{
		RED:             DefaultREDConfig(capacity, seed),
		LinkRateBits:    linkRateBits,
		Interval:        1.0,
		DropRateTrigger: 0.25,
		TargetUtil:      0.98,
		AggDepth:        0,
		ReleaseFactor:   1.25,
	}
}

// aggState tracks one aggregate's measurement and limiter.
type aggState struct {
	arrivedBits units.Bits // this interval
	limited     bool
	limitBits   units.BitsPerSec
	tokens      units.Bits // limiter bucket
	lastRefill  float64
}

// Pushback is the ACC discipline. With AttachUpstream it also models the
// pushback protocol proper: identified aggregates' limits are mirrored to
// rate limiters installed at the routers feeding them, so the excess is
// shed upstream instead of transiting to the congested link.
type Pushback struct {
	cfg PushbackConfig
	red *RED

	intervalStart float64
	aggs          map[string]*aggState
	arrivals      int
	drops         int

	upstream map[string]*Limiter

	limiterDrops int
	activations  int
	met          *pushbackMetrics // nil unless SetTelemetry attached a registry
}

var _ netsim.Discipline = (*Pushback)(nil)

// NewPushback creates the discipline.
func NewPushback(cfg PushbackConfig) (*Pushback, error) {
	if cfg.LinkRateBits <= 0 {
		return nil, fmt.Errorf("defense: pushback link rate %v <= 0", cfg.LinkRateBits)
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("defense: pushback interval %v <= 0", cfg.Interval)
	}
	if cfg.DropRateTrigger <= 0 || cfg.DropRateTrigger >= 1 {
		return nil, fmt.Errorf("defense: pushback trigger %v out of (0,1)", cfg.DropRateTrigger)
	}
	if cfg.TargetUtil <= 0 || cfg.TargetUtil > 1 {
		return nil, fmt.Errorf("defense: pushback target util %v out of (0,1]", cfg.TargetUtil)
	}
	if cfg.ReleaseFactor <= 1 {
		return nil, fmt.Errorf("defense: pushback release factor %v must exceed 1", cfg.ReleaseFactor)
	}
	red, err := NewRED(cfg.RED)
	if err != nil {
		return nil, err
	}
	return &Pushback{cfg: cfg, red: red, aggs: map[string]*aggState{}, upstream: map[string]*Limiter{}}, nil
}

// AttachUpstream registers the rate limiter sitting at the upstream
// router that feeds aggregate key. When ACC limits the aggregate, the
// limit is propagated to (and released from) this limiter — the pushback
// protocol of the paper's namesake scheme.
func (p *Pushback) AttachUpstream(key string, lim *Limiter) {
	p.upstream[key] = lim
}

// UpstreamDrops totals packets shed by propagated upstream limiters.
func (p *Pushback) UpstreamDrops() int {
	total := 0
	for _, lim := range p.upstream {
		total += lim.Dropped()
	}
	return total
}

// mirrorUpstream pushes an aggregate's current limit state upstream.
func (p *Pushback) mirrorUpstream(key string, a *aggState) {
	lim, ok := p.upstream[key]
	if !ok {
		return
	}
	if a.limited {
		lim.SetRateBits(a.limitBits)
	} else {
		lim.SetRateBits(0)
	}
}

// LimiterDrops returns packets dropped by aggregate rate limiters.
func (p *Pushback) LimiterDrops() int { return p.limiterDrops }

// Activations returns how many times ACC limit computation ran.
func (p *Pushback) Activations() int { return p.activations }

// LimitedAggregates returns the number of currently limited aggregates.
func (p *Pushback) LimitedAggregates() int {
	n := 0
	for _, a := range p.aggs {
		if a.limited {
			n++
		}
	}
	return n
}

// aggKey maps a packet to its aggregate.
func (p *Pushback) aggKey(pkt *netsim.Packet) string {
	if p.cfg.AggDepth <= 0 || p.cfg.AggDepth >= pkt.Path.Len() {
		if pkt.PathKey != "" {
			return pkt.PathKey
		}
		return pkt.Path.Key()
	}
	return pkt.Path.Postfix(p.cfg.AggDepth).Key()
}

// review runs at interval boundaries: decides on activation, recomputes
// limits, releases stale limiters, and resets measurement.
func (p *Pushback) review(now float64) {
	// Fold in upstream status reports: a limited aggregate's demand is
	// what was *offered* upstream, not the residue that reached us.
	upstreamShed := units.Bits(0)
	for k, lim := range p.upstream {
		offered := lim.TakeOfferedBits()
		if a, ok := p.aggs[k]; ok && offered > a.arrivedBits {
			upstreamShed += offered - a.arrivedBits
			a.arrivedBits = offered
		}
	}
	dropFrac := 0.0
	if p.arrivals > 0 {
		// Upstream-shed traffic counts as dropped demand when deciding
		// whether congestion persists, in full-size 1000-byte packets.
		shedPkts := float64(upstreamShed) / float64(units.FromPacket(1000))
		dropFrac = (float64(p.drops) + shedPkts) / (float64(p.arrivals) + shedPkts)
	}
	if dropFrac > p.cfg.DropRateTrigger {
		p.computeLimits()
	} else {
		// Quiet interval: loosen existing limits; release those whose
		// limit now exceeds the aggregate's demand.
		for k, a := range p.aggs {
			if !a.limited {
				continue
			}
			a.limitBits = a.limitBits.Scale(p.cfg.ReleaseFactor)
			if a.limitBits > a.arrivedBits.Per(units.Seconds(p.cfg.Interval)) {
				a.limited = false
			}
			p.mirrorUpstream(k, a)
		}
	}
	// Reset interval measurement; forget idle aggregates.
	for k, a := range p.aggs {
		if !a.limited && a.arrivedBits == 0 {
			delete(p.aggs, k)
			continue
		}
		a.arrivedBits = 0
	}
	p.arrivals = 0
	p.drops = 0
	p.intervalStart = now
	if p.met != nil {
		p.met.limitedAggs.Set(float64(p.LimitedAggregates()))
	}
}

// computeLimits water-fills: caps the largest aggregates at a common limit
// L so the admitted total meets TargetUtil * LinkRateBits.
func (p *Pushback) computeLimits() {
	p.activations++
	if p.met != nil {
		p.met.activations.Inc()
	}
	type entry struct {
		key  string
		rate units.BitsPerSec // over the interval
	}
	entries := make([]entry, 0, len(p.aggs))
	total := units.BitsPerSec(0)
	for k, a := range p.aggs {
		r := a.arrivedBits.Per(units.Seconds(p.cfg.Interval))
		entries = append(entries, entry{key: k, rate: r})
		total += r
	}
	target := p.cfg.LinkRateBits.Scale(p.cfg.TargetUtil)
	if total <= target || len(entries) == 0 {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].rate > entries[j].rate {
			return true
		}
		if entries[j].rate > entries[i].rate {
			return false
		}
		return entries[i].key < entries[j].key
	})
	// Water-fill: find k and L so that k*L + sum(rates below L) = target.
	suffix := make([]units.BitsPerSec, len(entries)+1)
	for i := len(entries) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + entries[i].rate
	}
	var limit units.BitsPerSec
	k := 0
	for k = 1; k <= len(entries); k++ {
		l := (target - suffix[k]).Scale(1 / float64(k))
		if k == len(entries) || l >= entries[k].rate {
			limit = l
			break
		}
	}
	if limit <= 0 {
		limit = target.Scale(1 / float64(len(entries)))
		k = len(entries)
	}
	for i := 0; i < k && i < len(entries); i++ {
		a := p.aggs[entries[i].key]
		a.limited = true
		a.limitBits = limit
		a.tokens = limit.Times(burstWindow)
		p.mirrorUpstream(entries[i].key, a)
	}
}

// Enqueue implements netsim.Discipline.
func (p *Pushback) Enqueue(pkt *netsim.Packet, now float64) bool {
	if now-p.intervalStart >= p.cfg.Interval {
		p.review(now)
	}
	key := p.aggKey(pkt)
	a := p.aggs[key]
	if a == nil {
		a = &aggState{lastRefill: now}
		p.aggs[key] = a
	}
	bits := units.FromPacket(pkt.Size)
	a.arrivedBits += bits
	p.arrivals++

	if a.limited {
		// Refill the limiter bucket.
		a.tokens += a.limitBits.Times(units.Seconds(now - a.lastRefill))
		maxTokens := a.limitBits.Times(burstWindow)
		if a.tokens > maxTokens {
			a.tokens = maxTokens
		}
		a.lastRefill = now
		if a.tokens < bits {
			p.limiterDrops++
			p.drops++
			if p.met != nil {
				p.met.limiterDrops.Inc()
			}
			return false
		}
		a.tokens -= bits
	}
	if !p.red.Enqueue(pkt, now) {
		p.drops++
		return false
	}
	return true
}

// Dequeue implements netsim.Discipline.
func (p *Pushback) Dequeue(now float64) *netsim.Packet { return p.red.Dequeue(now) }

// Len implements netsim.Discipline.
func (p *Pushback) Len() int { return p.red.Len() }
