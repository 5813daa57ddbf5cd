package inetsim

import (
	"fmt"

	"floc/internal/core"
	"floc/internal/pathid"
)

// ndPolicy is the no-defense baseline: serve up to capacity, chosen
// uniformly at random among the tick's queued packets (paper VII-B), drop
// the rest.
type ndPolicy struct{}

func (*ndPolicy) control(*Sim) {}

func (*ndPolicy) admit(s *Sim, queued []int32) (served, wait []int32) {
	capacity := s.cfg.CapacityPerTick
	if len(queued) <= capacity {
		return queued, nil
	}
	s.rng.Shuffle(len(queued), func(a, b int) { queued[a], queued[b] = queued[b], queued[a] })
	return queued[:capacity], queued[capacity:]
}

// ffPolicy is the per-flow fairness baseline of Section VII-C: all
// legitimate packets are high priority; attack packets are high priority
// up to their per-flow fair bandwidth; normal-priority packets are served
// only with leftover capacity.
type ffPolicy struct {
	fairPerTick float64
	// hiCredit[flow] accumulates each attack flow's high-priority budget.
	hiCredit []float32
}

func newFFPolicy(s *Sim) *ffPolicy {
	p := &ffPolicy{hiCredit: make([]float32, len(s.flows))}
	p.control(s)
	return p
}

func (p *ffPolicy) control(s *Sim) {
	n := len(s.flows)
	if n == 0 {
		n = 1
	}
	p.fairPerTick = float64(s.cfg.CapacityPerTick) / float64(n)
}

func (p *ffPolicy) admit(s *Sim, queued []int32) (served, wait []int32) {
	capacity := s.cfg.CapacityPerTick
	// Refill attack flows' high-priority budgets.
	for i := range s.flows {
		if s.flows[i].class == Attack {
			p.hiCredit[i] += float32(p.fairPerTick)
			if p.hiCredit[i] > 4*float32(p.fairPerTick)+1 {
				p.hiCredit[i] = 4*float32(p.fairPerTick) + 1
			}
		}
	}
	hi := make([]int32, 0, len(queued))
	var lo []int32
	for _, fi := range queued {
		f := &s.flows[fi]
		if f.class != Attack {
			hi = append(hi, fi)
		} else if p.hiCredit[fi] >= 1 {
			p.hiCredit[fi]--
			hi = append(hi, fi)
		} else {
			lo = append(lo, fi)
		}
	}
	if len(hi) > capacity {
		s.rng.Shuffle(len(hi), func(a, b int) { hi[a], hi[b] = hi[b], hi[a] })
		// High-priority overflow waits; low priority is shed first.
		return hi[:capacity], hi[capacity:]
	}
	room := capacity - len(hi)
	if len(lo) > room {
		s.rng.Shuffle(len(lo), func(a, b int) { lo[a], lo[b] = lo[b], lo[a] })
		return append(hi, lo[:room]...), lo[room:]
	}
	return append(hi, lo...), nil
}

// flocPolicy is the tick-level FLoc variant: per-origin-domain quotas
// (with unused quota redistributed work-conservingly), per-flow
// preferential drops pinning over-fair flows of attack paths at their
// fair share with non-responsiveness escalation, conformance tracking,
// and attack-path aggregation under |S|max.
//
// It models internal/core's router at tick granularity, as the paper's
// own Internet-scale simulator modeled the ns-2 router coarsely, and
// takes every per-interval rule — the conformance step, the escalation
// step, the rate EWMA, attack-path detection and Algorithm 1 — from core.
type flocPolicy struct {
	// tree holds the AS path of every AS with sources; the set is fixed
	// for a run, so it is built once. leaf[as] is the AS's path node
	// (nil for an AS without sources).
	tree *pathid.Tree
	leaf []*pathid.Node
	// origin[as] is the AS's own path identifier; pathOf[as] the
	// guaranteed identifier its packets draw on (its origin, or the
	// aggregate it is merged into).
	origin []flocPath
	pathOf []*flocPath
	// aggs holds the aggregates by key, so one that survives a plan
	// change keeps its state (attack flag, lambda).
	aggs map[string]*flocPath
	// paths is the guaranteed identifiers.
	paths   []*flocPath
	planSig string
}

// flocPath is one guaranteed path identifier (an origin AS or an
// aggregate of origin ASes).
type flocPath struct {
	flows       int
	quota       float64
	attack      bool
	used        float64
	arrived     float64
	lambda      float64
	conformance float64
	// members lists the AS indices merged into an aggregate (nil for
	// origin paths).
	members []int
}

func newFLocPolicy(s *Sim) (*flocPolicy, error) {
	n := len(s.topo.ASes)
	p := &flocPolicy{
		tree:   pathid.NewTree(0),
		leaf:   make([]*pathid.Node, n),
		origin: make([]flocPath, n),
		pathOf: make([]*flocPath, n),
	}
	for i := range s.topo.ASes {
		a := &s.topo.ASes[i]
		if a.LegitHosts+a.Bots == 0 {
			continue
		}
		leaf, err := p.tree.Insert(a.Path)
		if err != nil {
			return nil, fmt.Errorf("inetsim: AS %d: %w", a.Num, err)
		}
		p.leaf[i] = leaf
		p.origin[i].conformance = 1
		p.origin[i].flows = a.LegitHosts + a.Bots
	}
	p.apply(s, nil)
	return p, nil
}

func (p *flocPolicy) guaranteedPaths() int { return len(p.paths) }

// apply installs an aggregation plan: ASes not in a group use their own
// path. Aggregates whose key the plan keeps keep their state.
func (p *flocPolicy) apply(s *Sim, plan []core.Group) {
	for as := range p.leaf {
		if p.leaf[as] != nil {
			p.pathOf[as] = &p.origin[as]
		}
	}
	old := p.aggs
	p.aggs = make(map[string]*flocPath, len(plan))
	for _, g := range plan {
		agg := old[g.Key]
		if agg == nil {
			agg = &flocPath{conformance: 1}
		}
		agg.members, agg.flows = agg.members[:0], 0
		for _, m := range g.Members {
			as := int(m.AS) - 1 // AS numbers are index + 1
			agg.members = append(agg.members, as)
			agg.flows += p.origin[as].flows
			p.pathOf[as] = agg
		}
		p.aggs[g.Key] = agg
	}
	p.paths = p.paths[:0]
	for as := range p.leaf {
		if p.leaf[as] != nil && p.pathOf[as] == &p.origin[as] {
			p.paths = append(p.paths, &p.origin[as])
		}
	}
	for _, g := range plan {
		p.paths = append(p.paths, p.aggs[g.Key])
	}
	quota := float64(s.cfg.CapacityPerTick) / float64(max(len(p.paths), 1))
	for _, path := range p.paths {
		path.quota = quota
	}
}

// fairShare is a flow's fair share of its path's quota. A flow cannot be
// expected to run below one packet per RTT, no matter how populous its
// domain: the share is floored there so responsive flows of large
// legitimate domains are never classified as attack flows.
func fairShare(path *flocPath, f *flow) float64 {
	return max(path.quota/float64(max(path.flows, 1)), 1/float64(f.rttTicks))
}

// control runs core's control loop at the target link, in core's order:
// per-flow rates, escalation and attack-flow classification, then each
// AS's conformance (Eq. IV.6), the aggregation plan (Algorithm 1), and
// each guaranteed path's request rate and attack flag.
func (p *flocPolicy) control(s *Sim) {
	const period = 20.0 // ticks between control runs (see Sim.Run)

	attackFlows := make([]int, len(s.topo.ASes))
	for i := range s.flows {
		f := &s.flows[i]
		f.sentRate = core.RollRate(f.sent, f.sentRate, period)
		f.sent = 0
		fair := fairShare(p.pathOf[f.asIdx], f)
		f.escal = core.Escalate(f.escal, f.sentRate, fair)
		if core.AttackRate(f.sentRate, fair) {
			attackFlows[f.asIdx]++
		}
	}
	for as, leaf := range p.leaf {
		if leaf == nil {
			continue
		}
		o := &p.origin[as]
		o.conformance = core.ConformanceStep(o.conformance, attackFlows[as], o.flows)
		leaf.Conformance = o.conformance
		leaf.Attack = core.InAttackTree(o.conformance)
	}

	plan := core.PlanAttack(p.tree, s.cfg.SMax)
	if sig := core.PlanSignature(plan); sig != p.planSig {
		p.planSig = sig
		p.apply(s, plan)
	}

	// A path joins the attack tree only when it both over-subscribes its
	// quota and has low conformance (Section IV-C): an over-subscribed
	// but fully conformant (populous, responsive) domain keeps the
	// lenient policy.
	for _, path := range p.paths {
		if path.members != nil {
			var w core.FlowWeighted
			for _, as := range path.members {
				w.Add(p.origin[as].conformance, p.origin[as].flows)
			}
			path.conformance = w.Mean()
		}
		path.lambda = core.RollRate(path.arrived, path.lambda, period)
		path.arrived = 0
		path.attack = core.OverAllocated(path.lambda, path.quota, 0) && core.InAttackTree(path.conformance)
	}
}

// admit implements the per-tick FLoc service decision.
func (p *flocPolicy) admit(s *Sim, queued []int32) (served, wait []int32) {
	capacity := s.cfg.CapacityPerTick
	for _, path := range p.paths {
		path.used = 0
	}
	served = make([]int32, 0, min(len(queued), capacity))
	var overflow []int32

	// Shuffle so quota contention within a tick is unbiased.
	s.rng.Shuffle(len(queued), func(a, b int) { queued[a], queued[b] = queued[b], queued[a] })

	for _, fi := range queued {
		f := &s.flows[fi]
		path := p.pathOf[f.asIdx]
		path.arrived++

		// Preferential drop: flows of attack paths offering more than
		// their (escalation-scaled) fair share.
		if path.attack {
			fair := fairShare(path, f)
			if f.sentRate > fair {
				pd := 1 - fair/(f.escal*f.sentRate)
				if s.rng.Float64() < pd {
					s.dropAtTarget(fi)
					continue
				}
			}
		}
		if path.used < path.quota && len(served) < capacity {
			path.used++
			served = append(served, fi)
			continue
		}
		overflow = append(overflow, fi)
	}
	// Work conservation: leftover capacity serves overflow FCFS, except
	// packets of attack paths (their quota is strict — Section V-A's
	// early/strict activation for attack identifiers). Non-attack
	// overflow beyond capacity waits in the router buffer.
	room := capacity - len(served)
	for _, fi := range overflow {
		if p.pathOf[s.flows[fi].asIdx].attack {
			s.dropAtTarget(fi)
			continue
		}
		if room > 0 {
			served = append(served, fi)
			room--
			continue
		}
		wait = append(wait, fi)
	}
	return served, wait
}
