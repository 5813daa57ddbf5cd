package core

import (
	"math"
	"sort"
	"strings"

	"floc/internal/invariant"
	"floc/internal/pathid"
	"floc/internal/telemetry"
	"floc/internal/tokenbucket"
	"floc/internal/units"
)

// planAggregation recomputes the aggregation plan (paper Section IV-C)
// from the current leaf conformances: attack-path aggregation (Algorithm 1)
// when the number of guaranteed identifiers exceeds |S|max, and
// (optionally) legitimate-path aggregation for proportional bandwidth
// allocation.
//
// The plan is recomputed statelessly each control tick; aggregate states
// (and their token buckets) are preserved across ticks when the plan is
// unchanged, keyed by the aggregation node.
func (r *Router) planAggregation(now float64) {
	plan := PlanAttack(r.tree, r.cfg.SMax)
	if r.cfg.LegitAggregation {
		plan = r.planLegitAggregation(plan)
	}
	sig := PlanSignature(plan)
	if sig == r.planSig {
		return
	}
	r.planSig = sig
	r.planChanges++
	r.applyPlan(plan, now)
}

// planLegitAggregation implements Section IV-C.2: aggregate sibling
// legitimate paths where the net conformance change C^L (Eq. IV.8) is
// non-positive, unless aggregation would raise any member path's
// bandwidth allocation by more than legitAggGuard (the covert-attack
// guard).
func (r *Router) planLegitAggregation(plan []Group) []Group {
	assigned := map[*pathid.Node]bool{}
	for _, g := range plan {
		for _, m := range g.Members {
			assigned[m] = true
		}
	}
	// Consider deeper nodes first so aggregation stays as local as
	// possible.
	nodes := r.tree.InnerNodes()
	sort.Slice(nodes, func(i, j int) bool {
		di, dj := nodes[i].Depth(), nodes[j].Depth()
		if di != dj {
			return di > dj
		}
		return nodes[i].Path().Key() < nodes[j].Path().Key()
	})
	for _, node := range nodes {
		var members []*pathState
		var leaves []*pathid.Node
		ok := true
		for _, leaf := range node.Leaves() {
			ps := r.origins.lookup(leaf.Path().Key())
			if ps == nil {
				continue
			}
			if leaf.Attack || assigned[leaf] {
				ok = false
				break
			}
			members = append(members, ps)
			leaves = append(leaves, leaf)
		}
		if !ok || len(members) < 2 {
			continue
		}
		if !r.legitAggregationBeneficial(members) {
			continue
		}
		plan = append(plan, Group{Key: legitAggPrefix + node.Path().Key(), Members: leaves})
		for _, leaf := range leaves {
			assigned[leaf] = true
		}
	}
	return plan
}

// legitAggregationBeneficial checks Eq. (IV.8) and the bandwidth-increase
// guard for a prospective legitimate aggregate.
func (r *Router) legitAggregationBeneficial(members []*pathState) bool {
	k := float64(len(members))
	sumE := 0.0
	minN, maxN := math.Inf(1), 0.0
	var weighted FlowWeighted
	for _, m := range members {
		n := math.Max(1, float64(m.flows.len()))
		sumE += m.conformance
		weighted.Add(m.conformance, m.flows.len())
		minN = math.Min(minN, n)
		maxN = math.Max(maxN, n)
	}
	// Aggregating equal-population paths is a no-op for per-flow
	// allocation (k shares over k*n flows); the point of legitimate-path
	// aggregation is to equalize flows across *differently* populated
	// domains, so only aggregate where a disparity exists.
	if maxN <= minN {
		return false
	}
	// C^L = mean - weighted; aggregate when the flow-weighted conformance
	// is at least the unweighted mean (non-positive net change).
	if sumE/k-weighted.Mean() > 1e-9 {
		return false
	}
	// Guard: member path j's allocation changes from one share to
	// k*n_j/sum(n) shares; reject if any member gains more than the
	// legitAggGuard fraction.
	for _, m := range members {
		n := math.Max(1, float64(m.flows.len()))
		if k*n/weighted.flows > 1+legitAggGuard {
			return false
		}
	}
	return true
}

// applyPlan rebuilds the aggregate states to match the plan, preserving
// aggregates whose key (and hence aggregation point) is unchanged.
func (r *Router) applyPlan(plan []Group, now float64) {
	// Record the old membership before it is torn down so the telemetry
	// diff can emit PathAggregated/PathReleased transitions.
	var oldAgg map[string]string
	if r.tel != nil {
		oldAgg = make(map[string]string, r.origins.size())
		r.origins.each(func(ps *pathState) {
			if ps.aggregate != nil {
				oldAgg[ps.key] = ps.aggregate.key
			}
		})
	}
	r.origins.each(func(ps *pathState) {
		ps.aggregate = nil
	})
	old := r.aggs
	r.aggs = map[string]*pathState{}
	for _, g := range plan {
		members := make([]*pathState, len(g.Members))
		for i, leaf := range g.Members {
			members[i] = r.origins.lookup(leaf.Path().Key())
		}
		sort.Slice(members, func(i, j int) bool { return members[i].key < members[j].key })
		agg := old[g.Key]
		if agg == nil {
			bucket, _ := tokenbucket.New(r.cfg.ControlInterval,
				math.Max(1, r.cfg.linkRatePackets().Times(units.Seconds(r.cfg.ControlInterval))))
			agg = &pathState{
				key:    g.Key,
				rtt:    newEWMA(),
				bucket: bucket,
			}
		}
		agg.members = members
		agg.shares = 1
		if strings.HasPrefix(g.Key, legitAggPrefix) {
			agg.shares = len(members)
		}
		var conformance FlowWeighted
		for _, m := range members {
			m.aggregate = agg
			conformance.Add(m.conformance, m.flows.len())
		}
		agg.conformance = conformance.Mean()
		// A flow-weighted mean of member conformances is itself a
		// conformance (Eq. IV.7 / IV.8 operate on [0, 1] values).
		invariant.Conformance01("core.agg.conformance", agg.conformance)
		r.aggs[g.Key] = agg
	}

	r.order.valid = false

	if r.tel != nil {
		for _, ps := range r.sortedPaths().origins {
			key := ps.key
			newKey := ""
			if ps.aggregate != nil {
				newKey = ps.aggregate.key
			}
			prev := oldAgg[key]
			if prev == newKey {
				continue
			}
			if prev != "" {
				r.tel.Emit(telemetry.Event{
					Time: now, Type: telemetry.EventPathReleased,
					Path: key, Agg: prev,
				})
			}
			if newKey != "" {
				r.tel.Emit(telemetry.Event{
					Time: now, Type: telemetry.EventPathAggregated,
					Path: key, Agg: newKey,
				})
			}
		}
	}
}

// Aggregates returns the current aggregate identifiers and their member
// path keys, for instrumentation.
func (r *Router) Aggregates() map[string][]string {
	out := make(map[string][]string, len(r.aggs))
	for key, agg := range r.aggs {
		names := make([]string, len(agg.members))
		for i, m := range agg.members {
			names[i] = m.key
		}
		sort.Strings(names)
		out[key] = names
	}
	return out
}
