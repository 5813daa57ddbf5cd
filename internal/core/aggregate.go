package core

import (
	"math"
	"sort"

	"floc/internal/invariant"
	"floc/internal/pathid"
	"floc/internal/telemetry"
	"floc/internal/tokenbucket"
	"floc/internal/units"
)

// planAggregation recomputes the aggregation plan (paper Section IV-C)
// from the current leaf conformances: attack-path aggregation when the
// number of guaranteed identifiers exceeds |S|max, and (optionally)
// legitimate-path aggregation for proportional bandwidth allocation.
//
// The plan is recomputed statelessly each control tick; aggregate states
// (and their token buckets) are preserved across ticks when the plan is
// unchanged, keyed by the aggregation node.
func (r *Router) planAggregation(now float64) {
	plan := map[string][]*pathState{}
	kind := map[string]aggKind{}

	if r.cfg.SMax > 0 && r.origins.size() > r.cfg.SMax {
		r.planAttackAggregation(plan, kind)
	}
	if r.cfg.LegitAggregation {
		r.planLegitAggregation(plan, kind)
	}

	sig := planSignature(plan)
	if sig == r.planSig {
		return
	}
	r.planSig = sig
	r.applyPlan(plan, kind, now)
}

type aggKind uint8

const (
	aggAttack aggKind = iota + 1
	aggLegit
)

// attackLeafSets returns, for each candidate inner tree node (deepest
// first), the attack origin paths available for aggregation beneath it.
func (r *Router) attackLeafSets(assigned map[string]bool) []aggCandidate {
	var cands []aggCandidate
	for _, node := range r.tree.InnerNodes() {
		var members []*pathState
		sum := 0.0
		for _, leaf := range node.Leaves() {
			ps := r.origins.lookup(leaf.Path().Key())
			if ps == nil || !leaf.Attack || assigned[ps.key] {
				continue
			}
			members = append(members, ps)
			sum += ps.conformance
		}
		if len(members) < 2 {
			continue
		}
		cands = append(cands, aggCandidate{
			node:    node,
			members: members,
			cost:    sum / float64(len(members)),
		})
	}
	return cands
}

// aggCandidate is one potential aggregation point.
type aggCandidate struct {
	node    *pathid.Node
	members []*pathState
	cost    float64
}

// planAttackAggregation implements the greedy Algorithm 1: aggregate
// attack paths at the nodes of minimum aggregation cost C^A (mean leaf
// conformance), preferring deeper nodes (longest postfix match, i.e.
// domains nearest the attack origins), until the number of guaranteed
// identifiers fits |S|max.
func (r *Router) planAttackAggregation(plan map[string][]*pathState, kind map[string]aggKind) {
	legit, attack := 0, 0
	r.origins.each(func(ps *pathState) {
		if ps.conformance < r.cfg.EThreshold {
			attack++
		} else {
			legit++
		}
	})
	// Paths that must disappear through aggregation.
	needed := attack - (r.cfg.SMax - legit)
	if needed <= 0 {
		return
	}

	assigned := map[string]bool{}
	for needed > 0 {
		cands := r.attackLeafSets(assigned)
		if len(cands) == 0 {
			break
		}
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if a.cost < b.cost {
				return true
			}
			if b.cost < a.cost {
				return false
			}
			da, db := a.node.Depth(), b.node.Depth()
			if da != db {
				return da > db // prefer longest postfix match
			}
			return a.node.Path().Key() < b.node.Path().Key()
		})
		best := cands[0]
		key := "agg-A:" + best.node.Path().Key()
		plan[key] = best.members
		kind[key] = aggAttack
		for _, m := range best.members {
			assigned[m.key] = true
		}
		needed -= len(best.members) - 1
	}
}

// planLegitAggregation implements Section IV-C.2: aggregate sibling
// legitimate paths where the net conformance change C^L (Eq. IV.8) is
// non-positive, unless aggregation would raise any member path's
// bandwidth allocation by more than LegitAggGuard (the covert-attack
// guard).
func (r *Router) planLegitAggregation(plan map[string][]*pathState, kind map[string]aggKind) {
	assigned := map[string]bool{}
	for _, members := range plan {
		for _, m := range members {
			assigned[m.key] = true
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
		ok := true
		for _, leaf := range node.Leaves() {
			ps := r.origins.lookup(leaf.Path().Key())
			if ps == nil {
				continue
			}
			if leaf.Attack || assigned[ps.key] {
				ok = false
				break
			}
			members = append(members, ps)
		}
		if !ok || len(members) < 2 {
			continue
		}
		if !r.legitAggregationBeneficial(members) {
			continue
		}
		key := "agg-L:" + node.Path().Key()
		plan[key] = members
		kind[key] = aggLegit
		for _, m := range members {
			assigned[m.key] = true
		}
	}
}

// legitAggregationBeneficial checks Eq. (IV.8) and the bandwidth-increase
// guard for a prospective legitimate aggregate.
//
// floc:eq IV.8
func (r *Router) legitAggregationBeneficial(members []*pathState) bool {
	k := float64(len(members))
	sumE, sumN, sumEN := 0.0, 0.0, 0.0
	minN, maxN := math.Inf(1), 0.0
	for _, m := range members {
		n := math.Max(1, float64(m.flows.len()))
		sumE += m.conformance
		sumN += n
		sumEN += m.conformance * n
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
	mean := sumE / k
	weighted := sumEN / sumN
	// C^L = mean - weighted; aggregate when the flow-weighted conformance
	// is at least the unweighted mean (non-positive net change).
	if mean-weighted > 1e-9 {
		return false
	}
	// Guard: member path j's allocation changes from one share to
	// k*n_j/sum(n) shares; reject if any member gains more than the
	// configured fraction.
	for _, m := range members {
		n := math.Max(1, float64(m.flows.len()))
		if k*n/sumN > 1+r.cfg.LegitAggGuard {
			return false
		}
	}
	return true
}

// applyPlan rebuilds the aggregate states to match the plan, preserving
// aggregates whose key (and hence aggregation point) is unchanged.
func (r *Router) applyPlan(plan map[string][]*pathState, kind map[string]aggKind, now float64) {
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
	for key, members := range plan {
		sort.Slice(members, func(i, j int) bool { return members[i].key < members[j].key })
		agg := old[key]
		if agg == nil {
			bucket, _ := tokenbucket.New(r.cfg.ControlInterval,
				math.Max(1, r.cfg.linkRatePackets().Times(units.Seconds(r.cfg.ControlInterval))))
			agg = &pathState{
				key:         key,
				rtt:         newEWMA(),
				conformance: 1.0,
				bucket:      bucket,
			}
		}
		agg.members = members
		agg.shares = 1
		if kind[key] == aggLegit {
			agg.shares = len(members)
		}
		// Aggregate conformance: flow-weighted mean of members.
		sumN, sumEN := 0.0, 0.0
		for _, m := range members {
			m.aggregate = agg
			n := math.Max(1, float64(m.flows.len()))
			sumN += n
			sumEN += m.conformance * n
		}
		if sumN > 0 {
			agg.conformance = sumEN / sumN
		}
		// A flow-weighted mean of member conformances is itself a
		// conformance (Eq. IV.7 / IV.8 operate on [0, 1] values).
		invariant.Conformance01("core.agg.conformance", agg.conformance)
		r.aggs[key] = agg
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
