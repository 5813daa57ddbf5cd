package core

import (
	"sort"
	"strings"

	"floc/internal/pathid"
)

// The per-interval rules of FLoc's control loop, written once: the Router
// applies them to measured paths and flows, and the §VII simulator
// (internal/inetsim) to its tick-level model of the same router.

// ConformanceStep advances a path's conformance E_Ri by one control
// interval in which attackFlows of its flows were attack flows (Eq. IV.6,
// smoothing factor β). A path with no flows keeps its value.
func ConformanceStep(conformance float64, attackFlows, flows int) float64 {
	if flows == 0 {
		return conformance
	}
	sample := 1 - float64(attackFlows)/float64(flows)
	return beta*sample + (1-beta)*conformance
}

// InAttackTree reports whether a path of this conformance belongs to the
// attack tree T^A: conformance below E_th (§IV-C.1).
func InAttackTree(conformance float64) bool { return conformance < eThreshold }

// AttackRate reports whether a flow's smoothed rate marks it an attack
// flow: above 1.5× its fair share, persistently enough to survive the
// rate EWMA (the signal Eq. IV.5's bound acts on).
func AttackRate(rate, fair float64) bool { return fair > 0 && rate > 1.5*fair }

// Escalate is the non-responsiveness escalation of a flow's drop penalty
// for one control interval: ×1.25, capped at 8, while its rate stays above
// 1.2× its fair share; ×0.7, down to 1, as soon as it responds.
func Escalate(escalation, rate, fair float64) float64 {
	if rate > 1.2*fair {
		return min(8, max(1, escalation)*1.25)
	}
	return max(1, escalation*0.7)
}

// RollRate folds one control interval's count (tokens or packets) into a
// smoothed rate per second or per tick: an EWMA of weight 0.5.
func RollRate(count, rate, interval float64) float64 {
	return 0.5*(count/interval) + 0.5*rate
}

// fanoutSlot is F(IP_d) of the fan-out capability C1 (§IV-B.3): the slot
// in [0, nmax) that destination dst falls in under key. A source's flows
// to destinations of one slot are accounted as a single flow, so it holds
// at most nmax accounting flows however many destinations it spreads
// over. The key's low 32 bits must reach the low bits the modulus keeps,
// hence a full 64-bit mix: an FNV-style byte hash reduced mod 2 is the
// parity of its input bytes' low bits, and maps alike under every key.
func fanoutSlot(key uint64, dst uint32, nmax int) uint32 {
	return uint32(mix64(key<<32^uint64(dst)) % uint64(nmax))
}

// slotKeyLabel separates the fan-out key from the router's random stream,
// which is seeded from the same Config.Seed.
const slotKeyLabel = 0xf10cf10c5a5a5a5a

// mix64 is SplitMix64's finalizer: a bijection on 64 bits in which every
// input bit reaches every output bit.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// OverAllocated is the rate half of attack-path detection: the smoothed
// request rate exceeds the allocation by more than 10 % plus the reference
// drop rate. The margin keeps adaptive TCP aggregates, which probe just
// above their allocation by design, from being misflagged.
func OverAllocated(lambda, alloc, refDropRate float64) bool {
	return lambda > 1.1*alloc+refDropRate
}

// FlowWeighted accumulates an aggregate's conformance: the mean of its
// members' conformances weighted by their flow counts, each at least 1
// (Eqs. IV.7, IV.8 operate on such means).
type FlowWeighted struct{ flows, sum float64 }

// Add counts one member path.
func (w *FlowWeighted) Add(conformance float64, flows int) {
	n := max(1, float64(flows))
	w.flows += n
	w.sum += conformance * n
}

// Mean returns the weighted conformance of the members added so far.
func (w *FlowWeighted) Mean() float64 { return w.sum / w.flows }

// Aggregate key prefixes: attack-path (Algorithm 1) and legitimate-path
// (§IV-C.2) aggregates.
const (
	attackAggPrefix = "agg-A:"
	legitAggPrefix  = "agg-L:"
)

// A Group is one aggregate of a plan: the origin paths (tree leaves)
// merged into one bandwidth-guaranteed identifier at a tree node.
type Group struct {
	// Key names the aggregate: its kind prefix and the node's path key.
	Key     string
	Members []*pathid.Node
}

// PlanAttack is Algorithm 1 (§IV-C.1, Eq. IV.7) over a traffic tree whose
// leaves carry Conformance and Attack. While the tree holds more than smax
// paths, it merges the unassigned attack leaves beneath the inner node of
// minimum aggregation cost C^A — their mean conformance — preferring the
// deeper node (the longer shared postfix) on a tie. A leaf that is itself
// an inner node counts as a member of its own subtree. It stops when the
// identifiers fit smax or no inner node holds two unassigned attack
// leaves; what is left stays unaggregated. smax <= 0 plans nothing.
func PlanAttack(tree *pathid.Tree, smax int) []Group {
	need := tree.NumLeaves() - smax
	if smax <= 0 || need <= 0 {
		return nil
	}
	type candidate struct {
		node   *pathid.Node
		depth  int
		attack []*pathid.Node // attack leaves beneath node, in tree order
	}
	var cands []candidate
	for _, node := range tree.InnerNodes() {
		var attack []*pathid.Node
		for _, leaf := range node.Leaves() {
			if leaf.Attack {
				attack = append(attack, leaf)
			}
		}
		if len(attack) >= 2 {
			cands = append(cands, candidate{node: node, depth: node.Depth(), attack: attack})
		}
	}

	var plan []Group
	assigned := map[*pathid.Node]bool{}
	for need > 0 {
		var best *candidate
		var bestMembers []*pathid.Node
		bestCost := 0.0
		for i := range cands {
			c := &cands[i]
			var members []*pathid.Node
			sum := 0.0
			for _, leaf := range c.attack {
				if !assigned[leaf] {
					members = append(members, leaf)
					sum += leaf.Conformance
				}
			}
			if len(members) < 2 {
				continue
			}
			cost := sum / float64(len(members))
			if best == nil || cost < bestCost || (cost == bestCost && (c.depth > best.depth ||
				c.depth == best.depth && c.node.Path().Key() < best.node.Path().Key())) {
				best, bestMembers, bestCost = c, members, cost
			}
		}
		if best == nil {
			break
		}
		plan = append(plan, Group{
			Key:     attackAggPrefix + best.node.Path().Key(),
			Members: bestMembers,
		})
		for _, m := range bestMembers {
			assigned[m] = true
		}
		need -= len(bestMembers) - 1
	}
	return plan
}

// PlanSignature canonicalizes a plan for change detection: equal
// signatures install the same aggregates with the same members.
func PlanSignature(plan []Group) string {
	entries := make([]string, len(plan))
	for i, g := range plan {
		names := make([]string, len(g.Members))
		for j, m := range g.Members {
			names[j] = m.Path().Key()
		}
		sort.Strings(names)
		entries[i] = g.Key + "=" + strings.Join(names, ",") + ";"
	}
	sort.Strings(entries)
	return strings.Join(entries, "")
}
