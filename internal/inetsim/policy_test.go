package inetsim

import (
	"strings"
	"testing"

	"floc/internal/core"
	"floc/internal/pathid"
	"floc/internal/topology"
)

// tinySim builds a Sim over a minimal topology for policy unit tests.
func tinySim(t *testing.T, def DefenseKind) *Sim {
	t.Helper()
	cfg := topology.DefaultInetConfig(topology.FRoot)
	cfg.TotalASes = 60
	cfg.LegitASes = 10
	cfg.AttackASes = 5
	cfg.LegitSources = 40
	cfg.AttackSources = 200
	topo, err := topology.GenerateInet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := DefaultConfig(topo, def)
	scfg.CapacityPerTick = 50
	scfg.Ticks = 100
	scfg.WarmupTicks = 20
	s, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNDPolicyServesUpToCapacity(t *testing.T) {
	s := tinySim(t, NoDefense)
	queued := make([]int32, 120)
	for i := range queued {
		queued[i] = int32(i % len(s.flows))
	}
	served, wait := s.policy.admit(s, queued)
	if len(served) != 50 {
		t.Fatalf("served %d, want capacity 50", len(served))
	}
	if len(wait) != 70 {
		t.Fatalf("wait %d, want 70", len(wait))
	}
	// Under capacity: everything served.
	served, wait = s.policy.admit(s, queued[:30])
	if len(served) != 30 || len(wait) != 0 {
		t.Fatalf("underload served=%d wait=%d", len(served), len(wait))
	}
}

func TestFFPolicyPrioritizesLegit(t *testing.T) {
	s := tinySim(t, FairFlow)
	// Find one legit and many attack flows.
	var legit int32 = -1
	var bots []int32
	for i := range s.flows {
		if s.flows[i].class == Attack {
			bots = append(bots, int32(i))
		} else if legit < 0 {
			legit = int32(i)
		}
	}
	if legit < 0 || len(bots) == 0 {
		t.Fatal("missing flow classes")
	}
	// Queue: 200 attack packets from one bot (exhausting its budget) plus
	// 10 legit packets.
	var queued []int32
	for i := 0; i < 200; i++ {
		queued = append(queued, bots[0])
	}
	for i := 0; i < 10; i++ {
		queued = append(queued, legit)
	}
	served, _ := s.policy.admit(s, queued)
	legitServed := 0
	for _, fi := range served {
		if s.flows[fi].class != Attack {
			legitServed++
		}
	}
	if legitServed != 10 {
		t.Fatalf("legit served %d/10 under FF", legitServed)
	}
}

func TestFLocPolicyQuotasAndWorkConservation(t *testing.T) {
	s := tinySim(t, FLoc)
	p := s.policy.(*flocPolicy)
	if p.guaranteedPaths() == 0 {
		t.Fatal("no guaranteed paths")
	}
	// All packets from one AS's flows: first-pass quota plus
	// work-conserving overflow should serve up to capacity when the path
	// is not flagged.
	var flowsOfOneAS []int32
	as := s.flows[0].asIdx
	for i := range s.flows {
		if s.flows[i].asIdx == as {
			flowsOfOneAS = append(flowsOfOneAS, int32(i))
		}
	}
	var queued []int32
	for len(queued) < 80 {
		queued = append(queued, flowsOfOneAS[len(queued)%len(flowsOfOneAS)])
	}
	served, wait := p.admit(s, queued)
	if len(served) != 50 {
		t.Fatalf("work conservation failed: served %d of capacity 50", len(served))
	}
	if len(wait) != 30 {
		t.Fatalf("wait %d, want 30", len(wait))
	}
}

func TestFLocPolicyStrictOnAttackPaths(t *testing.T) {
	s := tinySim(t, FLoc)
	p := s.policy.(*flocPolicy)
	as := s.flows[0].asIdx
	path := p.pathOf[as]
	path.attack = true
	var queued []int32
	for i := range s.flows {
		if s.flows[i].asIdx == as {
			for j := 0; j < 10; j++ {
				queued = append(queued, int32(i))
			}
		}
		if len(queued) >= 80 {
			break
		}
	}
	served, wait := p.admit(s, queued)
	if float64(len(served)) > path.quota+1 {
		t.Fatalf("attack path served %d beyond quota %v", len(served), path.quota)
	}
	if len(wait) != 0 {
		t.Fatalf("attack-path overflow should drop, not wait: %d", len(wait))
	}
}

// lowConformancePlan marks every AS with sources low-conformance, as a
// control run would, and returns core's Algorithm 1 plan for the tree.
func lowConformancePlan(p *flocPolicy, smax int) []core.Group {
	for _, leaf := range p.leaf {
		if leaf != nil {
			leaf.Conformance = 0.1
			leaf.Attack = core.InAttackTree(leaf.Conformance)
		}
	}
	return core.PlanAttack(p.tree, smax)
}

// TestFLocAggregationGroupsByPostfix: the simulator aggregates with core's
// Algorithm 1 on the topology's AS paths. Every aggregate sits on a
// shared postfix of its members' paths (an AS homed at the aggregation
// point itself included), no AS lands in two identifiers, and the
// guaranteed-path count falls.
func TestFLocAggregationGroupsByPostfix(t *testing.T) {
	s := tinySim(t, FLoc)
	p := s.policy.(*flocPolicy)
	before := p.guaranteedPaths()
	plan := lowConformancePlan(p, 5)
	if len(plan) == 0 {
		t.Fatal("no aggregates planned for an all-attack tree over |S|max")
	}
	p.apply(s, plan)
	if after := p.guaranteedPaths(); after >= before {
		t.Fatalf("aggregation did not reduce paths: %d -> %d", before, after)
	}
	seen := map[int]bool{}
	for _, g := range plan {
		point, err := pathid.Parse(strings.TrimPrefix(g.Key, "agg-A:"))
		if err != nil {
			t.Fatalf("aggregate key %q names no path: %v", g.Key, err)
		}
		for _, m := range g.Members {
			as := int(m.AS) - 1
			if seen[as] {
				t.Fatalf("AS %d in two aggregates", as)
			}
			seen[as] = true
			path := s.topo.ASes[as].Path
			if !path.Postfix(point.Len()).Equal(point) {
				t.Fatalf("member %v of aggregate %s does not pass %v", path, g.Key, point)
			}
			if p.pathOf[as] != p.aggs[g.Key] {
				t.Fatalf("AS %d does not draw on its aggregate %s", as, g.Key)
			}
		}
	}
}

// TestPlanSignatureStable: core's plan signature, on the simulator's
// tree, is a pure function of the plan: one plan signs alike twice, a
// different plan differently, and no plan as "".
func TestPlanSignatureStable(t *testing.T) {
	s := tinySim(t, FLoc)
	p := s.policy.(*flocPolicy)
	a := core.PlanSignature(lowConformancePlan(p, 5))
	if b := core.PlanSignature(lowConformancePlan(p, 5)); a != b {
		t.Fatalf("identical plans sign differently:\n%s\n%s", a, b)
	}
	if core.PlanSignature(lowConformancePlan(p, p.guaranteedPaths()-1)) == a {
		t.Fatal("different plans collide")
	}
	if core.PlanSignature(nil) != "" {
		t.Fatal("empty plan not empty")
	}
}
