package core

import (
	"reflect"
	"testing"

	"floc/internal/pathid"
)

// TestPlanAttackAlgorithm1 runs the shared planner on a hand-built tree:
//
//	root ─ 1 ─ 2 ─ 3 (0.25 A)      root ─ 6 (0.125 A) ─ 7 (0.125 A)
//	       │   └── 4 (0.25 A)      root ─ 8 ─ 9 (0 A)
//	       ├── 5 (0.25 A)                 └── 10 (0.9)
//	       └── 11 (0.9)
//
// Eight paths against |S|max 2. Node 6 is an origin and an inner node:
// with its child it is the cheapest candidate (C^A 0.125) and goes
// first. Nodes 2 and 1 then tie at 0.25 and the deeper one, 2, wins.
// That leaves no inner node with two unassigned attack paths (1 holds
// only 5, 8 only 9), so the planner stops six paths short of |S|max and
// lumps nothing.
func TestPlanAttackAlgorithm1(t *testing.T) {
	tr := pathid.NewTree(0)
	for _, l := range []struct {
		path        pathid.PathID
		conformance float64
	}{
		{pathid.New(3, 2, 1), 0.25}, {pathid.New(4, 2, 1), 0.25}, {pathid.New(5, 1), 0.25},
		{pathid.New(11, 1), 0.9}, {pathid.New(6), 0.125}, {pathid.New(7, 6), 0.125},
		{pathid.New(9, 8), 0}, {pathid.New(10, 8), 0.9},
	} {
		leaf, err := tr.Insert(l.path)
		if err != nil {
			t.Fatal(err)
		}
		leaf.Conformance = l.conformance
		leaf.Attack = InAttackTree(l.conformance)
	}
	type group struct {
		Key     string
		Members []string
	}
	summarize := func(plan []Group) []group {
		var out []group
		for _, g := range plan {
			var names []string
			for _, m := range g.Members {
				names = append(names, m.Path().Key())
			}
			out = append(out, group{g.Key, names})
		}
		return out
	}

	want := []group{
		{"agg-A:6", []string{"6", "7-6"}},
		{"agg-A:2-1", []string{"3-2-1", "4-2-1"}},
	}
	if got := summarize(PlanAttack(tr, 2)); !reflect.DeepEqual(got, want) {
		t.Fatalf("PlanAttack(|S|max 2) = %v, want %v", got, want)
	}
	// One path over |S|max: the cheapest merge alone.
	if got := summarize(PlanAttack(tr, 7)); !reflect.DeepEqual(got, want[:1]) {
		t.Fatalf("PlanAttack(|S|max 7) = %v, want %v", got, want[:1])
	}
	for _, smax := range []int{0, 8, 9} {
		if plan := PlanAttack(tr, smax); plan != nil {
			t.Fatalf("PlanAttack(|S|max %d) = %v, want no plan", smax, summarize(plan))
		}
	}
}

// TestRules pins the per-interval rules to the paper's constants.
func TestRules(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"conformance step (β 0.2)", ConformanceStep(1, 1, 2), 0.9},
		{"conformance without flows", ConformanceStep(0.3, 0, 0), 0.3},
		{"escalate above 1.2× fair", Escalate(1, 1.21, 1), 1.25},
		{"escalation capped at 8", Escalate(8, 2, 1), 8},
		{"relax at 1.2× fair", Escalate(2, 1.2, 1), 1.4},
		{"relax floored at 1", Escalate(1.2, 0, 1), 1},
		{"rate EWMA 0.5", RollRate(10, 4, 2), 4.5},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	if !InAttackTree(0.49) || InAttackTree(0.5) {
		t.Error("E_th is not 0.5")
	}
	if !AttackRate(1.51, 1) || AttackRate(1.5, 1) || AttackRate(1, 0) {
		t.Error("attack flows are not those above 1.5× a positive fair share")
	}
	if !OverAllocated(1.2, 1, 0.05) || OverAllocated(1.1, 1, 0) {
		t.Error("the over-allocation margin is not 10 %")
	}
	var w FlowWeighted
	w.Add(1, 3)
	w.Add(0, 0) // weighs 1, as a path without flows does
	if w.Mean() != 0.75 {
		t.Errorf("flow-weighted conformance = %v, want 0.75", w.Mean())
	}
}
