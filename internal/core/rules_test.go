package core

import (
	"reflect"
	"testing"
	"testing/quick"

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

// The fan-out slot F(dst) of §IV-B.3, and the accounting identity built
// on it.

func TestSlotInRangeProperty(t *testing.T) {
	f := func(key uint64, dst uint32, n uint8) bool {
		nmax := int(n) + 1
		return fanoutSlot(key, dst, nmax) < uint32(nmax)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSlotDeterministicPerDestination: a destination keeps its slot, and a
// source's flows to two destinations of one slot share one accounting
// identity and hash, while flows to other slots do not.
func TestSlotDeterministicPerDestination(t *testing.T) {
	r := newTestRouter(t, func(c *Config) { c.NMax = 4 })
	path := pathid.New(3, 1)
	key, hash := r.acctKey(mkpkt(10, 77, 1000, path))
	if k, h := r.acctKey(mkpkt(10, 77, 1000, path)); k != key || h != hash {
		t.Fatal("accounting identity not deterministic")
	}
	shared, apart := false, false
	for d := uint32(0); d < 10000 && !(shared && apart); d++ {
		k, h := r.acctKey(mkpkt(10, d, 1000, path))
		if (k == key) != (h == hash) {
			t.Fatalf("dst %d: identity equal %v but hash equal %v", d, k == key, h == hash)
		}
		if d != 77 && k == key {
			shared = true
		} else if k != key {
			apart = true
		}
	}
	if !shared || !apart {
		t.Fatalf("over 10000 destinations: one shares dst 77's slot %v, one is apart %v (suspicious F)", shared, apart)
	}
}

func TestSlotRoughlyUniform(t *testing.T) {
	r := newTestRouter(t, func(c *Config) { c.NMax = 4 })
	counts := make([]int, 4)
	for d := uint32(0); d < 4000; d++ {
		counts[fanoutSlot(r.slotKey, d, 4)]++
	}
	for s, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("slot %d has %d/4000 destinations, want ~1000", s, c)
		}
	}
}

// TestFanOutBoundedByNMax: a covert source opening 20 destinations holds
// at most nmax accounting identities, and every flow lands in one.
func TestFanOutBoundedByNMax(t *testing.T) {
	const nmax = 2
	r := newTestRouter(t, func(c *Config) { c.NMax = nmax })
	path := pathid.New(9, 1)
	aggs := map[flowKey]int{}
	for d := uint32(0); d < 20; d++ {
		k, _ := r.acctKey(mkpkt(42, d, 1000, path))
		if k.src != 42 {
			t.Fatalf("dst %d accounted under source %d", d, k.src)
		}
		aggs[k]++
	}
	if len(aggs) > nmax {
		t.Fatalf("%d fan-out aggregates > nmax %d", len(aggs), nmax)
	}
}

// TestDifferentRoutersDisagree: routers seeded differently key F
// differently. Over 64 destinations and two slots, no two of eight seeds
// give one mapping — as they would if F's low bit ignored the key, which
// a byte-wise FNV hash reduced mod 2 does.
func TestDifferentRoutersDisagree(t *testing.T) {
	seen := map[uint64]uint64{}
	for seed := uint64(1); seed <= 8; seed++ {
		r := newTestRouter(t, func(c *Config) { c.NMax = 2; c.Seed = seed })
		var mapping uint64
		for d := uint32(0); d < 64; d++ {
			mapping |= uint64(fanoutSlot(r.slotKey, d, 2)) << d
		}
		if other, dup := seen[mapping]; dup {
			t.Fatalf("seeds %d and %d map all 64 destinations alike", other, seed)
		}
		seen[mapping] = seed
	}
}
