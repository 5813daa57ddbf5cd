package dropfilter

import (
	"math"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Filter {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func small(t *testing.T) *Filter {
	cfg := DefaultConfig()
	cfg.Bits = 10
	return mustNew(t, cfg)
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Arrays: 0, Bits: 10, TickSeconds: 0.01, TSMax: 15, DMax: 63},
		{Arrays: 4, Bits: 0, TickSeconds: 0.01, TSMax: 15, DMax: 63},
		{Arrays: 4, Bits: 31, TickSeconds: 0.01, TSMax: 15, DMax: 63},
		{Arrays: 4, Bits: 10, TickSeconds: 0, TSMax: 15, DMax: 63},
		{Arrays: 4, Bits: 10, TickSeconds: 0.01, TSMax: 0, DMax: 63},
		{Arrays: 4, Bits: 10, TickSeconds: 0.01, TSMax: 15, DMax: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestFlowHashDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for src := uint32(0); src < 100; src++ {
		for dst := uint32(0); dst < 10; dst++ {
			h := FlowHash(src, dst)
			if seen[h] {
				t.Fatalf("hash collision at (%d, %d)", src, dst)
			}
			seen[h] = true
		}
	}
	if FlowHash(1, 2) == FlowHash(2, 1) {
		t.Fatal("FlowHash symmetric in src/dst")
	}
}

func TestCleanFlowQueriesEmpty(t *testing.T) {
	f := small(t)
	s := f.Query(FlowHash(1, 2), 5.0, 0.5, 0)
	if s.TS != 0 || s.D != 0 {
		t.Fatalf("clean flow state = %+v", s)
	}
	if s.PrefDropProb() != 0 || s.Excess() != 0 {
		t.Fatal("clean flow has non-zero penalty")
	}
}

func TestSingleDropThenDecayClears(t *testing.T) {
	f := small(t)
	h := FlowHash(10, 20)
	const epoch = 1.0
	f.RecordDrop(h, 1.0, epoch, 0, 1)
	s := f.Query(h, 1.0, epoch, 0)
	if s.D != 0 || s.TS != 1 {
		t.Fatalf("after one drop: %+v", s)
	}
	if s.PrefDropProb() != 0 {
		t.Fatalf("single normal drop penalized: %v", s.PrefDropProb())
	}
	if f.Live() == 0 {
		t.Fatal("live count not incremented")
	}
	// One congestion epoch later the single (legitimate) drop is removed.
	s = f.Query(h, 2.1, epoch, 0)
	if s.D != 0 || s.TS != 0 {
		t.Fatalf("after decay: %+v", s)
	}
}

func TestAttackFlowAccumulates(t *testing.T) {
	f := small(t)
	h := FlowHash(30, 40)
	const epoch = 1.0
	// 5 drops within one epoch: d should reach 5.
	for i := 0; i < 5; i++ {
		f.RecordDrop(h, 1.0+float64(i)*0.1, epoch, 0, 1)
	}
	s := f.Query(h, 1.5, epoch, 0)
	if s.D != 4 {
		t.Fatalf("d = %d, want 4 (first drop per epoch is free)", s.D)
	}
	if s.Excess() != 4 {
		t.Fatalf("Excess = %v", s.Excess())
	}
	// Eq. V.1: P = 4/(1+4) = 0.8.
	if got := s.PrefDropProb(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("PrefDropProb = %v", got)
	}
}

func TestPrefDropProbFormula(t *testing.T) {
	cases := []struct {
		s    State
		want float64
	}{
		{State{TS: 0, D: 0}, 0},
		{State{TS: 5, D: 0}, 0},
		{State{TS: 10, D: 1}, 1.0 / 11},  // 1/(10+1)
		{State{TS: 4, D: 2}, 1.0 / 3},    // 2/(4+2)
		{State{TS: 1, D: 1}, 0.5},        // 1/(1+1)
		{State{TS: 16, D: 1}, 1.0 / 17},  // paper: P_e=6.25%% -> P_pd=5.88%%
		{State{TS: 1, D: 63}, 63.0 / 64}, // paper: 64x flow -> P_pd=0.984
		{State{TS: 0, D: 1}, 1},          // degenerate record
	}
	for _, tc := range cases {
		if got := tc.s.PrefDropProb(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("PrefDropProb(%+v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestPrefDropProbMonotoneInD(t *testing.T) {
	prev := -1.0
	for d := uint32(0); d <= 63; d++ {
		p := State{TS: 10, D: d}.PrefDropProb()
		if p < prev {
			t.Fatalf("PrefDropProb not monotone at d=%d", d)
		}
		if p < 0 || p > 1 {
			t.Fatalf("PrefDropProb out of range at d=%d: %v", d, p)
		}
		prev = p
	}
}

func TestPartialDecay(t *testing.T) {
	f := small(t)
	h := FlowHash(50, 60)
	const epoch = 1.0
	for i := 0; i < 10; i++ {
		f.RecordDrop(h, 1.0, epoch, 0, 1)
	}
	// 10 drops -> d=9 (first is free); 3 epochs later: d=9-3=6, ts+3.
	s := f.Query(h, 4.0, epoch, 0)
	if s.D != 6 {
		t.Fatalf("d after 3 epochs = %d, want 6", s.D)
	}
	if s.TS != 4 {
		t.Fatalf("ts after 3 epochs = %d, want 4", s.TS)
	}
}

func TestTSSaturates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bits = 10
	cfg.TSMax = 5
	f := mustNew(t, cfg)
	h := FlowHash(1, 1)
	f.RecordDrop(h, 0, 1.0, 0, 1)
	for i := 0; i < 50; i++ {
		f.RecordDrop(h, float64(i), 1.0, 0, 1)
	}
	s := f.Query(h, 50, 1.0, 0)
	if s.TS > 5 {
		t.Fatalf("ts = %d exceeded TSMax 5", s.TS)
	}
}

func TestDSaturates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bits = 10
	cfg.DMax = 7
	f := mustNew(t, cfg)
	h := FlowHash(2, 2)
	for i := 0; i < 100; i++ {
		f.RecordDrop(h, 1.0, 1.0, 0, 1)
	}
	if s := f.Query(h, 1.0, 1.0, 0); s.D != 7 {
		t.Fatalf("d = %d, want saturation at 7", s.D)
	}
}

func TestWeightedUpdate(t *testing.T) {
	f := small(t)
	h := FlowHash(3, 3)
	// Probabilistic update: one sampled drop with weight 4 counts as 4
	// drops, the first of which is the free per-epoch drop.
	f.RecordDrop(h, 1.0, 1.0, 0, 4)
	if s := f.Query(h, 1.0, 1.0, 0); s.D != 3 {
		t.Fatalf("weighted d = %d, want 3", s.D)
	}
	// A second weighted sample adds its full weight.
	f.RecordDrop(h, 1.0, 1.0, 0, 4)
	if s := f.Query(h, 1.0, 1.0, 0); s.D != 7 {
		t.Fatalf("weighted d = %d, want 7", s.D)
	}
	// Weight 0 is clamped to 1.
	f.RecordDrop(FlowHash(4, 4), 1.0, 1.0, 0, 0)
	if s := f.Query(FlowHash(4, 4), 1.0, 1.0, 0); s.D != 0 {
		t.Fatalf("zero-weight d = %d, want 0", s.D)
	}
}

func TestQueryDoesNotMutate(t *testing.T) {
	f := small(t)
	h := FlowHash(5, 5)
	for i := 0; i < 4; i++ {
		f.RecordDrop(h, 1.0, 1.0, 0, 1)
	}
	// Two decayed queries must return identical state.
	a := f.Query(h, 3.0, 1.0, 0)
	b := f.Query(h, 3.0, 1.0, 0)
	if a != b {
		t.Fatalf("query mutated state: %+v vs %+v", a, b)
	}
	// And the underlying record must still decay from its stored t_l.
	c := f.Query(h, 1.0, 1.0, 0)
	if c.D != 3 {
		t.Fatalf("stored record changed by query: %+v", c)
	}
}

func TestArraySelectionKDisjointFromFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bits = 10
	f := mustNew(t, cfg)
	h := FlowHash(6, 6)
	// Record twice with k=2, query with the same k=2: visible (d=1).
	f.RecordDrop(h, 1.0, 1.0, 2, 1)
	f.RecordDrop(h, 1.0, 1.0, 2, 1)
	if s := f.Query(h, 1.0, 1.0, 2); s.D != 1 {
		t.Fatalf("k=2 record invisible to k=2 query: %+v", s)
	}
	// Full query (k=0 -> all arrays) sees empty arrays -> clean.
	if s := f.Query(h, 1.0, 1.0, 0); s.D != 0 {
		t.Fatalf("full query of partial record = %+v, want clean", s)
	}
}

func TestReset(t *testing.T) {
	f := small(t)
	f.RecordDrop(FlowHash(7, 7), 1.0, 1.0, 0, 1)
	f.Reset()
	if f.Live() != 0 {
		t.Fatalf("Live after Reset = %d", f.Live())
	}
	if s := f.Query(FlowHash(7, 7), 1.0, 1.0, 0); s.D != 0 {
		t.Fatalf("record survived Reset: %+v", s)
	}
}

func TestFalsePositiveRatePaperNumbers(t *testing.T) {
	// Paper: m=4 arrays, b=24 bits, 0.5M flows -> 7.4e-7.
	got := FalsePositiveRate(500_000, 24, 4)
	if got < 5e-7 || got > 9e-7 {
		t.Fatalf("FPR(0.5M, 24, 4) = %v, want ~7.4e-7", got)
	}
	// 4M attack flows with the paper's mitigation bound ~1.12e-5: the raw
	// 4-array rate at 4M flows.
	got = FalsePositiveRate(4_000_000, 24, 4)
	if got < 1e-4 || got > 4e-3 {
		t.Fatalf("FPR(4M, 24, 4) = %v out of plausible range", got)
	}
	if FalsePositiveRate(0, 24, 4) != 0 {
		t.Fatal("FPR with n=0 should be 0")
	}
	if FalsePositiveRate(100, 0, 4) != 0 || FalsePositiveRate(100, 24, 0) != 0 {
		t.Fatal("FPR with invalid params should be 0")
	}
}

func TestFalsePositiveRateMonotone(t *testing.T) {
	prev := 0.0
	for n := 1000; n <= 1_000_000; n *= 10 {
		p := FalsePositiveRate(n, 20, 4)
		if p <= prev {
			t.Fatalf("FPR not increasing at n=%d", n)
		}
		prev = p
	}
	// More arrays => lower FPR.
	if FalsePositiveRate(100000, 20, 4) >= FalsePositiveRate(100000, 20, 2) {
		t.Fatal("more arrays did not reduce FPR")
	}
}

func TestSelectK(t *testing.T) {
	// Few attack flows: keep all arrays.
	if k := SelectK(1000, 100, 4, 10000); k != 4 {
		t.Fatalf("SelectK small = %d, want 4", k)
	}
	// Massive attack: restrict arrays.
	k := SelectK(1000, 1_000_000, 4, 300_000)
	if k < 1 || k > 1 {
		t.Fatalf("SelectK massive = %d, want 1", k)
	}
	// Mid-range: k between.
	k = SelectK(0, 100, 4, 50)
	if k != 2 {
		t.Fatalf("SelectK mid = %d, want 2", k)
	}
	if k := SelectK(10, 10, 0, 100); k != 1 {
		t.Fatalf("SelectK m=0 = %d, want 1", k)
	}
}

func TestLegitAndAttackSeparationScenario(t *testing.T) {
	// End-to-end behaviour check: a legitimate flow dropping once per
	// epoch keeps P_pd near 0; an attack flow dropping 8x per epoch gets a
	// high P_pd.
	f := small(t)
	legit, attack := FlowHash(100, 1), FlowHash(200, 1)
	const epoch = 0.5
	now := 0.0
	for e := 0; e < 10; e++ {
		now = float64(e) * epoch
		f.RecordDrop(legit, now, epoch, 0, 1)
		for i := 0; i < 8; i++ {
			f.RecordDrop(attack, now+float64(i)*0.01, epoch, 0, 1)
		}
	}
	ls := f.Query(legit, now, epoch, 0)
	as := f.Query(attack, now, epoch, 0)
	if lp, ap := ls.PrefDropProb(), as.PrefDropProb(); lp > 0.3 || ap < 0.7 {
		t.Fatalf("separation failed: legit P=%v attack P=%v", lp, ap)
	}
	if ls.Excess() >= as.Excess() {
		t.Fatalf("excess ordering wrong: %v vs %v", ls.Excess(), as.Excess())
	}
}

func TestMemoryBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bits = 10
	f := mustNew(t, cfg)
	if got := f.MemoryBytes(); got != 4*1024*8 {
		t.Fatalf("MemoryBytes = %d", got)
	}
}

func TestDecayNeverUnderflowsProperty(t *testing.T) {
	f := small(t)
	prop := func(ops []struct {
		Src, Dst uint16
		T        uint16
		W        uint8
	}) bool {
		for _, op := range ops {
			h := FlowHash(uint32(op.Src), uint32(op.Dst))
			now := float64(op.T) / 100
			f.RecordDrop(h, now, 0.5, 0, uint32(op.W%8))
			s := f.Query(h, now, 0.5, 0)
			if s.D > f.Config().DMax || s.TS > f.Config().TSMax {
				return false
			}
			p := s.PrefDropProb()
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQueryTicksAndPeek: a caller that quantizes once per path and calls
// QueryTicks gets what Query returns and is counted like it; Peek, which
// only pulls a flow's block into cache, is not counted and changes
// nothing a Query can see.
func TestQueryTicksAndPeek(t *testing.T) {
	f := small(t)
	const epoch = 0.37
	for i := uint32(0); i < 200; i++ {
		for d := uint32(0); d <= i%7; d++ {
			f.RecordDrop(FlowHash(i, 9), 1+0.01*float64(d), epoch, int(i%3), 1)
		}
	}
	records, queries := f.Counters()
	live := f.Live()
	for i := uint32(0); i < 400; i++ {
		f.Peek(FlowHash(i, 9))
	}
	if r, q := f.Counters(); r != records || q != queries || f.Live() != live {
		t.Fatalf("Peek moved the counters: %d/%d/%d -> %d/%d/%d", records, queries, live, r, q, f.Live())
	}
	for i := uint32(0); i < 400; i++ {
		h, now, k := FlowHash(i, 9), 1+0.013*float64(i), int(i%3)
		want := f.Query(h, now, epoch, k)
		if got := f.QueryTicks(h, f.Ticks(now), f.Ticks(epoch), k); got != want {
			t.Fatalf("flow %d at %v: QueryTicks %+v, Query %+v", i, now, got, want)
		}
	}
	if _, q := f.Counters(); q != queries+800 {
		t.Fatalf("800 queries counted as %d", q-queries)
	}
}
