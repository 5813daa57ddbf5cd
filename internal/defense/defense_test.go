package defense

import (
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
)

func pkt(src, dst uint32, size int, path pathid.PathID) *netsim.Packet {
	return &netsim.Packet{Src: src, Dst: dst, Size: size, Kind: netsim.KindUDP, Path: path}
}

// --- RED ---

func TestREDValidation(t *testing.T) {
	bad := []REDConfig{
		{Capacity: 0, MinTh: 1, MaxTh: 2, MaxP: 0.1, Wq: 0.002},
		{Capacity: 10, MinTh: 0, MaxTh: 8, MaxP: 0.1, Wq: 0.002},
		{Capacity: 10, MinTh: 8, MaxTh: 4, MaxP: 0.1, Wq: 0.002},
		{Capacity: 10, MinTh: 2, MaxTh: 20, MaxP: 0.1, Wq: 0.002},
		{Capacity: 10, MinTh: 2, MaxTh: 8, MaxP: 0, Wq: 0.002},
		{Capacity: 10, MinTh: 2, MaxTh: 8, MaxP: 1.5, Wq: 0.002},
		{Capacity: 10, MinTh: 2, MaxTh: 8, MaxP: 0.1, Wq: 0},
	}
	for i, cfg := range bad {
		if _, err := NewRED(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewRED(DefaultREDConfig(100, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestREDAdmitsBelowMinTh(t *testing.T) {
	r, err := NewRED(DefaultREDConfig(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Empty queue, low average: everything admitted.
	for i := 0; i < 10; i++ {
		if !r.Enqueue(pkt(1, 2, 1000, nil), 0) {
			t.Fatal("drop below min threshold")
		}
		r.Dequeue(0)
	}
	if r.Drops() != 0 {
		t.Fatalf("drops = %d", r.Drops())
	}
}

func TestREDDropsUnderSustainedLoad(t *testing.T) {
	r, err := NewRED(DefaultREDConfig(50, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Fill without draining: average climbs above max_th, forcing drops.
	drops := 0
	for i := 0; i < 5000; i++ {
		if !r.Enqueue(pkt(1, 2, 1000, nil), float64(i)*0.001) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no drops under overload")
	}
	if r.Len() > 50 {
		t.Fatalf("queue exceeded capacity: %d", r.Len())
	}
	if r.AvgQueue() <= 0 {
		t.Fatal("average queue not tracked")
	}
}

func TestREDEarlyDropsBeforeFull(t *testing.T) {
	cfg := DefaultREDConfig(100, 2)
	r, err := NewRED(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawEarly := false
	for i := 0; i < 20000; i++ {
		ok := r.Enqueue(pkt(1, 2, 1000, nil), float64(i)*0.0005)
		if !ok && r.Len() < 100 {
			sawEarly = true
			break
		}
		if i%3 == 0 {
			r.Dequeue(float64(i) * 0.0005)
		}
	}
	if !sawEarly {
		t.Fatal("RED never dropped early (before buffer full)")
	}
}

func TestREDIdleDecay(t *testing.T) {
	r, err := NewRED(DefaultREDConfig(50, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		r.Enqueue(pkt(1, 2, 1000, nil), 0.001*float64(i))
	}
	avgBusy := r.AvgQueue()
	// Drain fully, then come back much later: average must have decayed.
	for r.Dequeue(2.0) != nil {
	}
	r.Enqueue(pkt(1, 2, 1000, nil), 10.0)
	if r.AvgQueue() >= avgBusy {
		t.Fatalf("avg did not decay over idle: %v -> %v", avgBusy, r.AvgQueue())
	}
}

// --- RED-PD ---

func TestREDPDValidation(t *testing.T) {
	base := DefaultREDPDConfig(100, 1)
	mutations := []func(*REDPDConfig){
		func(c *REDPDConfig) { c.Interval = 0 },
		func(c *REDPDConfig) { c.HistoryLen = 0 },
		func(c *REDPDConfig) { c.IdentifyThreshold = 0 },
		func(c *REDPDConfig) { c.IdentifyThreshold = c.HistoryLen + 1 },
		func(c *REDPDConfig) { c.AssumedRTT = 0 },
		func(c *REDPDConfig) { c.RED.Capacity = 0 },
	}
	for i, mut := range mutations {
		cfg := base
		mut(&cfg)
		if _, err := NewREDPD(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewREDPD(base); err != nil {
		t.Fatal(err)
	}
}

func TestREDPDMonitorsPersistentDropper(t *testing.T) {
	cfg := DefaultREDPDConfig(20, 1)
	cfg.Interval = 0.1
	r, err := NewREDPD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aggressive := netsim.FlowID{Src: 9, Dst: 2}
	// Offer a high-rate flow into a tiny queue over many epochs; it keeps
	// experiencing drops, so it must become monitored with rising p.
	now := 0.0
	for i := 0; i < 20000; i++ {
		now += 0.0002
		r.Enqueue(pkt(9, 2, 1000, nil), now)
		if i%4 == 0 {
			r.Dequeue(now)
		}
	}
	if r.Monitored() == 0 {
		t.Fatal("aggressive flow never monitored")
	}
	if p := r.MonitorProb(aggressive); p <= 0 {
		t.Fatalf("monitor probability = %v", p)
	}
	if r.PrefilterDrops() == 0 {
		t.Fatal("no prefilter drops")
	}
}

func TestREDPDReleasesQuietFlow(t *testing.T) {
	cfg := DefaultREDPDConfig(20, 1)
	cfg.Interval = 0.1
	r, err := NewREDPD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for i := 0; i < 20000; i++ {
		now += 0.0002
		r.Enqueue(pkt(9, 2, 1000, nil), now)
		if i%4 == 0 {
			r.Dequeue(now)
		}
	}
	if r.Monitored() == 0 {
		t.Fatal("setup: flow not monitored")
	}
	// Flow goes quiet; idle traffic from another flow rolls the epochs.
	for i := 0; i < 5000; i++ {
		now += 0.001
		r.Enqueue(pkt(3, 2, 100, nil), now)
		r.Dequeue(now)
	}
	if r.Monitored() != 0 {
		t.Fatalf("monitored = %d after quiet period", r.Monitored())
	}
}

// --- Pushback ---

func TestPushbackValidation(t *testing.T) {
	base := DefaultPushbackConfig(100, 1e6, 1)
	mutations := []func(*PushbackConfig){
		func(c *PushbackConfig) { c.LinkRateBits = 0 },
		func(c *PushbackConfig) { c.Interval = 0 },
		func(c *PushbackConfig) { c.DropRateTrigger = 0 },
		func(c *PushbackConfig) { c.DropRateTrigger = 1 },
		func(c *PushbackConfig) { c.TargetUtil = 0 },
		func(c *PushbackConfig) { c.ReleaseFactor = 1 },
		func(c *PushbackConfig) { c.RED.Capacity = 0 },
	}
	for i, mut := range mutations {
		cfg := base
		mut(&cfg)
		if _, err := NewPushback(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// floodPushback offers two aggregates (one 8x the other) into a small
// pushback-protected queue and returns the discipline.
func floodPushback(t *testing.T, trigger float64) (*Pushback, map[string]int) {
	t.Helper()
	cfg := DefaultPushbackConfig(50, 8e6, 1) // 8 Mb/s link
	cfg.Interval = 0.2
	cfg.DropRateTrigger = trigger
	pb, err := NewPushback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attackPath := pathid.New(7, 1)
	legitPath := pathid.New(8, 1)
	admitted := map[string]int{}
	now := 0.0
	// Attack: 16 Mb/s; legit: 2 Mb/s; capacity 8 Mb/s.
	for i := 0; i < 40000; i++ {
		now += 0.0005 // 2000 pkt/s of 1000B = 16 Mb/s for attack
		if pb.Enqueue(pkt(7, 2, 1000, attackPath), now) {
			admitted[attackPath.Key()]++
		}
		if i%8 == 0 {
			if pb.Enqueue(pkt(8, 2, 1000, legitPath), now) {
				admitted[legitPath.Key()]++
			}
		}
		pb.Dequeue(now) // drain at 2000 pkt/s... see below
	}
	return pb, admitted
}

func TestPushbackActivatesAndLimitsBiggestAggregate(t *testing.T) {
	pb, admitted := floodPushback(t, 0.1)
	if pb.Activations() == 0 {
		t.Fatal("ACC never activated under heavy overload")
	}
	if pb.LimiterDrops() == 0 {
		t.Fatal("limiter never dropped")
	}
	a := admitted[pathid.New(7, 1).Key()]
	l := admitted[pathid.New(8, 1).Key()]
	if l == 0 {
		t.Fatal("legitimate aggregate starved completely")
	}
	// The attack aggregate offered 8x the legit load; after limiting its
	// admitted share must be far below 8x.
	if float64(a) > 5*float64(l) {
		t.Fatalf("attack admitted %d vs legit %d: limiter ineffective", a, l)
	}
}

func TestPushbackInactiveBelowTrigger(t *testing.T) {
	cfg := DefaultPushbackConfig(1000, 8e6, 1)
	cfg.Interval = 0.2
	pb, err := NewPushback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Light load: no drops, no activation.
	now := 0.0
	for i := 0; i < 5000; i++ {
		now += 0.002
		pb.Enqueue(pkt(7, 2, 1000, pathid.New(7, 1)), now)
		pb.Dequeue(now)
	}
	if pb.Activations() != 0 {
		t.Fatalf("activated %d times without overload", pb.Activations())
	}
	if pb.LimitedAggregates() != 0 {
		t.Fatal("aggregates limited without overload")
	}
}

func TestPushbackReleasesAfterAttackEnds(t *testing.T) {
	pb, _ := floodPushback(t, 0.1)
	if pb.LimitedAggregates() == 0 {
		t.Fatal("setup: nothing limited")
	}
	// Attack stops; only light legit traffic continues. Limits loosen and
	// release.
	now := 25.0
	for i := 0; i < 20000; i++ {
		now += 0.002
		pb.Enqueue(pkt(8, 2, 1000, pathid.New(8, 1)), now)
		pb.Dequeue(now)
	}
	if pb.LimitedAggregates() != 0 {
		t.Fatalf("still %d limited aggregates after quiet period", pb.LimitedAggregates())
	}
}

func TestPushbackAggDepth(t *testing.T) {
	cfg := DefaultPushbackConfig(100, 1e6, 1)
	cfg.AggDepth = 1
	pb, err := NewPushback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two different origins sharing the last hop aggregate together.
	k1 := pb.aggKey(pkt(1, 2, 100, pathid.New(5, 3, 1)))
	k2 := pb.aggKey(pkt(1, 2, 100, pathid.New(6, 4, 1)))
	if k1 != k2 {
		t.Fatalf("depth-1 keys differ: %q vs %q", k1, k2)
	}
	cfg.AggDepth = 0
	pb2, err := NewPushback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pb2.aggKey(pkt(1, 2, 100, pathid.New(5, 3, 1))) == pb2.aggKey(pkt(1, 2, 100, pathid.New(6, 4, 1))) {
		t.Fatal("full-path keys collide")
	}
}

// --- Bank limits ---

func TestLimiterTransparentWhenUnlimited(t *testing.T) {
	b := NewLimiterBank()
	for i := 0; i < 10; i++ {
		if !b.Admit(5, pkt(1, 2, 1000, nil), float64(i)*0.001) {
			t.Fatal("unlimited handle dropped")
		}
	}
	if b.Drops() != 0 || b.Rate(5, 0.01) != 0 {
		t.Fatalf("dropped=%d rate=%v", b.Drops(), b.Rate(5, 0.01))
	}
}

func TestLimiterEnforcesRate(t *testing.T) {
	b := NewLimiterBank()
	b.Install(5, 1e6, 0) // 1 Mb/s = 125 pkt/s of 1000 B
	admitted := 0
	now := 0.0
	for i := 0; i < 10000; i++ {
		now += 0.001 // offered: 1000 pkt/s = 8 Mb/s
		if b.Admit(5, pkt(1, 2, 1000, nil), now) {
			admitted++
		}
	}
	// 1256 is what defense.Limiter admitted from these inputs; the gate
	// keeps its arithmetic.
	if admitted != 1256 || b.Drops() != 10000-admitted {
		t.Fatalf("admitted %d, dropped %d; want 1256 and 8744", admitted, b.Drops())
	}
	// Removing the limit restores transparency.
	b.Install(5, 0, 0)
	if !b.Admit(5, pkt(1, 2, 1000, nil), now+1) {
		t.Fatal("dropped after limit removal")
	}
}

func TestREDPDPinsAtTargetNotBelow(t *testing.T) {
	// A monitored constant-rate flow ends near the TCP-friendly target
	// rate — not crushed far below it. This is the property that makes
	// RED-PD vulnerable to covert (headcount) attacks.
	cfg := DefaultREDPDConfig(50, 1)
	cfg.Interval = 0.2
	r, err := NewREDPD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	now := 0.0
	const offered = 2000.0 // pkt/s into a ~1000 pkt/s service
	for i := 0; i < 60000; i++ {
		now += 1 / offered
		if r.Enqueue(pkt(9, 2, 1000, nil), now) {
			admitted++
		}
		if i%2 == 0 {
			r.Dequeue(now)
		}
	}
	if r.Monitored() == 0 {
		t.Fatal("flow never monitored")
	}
	target := r.TargetRate()
	admittedRate := float64(admitted) / now
	// Within a factor ~3 of the target (the pre-filter and RED both act).
	if admittedRate < target/4 {
		t.Fatalf("flow crushed: admitted %v pkt/s vs target %v", admittedRate, target)
	}
}
