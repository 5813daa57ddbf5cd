package core

import (
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
)

// mkpkt builds a UDP packet on a path.
func mkpkt(src, dst uint32, size int, path pathid.PathID) *netsim.Packet {
	return &netsim.Packet{Src: src, Dst: dst, Size: size, Kind: netsim.KindUDP, Path: path}
}

// driver exercises a Router as a raw discipline: packet generators offer
// load, a service loop drains at the link rate.
type driver struct {
	r   *Router
	now float64
}

// step advances time by dt, first offering the given packets, then
// servicing n packets.
func (d *driver) step(dt float64, offered []*netsim.Packet, service int) (admitted int) {
	d.now += dt
	for _, pkt := range offered {
		if d.r.Enqueue(pkt, d.now) {
			admitted++
		}
	}
	for i := 0; i < service; i++ {
		if d.r.Dequeue(d.now) == nil {
			break
		}
	}
	return admitted
}

func newTestRouter(t *testing.T, mut func(*Config)) *Router {
	t.Helper()
	// 8 Mb/s link of 1000-byte packets = 1000 pkt/s; 100-packet buffer.
	cfg := DefaultConfig(8e6, 100)
	cfg.ControlInterval = 0.25
	if mut != nil {
		mut(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.LinkRateBits = 0 },
		func(c *Config) { c.Capacity = 2 },
		func(c *Config) { c.PacketSize = 0 },
		func(c *Config) { c.ControlInterval = 0 },
		func(c *Config) { c.DefaultRTT = 0 },
		func(c *Config) { c.FlowTimeout = 0 },
		func(c *Config) { c.NMax = -1 },
		func(c *Config) { c.Filter.Arrays = 0 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig(8e6, 100)
		mut(&cfg)
		if _, err := NewRouter(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewRouter(DefaultConfig(8e6, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeUncongested: "uncongested", ModeCongested: "congested",
		ModeFlooding: "flooding", Mode(9): "unknown",
	} {
		if m.String() != want {
			t.Errorf("%d: %q", m, m.String())
		}
	}
}

func TestUncongestedAdmitsEverything(t *testing.T) {
	r := newTestRouter(t, nil)
	d := &driver{r: r}
	path := pathid.New(5, 1)
	// 100 pkt/s offered into a 1000 pkt/s service: always uncongested.
	for i := 0; i < 500; i++ {
		adm := d.step(0.01, []*netsim.Packet{mkpkt(1, 2, 1000, path)}, 10)
		if adm != 1 {
			t.Fatalf("packet dropped at t=%v in uncongested mode", d.now)
		}
	}
	if r.TotalDrops() != 0 {
		t.Fatalf("drops = %d", r.TotalDrops())
	}
	if r.Mode() != ModeUncongested {
		t.Fatalf("mode = %v", r.Mode())
	}
}

func TestPathCreationAndEqualAllocation(t *testing.T) {
	r := newTestRouter(t, nil)
	d := &driver{r: r}
	paths := []pathid.PathID{pathid.New(4, 1), pathid.New(5, 1), pathid.New(6, 2)}
	for i := 0; i < 300; i++ {
		var pkts []*netsim.Packet
		for j, p := range paths {
			pkts = append(pkts, mkpkt(uint32(10+j), 2, 1000, p))
		}
		d.step(0.01, pkts, 5)
	}
	infos := r.PathInfos()
	if len(infos) != 3 {
		t.Fatalf("paths = %d", len(infos))
	}
	for _, info := range infos {
		if info.AllocPackets <= 0 {
			t.Fatalf("path %s has no allocation", info.Key)
		}
		if info.AllocPackets != infos[0].AllocPackets {
			t.Fatalf("unequal allocations: %+v", infos)
		}
		if info.Flows != 1 {
			t.Fatalf("path %s flows = %d", info.Key, info.Flows)
		}
		if info.Conformance < 0.9 {
			t.Fatalf("legit path conformance = %v", info.Conformance)
		}
	}
	if r.GuaranteedPathCount() != 3 {
		t.Fatalf("guaranteed = %d", r.GuaranteedPathCount())
	}
}

func TestOverloadedPathFlaggedAttack(t *testing.T) {
	r := newTestRouter(t, nil)
	d := &driver{r: r}
	hog := pathid.New(7, 1)
	legit := pathid.New(8, 1)
	// Service 1000 pkt/s. Hog path offers 1600 pkt/s, legit 100 pkt/s.
	for i := 0; i < 3000; i++ {
		var pkts []*netsim.Packet
		for j := 0; j < 16; j++ {
			pkts = append(pkts, mkpkt(1, 2, 1000, hog))
		}
		if i%10 == 0 {
			pkts = append(pkts, mkpkt(2, 2, 1000, legit))
		}
		d.step(0.01, pkts, 10)
	}
	var hogInfo, legitInfo *PathInfo
	for i := range r.PathInfos() {
		info := r.PathInfos()[i]
		switch info.Key {
		case hog.Key():
			hogInfo = &info
		case legit.Key():
			legitInfo = &info
		}
	}
	if hogInfo == nil || legitInfo == nil {
		t.Fatal("paths missing")
	}
	if !hogInfo.Attack {
		t.Fatalf("hog path not flagged: %+v", hogInfo)
	}
	if legitInfo.Attack {
		t.Fatalf("legit path flagged: %+v", legitInfo)
	}
	if r.TotalDrops() == 0 {
		t.Fatal("no drops under overload")
	}
}

func TestAttackConfinement(t *testing.T) {
	// The central FLoc property: an overloading path cannot take more
	// than its share; the conforming path keeps (almost) all of its own.
	r := newTestRouter(t, nil)
	d := &driver{r: r}
	hog := pathid.New(7, 1)
	legit := pathid.New(8, 1)
	admHog, admLegit := 0, 0
	// Warm up 5 seconds, then measure 20 seconds.
	for phase, steps := range map[int]int{0: 500, 1: 2000} {
		for i := 0; i < steps; i++ {
			var hogPkts, legitPkts []*netsim.Packet
			// Hog: 1600 pkt/s; legit: 400 pkt/s; service 1000 pkt/s.
			for j := 0; j < 16; j++ {
				hogPkts = append(hogPkts, mkpkt(1, 2, 1000, hog))
			}
			for j := 0; j < 4; j++ {
				legitPkts = append(legitPkts, mkpkt(2, 2, 1000, legit))
			}
			a1 := d.step(0.005, hogPkts, 0)
			a2 := d.step(0.005, legitPkts, 10)
			if phase == 1 {
				admHog += a1
				admLegit += a2
			}
		}
	}
	// Fair share is 500 pkt/s each. The hog must not exceed ~1.3x its
	// share; the legit path offered 400 < 500 and must get most of it.
	hogRate := float64(admHog) / 20.0
	legitRate := float64(admLegit) / 20.0
	if hogRate > 700 {
		t.Fatalf("hog admitted %v pkt/s, exceeds confined share", hogRate)
	}
	if legitRate < 280 {
		t.Fatalf("legit admitted only %v pkt/s of 400 offered", legitRate)
	}
}

func TestPreferentialDropWithinPath(t *testing.T) {
	// One attack path carrying a responsive (AIMD-emulating) legitimate
	// flow and an unresponsive 8x hog: the hog must be penalized while
	// the responsive flow's penalty stays low — the paper's central
	// "no collateral damage for flows that respond to drops" claim.
	r := newTestRouter(t, nil)
	d := &driver{r: r}
	path := pathid.New(7, 1)
	other := pathid.New(8, 1)
	admFair, admHog := 0, 0
	fairRate := 200.0 // pkt/s, adapts like AIMD
	fairCredit := 0.0
	const dt = 0.005
	for i := 0; i < 6000; i++ {
		var pkts []*netsim.Packet
		// Hog flow (src 1): 1600 pkt/s, unresponsive.
		for j := 0; j < 8; j++ {
			pkts = append(pkts, mkpkt(1, 2, 1000, path))
		}
		// Responsive flow (src 2): sends at fairRate, halves on drop,
		// grows additively.
		fairCredit += fairRate * dt
		var fairPkts []*netsim.Packet
		for fairCredit >= 1 {
			fairCredit--
			fairPkts = append(fairPkts, mkpkt(2, 2, 1000, path))
		}
		// Another path keeps the link contended (src 3): 400 pkt/s.
		pkts = append(pkts, mkpkt(3, 2, 1000, other), mkpkt(3, 2, 1000, other))
		d.now += dt
		for _, pkt := range pkts {
			if d.r.Enqueue(pkt, d.now) && pkt.Src == 1 {
				admHog++
			}
		}
		for _, pkt := range fairPkts {
			if d.r.Enqueue(pkt, d.now) {
				admFair++
				fairRate += 1.0 * dt // additive increase
			} else {
				fairRate = mathMax(20, fairRate/2)
			}
		}
		for j := 0; j < 10; j++ {
			d.r.Dequeue(d.now)
		}
	}
	// The hog's measured excess must dominate the responsive flow's.
	hogExcess := r.FlowExcess(1, 2, path, d.now)
	fairExcess := r.FlowExcess(2, 2, path, d.now)
	if hogExcess < 2*fairExcess || hogExcess == 0 {
		t.Fatalf("excess separation failed: hog %v vs fair %v", hogExcess, fairExcess)
	}
	infos := r.PathInfos()
	var attackInfo *PathInfo
	for i := range infos {
		if infos[i].Key == path.Key() {
			attackInfo = &infos[i]
		}
	}
	if attackInfo == nil {
		t.Fatal("attack path missing")
	}
	if attackInfo.AttackFlows == 0 {
		t.Fatal("hog flow not identified as attack flow")
	}
	if attackInfo.Conformance > 0.9 {
		t.Fatalf("conformance did not fall: %v", attackInfo.Conformance)
	}
	if r.Drops(DropPreferential) == 0 {
		t.Fatal("no preferential drops")
	}
	_ = admFair
	_ = admHog
}

func TestAttackAggregationReducesPathCount(t *testing.T) {
	r := newTestRouter(t, func(c *Config) { c.SMax = 6 })
	d := &driver{r: r}
	// 8 paths: 4 legit (low rate), 4 attack (hogs sharing parent AS 20).
	legitPaths := []pathid.PathID{
		pathid.New(11, 1), pathid.New(12, 1), pathid.New(13, 2), pathid.New(14, 2),
	}
	attackPaths := []pathid.PathID{
		pathid.New(31, 20, 3), pathid.New(32, 20, 3), pathid.New(33, 20, 3), pathid.New(34, 21, 3),
	}
	for i := 0; i < 6000; i++ {
		var pkts []*netsim.Packet
		for j, p := range legitPaths {
			if i%10 == 0 {
				pkts = append(pkts, mkpkt(uint32(100+j), 2, 1000, p))
			}
		}
		for j, p := range attackPaths {
			for k := 0; k < 4; k++ {
				pkts = append(pkts, mkpkt(uint32(200+j), 2, 1000, p))
			}
		}
		d.step(0.005, pkts, 5)
	}
	if got := r.GuaranteedPathCount(); got > 6 {
		t.Fatalf("guaranteed paths = %d, want <= SMax 6", got)
	}
	aggs := r.Aggregates()
	if len(aggs) == 0 {
		t.Fatal("no aggregates formed")
	}
	// Aggregated paths must be attack paths, not legit ones.
	legitKeys := map[string]bool{}
	for _, p := range legitPaths {
		legitKeys[p.Key()] = true
	}
	for agg, members := range aggs {
		for _, m := range members {
			if legitKeys[m] {
				t.Fatalf("legit path %s swept into aggregate %s", m, agg)
			}
		}
	}
	// Aggregation prefers the deepest shared node: the three paths under
	// AS 20 should aggregate together.
	for _, members := range aggs {
		if len(members) >= 2 {
			return
		}
	}
	t.Fatal("no multi-member aggregate")
}

func TestLegitAggregationProportionalShares(t *testing.T) {
	r := newTestRouter(t, func(c *Config) {
		c.LegitAggregation = true
	})
	d := &driver{r: r}
	// Sibling paths under AS 9 with 2 and 3 flows; one remote path.
	a := pathid.New(41, 9, 1)
	b := pathid.New(42, 9, 1)
	c := pathid.New(43, 5)
	// Gentle flows (50 pkt/s each, well under fair share) so none are
	// classified as attack flows.
	for i := 0; i < 1000; i++ {
		var pkts []*netsim.Packet
		for f := 0; f < 2; f++ {
			pkts = append(pkts, mkpkt(uint32(300+f), 2, 1000, a))
		}
		for f := 0; f < 3; f++ {
			pkts = append(pkts, mkpkt(uint32(310+f), 2, 1000, b))
		}
		pkts = append(pkts, mkpkt(320, 2, 1000, c))
		d.step(0.02, pkts, 20)
	}
	aggs := r.Aggregates()
	found := false
	for key, members := range aggs {
		if len(members) == 2 {
			found = true
			agg := r.aggs[key]
			if agg.shares != 2 {
				t.Fatalf("legit aggregate shares = %d, want 2", agg.shares)
			}
		}
	}
	if !found {
		t.Fatalf("siblings not aggregated: %v", aggs)
	}
}

func TestLegitAggregationGuardBlocksSkewedPaths(t *testing.T) {
	r := newTestRouter(t, func(c *Config) {
		c.LegitAggregation = true
	})
	d := &driver{r: r}
	// Sibling paths with 1 and 8 flows: 2*8/9 = 1.78 > 1.5 -> blocked.
	a := pathid.New(41, 9, 1)
	b := pathid.New(42, 9, 1)
	for i := 0; i < 1000; i++ {
		var pkts []*netsim.Packet
		pkts = append(pkts, mkpkt(300, 2, 1000, a))
		for f := 0; f < 8; f++ {
			pkts = append(pkts, mkpkt(uint32(400+f), 2, 1000, b))
		}
		d.step(0.02, pkts, 20)
	}
	if len(r.Aggregates()) != 0 {
		t.Fatalf("skewed siblings aggregated: %v", r.Aggregates())
	}
}

func TestCovertFlowsCollapseUnderNMax(t *testing.T) {
	r := newTestRouter(t, func(c *Config) {
		c.NMax = 2
	})
	d := &driver{r: r}
	path := pathid.New(7, 1)
	// One source, 20 destinations.
	for i := 0; i < 1000; i++ {
		var pkts []*netsim.Packet
		for dst := uint32(50); dst < 70; dst++ {
			pkts = append(pkts, mkpkt(1, dst, 1000, path))
		}
		d.step(0.01, pkts, 10)
	}
	infos := r.PathInfos()
	if len(infos) != 1 {
		t.Fatalf("paths = %d", len(infos))
	}
	if infos[0].Flows > 2 {
		t.Fatalf("covert flows not collapsed: %d accounting flows", infos[0].Flows)
	}
}

func TestFlowExpiry(t *testing.T) {
	r := newTestRouter(t, nil)
	d := &driver{r: r}
	path := pathid.New(7, 1)
	d.step(0.01, []*netsim.Packet{mkpkt(1, 2, 1000, path)}, 1)
	if len(r.PathInfos()) != 1 {
		t.Fatal("path not created")
	}
	// Advance well past FlowTimeout with traffic on another path to drive
	// the control loop.
	other := pathid.New(8, 1)
	for i := 0; i < 1000; i++ {
		d.step(0.01, []*netsim.Packet{mkpkt(9, 2, 1000, other)}, 2)
	}
	for _, info := range r.PathInfos() {
		if info.Key == path.Key() {
			t.Fatalf("idle path still present: %+v", info)
		}
	}
}

// TestPathTableFullFoldsIntoUnmarked: with the table at its capacity, a
// new path holds no handle and is accounted under the unmarked identifier
// [0], whose handle the table keeps free, so what the router keeps per
// path stays within the capacity however many paths senders invent.
func TestPathTableFullFoldsIntoUnmarked(t *testing.T) {
	const capacity = 8
	r := newTestRouter(t, nil)
	r.origins.cap = capacity
	d := &driver{r: r}
	var paths []pathid.PathID
	for i := 0; i < 3*capacity; i++ {
		path := pathid.New(pathid.ASN(100+i), 5)
		paths = append(paths, path)
		d.step(0.001, []*netsim.Packet{mkpkt(uint32(10+i), 2, 1000, path)}, 2)
		if n := r.origins.size(); n > capacity || len(r.origins.states) > capacity {
			t.Fatalf("after %d paths: %d live origins in %d slots, capacity %d", i+1, n, len(r.origins.states), capacity)
		}
	}
	for i, path := range paths {
		h, probed := r.InternPath(path), r.HandleOf(&netsim.Packet{Path: path})
		held := r.origins.lookup(path.Key()) != nil
		if i < capacity-1 {
			if h == 0 || probed != h || !held {
				t.Fatalf("path %d of %d: handle %#x, HandleOf %#x, state %v; want a handle and state", i, capacity-1, h, probed, held)
			}
		} else if h != 0 || probed != 0 || held {
			t.Fatalf("path %v past the capacity: handle %#x, HandleOf %#x, state %v; want none", path, h, probed, held)
		}
	}
	unmarked := r.origins.lookup(unmarkedKey)
	if unmarked == nil || unmarked.handle == 0 {
		t.Fatal("a full table left the unmarked identifier [0] no state")
	}
	if got, want := unmarked.flows.len(), 3*capacity-(capacity-1); got != want {
		t.Fatalf("[0] accounts %d flows, want the %d of the paths past the capacity", got, want)
	}
	d.step(0.001, []*netsim.Packet{mkpkt(1, 2, 1000, nil)}, 2)
	if r.origins.lookup(unmarkedKey) != unmarked || unmarked.flows.len() != 2*capacity+2 {
		t.Fatal("an unmarked packet was not accounted under [0] beside the folded paths")
	}
	if n, leaves := r.origins.size(), r.tree.NumLeaves(); n != capacity || leaves != capacity {
		t.Fatalf("%d live origins and %d tree leaves, want %d", n, leaves, capacity)
	}
	// Expiry keeps every binding, so the table stays full: once [0] has
	// expired, a new path still folds and [0] gets state again. Traffic
	// on the first path drives the control loop meanwhile.
	for i := 0; i < int((r.cfg.FlowTimeout+1)/0.01); i++ {
		d.step(0.01, []*netsim.Packet{mkpkt(10, 2, 1000, paths[0])}, 2)
	}
	if n := r.origins.size(); n != 1 || r.origins.lookup(unmarkedKey) != nil {
		t.Fatalf("%d origins live after the flow timeout, want only the one with traffic", n)
	}
	fresh := pathid.New(999, 5)
	d.step(0.01, []*netsim.Packet{mkpkt(1, 2, 1000, fresh)}, 2)
	if r.InternPath(fresh) != 0 || r.origins.lookup(unmarkedKey) == nil || r.origins.size() != 2 {
		t.Fatalf("after expiry a new path was not folded into a fresh [0] (live %d)", r.origins.size())
	}
}

func TestRTTMeasuredFromSYN(t *testing.T) {
	r := newTestRouter(t, nil)
	path := pathid.New(7, 1)
	syn := &netsim.Packet{Src: 1, Dst: 2, Size: 40, Kind: netsim.KindSYN, Path: path}
	r.Enqueue(syn, 1.0)
	r.Dequeue(1.0)
	data := &netsim.Packet{Src: 1, Dst: 2, Size: 1000, Kind: netsim.KindData, Path: path}
	r.Enqueue(data, 1.08)
	infos := r.PathInfos()
	if len(infos) != 1 {
		t.Fatal("path missing")
	}
	if rtt := infos[0].RTT; rtt < 0.079 || rtt > 0.081 {
		t.Fatalf("measured RTT = %v, want 0.08", rtt)
	}
}

func TestBlockedFlowsDropReason(t *testing.T) {
	r := newTestRouter(t, nil)
	d := &driver{r: r}
	path := pathid.New(7, 1)
	for i := 0; i < 4000; i++ {
		var pkts []*netsim.Packet
		for j := 0; j < 20; j++ {
			pkts = append(pkts, mkpkt(1, 2, 1000, path)) // 4000 pkt/s hog
		}
		d.step(0.005, pkts, 5)
	}
	if r.Drops(DropBlocked) == 0 {
		t.Fatal("extreme flow never blocked")
	}
}

func TestDropsAccessorBounds(t *testing.T) {
	r := newTestRouter(t, nil)
	if r.Drops(DropReason(250)) != 0 {
		t.Fatal("out-of-range reason should be 0")
	}
}

func mathMax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
