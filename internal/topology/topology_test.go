package topology

import (
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/tcp"
)

func smallTreeCfg() TreeConfig {
	cfg := DefaultTreeConfig()
	cfg.TargetRateBits = 10e6
	cfg.InnerRateBits = 100e6
	cfg.BufferPackets = 200
	cfg.NumServers = 3
	return cfg
}

func TestNewTreeValidation(t *testing.T) {
	net := netsim.New(1)
	if _, err := NewTree(net, TreeConfig{Height: 0, Degree: 3, TargetRateBits: 1e6}, netsim.NewFIFO(10)); err == nil {
		t.Fatal("height 0 accepted")
	}
	cfg := smallTreeCfg()
	cfg.TargetRateBits = 0
	if _, err := NewTree(net, cfg, netsim.NewFIFO(10)); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewTree(net, smallTreeCfg(), nil); err == nil {
		t.Fatal("nil discipline accepted")
	}
}

func TestTreeShape(t *testing.T) {
	net := netsim.New(1)
	tr, err := NewTree(net, smallTreeCfg(), netsim.NewFIFO(100))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 27 {
		t.Fatalf("leaves = %d, want 27", tr.NumLeaves())
	}
	if len(tr.LeafPaths) != 27 {
		t.Fatalf("paths = %d", len(tr.LeafPaths))
	}
	seen := map[string]bool{}
	for _, p := range tr.LeafPaths {
		if p.Len() != 3 {
			t.Fatalf("path %v has length %d, want 3", p, p.Len())
		}
		if seen[p.Key()] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[p.Key()] = true
	}
	if len(tr.Servers) != 3 {
		t.Fatalf("servers = %d", len(tr.Servers))
	}
}

func TestTreePathsShareInfrastructure(t *testing.T) {
	net := netsim.New(1)
	tr, err := NewTree(net, smallTreeCfg(), netsim.NewFIFO(100))
	if err != nil {
		t.Fatal(err)
	}
	// Sibling leaves (0, 1, 2) share their two upper ASes.
	if tr.Path(0).SharedPostfix(tr.Path(1)) != 2 {
		t.Fatalf("siblings share %d hops: %v vs %v",
			tr.Path(0).SharedPostfix(tr.Path(1)), tr.Path(0), tr.Path(1))
	}
	// Leaves in different top-level subtrees share nothing.
	if tr.Path(0).SharedPostfix(tr.Path(26)) != 0 {
		t.Fatalf("distant leaves share hops: %v vs %v", tr.Path(0), tr.Path(26))
	}
}

func TestTreeEndToEndTCPTransfer(t *testing.T) {
	// A TCP flow from a leaf host to a server across the target link must
	// complete, proving forward and reverse routing work.
	net := netsim.New(3)
	tr, err := NewTree(net, smallTreeCfg(), netsim.NewFIFO(500))
	if err != nil {
		t.Fatal(err)
	}
	host, err := tr.AddHost(5)
	if err != nil {
		t.Fatal(err)
	}
	server := tr.Servers[0]
	src := tcp.NewSource(host, tcp.SourceConfig{
		Src: host.Addr, Dst: server.Addr, Path: tr.Path(5), TotalPackets: 200,
	})
	if err := host.Attach(server.Addr, src); err != nil {
		t.Fatal(err)
	}
	sink := tcp.NewSink(server, host.Addr, nil)
	if err := server.Attach(host.Addr, sink); err != nil {
		t.Fatal(err)
	}
	src.Start(net, 0)
	net.Run(60)
	if !src.Done() {
		t.Fatalf("transfer incomplete: sink got %d/200", sink.Expected())
	}
	// RTT sanity: ~5 forward hops and ~5 reverse hops of ~10 ms.
	if rtt := src.SRTT(); rtt < 0.03 || rtt > 0.4 {
		t.Fatalf("SRTT = %v, implausible for the tree", rtt)
	}
	if tr.Target.Stats().Delivered == 0 {
		t.Fatal("no packets crossed the target link")
	}
}

func TestTreeManyHostsDistinctAddrs(t *testing.T) {
	net := netsim.New(1)
	tr, err := NewTree(net, smallTreeCfg(), netsim.NewFIFO(100))
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[uint32]bool{}
	for leaf := 0; leaf < tr.NumLeaves(); leaf++ {
		for i := 0; i < 3; i++ {
			h, err := tr.AddHost(leaf)
			if err != nil {
				t.Fatal(err)
			}
			if addrs[h.Addr] {
				t.Fatalf("duplicate address %d", h.Addr)
			}
			addrs[h.Addr] = true
		}
	}
	if _, err := tr.AddHost(99); err == nil {
		t.Fatal("out-of-range leaf accepted")
	}
}

func TestGenerateInetValidation(t *testing.T) {
	bad := []func(*InetConfig){
		func(c *InetConfig) { c.TotalASes = 10 },
		func(c *InetConfig) { c.LegitASes = 0 },
		func(c *InetConfig) { c.AttackASes = 0 },
		func(c *InetConfig) { c.LegitSources = 0 },
		func(c *InetConfig) { c.OverlapFrac = 1.5 },
	}
	for i, mut := range bad {
		cfg := DefaultInetConfig(FRoot)
		mut(&cfg)
		if _, err := GenerateInet(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func smallInetCfg(p Profile) InetConfig {
	cfg := DefaultInetConfig(p)
	cfg.TotalASes = 300
	cfg.LegitASes = 50
	cfg.AttackASes = 25
	cfg.LegitSources = 1000
	cfg.AttackSources = 5000
	return cfg
}

func TestGenerateInetStructure(t *testing.T) {
	in, err := GenerateInet(smallInetCfg(FRoot))
	if err != nil {
		t.Fatal(err)
	}
	if len(in.ASes) != 300 {
		t.Fatalf("ASes = %d", len(in.ASes))
	}
	if len(in.Sources) != 6000 {
		t.Fatalf("sources = %d", len(in.Sources))
	}
	// Every AS path must walk parent links to the root.
	for i := range in.ASes {
		a := &in.ASes[i]
		if a.Path.Len() != a.Depth {
			t.Fatalf("AS %d: path length %d != depth %d", a.Num, a.Path.Len(), a.Depth)
		}
		if a.Path.Origin() != a.Num {
			t.Fatalf("AS %d: path origin %d", a.Num, a.Path.Origin())
		}
		last := a.Path[a.Path.Len()-1]
		if in.ASes[last-1].Parent != 0 {
			t.Fatalf("AS %d: path does not end at a root-adjacent AS", a.Num)
		}
	}
	st := in.Summarize()
	if st.AttackASes != 25 || st.LegitASes != 50 {
		t.Fatalf("stats = %+v", st)
	}
	// Source conservation.
	bots, legit := 0, 0
	for i := range in.ASes {
		bots += in.ASes[i].Bots
		legit += in.ASes[i].LegitHosts
	}
	if bots != 5000 || legit != 1000 {
		t.Fatalf("bots=%d legit=%d", bots, legit)
	}
}

func TestGenerateInetBotConcentration(t *testing.T) {
	in, err := GenerateInet(smallInetCfg(FRoot))
	if err != nil {
		t.Fatal(err)
	}
	st := in.Summarize()
	// CBL-like skew: the top 5% of attack ASes should hold a
	// disproportionate share of bots (far above the uniform 5%).
	if st.BotsInTop5PercentASesFrac < 0.2 {
		t.Fatalf("bot concentration %v too uniform", st.BotsInTop5PercentASesFrac)
	}
}

func TestGenerateInetOverlap(t *testing.T) {
	in, err := GenerateInet(smallInetCfg(FRoot))
	if err != nil {
		t.Fatal(err)
	}
	if in.Summarize().OverlapASes == 0 {
		t.Fatal("no overlap ASes despite OverlapFrac=0.3")
	}
	// Separated mode: no legit sources in attack ASes.
	cfg := smallInetCfg(FRoot)
	cfg.OverlapFrac = 0
	sep, err := GenerateInet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sep.Summarize().OverlapASes != 0 {
		t.Fatal("separated topology has overlap")
	}
}

func TestJPNAttackersFarther(t *testing.T) {
	fr, err := GenerateInet(smallInetCfg(FRoot))
	if err != nil {
		t.Fatal(err)
	}
	jp, err := GenerateInet(smallInetCfg(JPN))
	if err != nil {
		t.Fatal(err)
	}
	if jp.Summarize().MeanAttackDepth <= fr.Summarize().MeanAttackDepth {
		t.Fatalf("JPN attackers not farther: %v vs %v",
			jp.Summarize().MeanAttackDepth, fr.Summarize().MeanAttackDepth)
	}
}

func TestGenerateInetDeterministic(t *testing.T) {
	a, err := GenerateInet(smallInetCfg(HRoot))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateInet(smallInetCfg(HRoot))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sources) != len(b.Sources) {
		t.Fatal("source counts differ")
	}
	for i := range a.Sources {
		if a.Sources[i] != b.Sources[i] {
			t.Fatalf("source %d differs", i)
		}
	}
}

func TestProfileString(t *testing.T) {
	if FRoot.String() != "f-root" || HRoot.String() != "h-root" || JPN.String() != "jpn" {
		t.Fatal("profile names wrong")
	}
	if Profile(9).String() != "Profile(9)" {
		t.Fatal("unknown profile name wrong")
	}
}

var _ = pathid.New // keep import if unused in some builds
