package experiments

import (
	"strings"
	"testing"
)

// testScale keeps experiment tests fast: a 50 Mb/s target link, 3 legit
// sources per leaf, 6 bots per attack leaf.
const testScale = 0.1

// skipIfShort marks a test that runs a full (multi-second) simulation.
// The race gate in scripts/check.sh uses -short because race
// instrumentation slows these runs ~15x, blowing the package timeout;
// the simulations themselves are single-threaded, so they add no race
// coverage beyond what the fast tests already exercise.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full simulation run; skipped in -short mode")
	}
}

func shortScenario(def DefenseKind, atk AttackKind) Scenario {
	sc := DefaultScenario(def, atk, testScale)
	sc.Duration = 30
	sc.MeasureFrom = 10
	return sc
}

func TestRunValidation(t *testing.T) {
	sc := shortScenario(DefFLoc, AttackCBR)
	sc.Scale = 0
	if _, err := Run(sc); err == nil {
		t.Fatal("zero scale accepted")
	}
	sc = shortScenario(DefFLoc, AttackCBR)
	sc.Duration = 5
	sc.MeasureFrom = 10
	if _, err := Run(sc); err == nil {
		t.Fatal("inverted window accepted")
	}
	sc = shortScenario("bogus", AttackCBR)
	if _, err := Run(sc); err == nil {
		t.Fatal("unknown defense accepted")
	}
	sc = shortScenario(DefFLoc, "bogus")
	if _, err := Run(sc); err == nil {
		t.Fatal("unknown attack accepted")
	}
}

func TestNoAttackBaselineHealthy(t *testing.T) {
	skipIfShort(t)
	m, err := Run(shortScenario(DefRED, AttackNone))
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization < 0.7 {
		t.Fatalf("no-attack utilization = %v", m.Utilization)
	}
	if got := m.ClassShare(ClassAttack); got != 0 {
		t.Fatalf("attack share without attack = %v", got)
	}
	cdf := m.FlowBandwidthCDF(ClassLegitLegit)
	if cdf.N() < 50 {
		t.Fatalf("too few measured flows: %d", cdf.N())
	}
	// Fair share is ~0.617 Mb/s per flow; the median should be in a
	// plausible band around it.
	if med := cdf.Quantile(0.5); med < 0.2e6 || med > 1.5e6 {
		t.Fatalf("median flow bandwidth = %v", med)
	}
}

func TestFLocConfinesCBRAttack(t *testing.T) {
	skipIfShort(t)
	floc, err := Run(shortScenario(DefFLoc, AttackCBR))
	if err != nil {
		t.Fatal(err)
	}
	nd, err := Run(shortScenario(DefDropTail, AttackCBR))
	if err != nil {
		t.Fatal(err)
	}
	// No defense: the 144% overload CBR attack takes essentially the
	// whole link.
	if nd.ClassShare(ClassLegitLegit) > 0.15 {
		t.Fatalf("droptail legit share = %v, attack too weak", nd.ClassShare(ClassLegitLegit))
	}
	// FLoc: legitimate paths keep the great majority of the link (paper
	// Fig. 8: ~84%).
	if got := floc.ClassShare(ClassLegitLegit); got < 0.6 {
		t.Fatalf("FLoc legit share = %v, want >= 0.6", got)
	}
	// Attack flows confined well below their offered 144%.
	if got := floc.ClassShare(ClassAttack); got > 0.3 {
		t.Fatalf("FLoc attack share = %v, want <= 0.3", got)
	}
	if floc.Utilization < 0.8 {
		t.Fatalf("FLoc wastes the link: utilization %v", floc.Utilization)
	}
}

func TestFLocDifferentialGuaranteesWithinAttackPaths(t *testing.T) {
	skipIfShort(t)
	m, err := Run(shortScenario(DefFLoc, AttackCBR))
	if err != nil {
		t.Fatal(err)
	}
	legit := m.FlowBandwidthCDF(ClassLegitAttackPath)
	attack := m.FlowBandwidthCDF(ClassAttack)
	if legit.N() == 0 || attack.N() == 0 {
		t.Fatalf("missing flows: legit=%d attack=%d", legit.N(), attack.N())
	}
	// Paper: "legitimate flows of contaminated domains are guaranteed
	// substantially higher bandwidth than attack flows" (per flow).
	if legit.Mean() <= attack.Mean() {
		t.Fatalf("per-flow differential failed: legit %v <= attack %v", legit.Mean(), attack.Mean())
	}
	// And no legitimate flow is denied service outright.
	if legit.Quantile(0.1) <= 0 {
		t.Fatalf("some legit attack-path flows fully starved: p10=%v", legit.Quantile(0.1))
	}
}

func TestFLocAttackPathsFlagged(t *testing.T) {
	skipIfShort(t)
	m, err := Run(shortScenario(DefFLoc, AttackCBR))
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, p := range m.FLocPaths {
		if p.Attack {
			flagged[p.Key] = true
		}
	}
	for key := range m.AttackPathKeys {
		if !flagged[key] {
			t.Errorf("contaminated path %s not flagged", key)
		}
	}
	// At most one transiently misflagged legitimate path.
	extra := 0
	for key := range flagged {
		if !m.AttackPathKeys[key] {
			extra++
		}
	}
	if extra > 2 {
		t.Fatalf("%d legitimate paths misflagged", extra)
	}
}

func TestFLocShrewHandledLikeCBR(t *testing.T) {
	skipIfShort(t)
	shrew, err := Run(shortScenario(DefFLoc, AttackShrew))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "the Shrew attack is handled at least as well as the CBR
	// attack" — legit share stays high.
	if got := shrew.ClassShare(ClassLegitLegit); got < 0.55 {
		t.Fatalf("FLoc legit share under Shrew = %v", got)
	}
}

func TestFLocHighPopulationTCPEqualPaths(t *testing.T) {
	skipIfShort(t)
	m, err := Run(shortScenario(DefFLoc, AttackTCPPop))
	if err != nil {
		t.Fatal(err)
	}
	// Per-path bandwidths should be nearly identical regardless of
	// population (paper Fig. 6(a)): compare mean path bandwidth of
	// attack vs legit paths over the window.
	var legitSum, atkSum float64
	var legitN, atkN int
	for key := range m.PerPathBits {
		bw := m.PathBandwidth(key, 10, 30)
		if m.AttackPathKeys[key] {
			atkSum += bw
			atkN++
		} else {
			legitSum += bw
			legitN++
		}
	}
	if legitN == 0 || atkN == 0 {
		t.Fatal("paths missing")
	}
	legitMean, atkMean := legitSum/float64(legitN), atkSum/float64(atkN)
	ratio := atkMean / legitMean
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("per-path bandwidth not equalized: attack/legit = %v", ratio)
	}
}

func TestFLocAggregationUnderSMax(t *testing.T) {
	skipIfShort(t)
	sc := shortScenario(DefFLoc, AttackCBR)
	sc.SMax = 25
	m, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.FLocAggregates) == 0 {
		t.Fatal("no aggregates despite SMax=25 and 27 paths")
	}
	aggregated := 0
	for _, members := range m.FLocAggregates {
		aggregated += len(members)
		for _, member := range members {
			if !m.AttackPathKeys[member] {
				t.Errorf("legit path %s aggregated", member)
			}
		}
	}
	if aggregated < 2 {
		t.Fatalf("only %d paths aggregated", aggregated)
	}
}

func TestCovertAttackCountermeasure(t *testing.T) {
	skipIfShort(t)
	// Fanout 8 at 0.2 Mb/s per flow: each source sends 1.6 Mb/s spread
	// over 8 "legitimate-looking" flows.
	base := shortScenario(DefFLoc, AttackCovert)
	base.AttackRateBits = 0.2e6
	base.CovertFanout = 8

	withNMax := base
	withNMax.NMax = 2
	protected, err := Run(withNMax)
	if err != nil {
		t.Fatal(err)
	}
	unprotected, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// The n_max capability restriction must reduce the covert attack's
	// take.
	pa, ua := protected.ClassShare(ClassAttack), unprotected.ClassShare(ClassAttack)
	if pa >= ua {
		t.Fatalf("n_max did not help: attack share %v (nmax=2) vs %v (off)", pa, ua)
	}
	legit := protected.ClassShare(ClassLegitLegit) + protected.ClassShare(ClassLegitAttackPath)
	if legit < 0.5 {
		t.Fatalf("legit share under covert attack with nmax: %v", legit)
	}
}

func TestFig4ModelTable(t *testing.T) {
	tab := Fig4(10, 8)
	if len(tab.Rows) != 22 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := tab.String()
	if !strings.Contains(out, "Fig.4") || !strings.Contains(out, "utilization") {
		t.Fatalf("bad rendering:\n%s", out)
	}
	// Unsynchronized column is flat; synchronized ranges [nW/2, nW].
	first, last := tab.Rows[0], tab.Rows[19]
	if first.Label != "phase=0.00" || first.Values[0] != 60 {
		t.Fatalf("first row %s %v, want phase=0.00 at 60 (3/4 of nW)", first.Label, first.Values[0])
	}
	if first.Values[0] != last.Values[0] {
		t.Fatal("unsync request not flat")
	}
	if first.Values[1] >= last.Values[1] {
		t.Fatal("sync request not increasing")
	}
}

func TestFig2And3Smoke(t *testing.T) {
	skipIfShort(t)
	t2, err := Fig2(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) < 10 {
		t.Fatalf("fig2 rows = %d", len(t2.Rows))
	}
	// Service rate must dwarf drop rate for legitimate TCP (paper Fig. 2).
	var svc, drop float64
	for _, r := range t2.Rows {
		svc += r.Values[0]
		drop += r.Values[1]
	}
	if svc <= 10*drop {
		t.Fatalf("service %v not >> drops %v", svc, drop)
	}

	t3, err := Fig3(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) < 2 {
		t.Fatalf("fig3 rows = %d", len(t3.Rows))
	}
	// The distribution must include both control-sized and full-sized
	// packets.
	var small, big bool
	for _, r := range t3.Rows {
		if r.Values[0] < 100 {
			small = true
		}
		if r.Values[0] > 1200 {
			big = true
		}
	}
	if !small || !big {
		t.Fatalf("size mix missing: small=%v big=%v", small, big)
	}
}

func TestScaleCount(t *testing.T) {
	if scaleCount(30, 0.1) != 3 || scaleCount(30, 1) != 30 || scaleCount(1, 0.01) != 1 {
		t.Fatal("scaleCount wrong")
	}
}

func TestAttackLeaves(t *testing.T) {
	leaves := attackLeavesFor(27)
	if len(leaves) != 6 {
		t.Fatalf("attack leaves = %v", leaves)
	}
	if len(attackLeavesFor(3)) != 2 || len(attackLeavesFor(1)) != 1 {
		t.Fatal("degenerate cases wrong")
	}
}

func TestFlowClassString(t *testing.T) {
	if ClassLegitLegit.String() == "" || ClassAttack.String() == "" ||
		ClassLegitAttackPath.String() == "" || FlowClass(9).String() != "unknown" {
		t.Fatal("class strings wrong")
	}
}

func TestFigInternetSmoke(t *testing.T) {
	cfg, err := DefaultInetFigConfig("fig13", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profiles = cfg.Profiles[:1]
	cfg.Ticks = 200
	cfg.WarmupTicks = 80
	tab, err := FigInternet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(InetScenarios()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Shape: FLoc-NA legit share beats ND's.
	var nd, na float64
	for _, r := range tab.Rows {
		legit := r.Values[0] + r.Values[1]
		switch {
		case len(r.Label) >= 2 && r.Label[len(r.Label)-2:] == "ND":
			nd = legit
		case len(r.Label) >= 7 && r.Label[len(r.Label)-7:] == "FLoc-NA":
			na = legit
		}
	}
	if na <= nd {
		t.Fatalf("FLoc-NA (%v) did not beat ND (%v)", na, nd)
	}
	// Invalid scale rejected.
	cfg.Scale = 0
	if _, err := FigInternet(cfg); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestFigInternetConfigs(t *testing.T) {
	for _, fig := range []string{"fig13", "fig14", "fig15"} {
		cfg, err := DefaultInetFigConfig(fig, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if fig == "fig14" && cfg.AttackASes != 300 {
			t.Fatalf("fig14 attack ASes = %d", cfg.AttackASes)
		}
		if fig == "fig15" && !cfg.Separated {
			t.Fatal("fig15 not separated")
		}
	}
	if _, err := DefaultInetFigConfig("fig1", 0.1); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigTopologySmoke(t *testing.T) {
	tab, err := FigTopology(100, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.Values[2] != 100 {
			t.Fatalf("attack ASes = %v", r.Values[2])
		}
	}
}

// TestFigTopologySeparated covers the Fig. 15 placement: with legitimate
// sources kept out of attack ASes no AS holds both.
func TestFigTopologySeparated(t *testing.T) {
	tab, err := FigTopology(100, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.Values[4] != 0 {
			t.Fatalf("%s: overlap ASes = %v, want 0 when separated", r.Label, r.Values[4])
		}
	}
}

func TestAblationFlagsPlumbed(t *testing.T) {
	skipIfShort(t)
	sc := shortScenario(DefFLoc, AttackCBR)
	sc.NoPreferentialDrop = true
	sc.NoEscalation = true
	m, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Without preferential drops, per-path guarantees still confine the
	// attack to roughly its aggregate path allocation (6/27).
	if got := m.ClassShare(ClassAttack); got > 0.35 {
		t.Fatalf("attack share without pref drops = %v", got)
	}
	if got := m.ClassShare(ClassLegitLegit); got < 0.5 {
		t.Fatalf("legit share without pref drops = %v", got)
	}
}

func TestPushbackUpstreamPropagation(t *testing.T) {
	skipIfShort(t)
	local := shortScenario(DefPushback, AttackCBR)
	lm, err := Run(local)
	if err != nil {
		t.Fatal(err)
	}
	up := local
	up.PushbackUpstream = true
	um, err := Run(up)
	if err != nil {
		t.Fatal(err)
	}
	if lm.PushbackUpstreamDrops != 0 {
		t.Fatalf("local mode reports upstream drops: %d", lm.PushbackUpstreamDrops)
	}
	if um.PushbackUpstreamDrops == 0 {
		t.Fatal("upstream mode shed nothing upstream")
	}
	// Shedding upstream must not make the bottleneck outcome worse for
	// legitimate traffic.
	if um.ClassShare(ClassLegitLegit) < lm.ClassShare(ClassLegitLegit)*0.7 {
		t.Fatalf("upstream mode hurt legit share: %v vs %v",
			um.ClassShare(ClassLegitLegit), lm.ClassShare(ClassLegitLegit))
	}
}

func TestTimedAttacksHandled(t *testing.T) {
	skipIfShort(t)
	// FLoc's MTD-based identification keys on behaviour, not sustained
	// volume, so timed attacks must not do materially better against it
	// than the steady CBR attack.
	for _, atk := range []AttackKind{AttackOnOff, AttackRolling} {
		m, err := Run(shortScenario(DefFLoc, atk))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.ClassShare(ClassLegitLegit); got < 0.55 {
			t.Fatalf("FLoc legit share under %s = %v", atk, got)
		}
		// The long-run attack average equals the CBR attack's; the
		// admitted share must stay bounded.
		if got := m.ClassShare(ClassAttack); got > 0.35 {
			t.Fatalf("attack share under %s = %v", atk, got)
		}
	}
}

func TestReplicate(t *testing.T) {
	skipIfShort(t)
	sc := shortScenario(DefFLoc, AttackCBR)
	sc.Duration = 15
	sc.MeasureFrom = 5
	rep, err := Replicate(sc, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Share[ClassLegitLegit].N() != 3 {
		t.Fatalf("runs = %d", rep.Share[ClassLegitLegit].N())
	}
	if rep.Share[ClassLegitLegit].Mean() <= 0 {
		t.Fatal("zero legit share across seeds")
	}
	row := rep.Row("floc")
	if len(row.Values) != len(ReplicationColumns) {
		t.Fatalf("row width %d != %d", len(row.Values), len(ReplicationColumns))
	}
	if _, err := Replicate(sc, nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestTableJSON(t *testing.T) {
	tab := Fig4(4, 8)
	out, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if !strings.Contains(s, `"title"`) || !strings.Contains(s, `"rows"`) {
		t.Fatalf("bad JSON: %s", s[:120])
	}
}

func TestScalableModePreservesConfinement(t *testing.T) {
	skipIfShort(t)
	// The Section V-B efficient design must preserve the headline
	// confinement result within a modest margin of the exact mode.
	exact, err := Run(shortScenario(DefFLoc, AttackCBR))
	if err != nil {
		t.Fatal(err)
	}
	sc := shortScenario(DefFLoc, AttackCBR)
	sc.ScalableMode = true
	scalable, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	e, s := exact.ClassShare(ClassLegitLegit), scalable.ClassShare(ClassLegitLegit)
	if s < e-0.2 {
		t.Fatalf("scalable mode lost confinement: %v vs exact %v", s, e)
	}
	if scalable.ClassShare(ClassAttack) > 0.4 {
		t.Fatalf("scalable mode attack share %v", scalable.ClassShare(ClassAttack))
	}
}

func TestFLocNoAttackFairnessComparableToRED(t *testing.T) {
	skipIfShort(t)
	// Paper Fig. 7: "FLoc provides per-flow fairness comparable to that
	// of the RED queue in the normal (no-attack) case".
	red, err := Run(shortScenario(DefRED, AttackNone))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := Run(shortScenario(DefFLoc, AttackNone))
	if err != nil {
		t.Fatal(err)
	}
	rc, fc := red.FlowBandwidthCDF(ClassLegitLegit), fl.FlowBandwidthCDF(ClassLegitLegit)
	if fc.N() == 0 {
		t.Fatal("no FLoc flows measured")
	}
	// Medians within 35% of each other and utilization comparable.
	ratio := fc.Quantile(0.5) / rc.Quantile(0.5)
	if ratio < 0.65 || ratio > 1.55 {
		t.Fatalf("median ratio FLoc/RED = %v", ratio)
	}
	if fl.Utilization < red.Utilization-0.15 {
		t.Fatalf("FLoc wastes capacity without attack: %v vs %v", fl.Utilization, red.Utilization)
	}
}

func TestRunDeterministic(t *testing.T) {
	skipIfShort(t)
	sc := shortScenario(DefFLoc, AttackCBR)
	sc.Duration = 15
	sc.MeasureFrom = 5
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range []FlowClass{ClassLegitLegit, ClassLegitAttackPath, ClassAttack} {
		if a.ClassShare(cls) != b.ClassShare(cls) {
			t.Fatalf("%v share differs across identical runs: %v vs %v",
				cls, a.ClassShare(cls), b.ClassShare(cls))
		}
	}
	if a.Utilization != b.Utilization {
		t.Fatalf("utilization differs: %v vs %v", a.Utilization, b.Utilization)
	}
	if len(a.FlowBits) != len(b.FlowBits) {
		t.Fatalf("flow counts differ: %d vs %d", len(a.FlowBits), len(b.FlowBits))
	}
	for f, bits := range a.FlowBits {
		if b.FlowBits[f] != bits {
			t.Fatalf("flow %v bits differ", f)
		}
	}
}
