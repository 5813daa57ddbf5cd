// Benchmarks regenerating every figure of the paper's evaluation, one
// bench per figure, at a reduced scale that preserves every rate ratio
// (per-flow fair shares, attack-to-capacity ratios). Run cmd/flocsim at
// -scale 1.0 for paper-scale numbers; run these with
//
//	go test -run '^$' -bench=. -benchmem ./internal/experiments
//
// for quick regeneration and performance tracking. Each bench reports
// the figure's headline metric as a custom benchmark metric so shape
// regressions are visible in benchmark output.
//
// The ablation benches run the same CBR attack scenario with individual
// mechanisms disabled (DESIGN.md "design deviations" 3, 4 and 6),
// reporting the legitimate-path and attack shares; compare them against
// BenchmarkFig6b (full FLoc).
package experiments

import (
	"testing"
)

// benchScale keeps one iteration around a second.
const benchScale = 0.05

func benchScenario(def DefenseKind, atk AttackKind) Scenario {
	sc := DefaultScenario(def, atk, benchScale)
	sc.Duration = 25
	sc.MeasureFrom = 10
	return sc
}

// BenchmarkFig2 regenerates the service-vs-drop-rate motivation data.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig2(benchScale, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates the packet-size distribution.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig3(benchScale, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates the token-request model curves.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := Fig4(10, 8); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// benchFig6 runs one attack-confinement scenario and reports the mean
// legitimate-path share.
func benchFig6(b *testing.B, kind AttackKind) {
	b.Helper()
	var share float64
	for i := 0; i < b.N; i++ {
		m, err := Run(benchScenario(DefFLoc, kind))
		if err != nil {
			b.Fatal(err)
		}
		share = m.ClassShare(ClassLegitLegit)
	}
	b.ReportMetric(share, "legit_share")
}

// BenchmarkFig6a: high-population TCP attack confinement.
func BenchmarkFig6a(b *testing.B) { benchFig6(b, AttackTCPPop) }

// BenchmarkFig6b: CBR attack confinement.
func BenchmarkFig6b(b *testing.B) { benchFig6(b, AttackCBR) }

// BenchmarkFig6c: Shrew attack confinement.
func BenchmarkFig6c(b *testing.B) { benchFig6(b, AttackShrew) }

// BenchmarkFig7 regenerates the robustness CDF comparison (one attack
// rate per defense to keep iterations bounded).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := Run(benchScenario(DefFLoc, AttackCBR))
		if err != nil {
			b.Fatal(err)
		}
		cdf := m.FlowBandwidthCDF(ClassLegitLegit)
		if i == b.N-1 {
			b.ReportMetric(cdf.Quantile(0.5)/1e6, "p50_mbps")
		}
	}
}

// BenchmarkFig8 regenerates the differential-guarantee comparison at one
// attack rate for all three defenses.
func BenchmarkFig8(b *testing.B) {
	var legit float64
	for i := 0; i < b.N; i++ {
		for _, def := range []DefenseKind{DefFLoc, DefPushback, DefREDPD} {
			sc := benchScenario(def, AttackCBR)
			if def == DefFLoc {
				sc.SMax = 25
			}
			m, err := Run(sc)
			if err != nil {
				b.Fatal(err)
			}
			if def == DefFLoc {
				legit = m.ClassShare(ClassLegitLegit)
			}
		}
	}
	b.ReportMetric(legit, "floc_legit_share")
}

// BenchmarkFig9 regenerates the legitimate-path aggregation comparison.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScenario(DefFLoc, AttackCBR)
		sc.SMax = 25
		sc.LegitAgg = true
		sc.SmallLeaves = []int{6, 7, 8}
		if _, err := Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates the covert-attack comparison at one fanout.
func BenchmarkFig10(b *testing.B) {
	var legit float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(DefFLoc, AttackCovert)
		sc.AttackRateBits = 0.2e6
		sc.CovertFanout = 8
		sc.NMax = 2
		m, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		legit = m.ClassShare(ClassLegitLegit) + m.ClassShare(ClassLegitAttackPath)
	}
	b.ReportMetric(legit, "legit_share")
}

// BenchmarkTopogen regenerates the Fig. 11/12 topology summaries.
func BenchmarkTopogen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := FigTopology(100, false, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInet runs one Internet-scale figure at reduced scale.
func benchInet(b *testing.B, figure string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg, err := DefaultInetFigConfig(figure, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Profiles = cfg.Profiles[:1] // one profile per iteration
		cfg.Ticks = 300
		cfg.WarmupTicks = 100
		tab, err := FigInternet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig13: Internet-scale, attackers in 100 ASes.
func BenchmarkFig13(b *testing.B) { benchInet(b, "fig13") }

// BenchmarkFig14: Internet-scale, attackers in 300 ASes.
func BenchmarkFig14(b *testing.B) { benchInet(b, "fig14") }

// BenchmarkFig15: Internet-scale, separated legitimate/attack ASes.
func BenchmarkFig15(b *testing.B) { benchInet(b, "fig15") }

func benchAblation(b *testing.B, mutate func(*Scenario)) {
	b.Helper()
	var legit, attack float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(DefFLoc, AttackCBR)
		mutate(&sc)
		m, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		legit = m.ClassShare(ClassLegitLegit)
		attack = m.ClassShare(ClassAttack)
	}
	b.ReportMetric(legit, "legit_share")
	b.ReportMetric(attack, "attack_share")
}

// BenchmarkAblationFull is the reference: all mechanisms on.
func BenchmarkAblationFull(b *testing.B) {
	benchAblation(b, func(sc *Scenario) {})
}

// BenchmarkAblationNoPreferentialDrop: per-path token buckets only.
// Expect legitimate flows inside attack paths to lose their protection.
func BenchmarkAblationNoPreferentialDrop(b *testing.B) {
	benchAblation(b, func(sc *Scenario) { sc.NoPreferentialDrop = true })
}

// BenchmarkAblationNoEscalation: attack flows pinned at fair share but
// never pushed below it. Expect a higher attack share at high rates.
func BenchmarkAblationNoEscalation(b *testing.B) {
	benchAblation(b, func(sc *Scenario) { sc.NoEscalation = true })
}

// BenchmarkAblationWithAggregation: attack-path aggregation on
// (|S|max = 25). Expect a higher legitimate-path share.
func BenchmarkAblationWithAggregation(b *testing.B) {
	benchAblation(b, func(sc *Scenario) { sc.SMax = 25 })
}

// BenchmarkAblationScalableMode runs FLoc with the full Section V-B
// efficient design (drop-ratio flow counting, probabilistic filter
// updates, probabilistic array selection). Outcomes should stay close to
// the reference: the scalable design trades memory/accesses, not
// protection.
func BenchmarkAblationScalableMode(b *testing.B) {
	benchAblation(b, func(sc *Scenario) { sc.ScalableMode = true })
}
