package tcpmodel

import (
	"math"
	"testing"
	"testing/quick"

	"floc/internal/units"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(b)) }

func TestPeakWindowRoundTrip(t *testing.T) {
	f := func(bw, rtt float64) bool {
		if math.IsNaN(bw) || math.IsInf(bw, 0) || math.IsNaN(rtt) || math.IsInf(rtt, 0) {
			return true
		}
		bw = 1 + math.Mod(math.Abs(bw), 1e6)
		rtt = 0.001 + math.Mod(math.Abs(rtt), 10)
		w := PeakWindow(units.PacketsPerSec(bw), rtt)
		return almost(float64(FlowBandwidth(w, rtt)), bw, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowBandwidthZeroRTT(t *testing.T) {
	if got := FlowBandwidth(10, 0); got != 0 {
		t.Fatalf("FlowBandwidth with zero RTT = %v", got)
	}
}

func TestComputeMatchesClosedForms(t *testing.T) {
	// Eq. IV.1: T = (2/3)*C*RTT^2/n^2; Eq. IV.2: N = C*T.
	const c, rtt = 6250.0, 0.1 // 6250 pkts/s ~ 50 Mb/s of 1KB packets
	const n = 25
	p, err := Compute(c, n, rtt)
	if err != nil {
		t.Fatal(err)
	}
	wantT := (2.0 / 3.0) * c * rtt * rtt / (n * n)
	if !almost(p.Period, wantT, 1e-12) {
		t.Fatalf("Period = %v, want %v", p.Period, wantT)
	}
	if !almost(p.Bucket, c*wantT, 1e-12) {
		t.Fatalf("Bucket = %v, want %v", p.Bucket, c*wantT)
	}
	if !almost(p.RefMTD, n*wantT, 1e-12) {
		t.Fatalf("RefMTD = %v, want %v", p.RefMTD, float64(n)*wantT)
	}
	// Window consistency: W = 4*(c/n)*rtt/3 and RefMTD = (W/2)*rtt.
	wantW := 4 * (c / n) * rtt / 3
	if !almost(p.Window, wantW, 1e-12) {
		t.Fatalf("Window = %v, want %v", p.Window, wantW)
	}
	if !almost(p.RefMTD, p.Window/2*rtt, 1e-12) {
		t.Fatalf("RefMTD %v != (W/2)*RTT %v", p.RefMTD, p.Window/2*rtt)
	}
}

func TestComputeBurstBucketLargerAndShrinksWithN(t *testing.T) {
	prevRatio := math.Inf(1)
	for _, n := range []int{1, 4, 16, 64, 256} {
		p, err := Compute(1000, n, 0.08)
		if err != nil {
			t.Fatal(err)
		}
		if p.BucketBurst <= p.Bucket {
			t.Fatalf("n=%d: burst bucket %v not larger than ideal %v", n, p.BucketBurst, p.Bucket)
		}
		ratio := p.BucketBurst / p.Bucket
		if ratio >= prevRatio {
			t.Fatalf("n=%d: burst ratio %v did not shrink from %v", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestComputeBurstRatioFormula(t *testing.T) {
	// ratio - 1 = Epsilon * cv = sqrt(12) * (1/(4*sqrt(3))) / (0.75*sqrt(n))
	//           = (1/sqrt(n)) * sqrt(12)/(3*sqrt(3)) = 2/(3*sqrt(n)).
	for _, n := range []int{1, 9, 100} {
		p, err := Compute(500, n, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 + 2.0/(3*math.Sqrt(float64(n)))
		if !almost(p.BucketBurst/p.Bucket, want, 1e-9) {
			t.Fatalf("n=%d: burst ratio %v, want %v", n, p.BucketBurst/p.Bucket, want)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	cases := []struct {
		c   units.PacketsPerSec
		n   int
		rtt float64
	}{
		{0, 1, 0.1}, {-1, 1, 0.1}, {1, 0, 0.1}, {1, -2, 0.1}, {1, 1, 0}, {1, 1, -0.5},
	}
	for _, tc := range cases {
		if _, err := Compute(tc.c, tc.n, tc.rtt); err == nil {
			t.Errorf("Compute(%v, %d, %v) did not error", tc.c, tc.n, tc.rtt)
		}
	}
}

func TestDropRatioKnownValues(t *testing.T) {
	// W=8: gamma = 8/(3*8*10) = 1/30.
	if got := DropRatio(8); !almost(got, 1.0/30.0, 1e-12) {
		t.Fatalf("DropRatio(8) = %v", got)
	}
	if got := DropRatio(0); got != 1 {
		t.Fatalf("DropRatio(0) = %v, want 1", got)
	}
	if got := DropRatio(-3); got != 1 {
		t.Fatalf("DropRatio(-3) = %v, want 1", got)
	}
}

func TestDropRatioMonotoneDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for w := 1.0; w <= 1000; w *= 2 {
		g := DropRatio(w)
		if g >= prev {
			t.Fatalf("DropRatio not decreasing at W=%v", w)
		}
		prev = g
	}
}

func TestWindowFromDropRatioInvertsDropRatio(t *testing.T) {
	for _, w := range []float64{2, 5, 10, 40, 100, 500} {
		g := DropRatio(w)
		got := WindowFromDropRatio(g)
		if !almost(got, w, 1e-9) {
			t.Fatalf("WindowFromDropRatio(DropRatio(%v)) = %v", w, got)
		}
	}
}

func TestWindowFromDropRatioEdges(t *testing.T) {
	if got := WindowFromDropRatio(0); !math.IsInf(got, 1) {
		t.Fatalf("gamma=0 should give +Inf window, got %v", got)
	}
	if got := WindowFromDropRatio(1); got != smallestWindow {
		t.Fatalf("gamma=1 should clamp to smallest window, got %v", got)
	}
	if got := WindowFromDropRatio(2); got != smallestWindow {
		t.Fatalf("gamma>1 should clamp, got %v", got)
	}
}

func TestEstimateFlowsConsistentWithCompute(t *testing.T) {
	// If n flows share c at rtt with implied window W, EstimateFlows must
	// recover n from (c, rtt, W).
	for _, n := range []int{1, 10, 30, 120} {
		p, err := Compute(2000, n, 0.12)
		if err != nil {
			t.Fatal(err)
		}
		if got := EstimateFlows(2000, 0.12, p.Window); !almost(got, float64(n), 1e-9) {
			t.Fatalf("EstimateFlows = %v, want %d", got, n)
		}
	}
	if got := EstimateFlows(100, 0.1, 0); got != 0 {
		t.Fatalf("EstimateFlows with zero window = %v", got)
	}
}

func TestMTD(t *testing.T) {
	if got := MTD(20, 0.1); !almost(got, 1.0, 1e-12) {
		t.Fatalf("MTD(20, 0.1) = %v, want 1", got)
	}
}

func TestDropRate(t *testing.T) {
	if got := DropRate(1000, 0.01); got != 10 {
		t.Fatalf("DropRate = %v", got)
	}
}

func TestAggregateRequestUnsyncFlat(t *testing.T) {
	for _, phase := range []float64{0, 0.25, 0.5, 0.99} {
		got := AggregateRequest(Unsynchronized, 10, 8, phase)
		if !almost(got, 10*0.75*8, 1e-12) {
			t.Fatalf("unsync request at phase %v = %v", phase, got)
		}
	}
}

func TestAggregateRequestSyncRange(t *testing.T) {
	n, w := 10, 8.0
	lo := AggregateRequest(Synchronized, n, w, 0)
	hi := AggregateRequest(Synchronized, n, w, 0.999999)
	if !almost(lo, float64(n)*w/2, 1e-9) {
		t.Fatalf("sync min = %v, want %v", lo, float64(n)*w/2)
	}
	if !almost(hi, float64(n)*w, 1e-3) {
		t.Fatalf("sync max = %v, want ~%v", hi, float64(n)*w)
	}
	// Peak-to-trough ratio is 2, as the paper states.
	if !almost(hi/lo, 2, 1e-3) {
		t.Fatalf("sync peak/trough = %v, want 2", hi/lo)
	}
}

func TestAggregateRequestPartialBetween(t *testing.T) {
	n, w := 20, 16.0
	for _, phase := range []float64{0.1, 0.5, 0.9} {
		s := AggregateRequest(Synchronized, n, w, phase)
		u := AggregateRequest(Unsynchronized, n, w, phase)
		p := AggregateRequest(PartiallySynchronized, n, w, phase)
		lo, hi := math.Min(s, u), math.Max(s, u)
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Fatalf("partial request %v outside [%v, %v] at phase %v", p, lo, hi, phase)
		}
	}
}

func TestAggregateRequestPhaseWraps(t *testing.T) {
	a := AggregateRequest(Synchronized, 5, 10, 0.25)
	b := AggregateRequest(Synchronized, 5, 10, 1.25)
	if !almost(a, b, 1e-12) {
		t.Fatalf("phase did not wrap: %v vs %v", a, b)
	}
}

func TestAggregateRequestUnknownMode(t *testing.T) {
	if got := AggregateRequest(SyncMode(0), 5, 10, 0.5); got != 0 {
		t.Fatalf("unknown mode = %v, want 0", got)
	}
}

func TestUtilizationUnderSync(t *testing.T) {
	if UtilizationUnderSync(Unsynchronized) != 1.0 {
		t.Fatal("unsync utilization != 1")
	}
	if UtilizationUnderSync(Synchronized) != 0.75 {
		t.Fatal("sync utilization != 3/4")
	}
	u := UtilizationUnderSync(PartiallySynchronized)
	if u <= 0.75 || u >= 1 {
		t.Fatalf("partial utilization %v not in (0.75, 1)", u)
	}
}

func TestSyncBucketFactor(t *testing.T) {
	if got := SyncBucketFactor(); !almost(got, 4.0/3.0, 1e-15) {
		t.Fatalf("SyncBucketFactor = %v", got)
	}
}

func TestSyncModeString(t *testing.T) {
	cases := map[SyncMode]string{
		Unsynchronized:        "unsynchronized",
		Synchronized:          "synchronized",
		PartiallySynchronized: "partially-synchronized",
		SyncMode(42):          "SyncMode(42)",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(mode), got, want)
		}
	}
}
