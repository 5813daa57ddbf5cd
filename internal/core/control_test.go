package core

import (
	"math"
	"testing"

	"floc/internal/rng"
)

// TestSilentFlowRateRollIsExact: expirePath halves the rate meters of a
// flow that sent nothing this interval instead of calling rollRate with
// zero tokens. The two must agree to the bit for every rate a meter can
// hold — zero, subnormals, the largest finite value, infinity — and every
// control interval, or TestControlLoopGolden's digests would move with
// the shortcut.
func TestSilentFlowRateRollIsExact(t *testing.T) {
	rates := []float64{
		0, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), math.Nextafter(0x1p-1021, 0),
		1, math.Nextafter(1, 2), 1e-300, 1e300, math.MaxFloat64, math.Inf(1),
	}
	intervals := []float64{math.SmallestNonzeroFloat64, 1e-9, 0.05, 0.25, 1, 1e9, math.MaxFloat64}
	src := rng.New(1)
	for i := 0; i < 100_000; i++ {
		// Random bit patterns with the sign cleared: every exponent, not
		// only the ones a uniform draw favours.
		if rate := math.Float64frombits(src.Uint64() >> 1); !math.IsNaN(rate) {
			rates = append(rates, rate)
		}
	}
	for _, rate := range rates {
		for _, interval := range append(intervals, 1e-6+src.Float64()) {
			if got, want := 0.5*rate, rollRate(0, rate, interval); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rate %v (%#x), interval %v: halved %#x, rolled %#x",
					rate, math.Float64bits(rate), interval, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}
