package tokenbucket

import (
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, period, size float64) *Bucket {
	t.Helper()
	b, err := New(period, size)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tokensAt returns what a take at now finds: the bucket's tokens once it
// has advanced to now.
func tokensAt(b *Bucket, now float64) float64 {
	b.advance(now)
	return b.tokens
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ period, size float64 }{
		{0, 1}, {-1, 1}, {1, 0}, {1, -5},
	} {
		if _, err := New(tc.period, tc.size); err == nil {
			t.Errorf("New(%v, %v) accepted", tc.period, tc.size)
		}
	}
}

func TestTakeWithinPeriod(t *testing.T) {
	b := mustNew(t, 1.0, 10)
	for i := 0; i < 10; i++ {
		if !b.Take(0.5, 1) {
			t.Fatalf("take %d denied with tokens available", i)
		}
	}
	if b.Take(0.9, 1) {
		t.Fatal("11th take in one period admitted")
	}
	if got := tokensAt(b, 0.95); got != 0 {
		t.Fatalf("tokens = %v", got)
	}
}

func TestPeriodRefillDiscardsUnused(t *testing.T) {
	b := mustNew(t, 1.0, 10)
	b.Take(0, 3) // 7 left
	// After rollover, exactly size tokens again — unused 7 do not carry.
	if got := tokensAt(b, 1.0); got != 10 {
		t.Fatalf("tokens after rollover = %v, want 10", got)
	}
	// Burst of the full budget succeeds right at period start.
	if !b.Take(1.0, 10) {
		t.Fatal("full-size burst denied at period start")
	}
}

func TestMultiplePeriodsSkipped(t *testing.T) {
	b := mustNew(t, 0.5, 4)
	b.Take(0, 4)
	if b.Take(0.1, 1) {
		t.Fatal("over-budget take admitted")
	}
	// Jump 10 periods ahead: the period grid stays anchored at the first
	// take, so the current period starts at 5.0 and the next at 5.5.
	if !b.Take(5.0, 4) {
		t.Fatal("take after long idle denied")
	}
	if b.periodStart != 5.0 {
		t.Fatalf("period starts at %v, want 5", b.periodStart)
	}
	if b.Take(5.49, 1) {
		t.Fatal("take before the next boundary refilled the bucket")
	}
	if !b.Take(5.5, 4) {
		t.Fatal("take at the next boundary denied")
	}
}

func TestTimeGoingBackwardsIgnored(t *testing.T) {
	b := mustNew(t, 1.0, 5)
	b.Take(10, 5)
	if b.Take(9, 1) {
		t.Fatal("stale-time take refilled the bucket")
	}
}

func TestSetParams(t *testing.T) {
	b := mustNew(t, 1.0, 10)
	b.Take(0, 2) // 8 left
	if err := b.SetParams(1.0, 5); err != nil {
		t.Fatal(err)
	}
	// Remaining tokens clamped to the new, smaller size.
	if got := tokensAt(b, 0.5); got != 5 {
		t.Fatalf("tokens after shrink = %v, want 5", got)
	}
	if err := b.SetParams(0, 5); err == nil {
		t.Fatal("bad period accepted")
	}
	if err := b.SetParams(1, -1); err == nil {
		t.Fatal("bad size accepted")
	}
	if b.Period() != 1.0 || b.size != 5 {
		t.Fatal("failed SetParams mutated state")
	}
}

// TestRate: the long-run admitted rate is size/period tokens a second,
// however finely the requests arrive.
func TestRate(t *testing.T) {
	b := mustNew(t, 0.25, 10)
	admitted := 0
	for i := 0; i < 10000; i++ { // one request a millisecond for 10 s
		if b.Take(float64(i)*0.001, 1) {
			admitted++
		}
	}
	if admitted != 400 {
		t.Fatalf("admitted %d tokens in 10 s, want 40/s", admitted)
	}
}

// TestStatsAndReset: a denied take consumes nothing, and a smaller take
// afterwards still finds the tokens the denied one left.
func TestStatsAndReset(t *testing.T) {
	b := mustNew(t, 1.0, 2)
	b.Take(0, 1)
	if b.Take(0, 1.5) {
		t.Fatal("take of 1.5 granted with 1 token left")
	}
	if b.tokens != 1 {
		t.Fatalf("tokens = %v after a denial, want 1", b.tokens)
	}
	if !b.Take(0, 1) || b.tokens != 0 {
		t.Fatalf("last token not granted (tokens %v)", b.tokens)
	}
}

// TestPeriodRequested: periods start at the first take, not at time 0, so
// a bucket first used mid-period keeps what is left of its tokens for a
// whole period and refills only then.
func TestPeriodRequested(t *testing.T) {
	b := mustNew(t, 1.0, 5)
	b.Take(0.1, 2)
	b.Take(0.2, 4) // denied
	if got := tokensAt(b, 1.05); got != 3 {
		t.Fatalf("tokens at 1.05 = %v, want 3", got)
	}
	if got := tokensAt(b, 1.1); got != 5 {
		t.Fatalf("tokens after rollover at 1.1 = %v, want 5", got)
	}
}

// Property: over k whole periods, the number of admitted unit-tokens never
// exceeds k*size, no matter the request pattern.
func TestAdmissionBoundedProperty(t *testing.T) {
	f := func(times []uint16) bool {
		const period, size = 1.0, 7.0
		b, err := New(period, size)
		if err != nil {
			return false
		}
		admitted := 0
		maxT := 0.0
		for _, raw := range times {
			tm := float64(raw) / 1000.0 // 0 .. 65.5 seconds, non-monotone ok
			if tm > maxT {
				maxT = tm
			}
			if b.Take(tm, 1) {
				admitted++
			}
		}
		periods := int(maxT/period) + 1
		return float64(admitted) <= float64(periods)*size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionalTokens(t *testing.T) {
	b := mustNew(t, 1.0, 1.5)
	if !b.Take(0, 1.5) {
		t.Fatal("fractional full take denied")
	}
	if b.Take(0.1, 0.1) {
		t.Fatal("empty bucket admitted fractional take")
	}
}
