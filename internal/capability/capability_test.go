package capability

import (
	"testing"
	"testing/quick"

	"floc/internal/pathid"
)

func newIssuer(t *testing.T, nmax int) *Issuer {
	t.Helper()
	is, err := NewIssuer([]byte("router-secret"), nmax)
	if err != nil {
		t.Fatal(err)
	}
	return is
}

func TestNewIssuerValidation(t *testing.T) {
	if _, err := NewIssuer(nil, 2); err == nil {
		t.Fatal("empty secret accepted")
	}
	if _, err := NewIssuer([]byte("k"), 0); err == nil {
		t.Fatal("nmax=0 accepted")
	}
	is := newIssuer(t, 3)
	if is.NMax() != 3 {
		t.Fatalf("NMax = %d", is.NMax())
	}
}

func TestIssueVerifyRoundTrip(t *testing.T) {
	is := newIssuer(t, 4)
	p := pathid.New(7, 3, 1)
	c := is.Issue(100, 200, p)
	if !is.Verify(c, 100, 200, p) {
		t.Fatal("issued capability does not verify")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	is := newIssuer(t, 4)
	p := pathid.New(7, 3, 1)
	c := is.Issue(100, 200, p)

	bad := c
	bad.C0++
	if is.Verify(bad, 100, 200, p) {
		t.Fatal("tampered C0 verified")
	}
	bad = c
	bad.C1 ^= 1
	if is.Verify(bad, 100, 200, p) {
		t.Fatal("tampered C1 verified")
	}
	if is.Verify(c, 101, 200, p) {
		t.Fatal("wrong source verified")
	}
	if is.Verify(c, 100, 201, p) {
		t.Fatal("wrong destination verified")
	}
	if is.Verify(c, 100, 200, pathid.New(8, 3, 1)) {
		t.Fatal("wrong path verified")
	}
}

func TestDifferentRoutersDisagree(t *testing.T) {
	a, _ := NewIssuer([]byte("router-a"), 4)
	b, _ := NewIssuer([]byte("router-b"), 4)
	p := pathid.New(2, 1)
	c := a.Issue(5, 6, p)
	if b.Verify(c, 5, 6, p) {
		t.Fatal("capability from router A verified at router B")
	}
}

func TestSlotInRangeProperty(t *testing.T) {
	is := newIssuer(t, 5)
	f := func(src, dst uint32) bool {
		c := is.Issue(src, dst, pathid.New(1))
		return c.Slot >= 0 && c.Slot < 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlotDeterministicPerDestination(t *testing.T) {
	is := newIssuer(t, 4)
	p := pathid.New(3, 1)
	c1 := is.Issue(10, 77, p)
	c2 := is.Issue(10, 77, p)
	if c1 != c2 {
		t.Fatal("issuance not deterministic")
	}
	// Same source, same slot destination => same C1 even for another dst
	// mapping to the same slot. Find such a destination.
	for d := uint32(0); d < 10000; d++ {
		c := is.Issue(10, d, p)
		if d != 77 && c.Slot == c1.Slot {
			if c.C1 != c1.C1 {
				t.Fatalf("same slot, different C1: dst=%d", d)
			}
			if c.C0 == c1.C0 {
				t.Fatalf("different destinations share C0: dst=%d", d)
			}
			return
		}
	}
	t.Fatal("no slot-colliding destination found in 10000 tries (suspicious F)")
}

func TestSlotRoughlyUniform(t *testing.T) {
	is := newIssuer(t, 4)
	counts := make([]int, 4)
	for d := uint32(0); d < 4000; d++ {
		counts[is.Issue(1, d, pathid.New(1)).Slot]++
	}
	for s, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("slot %d has %d/4000 destinations, want ~1000", s, c)
		}
	}
}

func TestFanOutBoundedByNMax(t *testing.T) {
	const nmax = 2
	is := newIssuer(t, nmax)
	p := pathid.New(9, 1)
	// A covert source opening 20 destinations holds at most nmax
	// distinct (slot, C1) aggregates: every flow lands in one of them.
	aggs := map[Capability]int{}
	for d := uint32(0); d < 20; d++ {
		c := is.Issue(42, d, p)
		aggs[Capability{C1: c.C1, Slot: c.Slot}]++
	}
	if len(aggs) > nmax {
		t.Fatalf("%d fan-out aggregates > nmax %d", len(aggs), nmax)
	}
	total := 0
	for _, n := range aggs {
		total += n
	}
	if total != 20 {
		t.Fatalf("accounted flows = %d, want 20", total)
	}
}
