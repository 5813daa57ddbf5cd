package capability

import (
	"testing"

	"floc/internal/pathid"
)

// FuzzCapability drives issuance and verification of the two-part flow
// capability (C0, C1) with arbitrary secrets, fan-out limits, flow
// endpoints, and paths, checking the verification contract: issued
// capabilities verify, any tampered part fails, and slots stay in
// [0, nmax).
func FuzzCapability(f *testing.F) {
	f.Add([]byte("router-secret"), 4, uint32(0x0a000001), uint32(0x0a000002), []byte{1, 2, 3}, uint64(1))
	f.Add([]byte{0}, 1, uint32(0), uint32(0), []byte{}, uint64(0))
	f.Add([]byte("k"), 64, uint32(1), uint32(2), []byte{9, 9, 9, 9, 9, 9, 9, 9}, uint64(0xffffffffffffffff))
	f.Fuzz(func(t *testing.T, secret []byte, nmax int, src, dst uint32, rawPath []byte, tamper uint64) {
		if len(secret) == 0 {
			secret = []byte{0xff}
		}
		nmax = nmax % 256
		if nmax < 1 {
			nmax = 1
		}
		is, err := NewIssuer(secret, nmax)
		if err != nil {
			t.Fatal(err)
		}
		asns := make([]pathid.ASN, 0, 8)
		for i := 0; i < len(rawPath) && i < 8; i++ {
			asns = append(asns, pathid.ASN(rawPath[i])+1)
		}
		path := pathid.New(asns...)

		c := is.Issue(src, dst, path)
		if c.Slot < 0 || c.Slot >= nmax {
			t.Fatalf("slot %d outside [0, %d)", c.Slot, nmax)
		}
		if !is.Verify(c, src, dst, path) {
			t.Fatal("issued capability failed verification")
		}
		if c2 := is.Issue(src, dst, path); c2 != c {
			t.Fatalf("issuance not deterministic: %+v vs %+v", c2, c)
		}

		// Tampering with either hash part must break verification.
		if tamper != 0 {
			bad := c
			bad.C0 ^= tamper
			if is.Verify(bad, src, dst, path) {
				t.Fatal("tampered C0 verified")
			}
			bad = c
			bad.C1 ^= tamper
			if is.Verify(bad, src, dst, path) {
				t.Fatal("tampered C1 verified")
			}
		}

		// A router holding a different secret must reject the capability.
		other := append(append([]byte{}, secret...), 'x')
		is2, err := NewIssuer(other, nmax)
		if err != nil {
			t.Fatal(err)
		}
		if is2.Verify(c, src, dst, path) {
			t.Fatal("capability verified under a different router secret")
		}
	})
}
