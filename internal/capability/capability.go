// Package capability implements FLoc's network-layer flow capabilities
// (paper Sections III-A and IV-B.3).
//
// During connection establishment a router issues an authenticated flow
// identifier — a capability — that only the router itself can verify. The
// capability has two parts:
//
//	C0 = Hash(IP_s, IP_d,    S_i, K0)   — flow-identifier authenticity
//	C1 = Hash(IP_s, F(IP_d), S_i, K1)   — per-source fan-out control
//
// F maps the destination into one of n_max slots, so a source can hold at
// most n_max distinct C1 values through a given router. All of a source's
// concurrent flows that fall in one slot share a C1 and are accounted as a
// single (virtual) flow, which is how FLoc turns a covert attack's many
// "legitimate-looking" low-rate flows into one identifiable high-rate flow.
package capability

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"floc/internal/pathid"
)

// Capability is an issued flow capability.
type Capability struct {
	// C0 authenticates the exact flow (source, destination, path).
	C0 uint64
	// C1 authenticates the (source, destination-slot, path) aggregate used
	// for fan-out accounting.
	C1 uint64
	// Slot is F(IP_d), the fan-out slot in [0, n_max) that C1 covers.
	Slot int
}

// Issuer issues and verifies capabilities for one router. It holds the
// router's two secret keys and the configured fan-out limit n_max.
type Issuer struct {
	key0 []byte
	key1 []byte
	nmax int
}

// NewIssuer creates an Issuer with the router secret and fan-out limit
// nmax >= 1. The two per-purpose keys K0, K1 are derived from the secret.
func NewIssuer(secret []byte, nmax int) (*Issuer, error) {
	if nmax < 1 {
		return nil, fmt.Errorf("capability: nmax %d < 1", nmax)
	}
	if len(secret) == 0 {
		return nil, fmt.Errorf("capability: empty router secret")
	}
	derive := func(label byte) []byte {
		h := hmac.New(sha256.New, secret)
		h.Write([]byte{label})
		return h.Sum(nil)
	}
	return &Issuer{key0: derive(0), key1: derive(1), nmax: nmax}, nil
}

// NMax returns the configured per-source fan-out limit.
func (is *Issuer) NMax() int { return is.nmax }

// Issue creates the capability for flow (src, dst) over path p.
func (is *Issuer) Issue(src, dst uint32, p pathid.PathID) Capability {
	slot := is.slot(dst)
	return Capability{
		C0:   is.mac(is.key0, src, dst, p),
		C1:   is.mac(is.key1, src, uint32(slot), p),
		Slot: slot,
	}
}

// Verify checks that c is the capability this router would issue for
// (src, dst, p).
func (is *Issuer) Verify(c Capability, src, dst uint32, p pathid.PathID) bool {
	want := is.Issue(src, dst, p)
	return c.C0 == want.C0 && c.C1 == want.C1 && c.Slot == want.Slot
}

// slot computes F(IP_d): a keyed uniform mapping of the destination into
// [0, n_max).
func (is *Issuer) slot(dst uint32) int {
	h := hmac.New(sha256.New, is.key1)
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], dst)
	h.Write(buf[:])
	v := binary.BigEndian.Uint64(h.Sum(nil)[:8])
	return int(v % uint64(is.nmax))
}

// mac computes the truncated HMAC over (a, b, path).
func (is *Issuer) mac(key []byte, a, b uint32, p pathid.PathID) uint64 {
	h := hmac.New(sha256.New, key)
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], a)
	h.Write(buf[:])
	binary.BigEndian.PutUint32(buf[:], b)
	h.Write(buf[:])
	for _, as := range p {
		binary.BigEndian.PutUint32(buf[:], uint32(as))
		h.Write(buf[:])
	}
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}
