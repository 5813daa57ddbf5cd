package defense

import (
	"floc/internal/netsim"
	"floc/internal/units"
)

// passThrough is the identity discipline behind each bank limiter: it
// accepts every packet and holds nothing, so the wrapped Limiter acts as
// a pure admission gate — the packet's real queueing happens in the
// router the bank fronts.
type passThrough struct{}

var _ netsim.Discipline = passThrough{}

func (passThrough) Enqueue(pkt *netsim.Packet, now float64) bool { return true }

func (passThrough) Dequeue(now float64) *netsim.Packet { return nil }

func (passThrough) Len() int { return 0 }

// bankEntry pairs a limiter with its lease: a limit installed from a
// cluster peer's feedback expires expiresAt seconds into the arrival
// clock unless the peer refreshes it, so a dead downstream cannot wedge
// an upstream forever.
type bankEntry struct {
	lim       *Limiter
	expiresAt float64 // 0 = no expiry
}

// LimiterBank holds per-path rate limits installed by the cluster
// control plane, keyed by interned path handle. It fronts admission: the
// dataplane consults Admit before handing a packet to the router, so a
// propagated pushback limit drops aggregate excess before it spends any
// of the congested link's budget — the FLoc deployment story of
// enforcement at multiple routers along the path.
//
// A bank is confined to one dataplane shard and accessed only from that
// shard's worker goroutine (installs arrive via the command barrier), so
// it needs no locks.
type LimiterBank struct {
	entries map[uint32]*bankEntry

	drops int
}

// NewLimiterBank returns an empty bank.
func NewLimiterBank() *LimiterBank {
	return &LimiterBank{entries: make(map[uint32]*bankEntry, 16)}
}

// Install sets (rate > 0) or releases (rate <= 0) the limit for a path
// handle. expiresAt is the arrival-clock deadline after which the limit
// lapses on its own (0 = never). Reinstalling refreshes the lease and
// re-seeds the limiter's burst allowance via SetRateBits.
func (b *LimiterBank) Install(handle uint32, rate units.BitsPerSec, expiresAt float64) {
	if rate <= 0 {
		delete(b.entries, handle)
		return
	}
	e := b.entries[handle]
	if e == nil {
		e = &bankEntry{lim: NewLimiter(passThrough{})}
		b.entries[handle] = e
	}
	e.lim.SetRateBits(rate)
	e.expiresAt = expiresAt
}

// Admit runs the packet through the handle's limiter, if one is
// installed and unexpired. Handle 0 (the unknown path) and handles with
// no limit pass untouched; an expired limit is reaped lazily on first
// touch. Returns false when the limiter drops the packet.
func (b *LimiterBank) Admit(handle uint32, pkt *netsim.Packet, now float64) bool {
	if handle == 0 {
		return true
	}
	e := b.entries[handle]
	if e == nil {
		return true
	}
	if e.expiresAt > 0 && now >= e.expiresAt {
		delete(b.entries, handle)
		return true
	}
	if !e.lim.Enqueue(pkt, now) {
		b.drops++
		return false
	}
	return true
}

// Rate returns the handle's installed limit (0 = none installed or
// expired; expiry is checked but not reaped here).
func (b *LimiterBank) Rate(handle uint32, now float64) units.BitsPerSec {
	e := b.entries[handle]
	if e == nil {
		return 0
	}
	if e.expiresAt > 0 && now >= e.expiresAt {
		return 0
	}
	return e.lim.RateBits()
}

// Sweep reaps every expired entry and returns the number removed. Admit
// reaps lazily; Sweep exists so idle paths' leases still lapse and the
// active-limit gauge stays honest.
func (b *LimiterBank) Sweep(now float64) int {
	removed := 0
	for h, e := range b.entries {
		if e.expiresAt > 0 && now >= e.expiresAt {
			delete(b.entries, h)
			removed++
		}
	}
	return removed
}

// Active returns the number of installed (possibly expired but unswept)
// limits.
func (b *LimiterBank) Active() int { return len(b.entries) }

// Drops returns packets dropped by the bank's limiters via Admit.
func (b *LimiterBank) Drops() int { return b.drops }
