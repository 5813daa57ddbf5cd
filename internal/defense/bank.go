package defense

import (
	"floc/internal/netsim"
	"floc/internal/units"
)

// burstWindow is the burst allowance of a rate limit: a limit admits up
// to one burstWindow's worth of traffic at its rate beyond its
// steady-state budget. Pushback's aggregate limits use the same window.
const burstWindow units.Seconds = 0.1

// bankEntry is one installed limit: a token gate at rate, with its lease.
// A limit installed from a cluster peer's feedback expires expiresAt
// seconds into the arrival clock unless the peer refreshes it, so a dead
// downstream cannot wedge an upstream forever.
type bankEntry struct {
	rate       units.BitsPerSec
	tokens     units.Bits
	lastRefill float64
	expiresAt  float64 // 0 = no expiry
}

// setRate installs a rate (> 0) and grants a burst allowance: accumulated
// credit carries over up to one full burst window at the new rate, and at
// least half a window is seeded so a freshly installed limit does not
// drop the first packet it sees.
func (e *bankEntry) setRate(rate units.BitsPerSec) {
	e.rate = rate
	full := rate.Times(burstWindow)
	if e.tokens > full {
		e.tokens = full
	}
	if e.tokens <= 0 {
		e.tokens = rate.Times(burstWindow / 2)
	}
}

// admit refills the gate up to now and takes the packet's bits, or
// reports the packet dropped and takes nothing.
func (e *bankEntry) admit(pkt *netsim.Packet, now float64) bool {
	bits := units.FromPacket(pkt.Size)
	e.tokens += e.rate.Times(units.Seconds(now - e.lastRefill))
	maxTokens := e.rate.Times(burstWindow)
	if e.tokens > maxTokens {
		e.tokens = maxTokens
	}
	e.lastRefill = now
	if e.tokens < bits {
		return false
	}
	e.tokens -= bits
	return true
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
// re-seeds the limit's burst allowance (setRate).
func (b *LimiterBank) Install(handle uint32, rate units.BitsPerSec, expiresAt float64) {
	if rate <= 0 {
		delete(b.entries, handle)
		return
	}
	e := b.entries[handle]
	if e == nil {
		e = &bankEntry{}
		b.entries[handle] = e
	}
	e.setRate(rate)
	e.expiresAt = expiresAt
}

// Admit runs the packet through the handle's limit, if one is
// installed and unexpired. Handle 0 (the unknown path) and handles with
// no limit pass untouched; an expired limit is reaped lazily on first
// touch. Returns false when the limit drops the packet.
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
	if !e.admit(pkt, now) {
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
	return e.rate
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

// Drops returns packets dropped by the bank's limits via Admit.
func (b *LimiterBank) Drops() int { return b.drops }
