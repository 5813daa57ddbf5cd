package dataplane

import (
	"sync/atomic"

	"floc/internal/core"
	"floc/internal/netsim"
)

// ring is a bounded single-producer single-consumer queue of shard work:
// packets, by value, with their arrival times. The producer stages items
// in place, in the free slots past the published tail, and publishes a
// whole run with one CAS on the tail; the consumer takes everything up to
// the tail it loads and hands the slots back by storing its head. Both
// cursors are 64-bit positions that only grow, and capacity is a power of
// two so position-to-slot mapping is a mask.
type ring struct {
	mask  uint64
	items []ringItem

	tail atomic.Uint64 // published end; ringSealed set by seal
	_    [56]byte
	head atomic.Uint64 // consumed end: slots before it are free again
	_    [56]byte

	// Producer-only, and kept off the cursors' lines.
	next     uint64 // where the producer stages next: [pub, next) is staged
	pub      uint64 // tail as the producer last published it
	seenHead uint64 // head as the producer last loaded it
}

// ringItem is one packet of shard work and its arrival time.
type ringItem struct {
	pkt netsim.Packet
	at  float64
}

// ringSealed is the tail bit seal sets. No position reaches it (2^62
// packets).
const ringSealed = 1 << 62

// newRing returns a ring of the given power-of-two size.
func newRing(size int) *ring {
	return &ring{mask: uint64(size) - 1, items: make([]ringItem, size)}
}

// stage returns the slot the producer's next item goes into, past
// everything staged before it, or nil when the ring is full. The item is
// the consumer's only once publish has returned true. Producer-only.
func (r *ring) stage() *ringItem {
	if r.next-r.seenHead == uint64(len(r.items)) {
		if r.seenHead = r.head.Load(); r.next-r.seenHead == uint64(len(r.items)) {
			return nil
		}
	}
	it := &r.items[r.next&r.mask]
	r.next++
	return it
}

// staged reports how many staged items the consumer cannot see yet.
// Producer-only.
func (r *ring) staged() int { return int(r.next - r.pub) }

// publish hands the staged items to the consumer with one CAS on the
// tail and reports how many there were. The tail moves only here and in
// seal, so the CAS fails only on a sealed ring: then ok is false and the
// items are discarded, their slots staged again from the next stage on.
// Producer-only.
func (r *ring) publish() (n int, ok bool) {
	n = r.staged()
	if n == 0 {
		return 0, true
	}
	if !r.tail.CompareAndSwap(r.pub, r.next) {
		r.next = r.pub
		return n, false
	}
	r.pub = r.next
	return n, true
}

// seal closes the ring to its producer for good: every publish after it
// fails, so what the consumer drains after the seal is everything the
// ring will ever hold. Consumer-only, once, at shutdown: it is what makes
// the consumer's last drain the last.
func (r *ring) seal() { r.tail.Add(ringSealed) }

// dequeueBatch moves up to len(dst) published items out of the ring, each
// packet straight into a slot taken from slots, and points dst at them.
// It returns how many it moved. Consumer-only.
func (r *ring) dequeueBatch(dst []core.BatchItem, slots *packetSlots) int {
	head := r.head.Load()
	n := min(int(r.tail.Load()&^ringSealed-head), len(dst))
	if n == 0 {
		return 0
	}
	for i := range dst[:n] {
		slots.load(&dst[i], &r.items[(head+uint64(i))&r.mask])
	}
	r.head.Store(head + uint64(n))
	return n
}

// occupancy reports how many published items the consumer has not yet
// taken. Consumer-side; a concurrent publish can make it stale at once.
func (r *ring) occupancy() int {
	return int(r.tail.Load()&^ringSealed - r.head.Load())
}

// empty reports whether the consumer has taken every published item.
func (r *ring) empty() bool { return r.occupancy() == 0 }
