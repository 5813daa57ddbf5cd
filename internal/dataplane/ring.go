package dataplane

import (
	"sync/atomic"

	"floc/internal/core"
	"floc/internal/netsim"
)

// ring is a bounded multi-producer single-consumer queue of shard work:
// packets, by value, with their arrival times. It is Vyukov's bounded
// MPMC design, used here with one consumer. Each slot carries a sequence
// number: producers claim a slot by CAS on the enqueue cursor and publish
// it by advancing the slot sequence; the consumer observes publication
// through the same sequence, so item handoff is properly ordered without
// locks. Capacity is a power of two so cursor-to-slot mapping is a mask.
type ring struct {
	mask  uint64
	slots []ringSlot
	enq   atomic.Uint64 // producer cursor (claimed, not yet necessarily published)
	deq   uint64        // consumer cursor; touched only by the consumer goroutine
}

type ringSlot struct {
	seq  atomic.Uint64
	item ringItem
}

// ringItem is one packet of shard work and its arrival time.
type ringItem struct {
	pkt netsim.Packet
	at  float64
}

// ringSealed is the producer-cursor bit seal sets. No position reaches it
// (2^62 packets), and it is clear of the sign bit the signed comparisons
// below depend on.
const ringSealed = 1 << 62

// newRing returns a ring of the given power-of-two size.
func newRing(size int) *ring {
	r := &ring{mask: uint64(size) - 1, slots: make([]ringSlot, size)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// tryEnqueue copies one packet into the ring. It returns false when the
// ring is full — the caller decides whether to drop (accounted) or back
// off.
func (r *ring) tryEnqueue(pkt *netsim.Packet, at float64) bool {
	pos := r.enq.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if r.enq.CompareAndSwap(pos, pos+1) {
				s.item.pkt = *pkt
				s.item.at = at
				s.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case d < 0:
			// Slot still holds an unconsumed item from one lap ago: full.
			return false
		default:
			// Another producer claimed pos; reload and retry.
			pos = r.enq.Load()
		}
	}
}

// tryEnqueueBurst copies a prefix of items into the ring and returns its
// length: as many as there are free slots ahead of the producer cursor, 0
// when the ring is full. The free slots ahead of the cursor are one
// contiguous run — the single consumer frees slots in cursor order, so a
// free slot is never behind an occupied one — which lets one CAS claim the
// whole run; the slots are then published one by one, in order, exactly
// as tryEnqueue publishes its one.
func (r *ring) tryEnqueueBurst(items []ringItem) int {
	for len(items) > 0 {
		pos := r.enq.Load()
		n := uint64(0)
		for n < uint64(len(items)) && r.slots[(pos+n)&r.mask].seq.Load() == pos+n {
			n++
		}
		if n == 0 {
			if int64(r.slots[pos&r.mask].seq.Load())-int64(pos) < 0 {
				return 0 // the slot at the cursor is still unconsumed: full
			}
			continue // another producer claimed pos; reload
		}
		// Nothing at or past pos can be claimed while the cursor stays at
		// pos, so if the CAS succeeds the n slots seen free still are.
		if !r.enq.CompareAndSwap(pos, pos+n) {
			continue
		}
		for i := uint64(0); i < n; i++ {
			s := &r.slots[(pos+i)&r.mask]
			s.item = items[i]
			s.seq.Store(pos + i + 1)
		}
		return int(n)
	}
	return 0
}

// seal closes the ring to producers for good. Behind the sealed cursor
// every slot reads as a lap behind, so tryEnqueue and tryEnqueueBurst
// report full; what was claimed before the seal is still published by its
// producer and drained as ever (occupancy counts it down to zero).
// Consumer-only, at shutdown: it is what makes the consumer's last drain
// the last — without it a producer that passed its closed check just
// before Close could publish into a ring nobody will read again.
func (r *ring) seal() {
	for pos := r.enq.Load(); !r.enq.CompareAndSwap(pos, pos|ringSealed); pos = r.enq.Load() {
	}
}

// dequeueBatch moves up to len(dst) published items out of the ring, each
// packet straight into a slot taken from slots, and points dst at them.
// It returns how many it moved. Consumer-only.
func (r *ring) dequeueBatch(dst []core.BatchItem, slots *packetSlots) int {
	n := 0
	for n < len(dst) {
		pos := r.deq
		s := &r.slots[pos&r.mask]
		if int64(s.seq.Load())-int64(pos+1) < 0 {
			break // next slot not yet published: ring (momentarily) empty
		}
		slots.load(&dst[n], &s.item)
		s.seq.Store(pos + uint64(len(r.slots)))
		r.deq = pos + 1
		n++
	}
	return n
}

// empty reports whether the consumer has caught up with all published
// items. Consumer-side check; a concurrent producer can make it stale
// immediately.
func (r *ring) empty() bool {
	s := &r.slots[r.deq&r.mask]
	return int64(s.seq.Load())-int64(r.deq+1) < 0
}

// occupancy reports how many claimed slots the consumer has not yet
// drained. Consumer-side health sample; the producer cursor counts
// claimed-but-unpublished slots too, so the value can over-read by the
// number of producers mid-publish (never under-read).
func (r *ring) occupancy() int {
	return int(r.enq.Load()&^ringSealed - r.deq)
}
