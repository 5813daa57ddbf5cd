package core

import (
	"math"

	"floc/internal/dropfilter"
)

// prefetchWindow is how many items Prefetch stages at a time: the shard
// worker's default batch, and small enough that the scratch below stays
// on the stack.
const prefetchWindow = 64

// Prefetch reads, without writing anything, the memory Enqueue is about to
// touch for every packet of a batch. Admission at a working set that does
// not fit in cache is a chain of dependent first touches per packet —
// packet, path state, probe slot, flow state, bucket, drop-filter block —
// and run packet by packet each miss waits for the one before it. Prefetch
// walks the same chain a stage at a time across the whole batch, so the
// loads within a stage are independent of each other and their misses
// overlap; the per-packet loop that follows then finds its lines warm.
//
// It is read-only by construction: no allocation, no counter (the drop
// filter's query count included), no capability slot issued, and nothing
// it computes is handed to Enqueue, which looks everything up again. A
// control run, a table resize or an expiry between Prefetch and Enqueue
// can therefore only make a warmed line useless, never make a decision
// different. Items it cannot resolve — no or foreign handle, expired path,
// flow not yet seen — are skipped; Enqueue's slow paths deal with them.
//
// The returned word folds every loaded value so the loads cannot be
// discarded as dead; callers keep it in memory they own and never read it.
func (r *Router) Prefetch(items []BatchItem) uint64 {
	var warm uint64
	for len(items) > prefetchWindow {
		warm ^= r.prefetch(items[:prefetchWindow])
		items = items[prefetchWindow:]
	}
	return warm ^ r.prefetch(items)
}

// prefetch stages one window of at most prefetchWindow items.
func (r *Router) prefetch(items []BatchItem) uint64 {
	var (
		paths  [prefetchWindow]*pathState
		keys   [prefetchWindow]flowKey
		hashes [prefetchWindow]uint64
		warm   uint64
	)
	// Stage 1: packet -> origin path pointer and flow accounting identity,
	// acctKey's short of issuing a slot: a flow capability mode has not
	// seen yet has no identity to warm.
	for i := range items {
		pkt := items[i].Pkt
		ps := r.origins.byHandle(pkt.PathHandle)
		key, hash := flowKey{src: pkt.Src, id: pkt.Dst}, dropfilter.FlowHash(pkt.Src, pkt.Dst)
		if r.issuer != nil {
			slot, salted, ok := r.slots.get(hash, pkt.Flow())
			if !ok {
				ps = nil
			}
			key.id, hash = slot, salted
		}
		paths[i], keys[i], hashes[i] = ps, key, hash
	}
	// Stage 2: path state (its aggregate pointer, its per-packet counters,
	// its table header) -> the home probe slot of its flow table.
	for i := range items {
		ps := paths[i]
		if ps == nil {
			continue
		}
		if ps.aggregate != nil {
			warm++
		}
		warm ^= uint64(ps.admittedPkts)
		if t := &ps.flows; t.len() > 0 {
			warm ^= uint64(t.slots[t.home(hashes[i])].idx)
		}
	}
	// Stage 3: probe (the slots are warm now) -> the flow's slab entry,
	// both ends of it: an entry can straddle two lines.
	for i := range items {
		ps := paths[i]
		if ps == nil {
			continue
		}
		if fs := ps.flows.get(hashes[i], keys[i]); fs != nil {
			warm ^= math.Float64bits(fs.lastSeen)
			if fs.awaitingData {
				warm++
			}
		}
	}
	// Stage 4: effective path -> its token bucket and, on attack paths,
	// the flow's drop-filter block.
	for i := range items {
		ps := paths[i]
		if ps == nil {
			continue
		}
		eff := ps.effective()
		warm ^= math.Float64bits(eff.bucket.Period()) ^ math.Float64bits(eff.bucket.TotalGranted())
		if eff.attack {
			warm ^= r.filter.Peek(hashes[i])
		}
	}
	return warm
}
