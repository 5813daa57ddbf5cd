package core

import "floc/internal/netsim"

// BatchItem is one packet of an admission batch together with its arrival
// time. Times within a batch must be non-decreasing — the router's
// control loop and token buckets advance with the clock and cannot run
// backwards.
type BatchItem struct {
	Pkt *netsim.Packet
	At  float64
}

// EnqueueBatch runs a batch of arrivals through the admission path and
// returns how many were admitted. It is exactly equivalent to calling
// Enqueue per item in order; the batch form exists so callers that
// amortize per-batch overhead (the dataplane shards) have a single
// entry point, and so future batched fast paths have a seam to land in.
func (r *Router) EnqueueBatch(items []BatchItem) int {
	admitted := 0
	for i := range items {
		if r.Enqueue(items[i].Pkt, items[i].At) {
			admitted++
		}
	}
	return admitted
}
