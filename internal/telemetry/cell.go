package telemetry

import (
	"math"
	"sync/atomic"
)

// A cell is a private slice of a Counter or Histogram for one writer at a
// time: whoever holds a dataplane shard's consumer role, say. Counter.Inc
// and Histogram.Observe are read-modify-write instructions on memory
// every writer shares, so two shards metering the same series trade its
// cache line back and forth once per packet. A cell is written by one
// goroutine at a time, each ordered behind the last (the role is a
// mutex), with a load and a store, on a cache line no other cell's
// writer touches; readers add the cells to the shared value, so there is
// nothing to flush and a read at any instant sees every sample already
// recorded.

// cacheLine is the padding unit. The allocator aligns an object whose
// size is a multiple of 64 bytes (up to 768) on a 64-byte boundary, so a
// cell padded to that size shares its line with nothing.
const cacheLine = 64

// cellList is the copy-on-write list of a metric's cells: one word in
// the metric, appended to at set-up, loaded by readers without a lock.
type cellList[T any] struct{ p atomic.Pointer[[]*T] }

func (l *cellList[T]) add(c *T) {
	for {
		old := l.p.Load()
		var next []*T
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, c)
		if l.p.CompareAndSwap(old, &next) {
			return
		}
	}
}

func (l *cellList[T]) all() []*T {
	if p := l.p.Load(); p != nil {
		return *p
	}
	return nil
}

// CounterCell is one writer's share of a Counter. Its methods must be
// called from one goroutine at a time; Counter.Value may run beside them.
type CounterCell struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Cell returns a new cell of c. Allocates: call it where the handle is
// resolved, not per event.
func (c *Counter) Cell() *CounterCell {
	cell := new(CounterCell)
	c.cells.add(cell)
	return cell
}

// Inc adds one.
func (c *CounterCell) Inc() { c.v.Store(c.v.Load() + 1) }

// HistogramCell is one writer's share of a Histogram, with the same
// single-writer contract as CounterCell. It keeps no observation count
// of its own: the count is the sum of its buckets.
type HistogramCell struct {
	bounds  []float64      // the histogram's, read-only
	counts  []atomic.Int64 // len(bounds)+1, on cache lines of their own
	sumBits atomic.Uint64
	_       [cacheLine - 56]byte
}

// Cell returns a new cell of h. Allocates, like Counter.Cell.
func (h *Histogram) Cell() *HistogramCell {
	const perLine = cacheLine / 8
	lines := (len(h.counts) + perLine - 1) / perLine
	cell := &HistogramCell{
		bounds: h.bounds,
		counts: make([]atomic.Int64, lines*perLine)[:len(h.counts)],
	}
	h.cells.add(cell)
	return cell
}

// Observe records one sample, in the bucket Histogram.Observe would
// have put it.
func (c *HistogramCell) Observe(v float64) {
	n := &c.counts[bucket(c.bounds, v)]
	n.Store(n.Load() + 1)
	c.sumBits.Store(math.Float64bits(math.Float64frombits(c.sumBits.Load()) + v))
}

// bucket returns the index of the first bound >= v, len(bounds) (the
// +Inf bucket) when there is none — which is where NaN lands, as it
// compares false with every bound. A linear scan: histograms here have
// at most ten bounds, and sort.Search's closure call per probe costs
// more than the comparisons it saves.
func bucket(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && !(bounds[i] >= v) {
		i++
	}
	return i
}
