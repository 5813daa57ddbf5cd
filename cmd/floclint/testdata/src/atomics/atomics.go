// Package atomics seeds violations of the atomics rule: function-style
// sync/atomic operations on plain variables.
package atomics

import "sync/atomic"

// counters is updated with function-style atomics, so nothing stops the
// plain read in snapshot.
type counters struct {
	hits int64
}

func (c *counters) hit() { atomic.AddInt64(&c.hits, 1) } // WANT atomics

func (c *counters) snapshot() int64 { return c.hits }

var x int64

// bump seeds the package-level form, and a function value taken without
// a call.
func bump() func(*int64) int64 {
	atomic.AddInt64(&x, 1)  // WANT atomics
	return atomic.LoadInt64 // WANT atomics
}
