// Package atomicsclean exercises near-misses of the atomics rule that
// must yield zero findings: wrapper-typed atomics accessed through their
// methods, and functions that merely share a sync/atomic function's name.
package atomicsclean

import "sync/atomic"

// counters is all wrapper-typed: the types encapsulate the access
// discipline (copies of them are go vet's to report, not floclint's).
type counters struct {
	hits atomic.Int64
	head atomic.Pointer[counters]
}

func (c *counters) hit() int64 { return c.hits.Add(1) }

func (c *counters) next() *counters { return c.head.Load() }

// tally has a method named like a sync/atomic function; it is reached
// through a selection, not the package qualifier.
type tally struct{ n int64 }

func (t *tally) AddInt64(d int64) int64 { t.n += d; return t.n }

// AddInt64 is a package-level namesake.
func AddInt64(t *tally, d int64) int64 { return t.AddInt64(d) }
