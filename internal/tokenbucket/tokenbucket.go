// Package tokenbucket implements FLoc's per-path-identifier token bucket
// (paper Section IV-A).
//
// Unlike a classical leaky bucket, FLoc's bucket is *periodic*: N tokens
// are generated at the start of each period T and any unused tokens of the
// previous period are removed. Requests within a period may be arbitrarily
// bursty; the aggregate only runs out of tokens if it requests more than N
// in one period. This shape matches the drop pattern the TCP model needs —
// at most the budgeted number of drops per period, spread one per period
// under the ideal unsynchronized model.
package tokenbucket

import (
	"fmt"

	"floc/internal/invariant"
)

// Bucket is a periodic token bucket. It is not safe for concurrent use.
type Bucket struct {
	period float64
	size   float64

	tokens      float64
	periodStart float64
	started     bool
}

// New returns a bucket generating size tokens every period seconds.
func New(period, size float64) (*Bucket, error) {
	b := &Bucket{}
	if err := b.SetParams(period, size); err != nil {
		return nil, err
	}
	return b, nil
}

// SetParams reconfigures the bucket. The new parameters take effect at the
// next period rollover; the current period's remaining tokens are clamped
// to the new size.
// Reconfiguration happens at mode flips and control-run recomputation.
func (b *Bucket) SetParams(period, size float64) error {
	if period <= 0 {
		return fmt.Errorf("tokenbucket: non-positive period %v", period)
	}
	if size <= 0 {
		return fmt.Errorf("tokenbucket: non-positive size %v", size)
	}
	b.period = period
	b.size = size
	if b.tokens > size {
		b.tokens = size
	}
	return nil
}

// Period returns the configured token generation period.
func (b *Bucket) Period() float64 { return b.period }

// advance rolls the bucket forward to now, refilling at period boundaries.
// The guard is kept tiny and inlineable: in the steady state (many takes
// per period) it is one subtraction and one compare, so a caller issuing
// a burst of takes at the same timestamp pays the refill logic at most
// once. `now-periodStart < period` also covers stale calls (now before
// periodStart makes the difference negative), exactly like the two early
// returns the slow path retains.
func (b *Bucket) advance(now float64) {
	if b.started && now-b.periodStart < b.period {
		return
	}
	b.advanceSlow(now)
}

// advanceSlow initializes the bucket on first use and performs period
// rollovers.
// Runs at most once per period boundary, not per take.
func (b *Bucket) advanceSlow(now float64) {
	if !b.started {
		b.started = true
		b.periodStart = now
		b.tokens = b.size
		return
	}
	if now < b.periodStart {
		return // time cannot go backwards; ignore stale calls
	}
	elapsed := now - b.periodStart
	if elapsed < b.period {
		return
	}
	periods := int(elapsed / b.period)
	b.periodStart += float64(periods) * b.period
	// Once per period rollover: the bucket must leave the old period with
	// a sane token count before refilling.
	invariant.NonNegative("tokenbucket.tokens", b.tokens)
	invariant.InRange("tokenbucket.tokens", b.tokens, 0, b.size)
	b.tokens = b.size // unused tokens of previous periods are discarded
}

// Take requests n tokens at time now. It returns true and consumes the
// tokens if the current period still has n available, false otherwise
// (consuming nothing).
func (b *Bucket) Take(now, n float64) bool {
	b.advance(now)
	granted := b.tokens >= n
	if granted {
		b.tokens -= n
	}
	if invariant.Hot {
		// Granting never overdraws the bucket.
		invariant.NonNegative("tokenbucket.tokens", b.tokens)
	}
	return granted
}
