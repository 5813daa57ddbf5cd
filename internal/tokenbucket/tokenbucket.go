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

	// Per-period measurement counters, reset on each refill.
	requested float64
	denied    float64

	// Cumulative counters since creation or last ResetStats.
	totalRequested float64
	totalGranted   float64
	totalDenied    float64
	totalPeriods   int
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

// Size returns the configured tokens per period.
func (b *Bucket) Size() float64 { return b.size }

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
		b.totalPeriods = 1
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
	// a sane ledger before refilling.
	invariant.NonNegative("tokenbucket.tokens", b.tokens)
	invariant.InRange("tokenbucket.tokens", b.tokens, 0, b.size)
	b.tokens = b.size // unused tokens of previous periods are discarded
	b.totalPeriods += periods
	b.requested = 0
	b.denied = 0
}

// Take requests n tokens at time now. It returns true and consumes the
// tokens if the current period still has n available, false otherwise
// (consuming nothing).
func (b *Bucket) Take(now, n float64) bool {
	b.advance(now)
	b.requested += n
	b.totalRequested += n
	granted := b.tokens >= n
	if granted {
		b.tokens -= n
		b.totalGranted += n
	} else {
		b.denied += n
		b.totalDenied += n
	}
	if invariant.Hot {
		// Token conservation (Eqs. IV.1-IV.3): every requested token is
		// either granted or denied, and granting never overdraws the bucket.
		invariant.TokensConserved("tokenbucket.ledger",
			b.totalRequested, b.totalGranted, b.totalDenied)
		invariant.NonNegative("tokenbucket.tokens", b.tokens)
	}
	return granted
}

// Available returns the tokens remaining in the period containing now.
func (b *Bucket) Available(now float64) float64 {
	b.advance(now)
	return b.tokens
}

// PeriodRequested returns the tokens requested so far in the current
// period (after advancing to now).
func (b *Bucket) PeriodRequested(now float64) float64 {
	b.advance(now)
	return b.requested
}

// Stats returns cumulative request/denial counts and the number of periods
// elapsed since creation (or ResetStats).
func (b *Bucket) Stats() (requested, denied float64, periods int) {
	return b.totalRequested, b.totalDenied, b.totalPeriods
}

// TotalGranted returns the cumulative tokens granted since creation (or
// ResetStats), completing the requested = granted + denied ledger for
// telemetry.
func (b *Bucket) TotalGranted() float64 { return b.totalGranted }

// ResetStats zeroes the cumulative counters, e.g. at the start of a
// measurement interval.
func (b *Bucket) ResetStats() {
	b.totalRequested = 0
	b.totalGranted = 0
	b.totalDenied = 0
	b.totalPeriods = 0
	if b.started {
		b.totalPeriods = 1
	}
}

// Rate returns the long-run admitted rate implied by the configuration:
// size/period tokens per second.
func (b *Bucket) Rate() float64 { return b.size / b.period }
