// Package invariant provides the runtime assertion layer backing FLoc's
// model-bound contracts: conformance EWMAs live in [0, 1] (Eq. IV.6),
// token-bucket accounting conserves tokens (Eqs. IV.1-IV.3), drop-filter
// counters respect their saturation bounds (Section V-B), and derived
// quantities (allocations, RTTs, MTDs) stay finite and non-negative.
//
// Checks come in two tiers:
//
//   - Always-on checks — a handful of float comparisons at state-transition
//     points (control ticks, plan changes, parameter recomputation). They
//     are cheap relative to the work they guard and run in every build.
//   - Hot-path checks — per-packet or per-slot assertions, gated behind the
//     Hot constant so that builds without the "flocinvariants" tag compile
//     them out entirely (the `if invariant.Hot { ... }` pattern is
//     dead-code-eliminated).
//
// A violation indicates the implementation drifted out of the paper's
// modeled state space; by default it panics so simulations fail loudly and
// deterministically at the first bad transition rather than producing
// silently wrong figures. Tests substitute a recording handler via
// SetHandler.
package invariant

import (
	"fmt"
	"math"
)

// handler receives a formatted description of each violation. The default
// panics; see SetHandler.
var handler = func(msg string) { panic("invariant: " + msg) }

// SetHandler replaces the violation handler and returns the previous one.
// Passing nil restores the default panicking handler. It is intended for
// tests that assert on (or tolerate) specific violations; simulations
// should leave the default in place.
func SetHandler(h func(violation string)) (prev func(string)) {
	prev = handler
	if h == nil {
		handler = func(msg string) { panic("invariant: " + msg) }
	} else {
		handler = h
	}
	return prev
}

// fail reports one violation through the current handler.
//
// Violation reporting formats once and then panics.
func fail(format string, args ...any) {
	handler(fmt.Sprintf(format, args...))
}

// Finite checks that v is neither NaN nor infinite.
func Finite(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fail("%s: non-finite value %v", name, v)
	}
}

// NonNegative checks that v is a finite value >= 0. Negative MTDs,
// allocations, rates, or queue depths have no meaning in the model.
func NonNegative(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		fail("%s: negative or non-finite value %v", name, v)
	}
}

// Positive checks that v is a finite value > 0.
func Positive(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		fail("%s: non-positive or non-finite value %v", name, v)
	}
}

// Conformance01 checks that a conformance measure (Eq. IV.6) or any other
// probability-like quantity lies in [0, 1].
func Conformance01(name string, v float64) {
	if math.IsNaN(v) || v < 0 || v > 1 {
		fail("%s: value %v outside [0, 1]", name, v)
	}
}

// InRange checks lo <= v <= hi.
func InRange(name string, v, lo, hi float64) {
	if math.IsNaN(v) || v < lo || v > hi {
		fail("%s: value %v outside [%v, %v]", name, v, lo, hi)
	}
}

// TokensConserved checks the per-period token ledger of a bucket:
// every requested token is either granted or denied (requested ==
// granted + denied up to float accumulation error), and no component is
// negative. A drift here means admitted bandwidth no longer matches the
// computed allocation (Eqs. IV.1-IV.3).
func TokensConserved(name string, requested, granted, denied float64) {
	if requested < 0 || granted < 0 || denied < 0 {
		fail("%s: negative token count (requested=%v granted=%v denied=%v)",
			name, requested, granted, denied)
		return
	}
	// The three sums accumulate the same Take amounts in different
	// groupings, so they can differ by float rounding only.
	tol := 1e-6 * math.Max(1, requested)
	if diff := math.Abs(requested - (granted + denied)); diff > tol {
		fail("%s: token ledger off by %v (requested=%v granted=%v denied=%v)",
			name, diff, requested, granted, denied)
	}
}

// True checks an arbitrary condition, for invariants that are not simple
// numeric ranges (e.g. saturating-counter bounds on integer fields).
func True(name string, cond bool) {
	if !cond {
		fail("%s: condition violated", name)
	}
}
