package main

// The atomics rule: no function-style sync/atomic operations.
//
// The dataplane publishes counters and parking flags across goroutines
// with sync/atomic. Lock-free state goes wrong in three ways — a plain
// access to a variable that is accessed atomically elsewhere, a by-value
// copy that forks state which must stay unique, and a 64-bit operand
// that faults on 32-bit platforms because it is not 8-byte aligned. The
// atomic.Int64-style wrapper types rule out the first by their unexported
// representation and the third by embedding align64, and go vet's
// copylocks pass reports the second (by-value parameters, assignments,
// range variables and literal copies of a struct holding a wrapper), one
// stage before floclint in scripts/check.sh. What nothing else reports is
// the way back in: atomic.AddInt64(&x, 1) and its LoadX/StoreX/SwapX/
// CompareAndSwapX siblings take a plain variable, which re-opens the
// first and third hazard. Any reference to one of those functions is a
// finding.

import (
	"go/ast"
	"go/types"
)

// checkAtomicFunc flags a reference to a package-level sync/atomic
// function (rule atomics). Wrapper methods (x.Add, x.Load) resolve
// through a selection, not a package qualifier, and pass.
func (l *linter) checkAtomicFunc(sel *ast.SelectorExpr) {
	if l.pkgNameOf(sel.X) != "sync/atomic" {
		return
	}
	if _, ok := l.info.Uses[sel.Sel].(*types.Func); !ok {
		return // a type: atomic.Int64, atomic.Pointer[T]
	}
	l.report(sel.Pos(), RuleAtomics,
		"atomic.%s operates on a plain variable that can also be accessed non-atomically or sit misaligned on 32-bit platforms; use the wrapper types (atomic.Int64, atomic.Bool, atomic.Pointer[T], ...)",
		sel.Sel.Name)
}
