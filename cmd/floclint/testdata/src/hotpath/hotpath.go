// Package hotpath seeds violations of the hotpath rule: every banned
// construct inside //floc:hotpath functions, the callee-annotation
// requirement, and malformed directives.
package hotpath

import "fmt"

// sumAll iterates a map on the hot path.
//
// floc:hotpath
func sumAll(m map[string]int) int {
	t := 0
	for _, v := range m { // WANT hotpath
		t += v
	}
	return t
}

// bump is hot so deferred's defer is the only finding there.
//
// floc:hotpath
func bump(p *int) { *p++ }

// deferred schedules work with defer.
//
// floc:hotpath
func deferred(done *int) {
	defer bump(done) // WANT hotpath
}

// format calls fmt on the per-packet path.
//
// floc:hotpath
func format(n int) {
	fmt.Println(n) // WANT hotpath
}

// concat builds a string at runtime.
//
// floc:hotpath
func concat(a, b string) string {
	return a + b // WANT hotpath
}

// sink is hot and takes an interface parameter.
//
// floc:hotpath
func sink(v any) int {
	if v == nil {
		return 0
	}
	return 1
}

// box passes a concrete int where sink wants an interface.
//
// floc:hotpath
func box(n int) int {
	return sink(n) // WANT hotpath
}

// assignBox boxes through a plain assignment.
//
// floc:hotpath
func assignBox(n int) any {
	var v any
	v = n // WANT hotpath
	return v
}

// returnBox boxes a concrete value into an interface result.
//
// floc:hotpath
func returnBox(n int) any {
	return n // WANT hotpath
}

// capture builds a closure over a local.
//
// floc:hotpath
func capture(n int) func() int {
	f := func() int { return n } // WANT hotpath
	return f
}

// scratch allocates a fresh slice per call.
//
// floc:hotpath
func scratch(k int) []int {
	idx := make([]int, k) // WANT hotpath
	return idx
}

// collect grows an un-preallocated local slice.
//
// floc:hotpath
func collect(src []int) []int {
	var out []int
	for _, v := range src {
		out = append(out, v) // WANT hotpath
	}
	return out
}

// probe indexes a string-keyed map per call.
//
// floc:hotpath
func probe(m map[string]int, k string) int {
	return m[k] // WANT hotpath
}

// probeWrite hashes the key on the store side too.
//
// floc:hotpath
func probeWrite(m map[string]uint32, k string, v uint32) {
	m[k] = v // WANT hotpath
}

// helper is in this module but carries no annotation.
func helper(n int) int { return n * 2 }

// dispatch calls an unannotated module function.
//
// floc:hotpath
func dispatch(n int) int {
	return helper(n) // WANT hotpath
}

// badCold leaves the hot path without saying why.
//
// floc:coldpath
func badCold() {} // WANT hotpath

// conflicted claims both sides of the contract.
//
// floc:hotpath
// floc:coldpath because it cannot make up its mind
func conflicted() {} // WANT hotpath

// misspelt means floc:hotpath, but no rule reads the name it spells: the
// misspelling is the finding, and the map range below goes unchecked.
//
// floc:hotpth // WANT directive
func misspelt(m map[string]int) (n int) {
	for range m {
		n++
	}
	return n
}

// slowPath is a sanctioned cold excursion.
//
// floc:coldpath table construction happens once per miss
func slowPath(n int) []int { return make([]int, n) }

// lookup dips into the sanctioned cold path: no finding on that call.
//
// floc:hotpath
func lookup(n int) int {
	if n < 0 {
		t := slowPath(-n)
		return t[0]
	}
	return n
}
