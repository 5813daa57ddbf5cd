// Package timeviol seeds violations of the sim-time rule: wall-clock
// reads and math/rand usage in simulation code, and a waiver that names
// no rule.
package timeviol

import (
	"math/rand" // WANT sim-time
	"time"
)

// Stamp reads the wall clock twice.
func Stamp() float64 {
	t0 := time.Now()    // WANT sim-time
	d := time.Since(t0) // WANT sim-time
	return d.Seconds()
}

// Wait schedules on the wall clock.
func Wait() {
	time.Sleep(time.Millisecond)   // WANT sim-time
	<-time.After(time.Millisecond) // WANT sim-time
}

// Jitter draws from the global, unseeded generator.
func Jitter() float64 {
	return rand.Float64()
}

// Misspelt waives nothing: its waiver names no rule, so the wall-clock
// read is still reported, and so is the waiver.
func Misspelt() time.Time {
	return time.Now() //floclint:allow sim-tme the misspelling is the point // WANT sim-time directive
}

// FixedDuration only does duration arithmetic — no wall-clock read, so
// this must NOT be flagged.
func FixedDuration() time.Duration {
	return 3 * time.Second
}
