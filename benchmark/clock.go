package main

import "time"

// The benchmark is the one place besides flocd that must meet real time:
// it paces an open-loop sender, stamps probe transits and times stages.
// All wall-clock access goes through this file so the repo's sim-time
// lint rule has exactly these call sites to waive.

// processStart anchors every benchmark timestamp; nanos() is monotonic
// nanoseconds since it.
//
//floclint:allow sim-time the benchmark measures real elapsed time
var processStart = time.Now()

// nanos returns monotonic nanoseconds since the benchmark started.
func nanos() int64 {
	//floclint:allow sim-time the benchmark measures real elapsed time
	return int64(time.Since(processStart))
}

// sleepUntil blocks until nanos() reaches t. It sleeps and never spins:
// on two shared cores a spinning sender would steal the CPU it is trying
// to measure.
func sleepUntil(t int64) {
	if d := t - nanos(); d > 0 {
		//floclint:allow sim-time the open-loop sender is paced on the wall clock
		time.Sleep(time.Duration(d))
	}
}

// seconds converts a nanosecond interval to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// deadlineIn returns the wall-clock instant d from now, for socket read
// deadlines.
func deadlineIn(d time.Duration) time.Time {
	//floclint:allow sim-time socket deadlines are wall-clock instants
	return time.Now().Add(d)
}

// after is time.After behind the one waived call site.
func after(d time.Duration) <-chan time.Time {
	//floclint:allow sim-time child-process waits are bounded on the wall clock
	return time.After(d)
}
