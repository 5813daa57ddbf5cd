package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// relSpread is (max-min)/median, the run-to-run spread the README's bound
// table records; 0 for an empty or zero-median sample.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m <= 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (hi - lo) / m
}

// ratio is num/den, or 0 when den is 0: a stage that ran on no packet
// costs nothing.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
