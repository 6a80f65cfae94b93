package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, with the sample count. An empty
// sample has no percentile: it returns NaN and 0.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac, len(s)
}

// median is percentile 50 without the count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// tailSamples reports how many samples lie strictly beyond the p-th
// percentile: the measure of whether that percentile is trustworthy
// (at least ten samples beyond it).
func tailSamples(xs []float64, p float64) int {
	v, _ := percentile(xs, p)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return beyond
}
