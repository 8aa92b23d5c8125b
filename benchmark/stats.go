package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle value of xs, the mean of the middle two when the
// count is even — what Python's statistics.median gives.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first, in tenths of a percent so the arithmetic stays whole.
var tailLadder = []int{999, 990, 950, 900, 750}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least ten samples beyond it in a sample of n, so the reported
// tail is never one or two outliers. ok is false when even p75 is too
// thin (n < 40).
func tailPercentile(n int) (p float64, ok bool) {
	for _, perMille := range tailLadder {
		if n*(1000-perMille) >= 10*1000 {
			return float64(perMille) / 10, true
		}
	}
	return 0, false
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread
// computed from them is the one the driver computes. xs needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return q(1), q(3)
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median.
func quartileSpread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}
