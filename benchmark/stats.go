package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns
// NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailSupported reports whether a sample of the given size has at least
// ten values beyond its p-th percentile, the rule that keeps a reported
// tail from being a single outlier: p90 needs 100 samples, p99 1000.
func tailSupported(samples int, p float64) bool {
	return float64(samples)*(100-p)/100 >= 10
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method: positions
// at (n+1)·k/4), which is what the benchmark contract's spread uses. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		// j = floor(k(n+1)/4), clamped to [1, n-1]; interpolate between
		// s[j-1] and s[j] by the remainder, as CPython does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// minSpreadRuns is the fewest runs whose quartiles say anything about
// how far runs of the same code lie apart.
const minSpreadRuns = 3

// spread is the interquartile distance of xs as a share of its median:
// the repeatability figure every bound is compared against. Fewer than
// minSpreadRuns values carry no quartiles; the spread is then NaN
// (unknown), which judge reports as unresolved.
func spread(xs []float64) float64 {
	if len(xs) < minSpreadRuns {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
