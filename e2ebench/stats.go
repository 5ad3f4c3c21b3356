package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark treats it as measured rather than as the maximum in disguise.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least a q share of the samples at or below it.
// xs need not be sorted; it is not modified. An empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, q)
}

// tailPercentile picks the highest of the candidate percentiles (in
// descending order) that has at least minBeyond samples above it among n,
// falling back to the median. It is what the summary reports as the
// measurable tail of a latency series.
func tailPercentile(n int, candidates ...float64) float64 {
	for _, q := range candidates {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio divides, answering 0 for an empty denominator: per-layer counts
// are legitimately absent on workloads that never reach the layer.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
