package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
// Nearest rank never interpolates, so every reported value is a latency
// that was actually observed. Returns 0 for an empty sample; xs is sorted
// in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// supportedTail returns the highest of the percentiles 50, 90, 99 and 99.9
// that still has at least ten of n samples beyond it — the rule for how far
// into the tail a sample of n can be read.
func supportedTail(n int) float64 {
	best := 0.50
	for _, permille := range []int{900, 990, 999} {
		if n*(1000-permille)/1000 >= 10 {
			best = float64(permille) / 1000
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so a
// spread computed here matches the one the acceptance driver computes.
// It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	at := func(i int) float64 {
		// position i*(n+1)/4 in 1-based order, clamped, interpolated
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return xs[j-1] + delta*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median, 0 when
// fewer than two values make it undefined.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	if len(values) == 1 {
		return values[0]
	}
	_, med, _ := quartiles(values)
	return med
}
