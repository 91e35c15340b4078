package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles op_tail_ms may report, highest
// first.
var tailCandidates = []float64{99, 95, 90, 80}

// minBeyond is how many samples must lie beyond a percentile before it
// is trusted as a tail estimate.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile picks the percentile op_tail_ms reports for n samples:
// the highest candidate with at least minBeyond samples beyond it. When
// no candidate qualifies it falls back to the lowest one (supported =
// false) rather than switching statistic, so the metric stays
// continuous when an op count hovers around a threshold.
func tailPercentile(n int) (pct float64, supported bool) {
	for _, p := range tailCandidates {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return tailCandidates[len(tailCandidates)-1], false
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method — the one Python's statistics.quantiles(v, n=4) uses, so the
// spreads printed here are the ones the PR driver computes. It needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median; 0 for
// fewer than two values, where no spread can be observed.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}
