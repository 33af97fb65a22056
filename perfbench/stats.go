package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p99 over 200 samples would rest on two of them, so the benchmark lowers
// the percentile until ten samples lie beyond it and says which one it used.
const minBeyond = 10

// tail is a reported tail percentile: the quantile actually used, its value,
// and the sample count it was taken over.
type tail struct {
	Q     float64
	Value float64
	N     int
}

// tailIndex returns the nearest-rank index of the want-quantile of n sorted
// samples, lowered until at least minBeyond samples lie above it; ok is false
// when n is too small for any index to qualify.
func tailIndex(n int, want float64) (int, bool) {
	if n <= minBeyond {
		return 0, false
	}
	i := int(math.Ceil(want*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if limit := n - 1 - minBeyond; i > limit {
		i = limit
	}
	return i, true
}

// tailOf reports the highest percentile at most want that leaves minBeyond
// samples beyond it. sorted must be ascending.
func tailOf(sorted []float64, want float64) tail {
	i, ok := tailIndex(len(sorted), want)
	if !ok {
		return tail{N: len(sorted)}
	}
	return tail{Q: float64(i+1) / float64(len(sorted)), Value: sorted[i], N: len(sorted)}
}

// quantile is the nearest-rank q-quantile of ascending samples (0 for none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median is the nearest-rank median of unsorted samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	return quantile(s, 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs into four groups with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule the
// steadiness check is defined by. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// inUnits converts durations to float counts of unit.
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
