package main

import (
	"math"
	"testing"
)

func TestTailIndexLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		want   float64
		index  int
		usable bool
	}{
		{n: 10, want: 0.99, usable: false},
		{n: 11, want: 0.99, index: 0, usable: true},
		{n: 100, want: 0.99, index: 89, usable: true},   // lowered to p90
		{n: 100, want: 0.50, index: 49, usable: true},   // already has 50 beyond
		{n: 1000, want: 0.99, index: 989, usable: true}, // exactly ten beyond
		{n: 5000, want: 0.99, index: 4949, usable: true},
	}
	for _, c := range cases {
		i, ok := tailIndex(c.n, c.want)
		if ok != c.usable || (ok && i != c.index) {
			t.Errorf("tailIndex(%d, %v) = %d, %v; want %d, %v", c.n, c.want, i, ok, c.index, c.usable)
		}
		if ok && c.n-1-i < minBeyond {
			t.Errorf("tailIndex(%d, %v) leaves %d samples beyond", c.n, c.want, c.n-1-i)
		}
	}
}

func TestTailOfReportsQuantileAndCount(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	got := tailOf(s, 0.99)
	if got.Q != 0.90 || got.Value != 90 || got.N != 100 {
		t.Fatalf("tailOf = %+v, want q=0.90 value=90 n=100", got)
	}
	if small := tailOf(s[:5], 0.99); small.N != 5 || small.Q != 0 {
		t.Fatalf("tailOf over 5 samples = %+v, want no percentile", small)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread([]float64{16, 1, 8, 2, 4}); math.Abs(got-10.5/4) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, 10.5/4)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if quantile(s, 0.5) != 2 || quantile(s, 0.75) != 3 || quantile(s, 1) != 4 || quantile(nil, 0.5) != 0 {
		t.Fatal("nearest-rank quantile off")
	}
}
