package main

import (
	"fmt"
	"reflect"
	"testing"

	"apex/internal/query"
	"apex/internal/xmlgraph"
)

func TestZipfSequenceDeterministicAndSkewed(t *testing.T) {
	a := zipfSequence(7, 512, 20000, 1.1)
	b := zipfSequence(7, 512, 20000, 1.1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sequences")
	}
	if reflect.DeepEqual(a, zipfSequence(8, 512, 20000, 1.1)) {
		t.Fatal("different seeds gave the same sequence")
	}
	counts := make([]int, 512)
	for _, i := range a {
		if i < 0 || i >= 512 {
			t.Fatalf("index %d out of range", i)
		}
		counts[i]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[200] {
		t.Fatalf("ranks not in decreasing frequency: %d %d %d %d", counts[0], counts[1], counts[10], counts[200])
	}
}

func TestMixSequenceFollowsWeights(t *testing.T) {
	sizes, weights := []int{100, 10, 20}, []int{10, 1, 2}
	a := mixSequence(3, sizes, weights, 65000)
	if !reflect.DeepEqual(a, mixSequence(3, sizes, weights, 65000)) {
		t.Fatal("same seed gave different sequences")
	}
	var groups [3]int
	for _, i := range a {
		switch {
		case i < 100:
			groups[0]++
		case i < 110:
			groups[1]++
		case i < 130:
			groups[2]++
		default:
			t.Fatalf("index %d out of range", i)
		}
	}
	for g, w := range weights {
		want := float64(len(a)) * float64(w) / 13
		if got := float64(groups[g]); got < 0.95*want || got > 1.05*want {
			t.Errorf("group %d drew %v, want about %v", g, got, want)
		}
	}
}

func TestReorderKeepsTheRequests(t *testing.T) {
	seq := zipfSequence(1, 512, 20000, 1.1)
	a, b := reorder(seq, 5), reorder(seq, 6)
	if !reflect.DeepEqual(a, reorder(seq, 5)) {
		t.Fatal("reorder is not deterministic for a seed")
	}
	if reflect.DeepEqual(a, b) || reflect.DeepEqual(a, seq) {
		t.Fatal("different seeds gave the same order")
	}
	count := func(s []int) map[int]int {
		c := map[int]int{}
		for _, v := range s {
			c[v]++
		}
		return c
	}
	if !reflect.DeepEqual(count(a), count(seq)) || !reflect.DeepEqual(count(b), count(seq)) {
		t.Fatal("reorder changed which requests are sent")
	}
}

func TestDistinctAndSample(t *testing.T) {
	next := 0
	gen := func(n int) []query.Query {
		out := make([]query.Query, n)
		for i := range out {
			out[i] = query.Query{Type: query.QTYPE1, Path: xmlgraph.LabelPath{fmt.Sprintf("l%d", next%300)}}
			next++
		}
		return out
	}
	got, err := distinct(gen, 250)
	if err != nil || len(got) != 250 {
		t.Fatalf("distinct = %d queries, %v", len(got), err)
	}
	seen := map[string]bool{}
	for _, q := range got {
		if seen[q] {
			t.Fatalf("duplicate %s", q)
		}
		seen[q] = true
	}
	if _, err := distinct(gen, 301); err == nil {
		t.Fatal("asked for more distinct queries than exist, got no error")
	}
	s1, s2 := sample(got, 0.2, 5), sample(got, 0.2, 5)
	if len(s1) != 50 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("sample: %d queries, deterministic=%v", len(s1), reflect.DeepEqual(s1, s2))
	}
}

func TestLastDistinctIsLRUContent(t *testing.T) {
	got := lastDistinct([]int{1, 2, 3, 1, 4, 2, 5}, 3)
	if want := []int{4, 2, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lastDistinct = %v, want %v", got, want)
	}
	if got := lastDistinct([]int{1, 1, 2}, 10); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("lastDistinct = %v, want [1 2]", got)
	}
}
