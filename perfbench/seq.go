package main

import (
	"fmt"
	"math/rand"

	"apex/internal/query"
)

// distinct draws queries from gen in batches until it holds want distinct
// ones, in first-drawn order. The generators draw with replacement from the
// document's path store, so a population larger than the store can offer is
// an error rather than a silent shortfall.
func distinct(gen func(n int) []query.Query, want int) ([]string, error) {
	seen := make(map[string]bool, want)
	out := make([]string, 0, want)
	for misses := 0; len(out) < want; {
		grew := false
		for _, q := range gen(256) {
			s := q.String()
			if seen[s] {
				continue
			}
			seen[s] = true
			grew = true
			out = append(out, s)
			if len(out) == want {
				break
			}
		}
		if !grew {
			misses++
		} else {
			misses = 0
		}
		if misses == 64 {
			return nil, fmt.Errorf("only %d distinct queries of %d wanted", len(out), want)
		}
	}
	return out, nil
}

// sample returns a seeded frac share of qs (at least one), the paper's
// protocol of adapting to 20% of the query population.
func sample(qs []string, frac float64, seed int64) []string {
	n := int(float64(len(qs)) * frac)
	if n < 1 {
		n = 1
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(qs))
	out := make([]string, n)
	for i := range out {
		out[i] = qs[perm[i]]
	}
	return out
}

// zipfSequence draws length indexes in [0, n) from a Zipf law with exponent s
// (rank 0 most frequent), seeded.
func zipfSequence(seed int64, n, length int, s float64) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))
	out := make([]int, length)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// mixSequence draws length indexes into the concatenation of the given
// groups: a group is chosen with probability proportional to its weight,
// then a member uniformly. It is the paper's 10:1:2 QTYPE1:QTYPE2:QTYPE3
// request mix over populations of different sizes.
func mixSequence(seed int64, sizes, weights []int, length int) []int {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, w := range weights {
		total += w
	}
	offsets := make([]int, len(sizes))
	for i := 1; i < len(sizes); i++ {
		offsets[i] = offsets[i-1] + sizes[i-1]
	}
	out := make([]int, length)
	for i := range out {
		pick := rng.Intn(total)
		g := 0
		for pick >= weights[g] {
			pick -= weights[g]
			g++
		}
		out[i] = offsets[g] + rng.Intn(sizes[g])
	}
	return out
}

// reorder returns seq's requests in an order chosen by seed. The sequences
// are drawn once, with populationSeed, and --seed only reorders them, so
// every seed sends the same multiset of requests: the share of heavy
// queries in a run, which sets its tail latency, does not move with the
// seed.
func reorder(seq []int, seed int64) []int {
	out := append([]int(nil), seq...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// uniformSequence draws length indexes uniformly from [0, n).
func uniformSequence(seed int64, n, length int) []int {
	return mixSequence(seed, []int{n}, []int{1}, length)
}
