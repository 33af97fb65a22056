package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	"apex"
	"apex/internal/xmlgraph"
)

// answer is what a query must return: its node count and a digest of its
// node IDs in document order.
type answer struct {
	Count  int
	Digest uint64
}

// digestIDs hashes node IDs in the given order (FNV-1a over little-endian
// int32s), so two answers agree only if they list the same nodes in the same
// order.
func digestIDs(ids []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, id := range ids {
		b[0], b[1], b[2], b[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// answerOf digests a library result.
func answerOf(res *apex.Result) answer {
	ids := make([]int32, len(res.Nodes))
	for i, n := range res.Nodes {
		ids[i] = n.ID
	}
	return answer{Count: len(ids), Digest: digestIDs(ids)}
}

// referenceAnswers evaluates every query once on a reference index: one
// index over g, built with the default options and never adapted, so an
// error of adaptation, sharding or updates in the measured stack cannot
// also be in the answers it is checked against. The reference is built
// after set-up (its time is not in setup_s) and is garbage once this
// returns (its memory is not in heap_mb).
func referenceAnswers(g *xmlgraph.Graph, qs []string) (map[string]answer, error) {
	ref, err := apex.FromGraph(g, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]answer, len(qs))
	for _, q := range qs {
		res, err := ref.Query(q)
		if err != nil {
			return nil, fmt.Errorf("reference answer for %s: %w", q, err)
		}
		out[q] = answerOf(res)
	}
	return out, nil
}

var countKey = []byte(`"count":`)

// bodyCount reads the "count" field of a /query response body without
// decoding the rest: the cheap check every response gets.
func bodyCount(body []byte) (int, bool) {
	i := bytes.Index(body, countKey)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(countKey):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// bodyAnswer fully decodes a /query response body and digests its node IDs:
// the check a deterministic sample of responses gets.
func bodyAnswer(body []byte) (answer, error) {
	var r struct {
		Count int `json:"count"`
		Nodes []struct {
			ID int32 `json:"id"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, err
	}
	ids := make([]int32, len(r.Nodes))
	for i, n := range r.Nodes {
		ids[i] = n.ID
	}
	if r.Count != len(ids) {
		return answer{}, fmt.Errorf("count %d but %d nodes", r.Count, len(ids))
	}
	return answer{Count: r.Count, Digest: digestIDs(ids)}, nil
}
