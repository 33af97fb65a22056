package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Req: 1, Parent: -1, Start: 0, End: 100},
		{Name: "query.parse", Req: 1, Parent: 0, Start: 0, End: 10},
		{Name: "shard.gather", Req: 1, Parent: 0, Start: 20, End: 80},
		{Name: "shard.backend", Req: 1, Parent: 2, Start: 25, End: 60}, // overlapping
		{Name: "shard.backend", Req: 1, Parent: 2, Start: 30, End: 70}, // shard calls
		{Name: "shard.merge", Req: 1, Parent: 0, Start: 85, End: 95},
		{Name: "late", Req: 1, Parent: 5, Start: 90, End: 120}, // clipped to its parent
	}
	got := selfTimes(spans)
	want := []int64{100 - 10 - 60 - 10, 10, 60 - 45, 35, 40, 10 - 5, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestSummarizeKeepsOneRootKind(t *testing.T) {
	spans := []span{
		{Name: "request", Req: 0, Parent: -1, Start: 0, End: 100},
		{Name: "apex.query", Req: 0, Parent: 0, Start: 10, End: 70},
		{Name: "request", Req: 2, Parent: -1, Start: 200, End: 260},
		{Name: "apex.query", Req: 2, Parent: 2, Start: 210, End: 250},
		{Name: "write", Req: 1, Parent: -1, Start: 0, End: 5000},
		{Name: "core.refresh", Req: 1, Parent: 4, Start: 0, End: 4000},
	}
	rep := summarize(spans, "request")
	if got := rep.SelfPerReq["apex.query"]; got != 0.05 { // (60+40)/2 ns in µs
		t.Fatalf("apex.query self per request = %v µs, want 0.05", got)
	}
	if _, ok := rep.SelfPerReq["core.refresh"]; ok {
		t.Fatal("a write's span was counted as a read layer")
	}
	if len(rep.ReqLayerSum) != 2 || rep.ReqLayerSum[0] != 0.06 || rep.ReqLayerSum[1] != 0.04 {
		t.Fatalf("per-request layer sums = %v", rep.ReqLayerSum)
	}
}

func TestRecorderSpansNest(t *testing.T) {
	r := newRecorder()
	root := r.begin("request", 7, -1)
	child := r.begin("query.parse", 7, root)
	time.Sleep(time.Millisecond)
	r.end(child)
	r.end(root)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Req != 7 {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].Start > s[1].Start || s[0].End < s[1].End || s[1].End-s[1].Start < int64(time.Millisecond) {
		t.Fatalf("child not inside its parent: %+v", s)
	}
}
