package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the span that made the call (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the length of a traced run. It is safe
// for concurrent use: the per-shard spans of one gather end on the gather's
// goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, req int64, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap one another
// (the concurrent per-shard calls of a gather) are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerReport summarizes the spans of a traced run.
type layerReport struct {
	// SelfPerReq is each layer's mean self time per traced request, in µs:
	// means add up, so the layers' shares of a request can be summed.
	SelfPerReq map[string]float64
	// Durations holds every span's full duration in µs, by name.
	Durations map[string][]float64
	// ReqLayerSum holds, per request, the sum of its non-root spans' self
	// times in µs — the part of the request the layers account for.
	ReqLayerSum []float64
}

// summarize computes self times per layer over the requests whose root span
// is named root.
func summarize(spans []span, root string) layerReport {
	self := selfTimes(spans)
	rep := layerReport{SelfPerReq: map[string]float64{}, Durations: map[string][]float64{}}
	perReq := map[int64]float64{}
	var reqs []int64
	for _, s := range spans {
		if s.Parent < 0 && s.Name == root {
			reqs = append(reqs, s.Req)
			perReq[s.Req] = 0
		}
	}
	for i, s := range spans {
		if _, ok := perReq[s.Req]; !ok || s.Parent < 0 {
			continue
		}
		us := float64(self[i]) / 1e3
		rep.SelfPerReq[s.Name] += us
		rep.Durations[s.Name] = append(rep.Durations[s.Name], float64(s.End-s.Start)/1e3)
		perReq[s.Req] += us
	}
	if n := float64(len(reqs)); n > 0 {
		for k := range rep.SelfPerReq {
			rep.SelfPerReq[k] /= n
		}
	}
	for _, r := range reqs {
		rep.ReqLayerSum = append(rep.ReqLayerSum, perReq[r])
	}
	return rep
}
