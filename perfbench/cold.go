package main

import (
	"context"
	"sync"
	"time"

	"apex"
	"apex/internal/server"
	"apex/internal/shard"
	"apex/internal/workload"
	"apex/internal/xmlgraph"
)

// serve-cold: the `apexd -shards 2` stack, uniform requests over a
// population of distinct QTYPE1, QTYPE2 and QTYPE3 queries larger than the
// result cache, so most requests pay for scatter-gather and evaluation.
const (
	coldShards = 2
	coldQ1     = 4000
	coldQ2     = 300
	coldQ3     = 800
	coldWarm   = 3000 // sequence requests before timing: fills the caches
)

// coldMix is the paper's 10:1:2 QTYPE1:QTYPE2:QTYPE3 request mix.
var coldMix = []int{10, 1, 2}

func runServeCold(e env) (*outcome, error) {
	return runServe(e, serveWorkload{
		name: "serve-cold",
		population: func(g *xmlgraph.Graph) ([]string, []string, error) {
			gen := workload.New(g, populationSeed)
			q1, err := distinct(gen.QType1, coldQ1)
			if err != nil {
				return nil, nil, err
			}
			q2, err := distinct(gen.QType2, coldQ2)
			if err != nil {
				return nil, nil, err
			}
			q3, err := distinct(gen.QType3, coldQ3)
			if err != nil {
				return nil, nil, err
			}
			pop := append(append(q1, q2...), q3...)
			return pop, sample(q1, adaptFrac, populationSeed), nil
		},
		sequence: func(seed int64) []int {
			return reorder(mixSequence(populationSeed, []int{coldQ1, coldQ2, coldQ3}, coldMix, seqLen), seed)
		},
		warm: func(_ []string, seq []int) ([]int, int) {
			return seq[:coldWarm], coldWarm
		},
		build:         buildCold,
		cachePerShard: cacheEntries / coldShards,
		tracedPerSec:  300,
	})
}

// buildCold is `apexd -shards 2`: partition and build the shard indexes,
// adapt every shard, route, serve.
func buildCold(g *xmlgraph.Graph, adaptSample []string) (*stack, error) {
	start := time.Now()
	local, _, err := shard.BuildLocal(g, coldShards, nil)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	rt := shard.NewRouter(shard.Backends(local), 0)
	if err := rt.Adapt(-1, adaptSample, minSup); err != nil {
		return nil, err
	}
	adapted := time.Now()
	srv := server.NewRouterServer(rt, server.Config{})
	addr, stop, err := listen(srv.Serve)
	if err != nil {
		return nil, err
	}
	ixs := make([]*apex.Index, len(local))
	for i, b := range local {
		ixs[i] = b.Index()
	}
	return &stack{
		addr:       addr,
		handler:    srv.Handler(),
		indexes:    ixs,
		cacheStats: srv.CacheStats,
		stop:       stop,
		build:      built.Sub(start),
		adapt:      adapted.Sub(built),
		tracer:     func() requestTracer { return newColdTracer(local) },
	}, nil
}

// coldTracer replays RouterServer.handleQuery's calls: canonicalize, probe
// every shard's cache, gather the missing shards through timing wrappers
// around the backends, fill the caches, record the hits' workload, merge.
type coldTracer struct {
	rt     *shard.Router
	ixs    []*apex.Index
	caches []*server.Cache

	// The request being decomposed; set before each gather, read by the
	// backend wrappers on the gather's goroutines.
	rec    *recorder
	req    int64
	parent int

	mu   sync.Mutex
	durs []time.Duration // backend call times of the current gather
}

func newColdTracer(local []*shard.LocalBackend) *coldTracer {
	t := &coldTracer{}
	bs := make([]shard.Backend, len(local))
	for i, b := range local {
		bs[i] = &timedBackend{Backend: b, t: t}
		t.ixs = append(t.ixs, b.Index())
		t.caches = append(t.caches, server.NewCache(cacheEntries/len(local)))
	}
	t.rt = shard.NewRouter(bs, 0)
	return t
}

// timedBackend times each Backend.Query as a "shard.backend" span.
type timedBackend struct {
	shard.Backend
	t *coldTracer
}

func (b *timedBackend) Query(ctx context.Context, canonical string) (*apex.Result, uint64, error) {
	t := b.t
	if t.rec == nil {
		return b.Backend.Query(ctx, canonical)
	}
	s := t.rec.begin("shard.backend", t.req, t.parent)
	start := time.Now()
	res, gen, err := b.Backend.Query(ctx, canonical)
	d := time.Since(start)
	t.rec.end(s)
	t.mu.Lock()
	t.durs = append(t.durs, d)
	t.mu.Unlock()
	return res, gen, err
}

func (t *coldTracer) prime(q string) error {
	qtype, canonical, err := shard.Canonicalize(q)
	if err != nil {
		return err
	}
	t.rec = nil
	res, gens, err := t.rt.Gather(context.Background(), canonical, nil)
	if err != nil {
		return err
	}
	for i, c := range t.caches {
		c.Put(gens[i], qtype, canonical, res[i])
	}
	return nil
}

func (t *coldTracer) costTotal() int64 {
	var c int64
	for _, ix := range t.ixs {
		c += ix.QueryCostTotal()
	}
	return c
}

func (t *coldTracer) decompose(rec *recorder, req int64, q string) (decomp, error) {
	var d decomp
	root := rec.begin("request", req, -1)
	defer rec.end(root)
	s := rec.begin("query.parse", req, root)
	qtype, canonical, err := shard.Canonicalize(q)
	rec.end(s)
	if err != nil {
		return d, err
	}
	n := t.rt.NumShards()
	s = rec.begin("server.cache_probe", req, root)
	gens := t.rt.Generations()
	partials := make([]*apex.Result, n)
	need, hit := make([]bool, n), make([]bool, n)
	misses := 0
	for i, c := range t.caches {
		if res, ok := c.Get(gens[i], qtype, canonical); ok {
			partials[i], hit[i] = res, true
		} else {
			need[i] = true
			misses++
		}
	}
	rec.end(s)
	if misses > 0 {
		cost0 := t.costTotal()
		s = rec.begin("shard.gather", req, root)
		t.rec, t.req, t.parent, t.durs = rec, req, s, t.durs[:0]
		fresh, freshGens, err := t.rt.Gather(context.Background(), canonical, need)
		rec.end(s)
		t.rec = nil
		if err != nil {
			return d, err
		}
		d.cost, d.evaluated = t.costTotal()-cost0, true
		d.skew = skew(t.durs)
		s = rec.begin("server.cache_fill", req, root)
		for i := range need {
			if need[i] {
				partials[i] = fresh[i]
				t.caches[i].Put(freshGens[i], qtype, canonical, fresh[i])
			}
		}
		rec.end(s)
	}
	if misses < n {
		s = rec.begin("server.record_workload", req, root)
		err = t.rt.RecordWorkload(canonical, hit)
		rec.end(s)
		if err != nil {
			return d, err
		}
	}
	s = rec.begin("shard.merge", req, root)
	runs := make([][]apex.Node, 0, n)
	for _, p := range partials {
		runs = append(runs, p.Nodes)
	}
	merged := shard.MergeNodeRuns(runs)
	rec.end(s)
	d.nodes = len(merged)
	return d, nil
}

// skew is the slowest shard call over the median one (nearest rank: with
// two shards, slowest over fastest); 0 with fewer than two calls.
func skew(durs []time.Duration) float64 {
	if len(durs) < 2 {
		return 0
	}
	xs := make([]float64, len(durs))
	for i, d := range durs {
		xs[i] = float64(d)
	}
	s := sortedCopy(xs)
	if med := quantile(s, 0.5); med > 0 {
		return s[len(s)-1] / med
	}
	return 0
}
