package main

import (
	"context"
	"time"

	"apex"
	"apex/internal/query"
	"apex/internal/server"
	"apex/internal/workload"
	"apex/internal/xmlgraph"
)

// serve-hot: apexd's default single-index stack, Zipf-skewed requests over a
// population that fits the result cache many times over, so nearly every
// request is a cache hit and the time goes to the serving path.
const (
	hotPopulation = 512
	hotZipfS      = 1.1
	hotWarmSeq    = 2000 // sequence requests after the pass over the population
)

func runServeHot(e env) (*outcome, error) {
	return runServe(e, serveWorkload{
		name: "serve-hot",
		population: func(g *xmlgraph.Graph) ([]string, []string, error) {
			pop, err := distinct(workload.New(g, populationSeed).QType1, hotPopulation)
			if err != nil {
				return nil, nil, err
			}
			return pop, sample(pop, adaptFrac, populationSeed), nil
		},
		// Zipf rank r is the r-th query of the fixed population.
		sequence: func(seed int64) []int {
			return reorder(zipfSequence(populationSeed, hotPopulation, seqLen, hotZipfS), seed)
		},
		warm: func(pop []string, seq []int) ([]int, int) {
			warm := make([]int, 0, len(pop)+hotWarmSeq)
			for i := range pop {
				warm = append(warm, i)
			}
			return append(warm, seq[:hotWarmSeq]...), hotWarmSeq
		},
		build:         buildHot,
		cachePerShard: cacheEntries,
		tracedPerSec:  1500,
	})
}

// buildHot is `apexd` over one index: build, adapt, serve.
func buildHot(g *xmlgraph.Graph, adaptSample []string) (*stack, error) {
	start := time.Now()
	ix, err := apex.FromGraph(g, nil)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	if err := ix.AdaptTo(adaptSample, minSup); err != nil {
		return nil, err
	}
	adapted := time.Now()
	srv := server.New(ix, server.Config{})
	addr, stop, err := listen(srv.Serve)
	if err != nil {
		return nil, err
	}
	return &stack{
		addr:       addr,
		handler:    srv.Handler(),
		indexes:    []*apex.Index{ix},
		cacheStats: func() server.CacheStats { return srv.Cache().Stats() },
		stop:       stop,
		build:      built.Sub(start),
		adapt:      adapted.Sub(built),
		tracer: func() requestTracer {
			return &hotTracer{ix: ix, cache: server.NewCache(cacheEntries)}
		},
	}, nil
}

// hotTracer replays Server.handleQuery's calls: parse, cache probe, then
// either the workload record of a hit or evaluation and cache fill.
type hotTracer struct {
	ix    *apex.Index
	cache *server.Cache
}

func (t *hotTracer) prime(q string) error {
	parsed, err := query.Parse(q)
	if err != nil {
		return err
	}
	res, gen, err := t.ix.QueryGen(context.Background(), parsed.String())
	if err != nil {
		return err
	}
	t.cache.Put(gen, parsed.Type.String(), parsed.String(), res)
	return nil
}

func (t *hotTracer) decompose(rec *recorder, req int64, q string) (decomp, error) {
	var d decomp
	root := rec.begin("request", req, -1)
	defer rec.end(root)
	s := rec.begin("query.parse", req, root)
	parsed, err := query.Parse(q)
	rec.end(s)
	if err != nil {
		return d, err
	}
	qtype, canonical := parsed.Type.String(), parsed.String()
	s = rec.begin("server.cache_probe", req, root)
	res, hit := t.cache.Get(t.ix.Generation(), qtype, canonical)
	rec.end(s)
	if hit {
		s = rec.begin("server.record_workload", req, root)
		err = t.ix.RecordWorkload(canonical)
		rec.end(s)
	} else {
		cost0 := t.ix.QueryCostTotal()
		var gen uint64
		s = rec.begin("apex.query", req, root)
		res, gen, err = t.ix.QueryGen(context.Background(), canonical)
		rec.end(s)
		if err != nil {
			return d, err
		}
		d.cost, d.evaluated = t.ix.QueryCostTotal()-cost0, true
		s = rec.begin("server.cache_fill", req, root)
		t.cache.Put(gen, qtype, canonical, res)
		rec.end(s)
	}
	d.nodes = res.Len()
	return d, err
}
