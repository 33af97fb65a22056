package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"apex"
	"apex/internal/datagen"
	"apex/internal/server"
	"apex/internal/xmlgraph"
)

// Both serving workloads run over the footprint preset: the largest Table 1
// file (Ged03.xml) at ten times the default scale, ~121k nodes.
const (
	serveDataset = datagen.FootprintDataset
	serveScale   = datagen.FootprintScale
	minSup       = 0.005 // the paper's protocol
	adaptFrac    = 0.2   // share of the QTYPE1 population the index adapts to
	setupReps    = 3     // set-ups per run; setup_s is their median
	seqLen       = 1 << 16
	// idSampleEvery picks the responses whose node IDs are checked in full;
	// every response has its status and count checked.
	idSampleEvery = 16
	cacheEntries  = 4096 // the server's default result cache
	// populationSeed fixes each workload's query population and adaptation
	// sample, as the dataset's own generator seed fixes the document:
	// --seed draws the request sequence over them. Every seed thus measures
	// the same work, in a different order, and runs under different seeds
	// are comparable.
	populationSeed = 1
)

// stack is one serving set-up: a server over its index(es) on a loopback
// listener.
type stack struct {
	addr       string
	handler    http.Handler
	indexes    []*apex.Index
	cacheStats func() server.CacheStats
	stop       func() error
	build      time.Duration // index build (and partitioning)
	adapt      time.Duration // initial adapt to the workload sample
	// tracer decomposes requests through the server's public calls; built
	// only for traced runs.
	tracer func() requestTracer
}

// requestTracer replays the calls the server makes for one request, from
// outside and in the server's order, with a span around each.
type requestTracer interface {
	// prime puts q's answer into the tracer's own caches, untimed, so they
	// hold what the server's caches hold.
	prime(q string) error
	// decompose runs one request under root span "request".
	decompose(rec *recorder, req int64, q string) (decomp, error)
}

// decomp is what one decomposed request reports besides its spans.
type decomp struct {
	nodes     int
	evaluated bool    // the request missed the cache and was evaluated
	cost      int64   // logical cost of the evaluation (QueryCostTotal delta)
	skew      float64 // slowest ÷ median shard, 0 when no gather ran
}

// serveWorkload is what differs between serve-hot and serve-cold.
type serveWorkload struct {
	name string
	// population returns the distinct queries and the sample the index
	// adapts to at set-up.
	population func(g *xmlgraph.Graph) (pop, adaptSample []string, err error)
	// sequence draws the request sequence: indexes into the population.
	sequence func(seed int64) []int
	// warm returns the request indexes (into the population) of the
	// warm-up, and how far into the sequence it went.
	warm func(pop []string, seq []int) ([]int, int)
	// build sets one stack up; everything it does counts toward setup_s.
	build func(g *xmlgraph.Graph, adaptSample []string) (*stack, error)
	// cachePerShard is the capacity of each of the server's caches.
	cachePerShard int
	// tracedPerSec sizes the fixed request counts of a traced run.
	tracedPerSec int
}

// listen runs serve on a new loopback listener; stop cancels it and waits
// for the drain.
func listen(serve func(ctx context.Context, ln net.Listener) error) (addr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln) }()
	return ln.Addr().String(), func() error { cancel(); return <-done }, nil
}

// httpLoop sends requests over one connection and checks every answer.
type httpLoop struct {
	c    *client
	reqs [][]byte
	pop  []string
	exp  map[string]answer

	sent     []int           // population index of every request sent, in order
	lat      []time.Duration // latencies of the successful requests of one()
	failed   int64
	shed     int64
	bytes    int64
	problems []string
}

// one sends population query qi and checks the answer outside the timed
// interval.
func (l *httpLoop) one(qi int) {
	status, body, wall, err := l.c.do(l.reqs[qi])
	l.sent = append(l.sent, qi)
	if l.check(qi, status, body, err) {
		l.lat = append(l.lat, wall)
	}
}

func (l *httpLoop) check(qi, status int, body []byte, err error) bool {
	q := l.pop[qi]
	want := l.exp[q]
	bad := func(format string, args ...any) bool {
		l.failed++
		if len(l.problems) < 5 {
			l.problems = append(l.problems, fmt.Sprintf("%s: ", q)+fmt.Sprintf(format, args...))
		}
		return false
	}
	if err != nil {
		return bad("%v", err)
	}
	l.bytes += int64(len(body))
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests {
			l.shed++
		}
		return bad("status %d", status)
	}
	if n, ok := bodyCount(body); !ok || n != want.Count {
		return bad("count %d, want %d", n, want.Count)
	}
	if len(l.sent)%idSampleEvery == 0 {
		got, err := bodyAnswer(body)
		if err != nil {
			return bad("%v", err)
		}
		if got != want {
			return bad("node IDs differ from the reference")
		}
	}
	return true
}

// count sends the next n requests of the sequence from *pos.
func (l *httpLoop) count(seq []int, pos *int, n int) {
	for i := 0; i < n; i++ {
		l.one(seq[*pos%len(seq)])
		*pos++
	}
}

// timed runs the sequence from *pos for d and returns the phase's figures,
// each the median over the phase's blocks, with answer checks and speed
// probes excluded from the blocks' wall time.
func (l *httpLoop) timed(seq []int, pos *int, d time.Duration, probe *speedProbe) phaseFigures {
	start := time.Now()
	clk := newBlockClock(start, d, probe)
	for now := start; now.Sub(start) < d; now = time.Now() {
		b := clk.at(now)
		qi := seq[*pos%len(seq)]
		*pos++
		status, body, wall, err := l.c.do(l.reqs[qi])
		end := time.Now()
		l.sent = append(l.sent, qi)
		ok := l.check(qi, status, body, err)
		b.untimed += time.Since(end)
		b.done(end, wall, ok)
	}
	clk.close()
	return clk.figures()
}

func runServe(e env, w serveWorkload) (*outcome, error) {
	o := &outcome{Metrics: map[string]float64{}}
	m := o.Metrics
	probe := newSpeedProbe()
	h0 := liveHeapMB()
	ds, err := datagen.LoadDataset(serveDataset, serveScale)
	if err != nil {
		return nil, err
	}
	g := ds.Graph
	m["xmlgraph.heap_mb"] = liveHeapMB() - h0
	pop, adaptSample, err := w.population(g)
	if err != nil {
		return nil, err
	}

	var st *stack
	var builds, adapts []time.Duration
	setups, err := setupTimes(setupReps, probe, func() error {
		s, err := w.build(g, adaptSample)
		if err != nil {
			return err
		}
		st = s
		builds, adapts = append(builds, s.build), append(adapts, s.adapt)
		return nil
	}, func() error { return st.stop() })
	if err != nil {
		return nil, err
	}
	defer st.stop()
	setupSpeed := probe.speed()
	m["setup_s"] = median(inUnits(setups, time.Second)) * setupSpeed
	probe.reset()
	m["core.build_s"] = median(inUnits(builds, time.Second))
	m["core.adapt_s"] = median(inUnits(adapts, time.Second))

	exp, err := referenceAnswers(g, pop)
	if err != nil {
		return nil, err
	}

	seq := w.sequence(e.Seed)
	reqs := make([][]byte, len(pop))
	for i, q := range pop {
		reqs[i] = encodeQuery(st.addr, q)
	}
	c, err := dial(st.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	loop := &httpLoop{c: c, reqs: reqs, pop: pop, exp: exp}
	warm, pos := w.warm(pop, seq)
	for _, qi := range warm {
		loop.one(qi)
	}
	m["heap_mb"] = liveHeapMB() - h0
	var extBytes, extPairs float64
	for _, ix := range st.indexes {
		s := ix.Stats()
		extBytes += float64(s.ExtentBytes)
		if s.BytesPerEdge > 0 {
			extPairs += float64(s.ExtentBytes) / s.BytesPerEdge
		}
	}
	m["core.extent_bytes"] = extBytes
	if extPairs > 0 {
		m["core.bytes_per_edge"] = extBytes / extPairs
	}
	fmt.Fprintf(e.Out, "  population=%d distinct, warm-up=%d requests, setups=%v at speed %.3f\n", len(pop), len(warm), setups, setupSpeed)

	if !e.Trace {
		f := loop.timed(seq, &pos, e.Dur, probe)
		f.report(m)
		fmt.Fprintf(e.Out, "  timed: %d queries, %d failed, in %d blocks: %s\n", f.done, f.failed, len(f.tails), f.describe())
	} else if err := traceServe(e, w, st, loop, seq, &pos, m); err != nil {
		return nil, err
	}
	o.Attempted = int64(len(loop.sent))
	o.Failed = loop.failed
	o.Problems = append(o.Problems, loop.problems...)
	return o, nil
}

// traceServe is the traced run of a serving workload. It sends fixed
// request counts so every single-threaded counter repeats exactly: an
// untraced phase over HTTP, an in-process phase through the handler, and a
// traced phase where each request goes over HTTP and is then decomposed
// through the server's public calls.
func traceServe(e env, w serveWorkload, st *stack, loop *httpLoop, seq []int, pos *int, m map[string]float64) error {
	n := w.tracedPerSec * int(e.Dur/time.Second) / 2
	if n < 200 {
		n = 200
	}
	plan0 := planTotals(st.indexes)
	cache0 := st.cacheStats()
	meter := startRuntimeMeter()
	loop.lat = loop.lat[:0]
	sent0, bytes0, shed0 := len(loop.sent), loop.bytes, loop.shed
	loop.count(seq, pos, n)
	untraced := sortedCopy(inUnits(loop.lat, time.Microsecond))
	ops := int64(len(loop.sent) - sent0)
	m["runtime.alloc_kb_per_op"], m["runtime.gc_per_kop"] = meter.perOp(ops)
	m["server.resp_bytes"] = float64(loop.bytes-bytes0) / float64(ops)
	m["server.shed_ratio"] = float64(loop.shed-shed0) / float64(ops)
	cache := st.cacheStats()
	if probes := (cache.Hits - cache0.Hits) + (cache.Misses - cache0.Misses); probes > 0 {
		m["server.cache_hit_ratio"] = float64(cache.Hits-cache0.Hits) / float64(probes)
	}
	plan := planTotals(st.indexes).minus(plan0)
	m["query.plan_hit_ratio"], m["query.backward_share"] = plan.ratios()

	// server.handle: the same handler in-process on a recorder, over the
	// next n requests of the sequence.
	var handle []time.Duration
	for i := 0; i < n; i++ {
		qi := seq[*pos%len(seq)]
		*pos++
		body := loop.reqs[qi][bytes.Index(loop.reqs[qi], []byte("\r\n\r\n"))+4:]
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		st.handler.ServeHTTP(rec, req)
		d := time.Since(start)
		loop.sent = append(loop.sent, qi)
		if loop.check(qi, rec.Code, rec.Body.Bytes(), nil) {
			handle = append(handle, d)
		}
	}
	handleP50 := median(inUnits(handle, time.Microsecond))
	m["server.handle_us"] = handleP50
	m["server.net_us"] = quantile(untraced, 0.5) - handleP50

	// The tracer's caches start as the server's are now: the most recent
	// distinct queries, up to each cache's capacity, in recency order.
	tr := st.tracer()
	for _, qi := range lastDistinct(loop.sent, w.cachePerShard) {
		if err := tr.prime(loop.pop[qi]); err != nil {
			return err
		}
	}
	rec := newRecorder()
	var cost int64
	var evaluated, nodes int
	var skews []float64
	for i := 0; i < n; i++ {
		qi := seq[*pos%len(seq)]
		*pos++
		req := int64(2 * i)
		h := rec.begin("http", req+1, -1)
		loop.one(qi)
		rec.end(h)
		d, err := tr.decompose(rec, req, loop.pop[qi])
		if err != nil {
			return err
		}
		if d.nodes != loop.exp[loop.pop[qi]].Count {
			loop.failed++
			loop.problems = append(loop.problems, fmt.Sprintf("%s: decomposed answer has %d nodes", loop.pop[qi], d.nodes))
		}
		nodes += d.nodes
		cost += d.cost
		if d.evaluated {
			evaluated++
		}
		if d.skew > 0 {
			skews = append(skews, d.skew)
		}
	}
	spans := rec.snapshot()
	if err := writeSpans(filepath.Join(e.Workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, e.Seed)), spans); err != nil {
		return err
	}
	rep := summarize(spans, "request")
	var httpTraced []float64
	for _, s := range spans {
		if s.Name == "http" {
			httpTraced = append(httpTraced, float64(s.End-s.Start)/1e3)
		}
	}
	tracedP50 := median(httpTraced)
	m["trace.closure"] = median(rep.ReqLayerSum) / tracedP50
	m["trace.overhead"] = tracedP50 / quantile(untraced, 0.5)
	for name, us := range rep.SelfPerReq {
		m["self."+name+"_us"] = us
	}
	m["query.parse_us"] = median(rep.Durations["query.parse"])
	m["shard.gather_us"] = median(rep.Durations["shard.gather"])
	m["shard.backend_us"] = median(rep.Durations["shard.backend"])
	m["shard.merge_us"] = median(rep.Durations["shard.merge"])
	m["shard.skew"] = median(skews)
	m["apex.query_us"] = median(rep.Durations["apex.query"])
	if len(rep.Durations["apex.query"]) == 0 {
		// A local shard's Backend.Query is Index.QueryGen itself, so the
		// backend spans time the index.
		m["apex.query_us"] = m["shard.backend_us"]
	}
	m["apex.result_nodes"] = float64(nodes) / float64(n)
	m["query.cost_per_query"] = float64(cost) / float64(n)
	fmt.Fprintf(e.Out, "  traced: %d requests (%d evaluated), untraced p50 %.1fus, handle p50 %.1fus, traced p50 %.1fus\n",
		n, evaluated, quantile(untraced, 0.5), handleP50, tracedP50)
	return nil
}

// lastDistinct returns the most recent distinct values of sent, at most
// capacity of them, oldest first: the content of an LRU cache of that
// capacity that saw sent in order.
func lastDistinct(sent []int, capacity int) []int {
	seen := map[int]bool{}
	var rev []int
	for i := len(sent) - 1; i >= 0 && len(rev) < capacity; i-- {
		if !seen[sent[i]] {
			seen[sent[i]] = true
			rev = append(rev, sent[i])
		}
	}
	out := make([]int, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// planCounts sums planner counters over indexes.
type planCounts struct{ hits, lookups, forward, backward int64 }

func planTotals(ixs []*apex.Index) planCounts {
	var c planCounts
	for _, ix := range ixs {
		s := ix.PlanStats()
		c.hits += s.PlanHits + s.LegHits
		c.lookups += s.PlanHits + s.PlanMisses + s.LegHits + s.LegMisses
		c.forward += s.Forward
		c.backward += s.Backward
	}
	return c
}

func (c planCounts) minus(d planCounts) planCounts {
	return planCounts{c.hits - d.hits, c.lookups - d.lookups, c.forward - d.forward, c.backward - d.backward}
}

// ratios returns the plan-cache hit ratio and the share of backward plans.
func (c planCounts) ratios() (hit, backward float64) {
	if c.lookups > 0 {
		hit = float64(c.hits) / float64(c.lookups)
	}
	if plans := c.forward + c.backward; plans > 0 {
		backward = float64(c.backward) / float64(plans)
	}
	return hit, backward
}
