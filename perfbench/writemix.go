package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"apex"
	"apex/internal/datagen"
	"apex/internal/metrics"
	"apex/internal/query"
	"apex/internal/storage"
	"apex/internal/workload"
	"apex/internal/xmlgraph"
)

// write-mix: one durable index serving a closed-loop reader while an
// open-loop writer inserts and deletes a fragment on a fixed schedule.
const (
	mixDataset    = "Ged03.xml"
	mixScale      = 0.05 // the default benchmark scale, ~12k nodes
	mixPopulation = 4096
	mixSetupReps  = 5
	mixWarm       = 2000 // reader requests before timing
	// writeEvery is the writer's schedule. A write takes ~45 ms beside the
	// reader with the WAL fsync on. At one write every 150 ms the writes and
	// the collections their clones cause kept the second CPU busy most of
	// the time, and the reader's figures moved with the host's load (their
	// spread between runs reached 57%); at 400 ms they held within ~8%.
	writeEvery      = 400 * time.Millisecond
	checkpointEvery = 10 // writes between checkpoints
	tailWrites      = 4  // journaled writes left for recovery to replay
	recoverReps     = 5
	costPass        = 1024 // reader requests of the exact-count pass
	// traceReadEvery thins the traced reads: the reader runs tens of
	// thousands of queries a second, and spans for all of them would
	// weigh more than the index.
	traceReadEvery = 16
)

// mixLabel is the fragment's element label; the dataset has no such label,
// so no reader query matches a fragment node and the answers stay fixed
// while the writer runs.
const mixLabel = "perfbenchw"

func mixFragment(k int) string {
	return fmt.Sprintf(`<%s n="%d"><perfbenchv>v%d</perfbenchv></%s>`, mixLabel, k, k, mixLabel)
}

var walFsyncs = metrics.Default.Counter("storage.wal.fsyncs_total")

// writeSample is one scheduled write.
type writeSample struct {
	lag     time.Duration // start - due
	latency time.Duration // end - due
	service time.Duration // end - start of the Insert/Delete call
	walB    int64
	fsyncs  int64
}

// mixer holds the index and the tallies of a write-mix run.
type mixer struct {
	ix  *apex.Index
	pop []string
	seq []int
	exp map[string]answer
	pos int

	writes int // writes issued so far; even → insert, odd → delete

	readN    int64 // reads attempted
	okReads  int64
	nodes    int64 // result nodes over okReads
	ckpts    []time.Duration
	mu       sync.Mutex // guards failed and problems: the reader and writer both report
	failed   int64
	problems []string
}

func (mx *mixer) problem(format string, args ...any) {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	mx.failed++
	if len(mx.problems) < 5 {
		mx.problems = append(mx.problems, fmt.Sprintf(format, args...))
	}
}

// read runs the next query of the sequence and checks its answer outside
// the timed interval. With rec set, the calls are spans of request req. It
// returns the query's latency, when it ended, and whether it succeeded.
func (mx *mixer) read(rec *recorder, req int64) (time.Duration, time.Time, bool) {
	q := mx.pop[mx.seq[mx.pos%len(mx.seq)]]
	mx.pos++
	mx.readN++
	var res *apex.Result
	var err error
	start := time.Now()
	if rec == nil {
		res, err = mx.ix.Query(q)
	} else {
		root := rec.begin("request", req, -1)
		s := rec.begin("query.parse", req, root)
		_, err = query.Parse(q)
		rec.end(s)
		if err == nil {
			s = rec.begin("apex.query", req, root)
			res, _, err = mx.ix.QueryGen(context.Background(), q)
			rec.end(s)
		}
		rec.end(root)
	}
	end := time.Now()
	want := mx.exp[q]
	switch {
	case err != nil:
		mx.problem("%s: %v", q, err)
	case res.Len() != want.Count:
		mx.problem("%s: %d nodes, want %d", q, res.Len(), want.Count)
	case mx.readN%idSampleEvery == 0 && answerOf(res) != want:
		mx.problem("%s: node IDs differ from the reference", q)
	default:
		mx.okReads++
		mx.nodes += int64(res.Len())
		return end.Sub(start), end, true
	}
	return end.Sub(start), end, false
}

// write applies the next scheduled write: an insert of a fragment under the
// root or the delete of it, so the document keeps its size.
func (mx *mixer) write() error {
	if mx.writes%2 == 0 {
		return mx.ix.Insert("/", mixFragment(mx.writes))
	}
	return mx.ix.Delete("//" + mixLabel)
}

// decomposeWrite repeats the next write's steps on clones of the published
// graph and index, with a span around each: graph clone, index clone,
// fragment append (or subtree removal), extent refresh, data-table rebuild.
// The clones are dropped; the real write follows.
func (mx *mixer) decomposeWrite(rec *recorder, req int64) error {
	var targets []xmlgraph.NID
	if mx.writes%2 == 1 {
		res, _, err := mx.ix.QueryGen(context.Background(), "//"+mixLabel)
		if err != nil {
			return err
		}
		for _, n := range res.Nodes {
			targets = append(targets, xmlgraph.NID(n.ID))
		}
	}
	root := rec.begin("write", req, -1)
	defer rec.end(root)
	g, idx := mx.ix.Graph(), mx.ix.Evaluator().Index()
	s := rec.begin("xmlgraph.clone", req, root)
	g2 := g.Clone()
	rec.end(s)
	s = rec.begin("core.clone", req, root)
	a2 := idx.CloneWithGraph(g2)
	rec.end(s)
	if targets == nil {
		s = rec.begin("xmlgraph.append", req, root)
		_, err := g2.AppendFragment(g2.Root(), mixFragment(mx.writes), &xmlgraph.BuildOptions{})
		rec.end(s)
		if err != nil {
			return err
		}
	} else {
		s = rec.begin("xmlgraph.remove", req, root)
		for _, t := range targets {
			if err := g2.RemoveSubtree(t); err != nil {
				rec.end(s)
				return err
			}
		}
		rec.end(s)
	}
	s = rec.begin("core.refresh", req, root)
	a2.RefreshData()
	rec.end(s)
	s = rec.begin("storage.datatable", req, root)
	_, err := storage.BuildDataTable(g2, 0, 64)
	rec.end(s)
	return err
}

// phase runs the reader and the writer together for d and returns the
// reader's figures (medians over blocks) and the writes. With rec set, reads
// and writes are decomposed into spans.
func (mx *mixer) phase(d time.Duration, rec *recorder, probe *speedProbe) (phaseFigures, []writeSample) {
	var ws []writeSample
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws = openLoop(start, deadline, writeEvery, func() writeSample {
			if rec != nil {
				if err := mx.decomposeWrite(rec, int64(2*mx.writes+1)); err != nil {
					mx.problem("decomposed write %d: %v", mx.writes, err)
				}
			}
			wal0, _ := mx.ix.DurabilityStats()
			fs0 := walFsyncs.Value()
			callStart := time.Now()
			if err := mx.write(); err != nil {
				mx.problem("write %d: %v", mx.writes, err)
			}
			w := writeSample{service: time.Since(callStart), fsyncs: walFsyncs.Value() - fs0}
			wal1, _ := mx.ix.DurabilityStats()
			w.walB = wal1.WALBytes - wal0.WALBytes
			mx.writes++
			return w
		}, func() {
			if mx.writes%checkpointEvery == 0 {
				c := time.Now()
				if err := mx.ix.Checkpoint(); err != nil {
					mx.problem("checkpoint: %v", err)
				}
				mx.ckpts = append(mx.ckpts, time.Since(c))
			}
		})
	}()
	clk := newBlockClock(start, d, probe)
	for req, now := int64(0), start; now.Before(deadline); req, now = req+1, time.Now() {
		b := clk.at(now)
		traced := rec
		if req%traceReadEvery != 0 {
			traced = nil
		}
		wall, end, ok := mx.read(traced, 2*req)
		b.untimed += time.Since(end)
		b.done(end, wall, ok)
	}
	clk.close()
	wg.Wait()
	return clk.figures(), ws
}

// openLoop issues writes on a fixed schedule from start until deadline:
// write k is due at start + k·interval, whether or not the writes before it
// were on time. Each sample counts from the due time, so a stall delays
// every write queued behind it, and lag is how late the write started.
// after runs once a write's sample is taken (the checkpoint that follows
// some writes), so its time shows as the next write's lag.
func openLoop(start, deadline time.Time, interval time.Duration, write func() writeSample, after func()) []writeSample {
	var ws []writeSample
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return ws
		}
		time.Sleep(time.Until(due))
		began := time.Now()
		w := write()
		end := time.Now()
		w.lag, w.latency = began.Sub(due), end.Sub(due)
		ws = append(ws, w)
		after()
	}
}

// backlogGrows reports whether writes fell further behind their schedule
// over the run: the median start lag of the last quarter of the writes
// exceeds that of the first quarter by more than half a write interval.
func backlogGrows(lags []time.Duration, interval time.Duration) bool {
	if len(lags) < 8 {
		return false
	}
	q := len(lags) / 4
	first := median(inUnits(lags[:q], time.Nanosecond))
	last := median(inUnits(lags[len(lags)-q:], time.Nanosecond))
	return last-first > float64(interval/2)
}

func runWriteMix(e env) (*outcome, error) {
	o := &outcome{Metrics: map[string]float64{}}
	m := o.Metrics
	probe := newSpeedProbe()
	h0 := liveHeapMB()
	ds, err := datagen.LoadDataset(mixDataset, mixScale)
	if err != nil {
		return nil, err
	}
	g := ds.Graph
	m["xmlgraph.heap_mb"] = liveHeapMB() - h0
	pop, err := distinct(workload.New(g, populationSeed).QType1, mixPopulation)
	if err != nil {
		return nil, err
	}
	adaptSample := sample(pop, adaptFrac, populationSeed)
	scratch, err := os.MkdirTemp(e.Workdir, "write-mix-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var ix *apex.Index
	var dir string
	var builds, adapts []time.Duration
	setups, err := setupTimes(mixSetupReps, probe, func() error {
		dir = filepath.Join(scratch, fmt.Sprintf("rep%d", len(builds)))
		start := time.Now()
		var err error
		// Parallelism 1 keeps the reader and the writer to one CPU each:
		// with the default, a write's refresh fans out onto the reader's.
		if ix, err = apex.FromGraph(g, &apex.Options{Parallelism: 1}); err != nil {
			return err
		}
		built := time.Now()
		if err := ix.AdaptTo(adaptSample, minSup); err != nil {
			return err
		}
		adapted := time.Now()
		builds, adapts = append(builds, built.Sub(start)), append(adapts, adapted.Sub(built))
		return ix.Persist(dir)
	}, func() error {
		if err := ix.Close(); err != nil {
			return err
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	setupSpeed := probe.speed()
	m["setup_s"] = median(inUnits(setups, time.Second)) * setupSpeed
	probe.reset()
	m["core.build_s"] = median(inUnits(builds, time.Second))
	m["core.adapt_s"] = median(inUnits(adapts, time.Second))
	exp, err := referenceAnswers(g, pop)
	if err != nil {
		return nil, err
	}

	mx := &mixer{ix: ix, pop: pop, seq: reorder(uniformSequence(populationSeed, len(pop), seqLen), e.Seed), exp: exp}
	for i := 0; i < mixWarm; i++ {
		mx.read(nil, 0)
	}
	m["heap_mb"] = liveHeapMB() - h0
	st := ix.Stats()
	m["core.extent_bytes"], m["core.bytes_per_edge"] = float64(st.ExtentBytes), st.BytesPerEdge
	fmt.Fprintf(e.Out, "  population=%d distinct, setups=%v at speed %.3f\n", len(pop), setups, setupSpeed)

	// The measured phase: the whole run untraced, or its first half when
	// the second half is traced.
	measure := e.Dur
	if e.Trace {
		measure = e.Dur / 2
	}
	writes0 := mx.writes
	meter := startRuntimeMeter()
	f, ws := mx.phase(measure, nil, probe)
	m["runtime.alloc_kb_per_op"], m["runtime.gc_per_kop"] = meter.perOp(f.done + f.failed + int64(len(ws)))
	f.report(m)
	writeMetrics(e, m, ws)
	lags := make([]time.Duration, len(ws))
	for i, w := range ws {
		lags[i] = w.lag
	}
	if backlogGrows(lags, writeEvery) {
		o.fail("writer backlog grows: writes fall further behind their schedule")
	}
	fmt.Fprintf(e.Out, "  timed: %d reads, %d failed, %d writes in %d blocks of reads: %s\n",
		f.done, f.failed, mx.writes-writes0, len(f.tails), f.describe())

	if e.Trace {
		if err := traceWriteMix(e, mx, m, f.p50); err != nil {
			return nil, err
		}
	}
	if err := recoverCycle(e, mx, dir, m, o); err != nil {
		return nil, err
	}
	o.Attempted = mx.readN + int64(mx.writes)
	o.Failed = mx.failed
	o.Problems = append(o.Problems, mx.problems...)
	return o, nil
}

// writeMetrics reports the write path of the measured phase.
func writeMetrics(e env, m map[string]float64, ws []writeSample) {
	var lat, svc, lag []time.Duration
	var walB, fsyncs int64
	for _, w := range ws {
		lat, svc, lag = append(lat, w.latency), append(svc, w.service), append(lag, w.lag)
		walB += w.walB
		fsyncs += w.fsyncs
	}
	latMS := sortedCopy(inUnits(lat, time.Millisecond))
	p90 := tailOf(latMS, 0.90)
	lagTail := tailOf(sortedCopy(inUnits(lag, time.Millisecond)), 0.90)
	m["write_p50_ms"] = quantile(latMS, 0.5)
	m["write_p90_ms"] = p90.Value
	m["apex.write_ms"] = median(inUnits(svc, time.Millisecond))
	m["writer.lag_ms"] = lagTail.Value
	if n := float64(len(ws)); n > 0 {
		m["storage.wal_bytes_per_write"] = float64(walB) / n
		m["storage.fsyncs_per_write"] = float64(fsyncs) / n
	}
	fmt.Fprintf(e.Out, "  writes: %d, write p50 %.2fms, p%.0f %.2fms, service p50 %.2fms, lag p%.0f %.2fms\n",
		len(ws), m["write_p50_ms"], 100*p90.Q, p90.Value, m["apex.write_ms"], 100*lagTail.Q, lagTail.Value)
}

// traceWriteMix runs the traced half of write-mix and the exact-count pass.
func traceWriteMix(e env, mx *mixer, m map[string]float64, untracedP50 float64) error {
	rec := newRecorder()
	mx.phase(e.Dur/2, rec, nil)
	spans := rec.snapshot()
	if err := writeSpans(filepath.Join(e.Workdir, fmt.Sprintf("spans-write-mix-seed%d.jsonl", e.Seed)), spans); err != nil {
		return err
	}
	var readRoots []float64
	for _, s := range spans {
		if s.Parent < 0 && s.Name == "request" {
			readRoots = append(readRoots, float64(s.End-s.Start)/1e3)
		}
	}
	reads := summarize(spans, "request")
	writes := summarize(spans, "write")
	tracedP50 := median(readRoots)
	m["trace.closure"] = median(reads.ReqLayerSum) / tracedP50
	m["trace.overhead"] = tracedP50 / untracedP50
	m["trace.write_closure"] = median(writes.ReqLayerSum) / 1e3 / m["apex.write_ms"]
	for name, us := range reads.SelfPerReq {
		m["self."+name+"_us"] = us
	}
	for name, us := range writes.SelfPerReq {
		m["self."+name+"_us"] = us
	}
	m["query.parse_us"] = median(reads.Durations["query.parse"])
	m["apex.query_us"] = median(reads.Durations["apex.query"])
	m["apex.result_nodes"] = float64(mx.nodes) / float64(mx.okReads)
	toMS := func(us []float64) float64 { return median(us) / 1e3 }
	m["xmlgraph.clone_ms"] = toMS(writes.Durations["xmlgraph.clone"])
	m["xmlgraph.append_ms"] = toMS(writes.Durations["xmlgraph.append"])
	m["storage.datatable_ms"] = toMS(writes.Durations["storage.datatable"])
	clones, refreshes := writes.Durations["core.clone"], writes.Durations["core.refresh"]
	var refresh []float64
	for i := range clones {
		if i < len(refreshes) {
			refresh = append(refresh, clones[i]+refreshes[i])
		}
	}
	m["core.refresh_ms"] = toMS(refresh)
	m["storage.checkpoint_ms"] = median(inUnits(mx.ckpts, time.Millisecond))
	fmt.Fprintf(e.Out, "  traced: %d reads, untraced p50 %.1fus, traced p50 %.1fus\n", len(readRoots), untracedP50, tracedP50)
	return nil
}

// recoverCycle brings the document back to its base state, checkpoints,
// leaves tailWrites journaled writes, then closes and reopens the directory
// recoverReps times. Every reopened index must have the fingerprint the
// index had before it closed.
func recoverCycle(e env, mx *mixer, dir string, m map[string]float64, o *outcome) error {
	if mx.writes%2 == 1 {
		if err := mx.write(); err != nil {
			return err
		}
		mx.writes++
	}
	if err := mx.ix.Checkpoint(); err != nil {
		return err
	}
	for i := 0; i < tailWrites; i++ {
		if err := mx.write(); err != nil {
			return err
		}
		mx.writes++
	}
	if e.Trace {
		// The last write published a fresh evaluator, so this
		// single-threaded pass counts plan-cache and cost work exactly.
		cost0, plan0 := mx.ix.QueryCostTotal(), planTotals([]*apex.Index{mx.ix})
		for i := 0; i < costPass; i++ {
			mx.read(nil, 0)
		}
		m["query.cost_per_query"] = float64(mx.ix.QueryCostTotal()-cost0) / costPass
		m["query.plan_hit_ratio"], m["query.backward_share"] = planTotals([]*apex.Index{mx.ix}).minus(plan0).ratios()
	}
	want := mx.ix.Fingerprint()
	if err := mx.ix.Close(); err != nil {
		return err
	}
	var times []time.Duration
	var replayed int64
	for r := 0; r < recoverReps; r++ {
		start := time.Now()
		ix, err := apex.RecoverDir(dir, "", nil)
		if err != nil {
			return err
		}
		times = append(times, time.Since(start))
		if ix.Fingerprint() != want {
			o.fail("fingerprint after reopen %d differs from the one before close", r+1)
		}
		st, _ := ix.DurabilityStats()
		replayed = st.ReplayedRecords
		if err := ix.Close(); err != nil {
			return err
		}
	}
	disk, err := dirSizeMB(dir)
	if err != nil {
		return err
	}
	m["recover_s"] = median(inUnits(times, time.Second))
	m["storage.replayed_records"] = float64(replayed)
	m["disk_mb"] = disk
	fmt.Fprintf(e.Out, "  recover: %v, replayed %d records, disk %.3f MB\n", times, replayed, disk)
	return nil
}
