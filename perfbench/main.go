// Command perfbench is the end-to-end benchmark of the APEX serving stack.
// It runs one workload in-process, checks every answer, and prints the
// metrics by name and unit; the last line of its output is one JSON object.
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//	perfbench --steady 10 --seconds 10      # run-to-run spread per metric
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// again with spans recorded around the calls into each layer and prints the
// per-layer metrics. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, printed with --trace 0
// by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"query_qps", "1/s"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"query_cpu_us", "us"},
}

// perLayer are the metrics of single layers (and the write-path metrics of
// write-mix), printed with --trace 1. A workload that does not reach a layer
// reports 0 for it: it spends no time there.
var perLayer = []metricDef{
	{"server.handle_us", "us"},
	{"server.net_us", "us"},
	{"server.resp_bytes", "B"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.shed_ratio", "ratio"},
	{"shard.gather_us", "us"},
	{"shard.backend_us", "us"},
	{"shard.skew", "ratio"},
	{"shard.merge_us", "us"},
	{"apex.query_us", "us"},
	{"apex.result_nodes", "count"},
	{"apex.write_ms", "ms"},
	{"query.parse_us", "us"},
	{"query.cost_per_query", "count"},
	{"query.plan_hit_ratio", "ratio"},
	{"query.backward_share", "ratio"},
	{"core.build_s", "s"},
	{"core.adapt_s", "s"},
	{"core.extent_bytes", "B"},
	{"core.bytes_per_edge", "B"},
	{"core.refresh_ms", "ms"},
	{"xmlgraph.heap_mb", "MB"},
	{"xmlgraph.clone_ms", "ms"},
	{"xmlgraph.append_ms", "ms"},
	{"storage.datatable_ms", "ms"},
	{"storage.wal_bytes_per_write", "B"},
	{"storage.fsyncs_per_write", "count"},
	{"storage.checkpoint_ms", "ms"},
	{"storage.replayed_records", "count"},
	{"writer.lag_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"recover_s", "s"},
	{"disk_mb", "MB"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_per_kop", "count"},
	{"trace.closure", "ratio"},
	{"trace.write_closure", "ratio"},
	{"trace.overhead", "ratio"},
	{"self.query.parse_us", "us"},
	{"self.server.cache_probe_us", "us"},
	{"self.server.record_workload_us", "us"},
	{"self.server.cache_fill_us", "us"},
	{"self.apex.query_us", "us"},
	{"self.shard.gather_us", "us"},
	{"self.shard.backend_us", "us"},
	{"self.shard.merge_us", "us"},
	{"self.xmlgraph.clone_us", "us"},
	{"self.core.clone_us", "us"},
	{"self.xmlgraph.append_us", "us"},
	{"self.xmlgraph.remove_us", "us"},
	{"self.core.refresh_us", "us"},
	{"self.storage.datatable_us", "us"},
}

// env is what every workload receives from the command line.
type env struct {
	Seed    int64
	Dur     time.Duration
	Trace   bool
	Workdir string
	Out     io.Writer // human-readable report lines
}

// outcome is one workload run.
type outcome struct {
	Attempted, Failed int64
	// Problems are correctness failures that are not single operations
	// (a fingerprint mismatch after recovery, a growing writer backlog).
	Problems []string
	Metrics  map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// workloadDef is one --workload: its runner and the number of Ps it runs on.
type workloadDef struct {
	run   func(env) (*outcome, error)
	procs int
}

// workloads maps each --workload name to its definition. The serving
// workloads run on one P: the client and the server take turns on one
// connection, so a second P only adds a cross-CPU wake-up to each request,
// and on a VM whose vCPUs share a host that wake-up is timed by the host's
// load, not by the program (the spread of serve-hot's qps fell from ~28% to
// ~6% on one P). write-mix runs its reader and its writer on two Ps.
var workloads = map[string]workloadDef{
	"serve-hot":  {runServeHot, 1},
	"serve-cold": {runServeCold, 1},
	"write-mix":  {runWriteMix, 2},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-hot, serve-cold or write-mix")
	seed := fs.Int64("seed", 1, "seed of the generated queries and request sequence")
	secs := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files and span files")
	steady := fs.Int("steady", 0, "run each workload this many times on each of two seed sets and print the spread and shift of every end-to-end metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady > 0 {
		if err := runSteady(stdout, *workdir, *name, *seed, *secs, *steady); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload serve-hot|serve-cold|write-mix, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(wl.procs)
	e := env{Seed: *seed, Dur: time.Duration(*secs) * time.Second, Trace: *trace == 1, Workdir: *workdir, Out: stdout}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d gomaxprocs=%d\n", *name, *seed, *secs, *trace, runtime.GOMAXPROCS(0))
	o, err := wl.run(e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if e.Trace {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   o.Failed == 0 && len(o.Problems) == 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v := o.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", d.Name, v)
			return 1
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", d.Name, v, d.Unit)
	}
	for _, p := range o.Problems {
		fmt.Fprintln(stdout, "  FAILED:", p)
	}
	fmt.Fprintf(stdout, "  attempted=%d failed=%d\n", o.Attempted, o.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// liveHeapMB is the live heap after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeMeter measures allocation and collections over a phase.
type runtimeMeter struct {
	alloc uint64
	gc    uint32
}

func startRuntimeMeter() runtimeMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeMeter{m.TotalAlloc, m.NumGC}
}

// perOp returns KB allocated per operation and collections per thousand
// operations since the meter started.
func (m runtimeMeter) perOp(ops int64) (kbPerOp, gcPerKop float64) {
	if ops == 0 {
		return 0, 0
	}
	now := startRuntimeMeter()
	return float64(now.alloc-m.alloc) / 1e3 / float64(ops), float64(now.gc-m.gc) * 1e3 / float64(ops)
}

// setupTimes runs build reps times and returns each rep's wall time. Before
// every rep but the first, teardown releases the previous rep's stack and
// the heap is collected, untimed, so no rep pays for its predecessor; before
// every rep the speed probe runs setupProbes times, untimed.
func setupTimes(reps int, probe *speedProbe, build, teardown func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, reps)
	for r := 0; r < reps; r++ {
		if r > 0 {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		for i := 0; i < setupProbes; i++ {
			probe.sample()
		}
		start := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// dirSizeMB sums the sizes of the regular files under dir, in MB.
func dirSizeMB(dir string) (float64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1e6, err
}
