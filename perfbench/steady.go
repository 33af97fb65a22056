package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// secondSetOffset is where the second seed set starts: the first uses seeds
// base, base+1, ..., the second base+1000, base+1001, ...
const secondSetOffset = 1000

// benchmarkPath is the benchmark definition, read from the repository root
// the benchmark runs in.
const benchmarkPath = "BENCHMARK.json"

// runSteady runs each workload (or only the named one) runs times per seed
// set, each run a separate process with its own seed, and prints for every
// end-to-end metric the median, the quartiles and the spread — the
// interquartile distance as a share of the median — against the metric's
// bound. A spread above a third of the bound is flagged. The second seed
// set runs on seeds the first did not use and prints how far every median
// moved in the worse direction, flagged when that exceeds the bound.
func runSteady(out io.Writer, workdir, only string, base int64, secs, runs int) error {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range bf.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		var first map[string]float64
		for set, from := range []int64{base, base + secondSetOffset} {
			values := map[string][]float64{}
			for i := 0; i < runs; i++ {
				seed := from + int64(i)
				res, err := runChild(self, workdir, w.Name, seed, secs)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, seed, res.Failed, res.Attempted)
				}
				for name, mv := range res.Metrics {
					values[name] = append(values[name], mv.Value)
				}
			}
			fmt.Fprintf(out, "%s, seed set %d (seeds %d..%d), %d runs:\n", w.Name, set+1, from, from+int64(runs-1), runs)
			medians := map[string]float64{}
			for _, def := range bf.EndToEnd {
				xs := values[def.Name]
				q1, q2, q3 := quartiles(xs)
				medians[def.Name] = q2
				sp := spread(xs)
				flag := "ok"
				if def.Name != "setup_s" && sp > def.Bound/3 {
					flag = "SPREAD > bound/3"
				}
				line := fmt.Sprintf("  %-14s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.2f%%  bound %5.1f%%  %s",
					def.Name, q2, q1, q3, 100*sp, 100*def.Bound, flag)
				if first != nil {
					worse := (q2 - first[def.Name]) / first[def.Name]
					if def.Better == "higher" {
						worse = -worse
					}
					shift := "ok"
					if worse > def.Bound {
						shift = "WORSE THAN BOUND"
					}
					line += fmt.Sprintf("  worse-than-set-1 %+6.2f%% %s", 100*worse, shift)
				}
				fmt.Fprintln(out, line)
			}
			if first == nil {
				first = medians
			}
		}
	}
	return nil
}

// runChild runs one benchmark process and parses its result line.
func runChild(self, workdir, workload string, seed int64, secs int) (resultJSON, error) {
	cmd := exec.Command(self, "--workdir", workdir, "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(secs), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A child outlives a killed parent unless told otherwise.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res resultJSON
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
