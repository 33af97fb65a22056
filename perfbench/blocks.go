package main

import (
	"fmt"
	"strings"
	"time"
)

// timedBlocks is the number of equal wall-time blocks a timed phase is cut
// into. Each block yields its own throughput, percentiles and CPU cost, and
// a run reports the median over its blocks: a burst of interference from
// outside the process then moves one block, not the run's figure.
const timedBlocks = 5

// block is one slice of a timed phase.
type block struct {
	k           int           // its position in the phase, 0..timedBlocks-1
	first, last time.Time     // start of its first request, end of its last
	untimed     time.Duration // answer checks and speed probes inside the block
	probed      time.Duration // the probes alone, also taken out of the block's CPU
	cpu0, cpu1  time.Duration // process CPU at the block's first request and at its end
	lat         []time.Duration
	failed      int64
}

// blockClock assigns requests to blocks by their start time, and runs the
// speed probe every probeEvery.
type blockClock struct {
	start     time.Time
	size      time.Duration
	blocks    []*block
	probe     *speedProbe
	nextProbe time.Time
}

func newBlockClock(start time.Time, d time.Duration, probe *speedProbe) *blockClock {
	return &blockClock{start: start, size: d / timedBlocks, probe: probe, nextProbe: start}
}

// at returns the block a request starting at now belongs to, opening it
// (and closing its predecessor's CPU reading) on its first request. A block
// no request started in (a stall longer than a block) is never opened.
func (c *blockClock) at(now time.Time) *block {
	k := int(now.Sub(c.start) / c.size)
	if k >= timedBlocks {
		k = timedBlocks - 1
	}
	if n := len(c.blocks); n == 0 || c.blocks[n-1].k != k {
		cpu := cpuTime()
		if n > 0 {
			c.blocks[n-1].cpu1 = cpu
		}
		c.blocks = append(c.blocks, &block{k: k, first: now, cpu0: cpu})
	}
	b := c.blocks[len(c.blocks)-1]
	if c.probe != nil && !now.Before(c.nextProbe) {
		d := c.probe.sample()
		b.untimed += d
		b.probed += d
		c.nextProbe = now.Add(probeEvery)
	}
	return b
}

// done records the end of a request in block b.
func (b *block) done(end time.Time, lat time.Duration, ok bool) {
	b.last = end
	if ok {
		b.lat = append(b.lat, lat)
	} else {
		b.failed++
	}
}

// close ends the phase.
func (c *blockClock) close() {
	if n := len(c.blocks); n > 0 {
		c.blocks[n-1].cpu1 = cpuTime()
	}
}

// phaseFigures are a timed phase's end-to-end query figures: each the median
// over the phase's blocks.
type phaseFigures struct {
	qps, p50, p99, cpuUS float64
	speed                float64 // the machine's speed over the phase (see speedProbe)
	done, failed         int64
	tails                []tail    // each block's p99 as taken
	blockP50             []float64 // each block's p50, 0 for a skipped block
}

// figures computes the medians over blocks. Failed requests count as
// missing every latency limit. A block too small to take its tail from
// (minBeyond requests or fewer, as after a stall) enters no median: its
// throughput would rest on a handful of requests.
func (c *blockClock) figures() phaseFigures {
	var f phaseFigures
	var qps, p50, p99, cpu []float64
	for _, b := range c.blocks {
		us := inUnits(b.lat, time.Microsecond)
		for i := int64(0); i < b.failed; i++ {
			us = append(us, 1e18)
		}
		s := sortedCopy(us)
		t := tailOf(s, 0.99)
		f.tails = append(f.tails, t)
		n := float64(len(b.lat))
		f.done += int64(len(b.lat))
		f.failed += b.failed
		if t.N <= minBeyond || n == 0 {
			f.blockP50 = append(f.blockP50, 0)
			continue
		}
		f.blockP50 = append(f.blockP50, quantile(s, 0.5))
		wall := b.last.Sub(b.first) - b.untimed
		qps = append(qps, n/wall.Seconds())
		p50 = append(p50, quantile(s, 0.5))
		p99 = append(p99, t.Value)
		cpu = append(cpu, float64(b.cpu1-b.cpu0-b.probed)/float64(time.Microsecond)/n)
	}
	f.qps, f.p50, f.p99, f.cpuUS = median(qps), median(p50), median(p99), median(cpu)
	f.speed = 1
	if c.probe != nil {
		f.speed = c.probe.speed()
	}
	return f
}

// report sets the end-to-end query metrics: the phase's figures scaled to
// the reference machine by its speed.
func (f phaseFigures) report(m map[string]float64) {
	m["query_qps"] = f.qps / f.speed
	m["query_p50_us"] = f.p50 * f.speed
	m["query_p99_us"] = f.p99 * f.speed
	m["query_cpu_us"] = f.cpuUS * f.speed
}

// describe renders the speed and the figures as measured, then each block's
// p50 and the percentile and sample count its tail was taken at.
func (f phaseFigures) describe() string {
	parts := make([]string, len(f.tails))
	for i, t := range f.tails {
		parts[i] = fmt.Sprintf("p50=%.1fus/p99@q=%.4f/n=%d", f.blockP50[i], t.Q, t.N)
	}
	return fmt.Sprintf("speed %.3f, as measured qps=%.1f p50=%.1fus p99=%.1fus cpu=%.1fus; blocks: %s",
		f.speed, f.qps, f.p50, f.p99, f.cpuUS, strings.Join(parts, " "))
}
