package main

import (
	"testing"
	"time"
)

func TestBacklogGrows(t *testing.T) {
	const every = 100 * time.Millisecond
	steady := make([]time.Duration, 40)
	for i := range steady {
		steady[i] = time.Duration(i%3) * time.Millisecond // jitter, no trend
	}
	if backlogGrows(steady, every) {
		t.Fatal("steady lags reported as a growing backlog")
	}
	// A writer that takes 120 ms per 100 ms slot falls 20 ms further
	// behind with every write.
	falling := make([]time.Duration, 40)
	for i := range falling {
		falling[i] = time.Duration(i) * 20 * time.Millisecond
	}
	if !backlogGrows(falling, every) {
		t.Fatal("a writer falling behind its schedule was not reported")
	}
	// One stall early on, then recovery: late, but not growing.
	stall := append([]time.Duration{300 * time.Millisecond, 200 * time.Millisecond, 100 * time.Millisecond}, steady...)
	if backlogGrows(stall, every) {
		t.Fatal("a recovered stall reported as a growing backlog")
	}
}

func TestOpenLoopTimesWritesFromTheirDueTime(t *testing.T) {
	const every = 10 * time.Millisecond
	run := func(service time.Duration) []writeSample {
		start := time.Now()
		afters := 0
		ws := openLoop(start, start.Add(20*every), every, func() writeSample {
			time.Sleep(service)
			return writeSample{service: service}
		}, func() { afters++ })
		if afters != len(ws) {
			t.Fatalf("after ran %d times for %d writes", afters, len(ws))
		}
		return ws
	}
	// Writes that fit their slot start on time: latency is about service.
	fast := run(2 * time.Millisecond)
	if len(fast) != 20 {
		t.Fatalf("%d writes scheduled in 20 slots", len(fast))
	}
	lags := make([]time.Duration, len(fast))
	for i, w := range fast {
		if w.latency < w.lag+w.service {
			t.Fatalf("write %d: latency %v below lag %v + service %v", i, w.latency, w.lag, w.service)
		}
		lags[i] = w.lag
	}
	if backlogGrows(lags, every) {
		t.Fatalf("writes that fit their slots reported as a growing backlog: %v", lags)
	}
	// Writes that take 1.5 slots fall further behind with every write, and
	// each one's latency includes the wait behind its predecessors.
	slow := run(15 * time.Millisecond)
	lags = lags[:0]
	for _, w := range slow {
		lags = append(lags, w.lag)
	}
	last := slow[len(slow)-1]
	if last.lag < 5*every || last.latency < last.lag+last.service {
		t.Fatalf("last slow write: lag %v, latency %v, service %v", last.lag, last.latency, last.service)
	}
	if !backlogGrows(lags, every) {
		t.Fatalf("a writer falling behind was not reported: %v", lags)
	}
}
