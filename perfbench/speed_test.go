package main

import (
	"testing"
	"time"
)

func TestSpeedIsReferenceOverMedianProbe(t *testing.T) {
	p := newSpeedProbe()
	p.samples = []time.Duration{refProbe, 2 * refProbe, 2 * refProbe, 10 * refProbe}
	if got := p.speed(); got != 0.5 {
		t.Fatalf("speed = %v, want 0.5 (refProbe over the median probe time)", got)
	}
	p.reset()
	p.samples = append(p.samples, refProbe)
	if got := p.speed(); got != 1 {
		t.Fatalf("speed after reset = %v, want 1", got)
	}
}

// The probe must not allocate: an allocating probe would pay the program's
// garbage-collection assists and slow with it.
func TestSpeedProbeAllocatesNothing(t *testing.T) {
	p := newSpeedProbe()
	p.samples = make([]time.Duration, 0, 1000)
	if allocs := testing.AllocsPerRun(50, func() { p.sample() }); allocs != 0 {
		t.Fatalf("a probe sample allocates %v times", allocs)
	}
	if len(p.samples) != 51 {
		t.Fatalf("%d samples recorded, want 51", len(p.samples))
	}
}
