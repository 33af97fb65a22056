package main

import (
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// The machine the benchmark runs on changes speed under it: on a VM whose
// vCPUs share a host with other tenants, the same fixed loop takes from 15
// to 35 ms from one half-second to the next, and a run's figures move with
// the host's load more than with the program. The benchmark therefore times
// a fixed probe through every run and scales its timings to a machine on
// which the probe takes refProbe. The probe uses no program code and
// allocates nothing, so a change to the program can change its time only
// through the processor and caches they share.
const (
	refProbe    = 3 * time.Millisecond
	probeEvery  = 250 * time.Millisecond // between probes in a timed phase
	setupProbes = 5                      // probes before each set-up
	probeKeys   = 1 << 13
)

// speedProbe is fixed work: sorting a copy of a fixed array of keys, then
// formatting them, 256 at a time, into a reused buffer as a response encoder
// would. Its ~150 KB of data do not outlive the program's work between two
// samples in the core's caches, so every sample starts as cold as a request
// does.
type speedProbe struct {
	keys, scratch []uint64
	buf           []byte
	samples       []time.Duration
}

func newSpeedProbe() *speedProbe {
	r := rand.New(rand.NewSource(1))
	keys := make([]uint64, probeKeys)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	return &speedProbe{keys: keys, scratch: make([]uint64, probeKeys), buf: make([]byte, 0, 64*256)}
}

// sample runs the probe once, records its time and returns it.
func (p *speedProbe) sample() time.Duration {
	start := time.Now()
	copy(p.scratch, p.keys)
	slices.Sort(p.scratch)
	b := p.buf[:0]
	for i, k := range p.scratch {
		if i%256 == 0 {
			b = b[:0]
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"key":`...)
		b = strconv.AppendUint(b, k, 10)
		b = append(b, `,"f":`...)
		b = strconv.AppendFloat(b, float64(k>>11)/(1<<53), 'g', -1, 64)
		b = append(b, "},"...)
	}
	p.buf = b
	d := time.Since(start)
	p.samples = append(p.samples, d)
	return d
}

// speed is refProbe over the median probe time since the last reset: below
// 1 when the machine ran slower than the reference. A time measured on the
// machine times speed is the time on the reference machine.
func (p *speedProbe) speed() float64 {
	return float64(refProbe) / median(inUnits(p.samples, time.Nanosecond))
}

func (p *speedProbe) reset() { p.samples = p.samples[:0] }
