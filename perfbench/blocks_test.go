package main

import (
	"fmt"
	"testing"
	"time"
)

func TestBlockFiguresAreMediansOverBlocks(t *testing.T) {
	start := time.Unix(100, 0)
	c := newBlockClock(start, 5*time.Second, nil)
	// Five one-second blocks; block k serves 100 requests of (k+1) ms.
	for k := 0; k < timedBlocks; k++ {
		for i := 0; i < 100; i++ {
			at := start.Add(time.Duration(k)*time.Second + time.Duration(i)*5*time.Millisecond)
			b := c.at(at)
			b.done(at.Add(time.Duration(k+1)*time.Millisecond), time.Duration(k+1)*time.Millisecond, true)
		}
	}
	c.close()
	if len(c.blocks) != timedBlocks {
		t.Fatalf("%d blocks, want %d", len(c.blocks), timedBlocks)
	}
	f := c.figures()
	if f.p50 != 3000 || f.done != 500 {
		t.Fatalf("figures = %+v, want p50 3000us over 500 requests", f)
	}
	if f.tails[0].Q != 0.9 || f.tails[0].N != 100 {
		t.Fatalf("block tail %+v, want q=0.9 over 100", f.tails[0])
	}
}

func TestBlockAfterStallIsSkipped(t *testing.T) {
	start := time.Unix(100, 0)
	c := newBlockClock(start, 5*time.Second, nil)
	serve := func(k, n int, lat time.Duration) {
		for i := 0; i < n; i++ {
			at := start.Add(time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond)
			c.at(at).done(at.Add(lat), lat, true)
		}
	}
	serve(0, 100, time.Millisecond)
	// A stall through all of block 1: block 2 gets five quick requests,
	// late in it.
	for i := 0; i < 5; i++ {
		at := start.Add(2*time.Second + time.Duration(900+i)*time.Millisecond)
		c.at(at).done(at.Add(time.Microsecond), time.Microsecond, true)
	}
	serve(3, 100, time.Millisecond)
	serve(4, 100, time.Millisecond)
	c.close()
	var ks []int
	for _, b := range c.blocks {
		ks = append(ks, b.k)
	}
	if want := []int{0, 2, 3, 4}; fmt.Sprint(ks) != fmt.Sprint(want) {
		t.Fatalf("blocks opened at %v, want %v", ks, want)
	}
	f := c.figures()
	if f.p50 != 1000 || f.p99 != 1000 || f.done != 305 {
		t.Fatalf("figures = %+v, want p50 and p99 1000us over 305 requests", f)
	}
	// 100 requests 1 ms apart, each 1 ms long: 100 in 0.1 s.
	if f.qps < 999 || f.qps > 1001 {
		t.Fatalf("qps = %v, want 1000: the five-request block must not enter the median", f.qps)
	}
}
