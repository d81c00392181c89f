package main

import (
	"sort"
	"time"
)

// calibrator tracks how fast the host runs. Shared hosts drift by tens of
// percent within seconds as neighbours come and go, which would swamp any
// regression bound. So after every op and every set-up, outside their
// timing, the benchmark times a fixed kernel — standard-library sorting of a
// small array, nothing from this repository — and reports each host time
// scaled to the speed at which one kernel run takes refKernelMs, judged
// from the kernel runs around it.
//
// The kernel runs on one goroutine over data that fits the L1 cache and is
// warmed by an untimed run first, so the workload's working set and
// allocation do not slow it: in alternating clean and deliberately
// slowed ops (an extra 32 MB sweep, or 2.5 MB of garbage, per op) the
// kernel runs after slowed ops read no slower than after clean ones (see
// README.md). It follows the host only in part — on a busy host the ops,
// which chase pointers through tens of megabytes, slow down more than it
// does — so BENCHMARK.json's bounds cover the rest.
type calibrator struct {
	src, buf []int
	ms       []float64 // one entry per timed kernel run
}

const (
	// calibKeys keeps the kernel's two arrays (16 KB) inside the L1 cache.
	calibKeys = 1024
	// calibSorts sizes one kernel run to about refKernelMs.
	calibSorts = 8
	// refKernelMs is about the kernel's median time on the reference box
	// (a 2-vCPU 2.0 GHz Xeon VM) on a quiet stretch.
	refKernelMs = 0.15
	// calibSpan is how many kernel runs on each side of a measurement
	// judge the host's speed for it.
	calibSpan = 2
)

func newCalibrator() *calibrator {
	c := &calibrator{src: make([]int, calibKeys), buf: make([]int, calibKeys)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.src {
		x = x*6364136223846793005 + 1442695040888963407
		c.src[i] = int(x >> 1)
	}
	return c
}

// sample times one kernel run after an untimed one and returns its index.
func (c *calibrator) sample() int {
	c.kernel()
	t := time.Now()
	c.kernel()
	c.ms = append(c.ms, msSince(t))
	return len(c.ms) - 1
}

func (c *calibrator) kernel() {
	for k := 0; k < calibSorts; k++ {
		copy(c.buf, c.src)
		sort.Ints(c.buf)
	}
}

// scaleAt is the factor turning a host time measured just before kernel
// run i into a time at the reference speed.
func (c *calibrator) scaleAt(i int) float64 {
	lo, hi := max(i-calibSpan, 0), min(i+calibSpan+1, len(c.ms))
	return refKernelMs / quantile(append([]float64(nil), c.ms[lo:hi]...), 0.5)
}

// scale is the factor for the whole run.
func (c *calibrator) scale() float64 {
	return refKernelMs / quantile(append([]float64(nil), c.ms...), 0.5)
}
