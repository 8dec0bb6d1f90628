package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// Calibration. The machine the benchmark runs on shares its processors
// with other tenants, and its speed drifts: on the reference machine
// (bench/README.md) a workload's median operation time moves by a
// quarter or more between runs a few minutes apart. Each untraced run
// therefore also times a fixed computation, sorting the same keys with
// the standard library, which no change to this repository can make
// faster or slower, and scales its gated times by how fast that
// computation ran. Branchy, cache-resident work slows down with the
// machine much as the simulator does; an arithmetic loop and a chain of
// dependent loads did not track it as well (bench/README.md gives the
// measurements).
const (
	calKeys = 1 << 14 // 128 KiB of keys: well inside L2
	// calRefMs is the calibration sort's median time on the reference
	// machine at its usual speed. A normalized time is a raw time scaled
	// by calRefMs over the median of calibration samples taken at the
	// same time: what the reference machine would have measured at its
	// usual speed.
	calRefMs = 1.6
)

// calibrator times the calibration sort and keeps every time, in ms.
type calibrator struct {
	src, buf []int64
	ms       []float64
}

// newCalibrator makes the calibration keys, the same in every run, and
// sorts them once untimed so that their pages are in place.
func newCalibrator() *calibrator {
	rng := rand.New(rand.NewPCG(1, 2))
	c := &calibrator{src: make([]int64, calKeys), buf: make([]int64, calKeys)}
	for i := range c.src {
		c.src[i] = rng.Int64()
	}
	copy(c.buf, c.src)
	slices.Sort(c.buf)
	return c
}

// sample times one calibration sort. The untimed copy brings the keys
// into cache, whatever the benchmark ran before.
func (c *calibrator) sample() {
	copy(c.buf, c.src)
	t0 := time.Now()
	slices.Sort(c.buf)
	c.ms = append(c.ms, float64(time.Since(t0))/float64(time.Millisecond))
}

// sampleEvery samples at once and then once per period, on a goroutine
// of its own, for open-loop phases whose operations overlap, until stop
// is called; stop returns once the goroutine has ended.
func (c *calibrator) sampleEvery(period time.Duration) (stop func()) {
	done := make(chan struct{})
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for c.sample(); ; {
			select {
			case <-done:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return func() {
		close(done)
		<-ended
	}
}

// median is the median calibration time in ms.
func (c *calibrator) median() float64 { return quantile(slices.Clone(c.ms), 0.5) }

// normalize scales a time measured while c sampled, in any unit, to the
// reference machine's usual speed.
func (c *calibrator) normalize(t float64) float64 { return t * calRefMs / c.median() }
