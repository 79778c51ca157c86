package main

import "time"

// The host this benchmark runs on is a two-vCPU guest whose speed drifts
// by ±20 % over tens of seconds with its neighbours' load: whole runs
// come out fast or slow together, and no statistic inside a run can
// remove that. What can is a fixed piece of work the benchmark owns,
// timed beside each op: it slows down and speeds up with the host, and
// never with the program under test.
//
// Every end-to-end time is therefore reported host-normalised: the wall
// time scaled by refCalibration over the calibration loop's time
// measured on either side of the op — the time as it would read on a
// host that runs the loop in refCalibration. The raw medians and the
// loop's own median time are printed and stored beside them. Per-layer
// numbers are raw, with the loop's time reported as host.calibration_ms.
const refCalibration = 30 * time.Millisecond

// calibration is the fixed work: a pass over 16 MiB of sequential
// memory feeding a multiplicative hash whose output picks random slots
// of a 4 MiB table — streaming, dependent arithmetic and cache misses,
// the mix a packet pipeline is made of. It allocates nothing after
// construction and shares no state with the program.
type calibration struct {
	buf  []uint64
	tab  []uint32
	sink uint64
}

func newCalibration() *calibration {
	return &calibration{buf: make([]uint64, 1<<21), tab: make([]uint32, 1<<20)}
}

// bytes is what the calibration buffers hold on the heap.
func (c *calibration) bytes() uint64 { return uint64(8*len(c.buf) + 4*len(c.tab)) }

func (c *calibration) run() time.Duration {
	start := time.Now()
	h := uint64(1469598103934665603)
	for rep := 0; rep < 2; rep++ {
		for i, v := range c.buf {
			h = (h ^ v) * 1099511628211
			c.tab[(h>>20)&(1<<20-1)] += uint32(h)
			c.buf[i] = h
		}
	}
	c.sink = h
	return time.Since(start)
}

// hostScale is the factor that turns a wall time measured between two
// calibrations into the reference host's.
func hostScale(before, after time.Duration) float64 {
	return float64(refCalibration) / (float64(before+after) / 2)
}
