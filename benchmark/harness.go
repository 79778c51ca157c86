package main

import (
	"fmt"
	"runtime"
	"time"
)

// sizes fixes how much work a run does. They are constants of the
// benchmark, not flags: both sides of a comparison must do the same
// work. The smoke test swaps in a tiny set.
type sizes struct {
	scale     float64       // enterprise.Config.Scale of the batch datasets
	soak      time.Duration // schedule length of the soak trace
	sites     int           // fleet-fold sites
	siteScale float64       // Config.Scale of each site's block
	setups    int           // set-ups per run; setup_s is their median
	warmOps   int           // unmeasured ops before the clock starts
	warmReqs  int           // the same for serve-poll, in requests
	minOps    int           // measured ops a run makes whatever --seconds says
	minReqs   int           // the same for serve-poll
	memReqs   int           // requests of serve-poll's memory pass
	reqBatch  int           // serve-poll requests between two calibrations
	probeOps  int           // ops per variant behind a traced run's ratios
}

// The inputs are the issue's: D3 and D2 at scale 1.0 with every trace, a
// 12 h soak, 16 sites. With set-up run three times a run takes 15-20 s
// on the two-CPU host, inside the driver's budget.
var fullSizes = sizes{
	scale:     1.0,
	soak:      12 * time.Hour,
	sites:     16,
	siteScale: 1.0,
	setups:    3,
	warmOps:   2,
	warmReqs:  2000,
	minOps:    6,
	minReqs:   2000,
	memReqs:   2000,
	reqBatch:  1000,
	probeOps:  3,
}

// runner is one workload's side of the harness.
type runner interface {
	// setup builds the inputs and reference results from the seed,
	// recording gen.* spans into rec (nil outside a traced run).
	setup(rec *spanRec) error
	// close drops the inputs and anything set-up started.
	close()
	// op runs one measured op.
	op() (opResult, error)
	// units is the work one op completes, in the workload's unit.
	units() float64
	// loop says how the harness drives the op.
	loop() loopShape
	// memory runs the untimed memory op under h.
	memory(h *heapProbe, c *tally) error
	// inputBytes is what the benchmark itself keeps on the heap for this
	// workload: the generated inputs.
	inputBytes() int64
	// trace runs the traced op, the reference ops and the layer probes,
	// filling in this workload's per-layer metrics.
	trace(rec *spanRec, m map[string]float64, c *tally) error
}

// loopShape is how a workload's ops are driven: warm unmeasured ops
// first, at least floor measured ones, a calibration every batch ops,
// and — unless the op is too small for it, as serve-poll's single request
// is — a garbage collection before each batch, outside the timer, so one
// op's garbage is not charged to the next.
type loopShape struct {
	warm, floor, batch int
	gc                 bool
}

// tally counts ops whose output was checked.
type tally struct{ attempted, failed int }

func (c *tally) add(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// N is the sample count behind each timing metric.
	N map[string]int `json:"n"`
	// Quartiles of the per-op samples behind work_per_s and the lags.
	Quartiles map[string][3]float64 `json:"quartiles,omitempty"`
	// Raw holds the same timing metrics before host normalisation, and
	// the calibration loop's median time in this run.
	Raw map[string]float64 `json:"raw,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runWorkload is one run: set-up, warm-up, then either the memory op
// and the measured closed loop (one op at a time, the next starts when
// the previous returned) for the end-to-end metrics, or the traced op
// and probes for the per-layer ones.
func runWorkload(w workloadDef, seed int64, seconds float64, traced bool, sz sizes, rec *spanRec) (*result, error) {
	r := w.new(seed, sz)
	res := &result{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]float64{}, N: map[string]int{}, Quartiles: map[string][3]float64{}}

	setups := sz.setups
	if traced {
		setups = 1 // setup_s is an end-to-end metric; a traced run reports none
	}
	cal := newCalibration()
	var setupS, setupRaw []float64
	for i := 0; i < setups; i++ {
		r.close()
		runtime.GC()
		before := cal.run()
		start := time.Now()
		if err := r.setup(rec); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		took := time.Since(start).Seconds()
		setupRaw = append(setupRaw, took)
		setupS = append(setupS, took*hostScale(before, cal.run()))
	}
	defer r.close()
	runtime.GC()

	c := &tally{}
	shape := r.loop()
	for i := 0; i < shape.warm; i++ {
		o, err := r.op()
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		c.add(o.ok)
	}

	if traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = 0 // a layer the workload bypasses reports 0
		}
		cals := []float64{ms(cal.run())}
		if err := r.trace(rec, res.Metrics, c); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		cals = append(cals, ms(cal.run()))
		res.Metrics["host.calibration_ms"] = median(cals)
		res.Attempted, res.Failed = c.attempted, c.failed
		return res, nil
	}

	heap := &heapProbe{own: uint64(r.inputBytes()) + cal.bytes()}
	if err := r.memory(heap, c); err != nil {
		return nil, fmt.Errorf("%s memory op: %w", w.name, err)
	}

	// The measured closed loop. The calibration loop runs between
	// batches of ops, outside their timers; each batch's times are scaled
	// by the calibrations on either side of it.
	var walls, lags, rawWalls, rawLags, cals []float64
	var marks []int // where each batch's lags end
	prev := cal.run()
	loop := time.Now()
	for len(walls) < shape.floor || time.Since(loop).Seconds() < seconds {
		if shape.gc {
			runtime.GC()
		}
		from, lagFrom := len(rawWalls), len(rawLags)
		for i := 0; i < shape.batch; i++ {
			o, err := r.op()
			if err != nil {
				return nil, fmt.Errorf("%s op %d: %w", w.name, len(rawWalls), err)
			}
			c.add(o.ok)
			rawWalls = append(rawWalls, ms(o.wall))
			for _, l := range o.lags {
				rawLags = append(rawLags, ms(l))
			}
		}
		next := cal.run()
		scale := hostScale(prev, next)
		cals = append(cals, ms(next))
		prev = next
		for _, v := range rawWalls[from:] {
			walls = append(walls, v*scale)
		}
		marks = append(marks, len(rawLags))
		for _, v := range rawLags[lagFrom:] {
			lags = append(lags, v*scale)
		}
	}

	tail, err := groupedTail(lags, marks, w.tailPct)
	if err != nil {
		return nil, fmt.Errorf("%s result-lag tail: %w", w.name, err)
	}
	rawTail, _ := groupedTail(rawLags, marks, w.tailPct)
	res.Metrics["setup_s"] = median(setupS)
	res.Metrics["work_per_s"] = r.units() / (median(walls) / 1000)
	res.Metrics["result_lag_p50_ms"] = median(lags)
	res.Metrics["result_lag_tail_ms"] = tail
	res.Metrics["peak_live_heap_mb"] = heap.peakMiB()
	res.Raw = map[string]float64{
		"setup_s":            median(setupRaw),
		"work_per_s":         r.units() / (median(rawWalls) / 1000),
		"result_lag_p50_ms":  median(rawLags),
		"result_lag_tail_ms": rawTail,
		"calibration_ms":     median(cals),
	}
	res.N["setup_s"] = len(setupS)
	res.N["work_per_s"] = len(walls)
	res.N["result_lag_p50_ms"] = len(lags)
	res.N["result_lag_tail_ms"] = len(lags)
	res.N["peak_live_heap_mb"] = len(heap.readings)
	for name, xs := range map[string][]float64{"op_ms": walls, "result_lag_ms": lags} {
		if q1, q2, q3, err := quartiles(xs); err == nil {
			res.Quartiles[name] = [3]float64{q1, q2, q3}
		}
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	return res, nil
}

// medianWall runs n ops and returns their median wall time.
func medianWall(n int, c *tally, op func() (opResult, error)) (time.Duration, error) {
	d, err := medians(n, func() ([]time.Duration, error) {
		o, err := op()
		if err == nil {
			c.add(o.ok)
		}
		return []time.Duration{o.wall}, err
	})
	if err != nil {
		return 0, err
	}
	return d[0], nil
}

// medians runs f n times and returns the element-wise median of the
// durations it yields.
func medians(n int, f func() ([]time.Duration, error)) ([]time.Duration, error) {
	var cols [][]float64
	for i := 0; i < n; i++ {
		runtime.GC()
		ds, err := f()
		if err != nil {
			return nil, err
		}
		if cols == nil {
			cols = make([][]float64, len(ds))
		}
		for j, d := range ds {
			cols[j] = append(cols[j], float64(d))
		}
	}
	out := make([]time.Duration, len(cols))
	for j, col := range cols {
		out[j] = time.Duration(median(col))
	}
	return out, nil
}
