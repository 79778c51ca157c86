package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
)

// window is the epoch length every windowed workload cuts at.
const window = 60 * time.Second

// rawTrace is one trace as the program receives it: pcap bytes.
type rawTrace struct {
	name   string
	prefix netip.Prefix
	raw    []byte
	pkts   int64
}

// analysis is the input of the three trace-analysis workloads
// (batch-payload, batch-headers, windowed-soak) and of serve-poll's
// set-up run: serialized traces plus the reference results of one op.
type analysis struct {
	dataset string
	payload bool
	window  time.Duration
	traces  []rawTrace
	pkts    int64
	bytes   int64

	// wantDigest is the op's expected output hash, computed in set-up by
	// a different path than the op takes; wantWindows the OnWindow count
	// of the set-up reference run.
	wantDigest  [sha256.Size]byte
	wantWindows int
}

// runOpts selects how one analysis op is run and observed. The zero
// value is the measured op: default width, the workload's own payload
// and window settings, no instruments.
type runOpts struct {
	workers, replay int
	noPayload       bool // re-ingest with PayloadAnalysis off (payload-path probe)
	noWindow        bool // run the same trace with Window 0 (overhead probe)
	rec             *spanRec
	heap            *heapProbe
}

// opResult is what one op let the benchmark observe.
type opResult struct {
	wall time.Duration
	// lags are the op's result lags: the time from the moment the last
	// input a result depends on was handed over until that result was in
	// the caller's hands.
	lags      []time.Duration
	ok        bool
	firstEmit time.Duration  // op start → first OnWindow (windowed ops)
	analyzer  *core.Analyzer // the op's analyzer, for probes of its end state
}

// reportDigest renders a report both ways an op does and hashes the
// output: what an op's result is compared by.
func reportDigest(r *core.Report) (d [sha256.Size]byte, err error) {
	js, err := core.MarshalReport(r)
	if err != nil {
		return d, err
	}
	h := sha256.New()
	h.Write([]byte(core.RenderText(r)))
	h.Write(js)
	h.Sum(d[:0])
	return d, nil
}

// options are the analyzer options every run over this input shares.
func (in *analysis) options(workers, replay int) core.Options {
	return core.Options{
		Dataset:         in.dataset,
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: in.payload,
		Workers:         workers,
		ReplayWorkers:   replay,
	}
}

// run is one op: pcap bytes in, rendered text and JSON out.
func (in *analysis) run(o runOpts) (opResult, error) {
	win := in.window
	if o.noWindow {
		win = 0
	}
	var res opResult
	var emitted []time.Time
	opts := in.options(o.workers, o.replay)
	opts.PayloadAnalysis = in.payload && !o.noPayload
	if win > 0 {
		opts.Window, opts.OnWindow = win, func(*core.WindowReport) { emitted = append(emitted, time.Now()) }
	}
	o.rec.nextOp()
	if o.heap != nil {
		o.heap.begin()
	}
	start := time.Now()
	opID, endOp := o.rec.start("op", 0)
	a := core.NewAnalyzer(opts)
	pool := pcap.NewPool()
	for _, tr := range in.traces {
		rd, err := pcap.NewReader(bytes.NewReader(tr.raw))
		if err != nil {
			return res, fmt.Errorf("%s: %w", tr.name, err)
		}
		t := newTap(pcap.NewPooledReader(rd, pool))
		t.window = win
		t.timed = o.rec != nil
		if o.heap != nil {
			t.onEOF = o.heap.sample
		}
		before := len(emitted)
		ingestStart := time.Now()
		ingestID, endIngest := o.rec.start("core.ingest", opID)
		if err := a.AddTraceSource(tr.name, tr.prefix, t); err != nil {
			return res, fmt.Errorf("%s: %w", tr.name, err)
		}
		endIngest()
		done := time.Now()
		o.rec.add("pcap.source", ingestID, ingestStart, t.busy)
		if win == 0 {
			// No windows: the trace's results are banked when the call
			// returns, so that is its one result.
			res.lags = append(res.lags, done.Sub(t.eof))
			continue
		}
		res.lags = append(res.lags, closeLags(t.crossed, emitted[before:], t.eof)...)
		for _, at := range emitted[before:] {
			o.rec.add("core.window.emit", ingestID, at, 0)
		}
	}
	if o.heap != nil {
		o.heap.end()
	}
	_, endReport := o.rec.start("core.report", opID)
	r := a.Report()
	endReport()
	_, endRender := o.rec.start("core.render", opID)
	got, err := reportDigest(r)
	endRender()
	endOp()
	res.wall = time.Since(start)
	if err != nil {
		return res, err
	}
	if len(emitted) > 0 {
		res.firstEmit = emitted[0].Sub(start)
	}
	// A re-ingest without payload analysis is a probe, not an op: its
	// report legitimately differs from the reference.
	res.ok = o.noPayload || got == in.wantDigest
	if win > 0 && len(emitted) != in.wantWindows {
		res.ok = false
	}
	res.analyzer = a
	return res, nil
}

// traceBytes is the exact pcap size of a packet list: the serializer's
// buffer is allocated once, so set-up time does not include regrowth.
func traceBytes(pkts []*pcap.Packet) int {
	n := 24
	for _, p := range pkts {
		n += 16 + len(p.Data)
	}
	return n
}

// setupDataset builds a batch workload's input: a generated dataset
// serialized to in-memory pcaps, plus the reference digest from AddTrace
// over the in-memory packets at width 1 — a path that shares neither the
// pcap reader nor the worker fan-out with the op.
func setupDataset(cfg enterprise.Config, rec *spanRec) (*analysis, error) {
	in := &analysis{dataset: cfg.Name, payload: cfg.Snaplen >= 1500}

	_, end := rec.start("gen.dataset", 0)
	ds := gen.GenerateDataset(cfg)
	end()

	ref := core.NewAnalyzer(in.options(1, 1))
	for _, tr := range ds.Traces {
		name := tr.Prefix.String()
		buf := bytes.NewBuffer(make([]byte, 0, traceBytes(tr.Packets)))
		_, end := rec.start("gen.write", 0)
		err := gen.WriteTrace(buf, ds.Config, tr)
		end()
		if err != nil {
			return nil, fmt.Errorf("serialize %s: %w", name, err)
		}
		in.traces = append(in.traces, rawTrace{name: name, prefix: tr.Prefix, raw: buf.Bytes(), pkts: int64(len(tr.Packets))})
		in.pkts += int64(len(tr.Packets))
		in.bytes += int64(buf.Len())
		// A pcap stores microseconds and reads back UTC; give the
		// in-memory packets the same timestamps the op will see.
		for _, p := range tr.Packets {
			p.Timestamp = time.Unix(p.Timestamp.Unix(), int64(p.Timestamp.Nanosecond())/1000*1000).UTC()
		}
		if err := ref.AddTrace(core.TraceInput{Name: name, Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
	}
	if in.pkts == 0 {
		return nil, fmt.Errorf("dataset %s generated no packets", cfg.Name)
	}
	var err error
	in.wantDigest, err = reportDigest(ref.Report())
	return in, err
}

// soakBytesPerHour pre-sizes the soak trace buffer (the D3 vantage at the
// default schedule serializes ≈24 MB per hour); the buffer grows if a
// seed runs heavier.
const soakBytesPerHour = 32 << 20

// setupSoak builds the long single-vantage trace windowed-soak and
// serve-poll share, with two reference runs at width 1: the same trace
// with Window 0 (the cumulative report must hash equal to it) and a
// windowed run that records how many windows OnWindow sees.
func setupSoak(cfg enterprise.Config, length time.Duration, rec *spanRec) (*analysis, error) {
	subnet := cfg.Monitored[0]
	src := gen.NewStreamSource(gen.StreamConfig{
		Network:  enterprise.NewNetwork(cfg),
		Subnet:   subnet,
		Schedule: gen.DefaultSchedule().Repeat(length),
		Snaplen:  cfg.Snaplen,
	})
	buf := bytes.NewBuffer(make([]byte, 0, int(length.Hours()*soakBytesPerHour)+1<<20))
	_, end := rec.start("gen.stream", 0)
	n, err := gen.WriteStream(buf, cfg.Snaplen, src)
	end()
	if err != nil {
		return nil, fmt.Errorf("synthesize soak trace: %w", err)
	}
	if n == 0 {
		return nil, fmt.Errorf("soak schedule generated no packets")
	}
	in := &analysis{
		dataset: cfg.Name,
		payload: cfg.Snaplen >= 1500,
		window:  window,
		traces:  []rawTrace{{name: "soak", prefix: enterprise.SubnetPrefix(subnet), raw: buf.Bytes(), pkts: n}},
		pkts:    n,
		bytes:   int64(buf.Len()),
	}

	// Both references read the trace through the zero-copy source, which
	// the op does not use.
	reference := func(opts core.Options) (*core.Analyzer, error) {
		ref := core.NewAnalyzer(opts)
		src, err := pcap.NewMapSource(in.traces[0].raw)
		if err != nil {
			return nil, err
		}
		return ref, ref.AddTraceSource("soak", in.traces[0].prefix, src)
	}
	batch, err := reference(in.options(1, 1))
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if in.wantDigest, err = reportDigest(batch.Report()); err != nil {
		return nil, err
	}
	windowed := in.options(1, 1)
	windowed.Window, windowed.OnWindow = window, func(*core.WindowReport) { in.wantWindows++ }
	if _, err := reference(windowed); err != nil {
		return nil, fmt.Errorf("windowed reference run: %w", err)
	}
	if in.wantWindows == 0 {
		return nil, fmt.Errorf("soak of %v completed no window", length)
	}
	return in, nil
}

// heapProbe measures one op's memory from outside: the live heap after
// forced collections at the points where the program holds most — the
// end of each trace's input, when everything the trace buffers is
// resident — less the bytes the benchmark itself holds (its inputs and
// the calibration buffers, both known exactly), and the op's allocation
// totals.
//
// The benchmark's bytes are subtracted by size, not by a reading taken
// before the op: the program parks buffers in package-level pools that
// outlive an op, so a reading "before" holds whatever earlier ops left
// there and the difference would measure history, not the program. What
// is reported is everything the program keeps resident, parked buffers
// included.
type heapProbe struct {
	own            uint64
	readings       []float64
	mallocs, bytes uint64
}

// begin starts an op's readings and allocation totals.
func (h *heapProbe) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.readings = h.readings[:0]
	h.mallocs, h.bytes = ms.Mallocs, ms.TotalAlloc
}

// sample reads the live heap. It collects twice: a sync.Pool's contents
// survive one collection in its victim cache, and how full the packet
// pools are at any instant is scheduling, not program state.
func (h *heapProbe) sample() {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.readings = append(h.readings, float64(ms.HeapAlloc))
}

func (h *heapProbe) end() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.mallocs, h.bytes = ms.Mallocs-h.mallocs, ms.TotalAlloc-h.bytes
}

// peakMiB is the median of the readings above the benchmark's own bytes.
// Each reading is one trace's peak; the median over traces is steady
// across seeds where the maximum follows whichever trace drew the
// largest transfer.
func (h *heapProbe) peakMiB() float64 { return (median(h.readings) - float64(h.own)) / (1 << 20) }
