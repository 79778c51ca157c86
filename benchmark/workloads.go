package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/fleet"
)

// metricDef names one metric; BENCHMARK.json repeats the same names and
// units (smoke_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one; README.md says what each measures per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"result_lag_p50_ms", "ms"},
	{"result_lag_tail_ms", "ms"},
	{"peak_live_heap_mb", "MiB"},
}

// perLayer are single layers' numbers, taken in the traced run by timing
// public calls from this directory. A layer the workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"gen.dataset_pkts_per_s", "pkts/s"},
	{"gen.write_mb_per_s", "MB/s"},
	{"gen.stream_pkts_per_s", "pkts/s"},
	{"pcap.read_ns_per_pkt", "ns/pkt"},
	{"pcap.read_allocs_per_pkt", "allocs/pkt"},
	{"pcap.mapsource_ns_per_pkt", "ns/pkt"},
	{"layers.decode_ns_per_pkt", "ns/pkt"},
	{"layers.decode_allocs_per_pkt", "allocs/pkt"},
	{"pipeline.flows_ns_per_pkt", "ns/pkt"},
	{"pipeline.route_flows_self_ns_per_pkt", "ns/pkt"},
	{"pipeline.sorted_conns_ms", "ms"},
	{"pipeline.conns", "count"},
	{"pipeline.shard_conn_skew", "ratio"},
	{"pipeline.w2_over_w1", "ratio"},
	{"reassembly.ns_per_segment", "ns/seg"},
	{"reassembly.mb_per_s", "MB/s"},
	{"reassembly.delivered_share", "ratio"},
	{"reassembly.peak_pending_kb", "KiB"},
	{"core.ingest_ns_per_pkt", "ns/pkt"},
	{"core.sink_replay_self_ns_per_pkt", "ns/pkt"},
	{"core.payload_path_ns_per_pkt", "ns/pkt"},
	{"appproto.replay_ns_per_pkt", "ns/pkt"},
	{"core.report_ms", "ms"},
	{"core.render_ms", "ms"},
	{"core.allocs_per_pkt", "allocs/pkt"},
	{"core.alloc_bytes_per_pkt", "B/pkt"},
	{"core.w_default_over_w1", "ratio"},
	{"core.budget_residual_ratio", "ratio"},
	{"core.window.overhead_ratio", "ratio"},
	{"core.window.first_emit_frac", "ratio"},
	{"core.window.report_us", "us"},
	{"core.window.export_us_per_window", "us"},
	{"core.window.export_bytes_per_window", "B"},
	{"core.serve.latest_p50_us", "us"},
	{"core.serve.window_p50_us", "us"},
	{"core.serve.healthz_p50_us", "us"},
	{"core.serve.request_p99_us", "us"},
	{"core.serve.bytes_per_request", "B"},
	{"core.serve.handler_p50_us", "us"},
	{"fleet.frame_encode_ns_per_delta", "ns"},
	{"fleet.frame_decode_ns_per_delta", "ns"},
	{"fleet.delta_bytes_per_window", "B"},
	{"fleet.ship_us_per_delta", "us"},
	{"fleet.resends", "count"},
	{"fleet.reconnects", "count"},
	{"fleet.evicted", "count"},
	{"core.fleet.delta_us", "us"},
	{"core.fleet.report_ms", "ms"},
	{"core.fleet.sites4_over_sites16_delta_us", "ratio"},
	{"core.fleet.single_instance_match", "count"},
	{"trace_overhead_ratio", "ratio"},
	{"host.calibration_ms", "ms"},
}

// workloadDef is one named workload. tailPct is the percentile
// result_lag_tail_ms reports: the highest the workload's smallest run
// still has ten samples beyond.
type workloadDef struct {
	name    string
	tailPct float64
	new     func(seed int64, sz sizes) runner
}

var workloads = []workloadDef{
	{"batch-payload", 90, func(seed int64, sz sizes) runner {
		return &analysisRunner{sz: sz, build: func(rec *spanRec) (*analysis, error) {
			cfg := enterprise.D3()
			cfg.Scale, cfg.Seed = sz.scale, cfg.Seed+seed
			return setupDataset(cfg, rec)
		}}
	}},
	{"batch-headers", 90, func(seed int64, sz sizes) runner {
		return &analysisRunner{sz: sz, build: func(rec *spanRec) (*analysis, error) {
			cfg := enterprise.D2()
			cfg.Scale, cfg.Seed = sz.scale, cfg.Seed+seed
			return setupDataset(cfg, rec)
		}}
	}},
	{"windowed-soak", 99, func(seed int64, sz sizes) runner {
		return &analysisRunner{sz: sz, build: func(rec *spanRec) (*analysis, error) {
			return setupSoak(soakConfig(seed), sz.soak, rec)
		}}
	}},
	{"fleet-fold", 90, func(seed int64, sz sizes) runner {
		return &fleetRunner{sz: sz, seed: seed}
	}},
	{"serve-poll", 90, func(seed int64, sz sizes) runner {
		return &serveRunner{sz: sz, seed: seed}
	}},
}

func soakConfig(seed int64) enterprise.Config {
	cfg := enterprise.D3()
	cfg.Seed += seed
	return cfg
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func perPkt(d time.Duration, pkts int64) float64 { return float64(d) / float64(pkts) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// genSpans turns the set-up spans (op 0) into the gen.* rates.
func genSpans(rec *spanRec, pkts, bytes int64, m map[string]float64) {
	if d := rec.total("gen.dataset", 0); d > 0 {
		m["gen.dataset_pkts_per_s"] = float64(pkts) / d.Seconds()
	}
	if d := rec.total("gen.write", 0); d > 0 {
		m["gen.write_mb_per_s"] = float64(bytes) / 1e6 / d.Seconds()
	}
	if d := rec.total("gen.stream", 0); d > 0 {
		m["gen.stream_pkts_per_s"] = float64(pkts) / d.Seconds()
	}
}

// analysisRunner drives batch-payload, batch-headers and windowed-soak:
// the same op over different inputs.
type analysisRunner struct {
	sz    sizes
	build func(rec *spanRec) (*analysis, error)
	in    *analysis
}

func (r *analysisRunner) setup(rec *spanRec) (err error) {
	r.in, err = r.build(rec)
	return err
}
func (r *analysisRunner) close()                { r.in = nil }
func (r *analysisRunner) op() (opResult, error) { return r.in.run(runOpts{}) }
func (r *analysisRunner) units() float64        { return float64(r.in.pkts) }
func (r *analysisRunner) inputBytes() int64     { return r.in.bytes }
func (r *analysisRunner) loop() loopShape {
	return loopShape{warm: r.sz.warmOps, floor: r.sz.minOps, batch: 1, gc: true}
}

func (r *analysisRunner) memory(h *heapProbe, c *tally) error {
	o, err := r.in.run(runOpts{heap: h})
	c.add(o.ok)
	return err
}

func (r *analysisRunner) trace(rec *spanRec, m map[string]float64, c *tally) error {
	in := r.in
	genSpans(rec, in.pkts, in.bytes, m)

	// Reference ops, tracing off: default width and the single-threaded
	// baseline the traced op is compared with.
	def, err := medianWall(r.sz.probeOps, c, func() (opResult, error) { return in.run(runOpts{}) })
	if err != nil {
		return err
	}
	w1, err := medianWall(r.sz.probeOps, c, func() (opResult, error) { return in.run(runOpts{workers: 1, replay: 1}) })
	if err != nil {
		return err
	}
	m["core.w_default_over_w1"] = float64(def) / float64(w1)

	// The traced op, at width 1 so spans do not overlap. It and every
	// probe below run probeOps times and report medians: one sample of a
	// 300 ms interval on a shared host is noise.
	n := r.sz.probeOps
	traced, err := medians(n, func() ([]time.Duration, error) {
		o, err := in.run(runOpts{workers: 1, replay: 1, rec: rec})
		c.add(o.ok)
		return []time.Duration{o.wall, rec.total("core.ingest", rec.op), rec.total("core.report", rec.op), rec.total("core.render", rec.op), o.firstEmit}, err
	})
	if err != nil {
		return err
	}
	tracedWall, ingest, report, render, firstEmit := traced[0], traced[1], traced[2], traced[3], traced[4]
	m["trace_overhead_ratio"] = float64(tracedWall)/float64(w1) - 1
	m["core.ingest_ns_per_pkt"] = perPkt(ingest, in.pkts)
	m["core.report_ms"] = ms(report)
	m["core.render_ms"] = ms(render)
	if in.window > 0 {
		m["core.window.first_emit_frac"] = float64(firstEmit) / float64(tracedWall)
	}

	// Allocation totals of one default-width op.
	var h heapProbe
	o, err := in.run(runOpts{heap: &h})
	if err != nil {
		return err
	}
	c.add(o.ok)
	m["core.allocs_per_pkt"] = float64(h.mallocs) / float64(in.pkts)
	m["core.alloc_bytes_per_pkt"] = float64(h.bytes) / float64(in.pkts)

	// Layer probes over the same bytes.
	var readAllocs, decodeAllocs uint64
	var f1, f2 flowsProbe
	recs, err := records(in)
	if err != nil {
		return err
	}
	probes, err := medians(n, func() ([]time.Duration, error) {
		read, allocs, err := probeRead(in)
		if err != nil {
			return nil, err
		}
		readAllocs = allocs
		mapped, err := probeMapSource(in)
		if err != nil {
			return nil, err
		}
		decode, allocs := probeDecode(recs)
		decodeAllocs = allocs
		if f1, err = probeFlows(in, 1); err != nil {
			return nil, err
		}
		if f2, err = probeFlows(in, 2); err != nil {
			return nil, err
		}
		return []time.Duration{read, mapped, decode, f1.wall, f1.sorted, f2.wall}, nil
	})
	if err != nil {
		return err
	}
	read, mapped, decode, flows1, sortedConns, flows2 := probes[0], probes[1], probes[2], probes[3], probes[4], probes[5]
	m["pcap.read_ns_per_pkt"] = perPkt(read, in.pkts)
	m["pcap.read_allocs_per_pkt"] = float64(readAllocs) / float64(in.pkts)
	m["pcap.mapsource_ns_per_pkt"] = perPkt(mapped, in.pkts)
	m["layers.decode_ns_per_pkt"] = perPkt(decode, in.pkts)
	m["layers.decode_allocs_per_pkt"] = float64(decodeAllocs) / float64(in.pkts)
	// Self times by subtraction: the packet stage minus the two layers
	// under it, the ingest minus the packet stage.
	routeSelf, sinkSelf := flows1-read-decode, ingest-flows1
	m["pipeline.flows_ns_per_pkt"] = perPkt(flows1, in.pkts)
	m["pipeline.route_flows_self_ns_per_pkt"] = perPkt(routeSelf, in.pkts)
	m["pipeline.sorted_conns_ms"] = ms(sortedConns)
	m["pipeline.conns"] = float64(f1.conns)
	m["pipeline.shard_conn_skew"] = f2.skew
	m["pipeline.w2_over_w1"] = float64(flows2) / float64(flows1)
	m["core.sink_replay_self_ns_per_pkt"] = perPkt(sinkSelf, in.pkts)
	// The budget: what the layers' shares at width 1 leave of the traced
	// op's wall unexplained. The four shares under the ingest (read,
	// decode, route/flows self, sink/replay self) sum to it by
	// construction, so the residual is what runs outside any span.
	m["core.budget_residual_ratio"] = 1 - float64(ingest+report+render)/float64(tracedWall)

	if in.payload {
		// Reassembly and the application analyzers are what payload
		// analysis adds; the header-only workload bypasses both.
		var rp reassemblyProbe
		payload, err := medians(n, func() ([]time.Duration, error) {
			if rp, err = probeReassembly(recs); err != nil {
				return nil, err
			}
			if _, err := in.run(runOpts{workers: 1, replay: 1, rec: rec, noPayload: true}); err != nil {
				return nil, err
			}
			return []time.Duration{rp.wall, rec.total("core.ingest", rec.op)}, nil
		})
		if err != nil {
			return err
		}
		reasm, bare := payload[0], payload[1]
		if rp.segments > 0 {
			m["reassembly.ns_per_segment"] = float64(reasm) / float64(rp.segments)
			m["reassembly.mb_per_s"] = float64(rp.acct.IngestBytes) / 1e6 / reasm.Seconds()
			m["reassembly.delivered_share"] = float64(rp.acct.DeliveredBytes) / float64(rp.acct.IngestBytes)
			m["reassembly.peak_pending_kb"] = float64(rp.acct.PeakPendingBytes) / 1024
		}
		m["core.payload_path_ns_per_pkt"] = perPkt(ingest-bare, in.pkts)
		m["appproto.replay_ns_per_pkt"] = perPkt(ingest-bare-reasm, in.pkts)
	}

	if in.window > 0 {
		batch, err := medianWall(r.sz.probeOps, c, func() (opResult, error) { return in.run(runOpts{noWindow: true}) })
		if err != nil {
			return err
		}
		m["core.window.overhead_ratio"] = float64(def) / float64(batch)
		if err := windowProbes(in, m); err != nil {
			return err
		}
	}
	return nil
}

// windowProbes prices on-demand window reports and snapshot exports on
// a completed windowed run.
func windowProbes(in *analysis, m map[string]float64) error {
	o, err := in.run(runOpts{})
	if err != nil {
		return err
	}
	a := o.analyzer
	if m["core.window.report_us"], err = windowReportUs(a); err != nil {
		return err
	}
	start := time.Now()
	exports, err := a.ExportAll()
	if err != nil {
		return err
	}
	m["core.window.export_us_per_window"] = us(time.Since(start)) / float64(len(exports))
	var bytes int
	for _, we := range exports {
		bytes += len(we.Payload)
	}
	m["core.window.export_bytes_per_window"] = float64(bytes) / float64(len(exports))
	return nil
}

// windowReportUs is the mean cost of building one window's report on
// demand, over every window the analyzer knows.
func windowReportUs(a *core.Analyzer) (float64, error) {
	n := a.WindowCount()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, ok := a.WindowReport(i); !ok {
			return 0, fmt.Errorf("window %d of %d has no report", i, n)
		}
	}
	return us(time.Since(start)) / float64(n), nil
}

// fleetRunner drives fleet-fold.
type fleetRunner struct {
	sz   sizes
	seed int64
	in   *fleetInput
}

func (r *fleetRunner) setup(rec *spanRec) (err error) {
	cfg := enterprise.D3()
	cfg.Scale, cfg.Seed = r.sz.siteScale, cfg.Seed+r.seed
	r.in, err = setupFleet(cfg, r.sz.sites, rec)
	return err
}
func (r *fleetRunner) close() { r.in = nil }
func (r *fleetRunner) op() (opResult, error) {
	o, err := r.in.run(nil, nil, false)
	return o.opResult, err
}
func (r *fleetRunner) units() float64    { return float64(r.in.deltas) }
func (r *fleetRunner) inputBytes() int64 { return r.in.deltaBytes }
func (r *fleetRunner) loop() loopShape {
	return loopShape{warm: r.sz.warmOps, floor: r.sz.minOps, batch: 1, gc: true}
}

func (r *fleetRunner) memory(h *heapProbe, c *tally) error {
	o, err := r.in.run(nil, h, false)
	c.add(o.ok)
	return err
}

func (r *fleetRunner) trace(rec *spanRec, m map[string]float64, c *tally) error {
	in := r.in
	deltas := float64(in.deltas)
	m["core.window.export_us_per_window"] = us(rec.total("core.window.export", 0)) / deltas
	m["core.window.export_bytes_per_window"] = float64(in.deltaBytes) / deltas
	m["fleet.delta_bytes_per_window"] = float64(in.deltaBytes) / deltas

	plain, err := medianWall(r.sz.probeOps, c, r.op)
	if err != nil {
		return err
	}
	o, err := in.run(rec, nil, false)
	if err != nil {
		return err
	}
	c.add(o.ok)
	m["trace_overhead_ratio"] = float64(o.wall)/float64(plain) - 1
	m["core.render_ms"] = ms(rec.total("core.render", rec.op))
	m["fleet.resends"] = float64(o.stats.Resends)
	m["fleet.reconnects"] = float64(o.stats.Reconnects)
	m["fleet.evicted"] = float64(o.stats.Evicted)

	// Transport and acknowledgements alone: the same shippers into a sink
	// that drops every frame.
	nop, err := in.run(nil, nil, true)
	if err != nil {
		return err
	}
	if !nop.ok {
		return fmt.Errorf("ship probe lost frames")
	}
	m["fleet.ship_us_per_delta"] = us(nop.ship) / deltas

	// The frame codec over the workload's DELTA frames.
	var enc, dec time.Duration
	for _, st := range in.sites {
		for i, we := range st.exports {
			f := &fleet.Frame{Type: fleet.FrameDelta, Site: st.name, Window: we.Window, Seq: uint64(i + 1), Watermark: we.Watermark, Payload: we.Payload}
			start := time.Now()
			b, err := fleet.EncodeFrame(f)
			enc += time.Since(start)
			if err != nil {
				return err
			}
			start = time.Now()
			_, _, err = fleet.DecodeFrame(b)
			dec += time.Since(start)
			if err != nil {
				return err
			}
		}
	}
	m["fleet.frame_encode_ns_per_delta"] = float64(enc) / deltas
	m["fleet.frame_decode_ns_per_delta"] = float64(dec) / deltas

	// The merger in-process, no transport, at full and quarter fleet.
	all, err := in.fold(len(in.sites))
	if err != nil {
		return err
	}
	m["core.fleet.delta_us"] = all.deltaUs
	m["core.fleet.report_ms"] = all.reportMs
	if quarter := len(in.sites) / 4; quarter > 0 {
		few, err := in.fold(quarter)
		if err != nil {
			return err
		}
		m["core.fleet.sites4_over_sites16_delta_us"] = few.deltaUs / all.deltaUs
	}
	if in.singleMatch {
		m["core.fleet.single_instance_match"] = 1
	}
	return nil
}

// heapReadings is how many times serve-poll's memory pass reads the heap.
const heapReadings = 8

// serveRunner drives serve-poll.
type serveRunner struct {
	sz   sizes
	seed int64
	in   *serveInput
}

func (r *serveRunner) setup(rec *spanRec) error {
	soak, err := setupSoak(soakConfig(r.seed), r.sz.soak, rec)
	if err != nil {
		return err
	}
	r.in, err = setupServe(soak)
	return err
}

func (r *serveRunner) close() {
	if r.in != nil {
		r.in.close()
		r.in = nil
	}
}

func (r *serveRunner) op() (opResult, error) {
	_, lat, _, ok := r.in.request()
	return opResult{wall: lat, lags: []time.Duration{lat}, ok: ok}, nil
}
func (r *serveRunner) units() float64    { return 1 }
func (r *serveRunner) inputBytes() int64 { return r.in.soak.bytes }
func (r *serveRunner) loop() loopShape {
	return loopShape{warm: r.sz.warmReqs, floor: r.sz.minReqs, batch: r.sz.reqBatch}
}

// memory reads the live heap while a pass of requests is served: the
// state the server keeps resident to answer window requests.
func (r *serveRunner) memory(h *heapProbe, c *tally) error {
	h.begin()
	for i := 0; i < r.sz.memReqs; i++ {
		_, _, _, ok := r.in.request()
		c.add(ok)
		if (i+1)%(r.sz.memReqs/heapReadings) == 0 {
			h.sample()
		}
	}
	return nil
}

func (r *serveRunner) trace(rec *spanRec, m map[string]float64, c *tally) error {
	in := r.in
	genSpans(rec, in.soak.pkts, in.soak.bytes, m)

	pass := func(rec *spanRec, byKind *[kinds][]float64, bytes *int) time.Duration {
		rec.nextOp()
		start := time.Now()
		opID, endOp := rec.start("op", 0)
		for i := 0; i < r.sz.memReqs; i++ {
			kind, lat, n, ok := in.request()
			c.add(ok)
			if byKind != nil {
				byKind[kind] = append(byKind[kind], us(lat))
				*bytes += n
			}
			// One span per 101st request: 101 is coprime to the mix's
			// cycle of ten, so the sampled spans walk every kind.
			if i%101 == 0 {
				rec.add("core.serve.request."+kindNames[kind], opID, time.Now().Add(-lat), lat)
			}
		}
		endOp()
		return time.Since(start)
	}
	var byKind [kinds][]float64
	var bytes int
	plain := pass(nil, &byKind, &bytes)
	traced := pass(rec, nil, nil)
	m["trace_overhead_ratio"] = float64(traced)/float64(plain) - 1

	var all []float64
	for k, xs := range byKind {
		all = append(all, xs...)
		m["core.serve."+kindNames[k]+"_p50_us"] = median(xs)
	}
	p99, err := percentile(all, 99)
	if err != nil {
		return err
	}
	m["core.serve.request_p99_us"] = p99
	m["core.serve.bytes_per_request"] = float64(bytes) / float64(len(all))

	// The handler alone: the same mix into a recorder, no TCP.
	var handler []float64
	for i := 0; i < r.sz.memReqs; i++ {
		_, path := in.path(i)
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rr := httptest.NewRecorder()
		start := time.Now()
		in.srv.ServeHTTP(rr, req)
		handler = append(handler, us(time.Since(start)))
		c.add(rr.Code == http.StatusOK && rr.Body.Len() == in.wantLen[path])
	}
	m["core.serve.handler_p50_us"] = median(handler)

	m["core.window.report_us"], err = windowReportUs(in.analyzer)
	return err
}
