// The byte-identity differentials, as one table. A report must not
// depend on how the analysis was run: the pipeline and replay worker
// counts, batch or windowed, the packet source, one instance or a fleet
// of sites, and where a fault schedule lands are axes, each written
// once. A row names its inputs, the axis values it sweeps (the full
// product of them) and any oracle beyond the shared ones; every point
// of it is one run, compared with the reference for its input, fault
// and window — the same analysis read from the input's reference source
// by a single instance at workers = replay = 1, run once per test
// binary.
//
// The shared oracles: a run's JSON and text bytes equal the reference's
// at its window, its cumulative report deeply equals the batch
// reference's, and a windowed run's windows sum to its cumulative. Each
// row runs under the name of the test it replaced, so that name still
// selects it.
package enttrace_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/faults"
	"enttrace/internal/fleet"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
	"enttrace/internal/reassembly"
)

// An Axis is one way of running the same analysis. Apply sets one of
// its Values on a point.
type Axis struct {
	Name   string
	Values []any
	Apply  func(p *point, v any)
}

// With is the axis restricted to values, for a row that sweeps fewer.
func (ax Axis) With(values ...any) Axis {
	ax.Values = values
	return ax
}

func (ax Axis) label(v any) string {
	if s, ok := v.(*schedule); ok {
		return s.name
	}
	return fmt.Sprintf("%s=%v", ax.Name, v)
}

var (
	workersAxis = Axis{"workers", []any{1, 4, 8}, func(p *point, v any) { p.workers = v.(int) }}
	replayAxis  = Axis{"replay", []any{1, 4, 8}, func(p *point, v any) { p.replay = v.(int) }}
	windowAxis  = Axis{"window", []any{time.Duration(0), time.Minute}, func(p *point, v any) { p.window = v.(time.Duration) }}
	// packets: the generator's in-memory frames; pooled: the slab reader
	// over pcap bytes (entanalyze's file path); reader: pcap.Reader; map: a
	// MapSource over a copy of the bytes, zeroed once the trace is read;
	// stream: the schedule generated as it is read; snap68: the input's
	// reference source with every frame cut to 68 captured bytes.
	sourceAxis = Axis{"source", []any{"packets", "pooled", "reader", "map", "stream", "snap68"}, func(p *point, v any) { p.source = v.(string) }}
	// single: one analyzer; fleet: the traces split between two sites
	// that ship their windows over TCP to one aggregator.
	topologyAxis = Axis{"topology", []any{"single", "fleet"}, func(p *point, v any) { p.topology = v.(string) }}
	// once: the run is reported at its end; every-trace: Report and
	// WindowReports are also taken after each trace. Report drains the
	// replay workers' cumulatives, so this folds the same deltas in
	// another grouping.
	reportsAxis = Axis{"reports", []any{"once", "every-trace"}, func(p *point, v any) { p.reports = v.(string) }}
	// at-end: windows are read when the run ends; on-window: OnWindow is
	// set, and windows leave while the trace is still replaying (DESIGN
	// "Epoch cuts and windowed reports").
	emitAxis  = Axis{"emit", []any{"at-end", "on-window"}, func(p *point, v any) { p.emit = v.(string) }}
	faultAxis = Axis{"fault", []any{
		// The default-schedule trace runs ~4k packets; every offset
		// lands inside it so terminal faults genuinely fire.
		&schedule{"recoverable-mix", faults.Packets, []string{"read@200,short@900:40,read@2500,stall@3000:1ms,short@3600:14"}, false},
		&schedule{"torn-mid-stream", faults.Packets, []string{"read@500,torn@3000"}, false},
		&schedule{"early-eof", faults.Packets, []string{"short@100:48,eof@2500"}, false},
		&schedule{"random-seeded", faults.Packets, []string{"rand:99:12:4000"}, false},
		// Per fleet site; none of these loses a window under the
		// at-least-once protocol.
		&schedule{"clean", faults.Sends, []string{"", ""}, false},
		&schedule{"drop-dup-reorder", faults.Sends, []string{"drop@1,dup@3,reorder@4,netstall@2:1ms", "drop@2,drop@3,dup@5"}, true},
		&schedule{"random-seeded", faults.Sends, []string{"netrand:11:5:20", "netrand:23:5:20"}, false},
	}, func(p *point, v any) { p.fault = v.(*schedule) }}
)

// A schedule is a fault schedule on one seam: a single instance's
// packet source (one spec), or each fleet site's sends (a spec a site).
type schedule struct {
	name      string
	seam      faults.Ordinal
	specs     []string
	reconnect bool // the wire faults drop connections: each site must reconnect
}

// faultsOn is the fault axis restricted to one seam's schedules.
func faultsOn(seam faults.Ordinal) Axis {
	var vs []any
	for _, v := range faultAxis.Values {
		if v.(*schedule).seam == seam {
			vs = append(vs, v)
		}
	}
	return faultAxis.With(vs...)
}

// A point is one run: an input read at one value of every axis.
type point struct {
	in       *input
	workers  int
	replay   int // 0 follows workers
	window   time.Duration
	source   string
	topology string
	fault    *schedule
	reports  string
	emit     string
}

// withDefaults fills what a row leaves unset: replay workers follow
// the pipeline's, the source is the input's reference source, and the
// run is a single instance reported once, with its windows read at the
// end.
func (p point) withDefaults() point {
	if p.replay == 0 {
		p.replay = p.workers
	}
	p.source = cmp.Or(p.source, p.in.source)
	p.topology = cmp.Or(p.topology, "single")
	p.reports = cmp.Or(p.reports, "once")
	p.emit = cmp.Or(p.emit, "at-end")
	return p
}

func (p point) String() string {
	s := fmt.Sprintf("%s workers=%d replay=%d window=%s source=%s topology=%s reports=%s emit=%s",
		p.in.name, p.workers, p.replay, p.window, p.source, p.topology, p.reports, p.emit)
	if p.fault != nil {
		s += " fault=" + p.fault.name
	}
	return s
}

// ref is the reference for p at window: its input and source faults
// read from the reference source by a single instance at workers =
// replay = 1, reported once at the end.
func (p point) ref(window time.Duration) point {
	r := point{in: p.in, workers: 1, window: window}.withDefaults()
	if p.fault != nil && p.fault.seam == faults.Packets {
		r.fault = p.fault
	}
	return r
}

// An input is a set of traces and what the analyzer is told about them,
// built on first use and kept for the test binary's life.
type input struct {
	name   string
	source string // the reference source
	build  func(tb testing.TB) *traceSet
	once   sync.Once
	set    *traceSet
}

type traceSet struct {
	opts   core.Options // Dataset, KnownScanners, PayloadAnalysis, WindowOrigin
	names  []string
	traces []gen.Trace
	raws   [][]byte // the traces as pcap bytes, where a reader reads them
	stream func() gen.StreamConfig
	split  int // fleet: site a reads traces[:split], site b the rest
	expect gen.EvasionExpect
}

func (in *input) get(tb testing.TB) *traceSet {
	in.once.Do(func() { in.set = in.build(tb) })
	if in.set == nil {
		tb.Fatalf("%s: building the input failed", in.name)
	}
	return in.set
}

// options is what the analyzer is told about a dataset of cfg's shape.
func options(cfg enterprise.Config) core.Options {
	return core.Options{Dataset: cfg.Name, KnownScanners: enterprise.KnownScanners(), PayloadAnalysis: cfg.Snaplen >= 1500}
}

// datasetInput is a dataset at scale 0.15 on four vantages, each trace
// named for its prefix.
func datasetInput(name string) *input {
	return &input{name: name, source: "packets", build: func(tb testing.TB) *traceSet {
		ds := determinismDataset(tb, name, 0.15)
		s := &traceSet{opts: options(ds.Config), traces: ds.Traces}
		for _, tr := range ds.Traces {
			s.names = append(s.names, tr.Prefix.String())
		}
		return s
	}}
}

var (
	d0, d1, d2 = datasetInput("D0"), datasetInput("D1"), datasetInput("D2")
	d3, d4     = datasetInput("D3"), datasetInput("D4")

	// sched is the default load shape, as a pcap and as the generator
	// that streams it; sched1h is the shape tiled to an hour, streamed.
	sched   = scheduleInput("sched", "pooled", gen.DefaultSchedule())
	sched1h = scheduleInput("schedule-1h", "stream", gen.DefaultSchedule().Repeat(time.Hour))

	// benign is ordinary generated traffic on one D3 vantage, for the
	// reassembly ledger.
	benign = &input{name: "benign", source: "pooled", build: func(tb testing.TB) *traceSet {
		cfg := enterprise.D3()
		cfg.Scale, cfg.Monitored = 0.05, cfg.Monitored[:1]
		ds := gen.GenerateDataset(cfg)
		s := &traceSet{opts: options(ds.Config), traces: ds.Traces, raws: datasetPcaps(tb, ds)}
		for range ds.Traces {
			s.names = append(s.names, "benign")
		}
		if len(s.names) == 0 {
			tb.Fatal("empty benign dataset")
		}
		return s
	}}

	// fleetInput is two trace blocks, one D3 subnet each, generated on
	// their own networks so that no dynamic port registration crosses a
	// site (DESIGN.md "Fleet aggregation"); the fleet's window clock
	// starts at the first packet.
	fleetInput = &input{name: "fleet", source: "packets", build: func(tb testing.TB) *traceSet {
		cfg := enterprise.D3()
		cfg.Scale = 0.2
		s := &traceSet{opts: core.Options{Dataset: "fleet", PayloadAnalysis: true}}
		for _, subnet := range cfg.Monitored[:2] {
			c := cfg
			c.Monitored = []int{subnet}
			s.split = len(s.traces)
			for _, tr := range gen.GenerateDataset(c).Traces {
				s.names = append(s.names, fmt.Sprintf("trace-%02d", len(s.traces)))
				s.traces = append(s.traces, tr)
				if len(tr.Packets) > 0 {
					if ts := tr.Packets[0].Timestamp; s.opts.WindowOrigin.IsZero() || ts.Before(s.opts.WindowOrigin) {
						s.opts.WindowOrigin = ts
					}
				}
			}
		}
		return s
	}}

	evasion = evasionInputs()
)

// headersOnly is each of ins analyzed without payload analysis, as a
// header-only (68-byte snaplen) capture is.
func headersOnly(ins ...*input) []*input {
	var out []*input
	for _, in := range ins {
		out = append(out, &input{name: in.name, source: in.source, build: func(tb testing.TB) *traceSet {
			s := *in.get(tb)
			s.opts.PayloadAnalysis = false
			return &s
		}})
	}
	return out
}

// scheduleInput is a load schedule on D3's first vantage as one trace;
// unless it is streamed for reference, a pcap of it too.
func scheduleInput(name, source string, shape gen.Schedule) *input {
	return &input{name: name, source: source, build: func(tb testing.TB) *traceSet {
		cfg := enterprise.D3()
		subnet := cfg.Monitored[0]
		s := &traceSet{
			opts:   options(cfg),
			names:  []string{"sched"},
			traces: []gen.Trace{{Subnet: subnet, Prefix: enterprise.SubnetPrefix(subnet)}},
			stream: func() gen.StreamConfig {
				return gen.StreamConfig{Network: enterprise.NewNetwork(cfg), Subnet: subnet, Schedule: shape, Snaplen: cfg.Snaplen}
			},
		}
		if source != "stream" {
			s.raws = [][]byte{scheduledPcap(tb, cfg, shape)}
		}
		return s
	}}
}

// evasionInputs is the evasion scenario family (internal/gen), one
// trace each, serialized at full snaplen so that corrupt headers and
// payload bytes survive intact.
func evasionInputs() []*input {
	var ins []*input
	for _, sc := range gen.EvasionScenarios() {
		ins = append(ins, &input{name: sc.Name, source: "pooled", build: func(tb testing.TB) *traceSet {
			tr := sc.Build()
			var buf bytes.Buffer
			if err := gen.WriteTrace(&buf, enterprise.Config{Snaplen: 65535}, tr); err != nil {
				tb.Fatal(err)
			}
			return &traceSet{
				opts:   core.Options{Dataset: "ADV", KnownScanners: enterprise.KnownScanners(), PayloadAnalysis: true},
				names:  []string{"adv"},
				traces: []gen.Trace{tr},
				raws:   [][]byte{buf.Bytes()},
				expect: sc.Expect,
			}
		}})
	}
	return ins
}

// A row is one sweep: each of its inputs at the point at, over the full
// product of its axes' values.
type row struct {
	test   string // the test that runs it
	inputs []*input
	at     point
	sweep  []Axis
	extra  []func(t *testing.T, p point, got *result)
}

var table = []row{
	// The pipeline's core guarantee, over both parallel axes. D3 and D4
	// parse payloads (the PASV/EPM dynamic registrations, the two-phase
	// replay's merge); D1 is the header-only path.
	{test: "TestParallelReportIdentical", inputs: []*input{d3, d4, d1},
		sweep: []Axis{workersAxis, replayAxis}},
	// Epoch cuts: several per one-hour trace.
	{test: "TestWindowedMatchesBatchGrid", inputs: []*input{d3, d4, d1},
		at: point{window: 10 * time.Minute}, sweep: []Axis{workersAxis, replayAxis}},
	// A streamed schedule reports like its pcap, so soak-mode results
	// (entanalyze -gen) are interchangeable with trace-file results.
	{test: "TestStreamedReportMatchesPcapReplay", inputs: []*input{sched},
		sweep: []Axis{workersAxis, windowAxis, sourceAxis.With("pooled", "stream")}},
	// benchmark/'s soak reference reads through MapSource; its image is
	// zeroed before the report renders, so no report state borrows it.
	{test: "TestMapSourceRunJSONMatchesPooledReader", inputs: []*input{sched},
		sweep: []Axis{workersAxis.With(1, 4), replayAxis.With(1, 4), windowAxis, sourceAxis.With("pooled", "map")}},
	// Source faults degrade deterministically: the census equals the
	// injector's manifest, the same at every point.
	{test: "TestChaosGridDeterminism", inputs: []*input{sched}, at: point{source: "reader"},
		sweep: []Axis{faultsOn(faults.Packets), workersAxis, windowAxis},
		extra: []func(*testing.T, point, *result){censusMatchesManifest}},
	// Two sites over TCP fold to the single instance, clean and under
	// wire faults that lose nothing under the at-least-once protocol.
	{test: "TestFleetTransportDifferential", inputs: []*input{fleetInput},
		at:    point{workers: 2, window: time.Minute, topology: "fleet"},
		sweep: []Axis{faultsOn(faults.Sends)}},
	{test: "TestFleetTransportDifferential", inputs: []*input{fleetInput},
		at: point{workers: 2, window: time.Minute}, sweep: []Axis{topologyAxis.With("single")}},
	// Hostile input: the reassembly ledger conserved and the census
	// signal each scenario was built to drive.
	{test: "TestEvasionGrid", inputs: evasion,
		sweep: []Axis{workersAxis, replayAxis, windowAxis.With(time.Duration(0), 500*time.Microsecond)},
		extra: []func(*testing.T, point, *result){conserved, scenarioCounters}},
	// Taking reports mid-run leaves the final bytes alone.
	{test: "TestMidRunReportsLeaveFinalUnchanged", inputs: []*input{d3},
		sweep: []Axis{windowAxis.With(time.Duration(0), 10*time.Minute), workersAxis.With(1, 4), reportsAxis}},
	// The bytes a windowed run emitted before windows became aggregates,
	// and, where OnWindow is set, before windows left during replay.
	{test: "TestWindowReportDigests", inputs: []*input{d3, d0, d2},
		at: point{window: time.Minute}, sweep: []Axis{workersAxis.With(1, 2, 4)},
		extra: []func(*testing.T, point, *result){recordedDigests}},
	{test: "TestWindowReportDigests", inputs: []*input{sched1h},
		at: point{window: time.Minute}, sweep: []Axis{workersAxis.With(1, 2, 4), emitAxis.With("on-window")},
		extra: []func(*testing.T, point, *result){recordedDigests}},
	// The snaplen relation: without payload analysis, cutting every frame
	// to the 68 bytes D1 and D2 were captured at (the wire length kept)
	// moves no report byte, so nothing on the header path reads payload.
	{test: "TestSnaplenRelation", inputs: headersOnly(d0, d1, d2, d3, d4),
		at: point{workers: 2}, sweep: []Axis{windowAxis, sourceAxis.With("snap68")}},
	// The ledger holds for ordinary traffic too.
	{test: "TestBenignConservation", inputs: []*input{benign},
		sweep: []Axis{workersAxis, replayAxis}, extra: []func(*testing.T, point, *result){conserved}},
	{test: "TestBenignConservation", inputs: []*input{benign},
		at: point{workers: 4, window: 30 * time.Second}, extra: []func(*testing.T, point, *result){conserved}},
}

func TestParallelReportIdentical(t *testing.T)             { runRows(t) }
func TestWindowedMatchesBatchGrid(t *testing.T)            { runRows(t) }
func TestStreamedReportMatchesPcapReplay(t *testing.T)     { runRows(t) }
func TestMapSourceRunJSONMatchesPooledReader(t *testing.T) { runRows(t) }
func TestChaosGridDeterminism(t *testing.T)                { runRows(t) }
func TestFleetTransportDifferential(t *testing.T)          { runRows(t) }
func TestEvasionGrid(t *testing.T)                         { runRows(t) }
func TestBenignConservation(t *testing.T)                  { runRows(t) }
func TestMidRunReportsLeaveFinalUnchanged(t *testing.T)    { runRows(t) }
func TestWindowReportDigests(t *testing.T)                 { runRows(t) }
func TestSnaplenRelation(t *testing.T)                     { runRows(t) }

// runRows runs the table's rows for the calling test: a subtest per
// input where the test reads several, and one per axis value.
func runRows(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	var rows []row
	inputs := map[*input]bool{}
	for _, r := range table {
		if r.test == t.Name() {
			rows = append(rows, r)
			for _, in := range r.inputs {
				inputs[in] = true
			}
		}
	}
	for _, r := range rows {
		for _, in := range r.inputs {
			p := r.at
			p.in = in
			if len(inputs) == 1 {
				r.walk(t, p, r.sweep)
				continue
			}
			subtest(t, in.name, func(t *testing.T) { r.walk(t, p, r.sweep) })
		}
	}
}

// subtest runs f as a subtest of t, beside its siblings where t is a test's
// top level.
func subtest(t *testing.T, name string, f func(*testing.T)) {
	t.Run(name, func(t *testing.T) {
		if strings.Count(t.Name(), "/") == 1 {
			t.Parallel()
		}
		f(t)
	})
}

func (r row) walk(t *testing.T, p point, axes []Axis) {
	if len(axes) > 0 {
		for _, v := range axes[0].Values {
			q := p
			axes[0].Apply(&q, v)
			subtest(t, axes[0].label(v), func(t *testing.T) { r.walk(t, q, axes[1:]) })
		}
		return
	}
	p = p.withDefaults()
	ref, batch := reference(t, p.ref(p.window)), reference(t, p.ref(0))
	got := ref
	if p != p.ref(p.window) {
		got = p.run(t)
	}
	if !reflect.DeepEqual(got.report, batch.report) {
		t.Errorf("%s: cumulative report differs from the batch reference", p)
		diffReports(t, batch.report, got.report)
	}
	if !bytes.Equal(got.json, ref.json) {
		t.Errorf("%s: run JSON differs from the reference's (%d vs %d bytes)", p, len(got.json), len(ref.json))
	}
	if got.text != ref.text {
		t.Errorf("%s: text report differs from the reference's", p)
	}
	if p.window > 0 {
		windowSums(t, p, got)
	}
	for _, check := range r.extra {
		check(t, p, got)
	}
}

// diffReports narrows a report mismatch down to the top-level section,
// so a regression names the subsystem that broke.
func diffReports(t *testing.T, a, b *core.Report) {
	t.Helper()
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			t.Errorf("  section %s differs", va.Type().Field(i).Name)
		}
	}
}

// A result is one run's outputs in byte-comparable form.
type result struct {
	report  *core.Report
	windows []*core.WindowReport
	json    []byte // every window's MarshalReport bytes, then the cumulative's
	text    string // the run as entanalyze prints it as text, then every window's tables
	inj     *faults.Injector
	src     *faults.Source // the fault-wrapped source, where one was
	emitted []byte         // what OnWindow handed over, as MarshalReport bytes
}

var references sync.Map // point → *referenceRun

type referenceRun struct {
	once sync.Once
	res  *result
}

// reference runs p once per test binary.
func reference(t *testing.T, p point) *result {
	v, _ := references.LoadOrStore(p, &referenceRun{})
	r := v.(*referenceRun)
	r.once.Do(func() { r.res = p.run(t) })
	if r.res == nil {
		t.Fatalf("%s: the reference run failed", p)
	}
	return r.res
}

// run analyzes p's input at p.
func (p point) run(tb testing.TB) *result {
	tb.Helper()
	res := &result{}
	if p.topology == "fleet" {
		runFleet(tb, p, res)
		return res
	}
	a := p.analyze(tb, res, 0, len(p.in.get(tb).traces))
	res.finish(tb, a.Report(), a.WindowReports())
	return res
}

func (res *result) finish(tb testing.TB, r *core.Report, wins []*core.WindowReport) {
	var js []byte
	for _, r := range append(reports(wins), r) {
		b, err := core.MarshalReport(r)
		if err != nil {
			tb.Fatal(err)
		}
		js = append(js, b...)
	}
	var text strings.Builder
	if err := core.WriteRun(&text, "text", wins, r); err != nil {
		tb.Fatal(err)
	}
	for _, w := range wins {
		text.WriteString(core.RenderText(w.Report))
	}
	res.report, res.windows, res.json, res.text = r, wins, js, text.String()
}

// analyze reads traces lo..hi of p's input into a fresh analyzer that
// owns the global trace ordinals from lo. A source fault degrades on
// source errors, ages out connections idle past two minutes and replays
// its stalls instantly.
func (p point) analyze(tb testing.TB, res *result, lo, hi int) *core.Analyzer {
	tb.Helper()
	s := p.in.get(tb)
	o := s.opts
	o.Workers, o.ReplayWorkers, o.Window, o.TraceBase = p.workers, p.replay, p.window, lo
	faulted := p.fault != nil && p.fault.seam == faults.Packets
	if faulted {
		o.OnError, o.IdleEvict = pipeline.Degrade, 2*time.Minute
	}
	if p.emit == "on-window" {
		o.OnWindow = func(wr *core.WindowReport) {
			b, err := core.MarshalReport(wr.Report)
			if err != nil {
				tb.Error(err)
			}
			res.emitted = append(res.emitted, b...)
		}
	}
	a := core.NewAnalyzer(o)
	pool := pcap.NewPool()
	for i := lo; i < hi; i++ {
		src, image, err := p.open(s, i, pool)
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		if faulted {
			sched, err := faults.ParseSpec(p.fault.specs[0], faults.Packets)
			if err != nil {
				tb.Fatal(err)
			}
			res.inj = &faults.Injector{Schedule: sched}
			res.src = res.inj.Wrap(src).(*faults.Source)
			res.src.SetSleep(func(time.Duration) {})
			src = res.src
		}
		if err := a.AddTraceSource(s.names[i], s.traces[i].Prefix, src); err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		clear(image)
		if p.reports == "every-trace" {
			a.Report()
			a.WindowReports()
		}
	}
	return a
}

// open reads trace i of s from p's source.
func (p point) open(s *traceSet, i int, pool *pcap.Pool) (src pcap.PacketSource, image []byte, err error) {
	switch p.source {
	case "packets":
		return pcap.NewSliceSource(s.traces[i].Packets), nil, nil
	case "stream":
		return gen.NewStreamSource(s.stream()), nil, nil
	case "map":
		image = bytes.Clone(s.raws[i])
		src, err = pcap.NewMapSource(image)
		return src, image, err
	case "snap68":
		q := p
		q.source = p.in.source
		src, image, err = q.open(s, i, pool)
		return snap68Source{src}, image, err
	}
	rd, err := pcap.NewReader(bytes.NewReader(s.raws[i]))
	if err != nil || p.source == "reader" {
		return rd, nil, err
	}
	return pcap.NewPooledReader(rd, pool), nil, nil
}

// snap68Source is inner as a capture with a 68-byte snaplen would have
// recorded it: every frame cut to its first 68 bytes, OrigLen kept. The
// cut frame is a copy, so inner's packets go back as soon as it is taken.
type snap68Source struct{ inner pcap.PacketSource }

func (s snap68Source) Next() (*pcap.Packet, error) {
	p, err := s.inner.Next()
	if err != nil {
		return nil, err
	}
	cut := &pcap.Packet{Timestamp: p.Timestamp, OrigLen: p.OrigLen}
	cut.Data = bytes.Clone(p.Data[:min(len(p.Data), 68)])
	if rel, ok := s.inner.(pcap.Releaser); ok {
		rel.Release(p)
	}
	return cut, nil
}

// runFleet analyzes p's input as two sites and ships their windows to
// an aggregator over TCP, each site's sends through its wire faults; it
// must drain complete, with nothing lost.
func runFleet(tb testing.TB, p point, res *result) {
	tb.Helper()
	sink := core.NewFleet(core.FleetConfig{Dataset: p.in.get(tb).opts.Dataset, ExpectSites: []string{"site-a", "site-b"}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	agg := fleet.NewAggregator(ln, sink, tb.Logf)
	served := make(chan struct{})
	go func() { agg.Serve(); close(served) }()
	defer func() { agg.Close(); <-served }()

	s := p.in.get(tb)
	var wg sync.WaitGroup
	for i, span := range [][2]int{{0, s.split}, {s.split, len(s.traces)}} {
		a := p.analyze(tb, nil, span[0], span[1])
		wg.Add(1)
		go func() {
			defer wg.Done()
			ship(tb, ln.Addr().String(), fmt.Sprintf("site-%c", 'a'+i), a, p.fault, i)
		}()
	}
	wg.Wait()

	if st := sink.Status(); !st.FinalReady || st.LostWindows != 0 || len(st.MissingSites) != 0 {
		tb.Fatalf("%s: fleet status after drain = %+v, want final-ready with nothing lost", p, st)
	}
	r := sink.Report()
	if r.Fleet != nil {
		tb.Errorf("%s: complete fleet carries a degradation census: %+v", p, r.Fleet)
	}
	res.finish(tb, r, sink.WindowReports())
}

// ship streams a site's exports to addr through a real shipper under
// the site's wire faults and checks the drain lost nothing.
func ship(tb testing.TB, addr, site string, a *core.Analyzer, sched *schedule, i int) {
	var inj *faults.Wire
	if sched != nil && sched.specs[i] != "" {
		ws, err := faults.ParseSpec(sched.specs[i], faults.Sends)
		if err != nil {
			tb.Errorf("site %s: %v", site, err)
			return
		}
		inj = faults.NewWire(ws)
		inj.SetSleep(func(time.Duration) {})
	}
	sh, err := fleet.NewShipper(fleet.ShipperConfig{
		Addr:      addr,
		Site:      site,
		Hello:     a.FleetHello(),
		Backoff:   fleet.Backoff{Base: 200 * time.Microsecond, Max: 2 * time.Millisecond},
		NetFaults: inj,
		Logf:      tb.Logf,
	})
	if err != nil {
		tb.Errorf("site %s: %v", site, err)
		return
	}
	exports, err := a.ExportAll()
	if err != nil {
		tb.Errorf("site %s export: %v", site, err)
		return
	}
	maxWindow, watermark := -1, int64(0)
	for _, we := range exports {
		sh.ShipDelta(we.Window, we.Watermark, we.Payload)
		maxWindow, watermark = max(maxWindow, we.Window), we.Watermark
	}
	sh.Fin(maxWindow, watermark)
	if err := sh.Close(); err != nil {
		tb.Errorf("site %s close: %v", site, err)
	}
	if lw := sh.LostWindows(); len(lw) != 0 {
		tb.Errorf("site %s lost windows under non-lossy faults: %v", site, lw)
	}
	if st := sh.Stats(); sched != nil && sched.reconnect && (st.Reconnects == 0 || st.Resends == 0) {
		tb.Errorf("site %s: drop schedule fired but no reconnect/resend recorded: %+v", site, st)
	}
}

// windowSums: a windowed run cuts at least two windows, and its
// additive counters summed over them equal the cumulative's — each
// connection lands in exactly one window.
func windowSums(t *testing.T, p point, got *result) {
	if len(got.windows) < 2 {
		t.Errorf("%s: %d windows, want several", p, len(got.windows))
	}
	sum := map[string]int64{}
	for _, w := range got.windows {
		for k, n := range counters(w.Report) {
			sum[k] += n
		}
	}
	if cum := counters(got.report); !reflect.DeepEqual(sum, cum) {
		t.Errorf("%s: window sums diverge from the cumulative:\n  sum %v\n  cum %v", p, sum, cum)
	}
}

// counters lists a report's additive counters: packets, connections and
// payload bytes, the hostile-input census but its peak, and the source
// error census.
func counters(r *core.Report) map[string]int64 {
	se := r.SourceErrors
	c := map[string]int64{
		"packets": r.Table1.Packets, "conns": r.Table3.TotalConns, "bytes": r.Table3.TotalBytes,
		"source errors": se.Errors, "lost bytes": se.LostBytes, "aged out": se.AgedOutConns, "cap evicted": se.CapEvictedConns,
	}
	h := reflect.ValueOf(r.Hostile)
	for i := 0; i < h.NumField(); i++ {
		if f := h.Type().Field(i); f.Type.Kind() == reflect.Int64 && f.Name != "PeakPendingBytes" {
			c[f.Name] = h.Field(i).Int()
		}
	}
	for k, n := range se.ByKind {
		c["kind "+k] = n
	}
	return c
}

// conserved: the run reassembled stream bytes, and in the cumulative
// and in every window every ingested payload byte was delivered,
// trimmed as a duplicate or a conflict, or discarded, the out-of-order
// buffer kept to its budget, and no counter went negative.
func conserved(t *testing.T, p point, got *result) {
	if got.report.Hostile.IngestBytes == 0 {
		t.Errorf("%s: no reassembled stream bytes", p)
	}
	for i, r := range append(reports(got.windows), got.report) {
		if err := checkConservation(r.Hostile); err != nil {
			t.Errorf("%s, window %d (%d is the cumulative): %v", p, i, len(got.windows), err)
		}
	}
}

// checkConservation is the hostile-input ledger identity on one report.
// (Pending is zero in a final ledger: streams are discarded before their
// accounting is folded into the census.)
func checkConservation(h core.HostileReport) error {
	if got := h.DeliveredBytes + h.DuplicateBytes + h.ConflictBytes + h.DiscardedBytes; got != h.IngestBytes {
		return fmt.Errorf("ledger leak: delivered %d + duplicate %d + conflict %d + discarded %d = %d, want ingest %d",
			h.DeliveredBytes, h.DuplicateBytes, h.ConflictBytes, h.DiscardedBytes, got, h.IngestBytes)
	}
	if h.PeakPendingBytes > reassembly.DefaultMaxPending {
		return fmt.Errorf("pending memory unbounded: peak %d > budget %d", h.PeakPendingBytes, int64(reassembly.DefaultMaxPending))
	}
	v := reflect.ValueOf(h)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int64 && f.Int() < 0 {
			return fmt.Errorf("negative %s counter: %d", v.Type().Field(i).Name, f.Int())
		}
	}
	return nil
}

func reports(wins []*core.WindowReport) []*core.Report {
	rs := make([]*core.Report, len(wins))
	for i, w := range wins {
		rs[i] = w.Report
	}
	return rs
}

// scenarioCounters: the census counters the evasion scenario promises
// are non-zero.
func scenarioCounters(t *testing.T, p point, got *result) {
	want, h := p.in.get(t).expect, got.report.Hostile
	for _, c := range []struct {
		name     string
		promised bool
		v        int64
	}{
		{"ConflictBytes", want.ConflictBytes, h.ConflictBytes},
		{"DuplicateBytes", want.DuplicateBytes, h.DuplicateBytes},
		{"BogusRSTs", want.BogusRSTs, h.BogusRSTs},
		{"WrapEvents", want.WrapEvents, h.WrapEvents},
		{"GapEvents", want.GapEvents, h.GapEvents},
		{"UndecodableFrames", want.Undecodable, h.UndecodableFrames},
	} {
		if c.promised && c.v == 0 {
			t.Errorf("%s: scenario promises %s > 0, census has 0", p, c.name)
		}
	}
}

// censusMatchesManifest: the folded source-error census equals the
// injector's manifest, the manifest is the batch reference's, and a
// degraded run's text says so.
func censusMatchesManifest(t *testing.T, p point, got *result) {
	checkCensusMatches(t, got.report, got.inj, got.src)
	exp := got.src.Expected()
	if want := reference(t, p.ref(0)).src.Expected(); !reflect.DeepEqual(exp, want) {
		t.Errorf("%s: manifest %+v, the reference's %+v", p, exp, want)
	}
	if exp.Errors > 0 && !strings.Contains(got.text, "Degraded-run census") {
		t.Errorf("%s: text report lacks the degraded-run census section", p)
	}
}

// recordedDigests holds a windowed run's bytes to digests recorded at
// 2c27067, the commit before windows became aggregates, where a window
// kept its banked deltas and folded them trace-granular-first on every
// read: SHA-256 over every window's MarshalReport bytes, then the
// cumulative's. The other oracles compare one build with itself, so a
// change to the order a window folds in — or to what a banked delta
// still shares with the worker that cut it — could move every window and
// stay self-consistent; this fails instead. D2 is the header-only path:
// 68 bytes a frame, so transport headers cut short key with zero ports;
// it was recorded at aed69d9, before the flow table keyed packets by
// words and the router hashed words. Where OnWindow is set, the reports
// it hands over — they leave while the trace still replays — must be the
// bytes it handed over after the replay join, recorded at c67e1d7. A
// change that means to move report bytes re-records them and says so:
// all five were re-recorded when the host-role census and the Veritas
// clause left the report.
func recordedDigests(t *testing.T, p point, got *result) {
	recorded := map[string]string{
		"D3":                  "cf8cd26240141a27525db78058cc0df2df4847cd1ce1e457c55e9868e1798990",
		"D0":                  "d5b78f8306c6825a1e9633475c2f2bfaba15ef3bacfef0b69bc25d6d67619c3e",
		"D2":                  "6efcf163091e900ab3319d83f3de47cec58fc3a54d04ce373ee6127233031f63",
		"schedule-1h":         "1c7a5df7bfe209c7f6cf14893a8ad5cacde26afccfec3586778c2f6344e03cbf",
		"schedule-1h emitted": "974fd2dbe4a18448ebe21056ed82bf8901e84d3d8e7eed5204604bb19e0f0d5c",
	}
	digest := func(b []byte) string { d := sha256.Sum256(b); return hex.EncodeToString(d[:]) }
	if d := digest(got.json); d != recorded[p.in.name] {
		t.Errorf("%s: digest %s, recorded %s", p, d, recorded[p.in.name])
	}
	if d := digest(got.emitted); p.emit == "on-window" && d != recorded[p.in.name+" emitted"] {
		t.Errorf("%s: OnWindow digest %s, recorded %s", p, d, recorded[p.in.name+" emitted"])
	}
}
