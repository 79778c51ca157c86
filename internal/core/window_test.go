package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"enttrace/internal/appproto/dns"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

// windowTestBase is an arbitrary fixed origin for hand-built traces.
var windowTestBase = time.Date(2005, 1, 6, 9, 0, 0, 0, time.UTC)

// emitConn emits one two-turn HTTP-less TCP conversation starting at
// start; extraDelay stretches the server turn so the connection's last
// packet lands that much later.
func emitConn(em *gen.Emitter, cliNum int, start time.Time, extraDelay time.Duration) {
	client := enterprise.InternalHost(5, 10+cliNum)
	server := enterprise.InternalHost(5, 200)
	em.TCPSession(gen.TCPOpts{
		Client: client, Server: server,
		ClientPort: uint16(40000 + cliNum), ServerPort: 9999,
		Start: start, RTT: time.Millisecond,
		Turns: []gen.Turn{
			{FromClient: true, Data: []byte("ping")},
			{Delay: extraDelay, Data: []byte("pong")},
		},
	})
}

func windowedAnalyzer(window time.Duration) *Analyzer {
	return NewAnalyzer(Options{
		Dataset:         "win",
		PayloadAnalysis: true,
		Workers:         2,
		ReplayWorkers:   2,
		Window:          window,
	})
}

// TestWindowStraddlingConn pins the attribution rule: a connection banks
// wholly into the window of its first packet, even when its last packet
// falls in a later window.
func TestWindowStraddlingConn(t *testing.T) {
	em := gen.NewEmitter(1)
	emitConn(em, 0, windowTestBase, 0)                                  // window 0
	emitConn(em, 1, windowTestBase.Add(50*time.Second), 30*time.Second) // starts in 0, ends ~80s
	emitConn(em, 2, windowTestBase.Add(70*time.Second), 0)              // window 1
	a := windowedAnalyzer(time.Minute)
	if err := a.AddTrace(TraceInput{Name: "t0", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
		t.Fatal(err)
	}
	final := a.Report()
	wins := a.WindowReports()
	if len(wins) != 2 {
		t.Fatalf("want 2 windows, got %d", len(wins))
	}
	if got := wins[0].Report.Table3.TotalConns; got != 2 {
		t.Errorf("window 0: want 2 conns (incl. straddler), got %d", got)
	}
	if got := wins[1].Report.Table3.TotalConns; got != 1 {
		t.Errorf("window 1: want 1 conn, got %d", got)
	}
	// The straddler's bytes bank entirely with its first-packet window.
	var sum int64
	for _, w := range wins {
		sum += w.Report.Table3.TotalBytes
	}
	if sum != final.Table3.TotalBytes {
		t.Errorf("window byte totals %d != cumulative %d", sum, final.Table3.TotalBytes)
	}
}

// TestEmptyWindowReport checks the zero-denominator guarantee: a window
// with no traffic renders all-zero fractions (never NaN/Inf) in both
// text and JSON.
func TestEmptyWindowReport(t *testing.T) {
	em := gen.NewEmitter(2)
	emitConn(em, 0, windowTestBase, 0)
	emitConn(em, 1, windowTestBase.Add(130*time.Second), 0) // skips window 1
	a := windowedAnalyzer(time.Minute)
	if err := a.AddTrace(TraceInput{Name: "t0", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
		t.Fatal(err)
	}
	wins := a.WindowReports()
	if len(wins) != 3 {
		t.Fatalf("want 3 windows, got %d", len(wins))
	}
	empty := wins[1].Report
	if empty.Table3.TotalConns != 0 || empty.Table1.Packets != 0 {
		t.Fatalf("window 1 should be empty, got %d conns %d packets",
			empty.Table3.TotalConns, empty.Table1.Packets)
	}
	text := RenderText(empty)
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(text, bad) {
			t.Errorf("empty-window text contains %s", bad)
		}
	}
	b, err := MarshalReport(empty)
	if err != nil {
		t.Fatalf("empty-window report does not marshal: %v", err)
	}
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	assertFinite(t, doc, "$")
}

func assertFinite(t *testing.T, v any, path string) {
	t.Helper()
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			assertFinite(t, e, path+"."+k)
		}
	case []any:
		for _, e := range x {
			assertFinite(t, e, path+"[]")
		}
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("non-finite value at %s", path)
		}
	}
}

// TestScheduledWindows runs the time-structured workload end-to-end
// through windowed analysis: the burst window must dominate the ramp's
// start, and the quiet slot must be (nearly) silent.
func TestScheduledWindows(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 1
	net := enterprise.NewNetwork(cfg)
	pkts := gen.GenerateScheduledTrace(net, cfg.Monitored[0], 0, gen.DefaultSchedule())
	a := windowedAnalyzer(time.Minute)
	if err := a.AddTrace(TraceInput{
		Name:      "sched",
		Monitored: enterprise.SubnetPrefix(cfg.Monitored[0]),
		Packets:   pkts,
	}); err != nil {
		t.Fatal(err)
	}
	final := a.Report()
	wins := a.WindowReports()
	// Schedule: ramp 1m (0→30/min), burst 1m (90/min), quiet 1m,
	// steady 2m (18/min) — five windows, the third silent.
	if len(wins) < 4 {
		t.Fatalf("want >= 4 windows, got %d", len(wins))
	}
	ramp := wins[0].Report.Table3.TotalConns
	burst := wins[1].Report.Table3.TotalConns
	quiet := wins[2].Report.Table3.TotalConns
	if burst <= ramp {
		t.Errorf("burst window (%d conns) should exceed ramp window (%d)", burst, ramp)
	}
	if quiet != 0 {
		t.Errorf("quiet window should be silent, got %d conns", quiet)
	}
	// Sum-of-windows == cumulative, for conn, byte, and packet totals.
	var conns, bytes, packets int64
	for _, w := range wins {
		conns += w.Report.Table3.TotalConns
		bytes += w.Report.Table3.TotalBytes
		packets += w.Report.Table1.Packets
	}
	if conns != final.Table3.TotalConns || bytes != final.Table3.TotalBytes || packets != final.Table1.Packets {
		t.Errorf("window sums (%d conns, %d bytes, %d pkts) != cumulative (%d, %d, %d)",
			conns, bytes, packets,
			final.Table3.TotalConns, final.Table3.TotalBytes, final.Table1.Packets)
	}
}

// TestWindowedCountsEmptyTraces pins a batch-parity edge: a zero-packet
// trace has no event time but must still count in the windowed
// cumulative report exactly as it does in a batch run.
func TestWindowedCountsEmptyTraces(t *testing.T) {
	run := func(window time.Duration) *Report {
		a := NewAnalyzer(Options{Dataset: "win", PayloadAnalysis: true, Window: window})
		empty := TraceInput{Name: "empty", Monitored: enterprise.SubnetPrefix(5)}
		if err := a.AddTrace(empty); err != nil { // before any event time exists
			t.Fatal(err)
		}
		em := gen.NewEmitter(9)
		emitConn(em, 0, windowTestBase, 0)
		if err := a.AddTrace(TraceInput{Name: "t", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
			t.Fatal(err)
		}
		if err := a.AddTrace(empty); err != nil { // after the origin is set
			t.Fatal(err)
		}
		return a.Report()
	}
	batch, windowed := run(0), run(time.Minute)
	if batch.Table1.Traces != 3 {
		t.Fatalf("batch counts %d traces, want 3", batch.Table1.Traces)
	}
	if windowed.Table1.Traces != batch.Table1.Traces {
		t.Errorf("windowed cumulative counts %d traces, batch %d", windowed.Table1.Traces, batch.Table1.Traces)
	}
}

// TestEmptyFirstTraceBanksIntoWindowZero: a zero-packet trace that
// comes before any packet has no event time and no pinned clock to place
// it by, so it banks into window 0 — where every time falls until the
// clock is pinned — and the windows still fold to the report.
func TestEmptyFirstTraceBanksIntoWindowZero(t *testing.T) {
	a := windowedAnalyzer(time.Minute)
	if err := a.AddTrace(TraceInput{Name: "empty", Monitored: enterprise.SubnetPrefix(5)}); err != nil {
		t.Fatal(err)
	}
	em := gen.NewEmitter(9)
	emitConn(em, 0, windowTestBase, 0)
	if err := a.AddTrace(TraceInput{Name: "t", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
		t.Fatal(err)
	}
	if wr, ok := a.WindowReport(0); !ok || wr.Report.Table1.Traces != 2 {
		t.Fatalf("window 0 (present %v) does not count both traces", ok)
	}
	f := NewFleet(FleetConfig{Dataset: "win"})
	deliverAll(t, f, "site", a)
	if !bytes.Equal(reportBytes(t, a.Report()), reportBytes(t, f.Report())) {
		t.Error("the report differs from the fold of the exported windows")
	}
}

// TestWindowedReportsAcrossTraces checks that windows spanning multiple
// AddTrace calls accumulate correctly and that the watermark only
// completes windows once their end has passed.
func TestWindowedReportsAcrossTraces(t *testing.T) {
	var emitted []int
	a := NewAnalyzer(Options{
		Dataset:         "win",
		PayloadAnalysis: true,
		Window:          time.Minute,
		OnWindow:        func(wr *WindowReport) { emitted = append(emitted, wr.Index) },
	})
	em := gen.NewEmitter(3)
	emitConn(em, 0, windowTestBase, 0)
	if err := a.AddTrace(TraceInput{Name: "t0", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
		t.Fatal(err)
	}
	// Trace 0 sits inside window 0: nothing completed yet.
	if got := a.LatestWindowIndex(); got != -1 {
		t.Errorf("after trace 0: latest completed window = %d, want -1", got)
	}
	em = gen.NewEmitter(4)
	emitConn(em, 1, windowTestBase.Add(90*time.Second), 0)
	if err := a.AddTrace(TraceInput{Name: "t1", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
		t.Fatal(err)
	}
	if got := a.LatestWindowIndex(); got != 0 {
		t.Errorf("after trace 1: latest completed window = %d, want 0", got)
	}
	if len(emitted) != 1 || emitted[0] != 0 {
		t.Errorf("OnWindow emissions = %v, want [0]", emitted)
	}
	wins := a.WindowReports()
	if len(wins) != 2 {
		t.Fatalf("want 2 windows, got %d", len(wins))
	}
	if wins[0].Report.Table3.TotalConns != 1 || wins[1].Report.Table3.TotalConns != 1 {
		t.Errorf("conn attribution across traces: got %d/%d, want 1/1",
			wins[0].Report.Table3.TotalConns, wins[1].Report.Table3.TotalConns)
	}
	// Trace-granular stats (Table 1) bank at each trace's completion.
	if wins[0].Report.Table1.Traces != 1 || wins[1].Report.Table1.Traces != 1 {
		t.Errorf("trace banking: got %d/%d traces, want 1/1",
			wins[0].Report.Table1.Traces, wins[1].Report.Table1.Traces)
	}
}

// TestWindowsLeaveBehindReplayFrontier pins where windows are emitted,
// not only their bytes: by the replay workers, as the last of them
// passes each window, before the trace's join. In a single-trace run
// every emitted window precedes the trace's last, so every OnWindow call
// must find the trace-end delta not yet banked into any window, and the
// watermark and latest completed window already covering the window it
// hands over; what it hands over must be exactly what WindowReports()
// reads at the end (one trace, no late data), and the same bytes at
// every replay worker count. A change that slides emission back behind
// the join fails the first check at every count.
func TestWindowsLeaveBehindReplayFrontier(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 1
	pkts := gen.GenerateScheduledTrace(enterprise.NewNetwork(cfg), cfg.Monitored[0], 0, gen.DefaultSchedule())
	var want []byte
	for _, workers := range []int{1, 2, 4, 8} {
		var a *Analyzer
		var emitted [][]byte
		a = NewAnalyzer(Options{
			Dataset:         "frontier",
			PayloadAnalysis: true,
			Workers:         2,
			ReplayWorkers:   workers,
			Window:          time.Minute,
			OnWindow: func(wr *WindowReport) {
				a.mu.Lock()
				n := 0
				for _, sl := range a.local.slots {
					n += sl.agg.traceCount
				}
				a.mu.Unlock()
				if n != 0 {
					t.Errorf("%d workers, window %d: emitted after the trace-end banking (%d traces in the windows)", workers, wr.Index, n)
				}
				if got := a.LatestWindowIndex(); got < wr.Index {
					t.Errorf("%d workers, window %d: latest completed window %d", workers, wr.Index, got)
				}
				if wm := a.Watermark(); wm.Before(wr.End) {
					t.Errorf("%d workers, window %d: watermark %v before the window's end %v", workers, wr.Index, wm, wr.End)
				}
				if wr.Index != len(emitted) {
					t.Errorf("%d workers: window %d emitted as call %d", workers, wr.Index, len(emitted))
				}
				b, err := MarshalReport(wr.Report)
				if err != nil {
					t.Error(err)
				}
				emitted = append(emitted, b)
			},
		})
		if err := a.AddTrace(TraceInput{Name: "sched", Monitored: enterprise.SubnetPrefix(cfg.Monitored[0]), Packets: pkts}); err != nil {
			t.Fatal(err)
		}
		wins := a.WindowReports()
		if len(emitted) < 3 || len(emitted) != len(wins)-1 {
			t.Fatalf("%d workers: %d windows emitted of %d", workers, len(emitted), len(wins))
		}
		for n, b := range emitted {
			if !bytes.Equal(b, reportBytes(t, wins[n].Report)) {
				t.Errorf("%d workers: window %d as emitted differs from WindowReports()", workers, n)
			}
		}
		if got := bytes.Join(emitted, nil); want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%d workers: emitted windows differ from one worker's", workers)
		}
	}
}

// TestWindowReadsInPlace holds the readers of a window to what reading in
// place newly risks. A window's report and its export are built from the
// aggregate banking writes, under the same lock: a read compacts the
// distributions it touches and sorts the session list where they lie,
// and the next trace banks late data into the very aggregate that was
// read (the dataset's traces cover the same hour, so every trace after
// the first lands in windows already read). So, after every trace, every
// way of reading — all windows twice, all exports twice, single windows
// in between — must equal a fresh analyzer fed the same traces and read
// once, and every export must decode to the report of its window. The
// run's final Report() folds those windows and must equal a run that
// never cut, whatever was read and merged into on the way — a window
// that still shared anything with a worker or a fold would show there.
func TestWindowReadsInPlace(t *testing.T) {
	ds := fleetTestDataset(t)
	analyzer := func(window time.Duration) *Analyzer {
		return NewAnalyzer(Options{Dataset: "reads", PayloadAnalysis: true, Workers: 2, ReplayWorkers: 2, Window: window})
	}
	add := func(a *Analyzer, i int) {
		t.Helper()
		tr := ds.Traces[i]
		if err := a.AddTrace(TraceInput{Name: traceName(i), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			t.Fatal(err)
		}
	}
	windows := func(a *Analyzer) []byte {
		var buf bytes.Buffer
		for _, wr := range a.WindowReports() {
			buf.Write(reportBytes(t, wr.Report))
		}
		return buf.Bytes()
	}
	exports := func(a *Analyzer) []byte {
		t.Helper()
		all, err := a.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, we := range all {
			e, err := decodeEpoch(we.Payload)
			if err != nil {
				t.Fatalf("window %d: %v", we.Window, err)
			}
			wr, _ := a.WindowReport(we.Window)
			if !bytes.Equal(reportBytes(t, buildReport("reads", e, wr.Report.Window)), reportBytes(t, wr.Report)) {
				t.Errorf("window %d: the export decodes to a different report than the window's", we.Window)
			}
			buf.Write(we.Payload)
		}
		return buf.Bytes()
	}

	const window = 5 * time.Minute
	live, batch := analyzer(window), analyzer(0)
	for i := range ds.Traces {
		add(live, i)
		add(batch, i)
		fresh := analyzer(window)
		for j := 0; j <= i; j++ {
			add(fresh, j)
		}
		wantWindows, wantExports := windows(fresh), exports(fresh)
		for pass := 0; pass < 2; pass++ {
			if !bytes.Equal(windows(live), wantWindows) {
				t.Fatalf("after trace %d, pass %d: WindowReports differs from a fresh analyzer's", i, pass)
			}
			if !bytes.Equal(exports(live), wantExports) {
				t.Fatalf("after trace %d, pass %d: ExportAll differs from a fresh analyzer's", i, pass)
			}
		}
	}
	if live.WindowCount() < 10 {
		t.Fatalf("%d windows: the traces were meant to overlap over an hour", live.WindowCount())
	}
	if !bytes.Equal(reportBytes(t, live.Report()), reportBytes(t, batch.Report())) {
		t.Error("the cumulative report of the run whose windows were read differs from a run that never cut")
	}
	if !reflect.DeepEqual(emptyWindow, newWindowAgg()) || !reflect.DeepEqual(emptyApps, newAppAggregates()) {
		t.Error("something was written to the empties every quiet window and every sparse aggregate read through")
	}
}

// TestSparseWindowExports pins what a window that holds little exports:
// a window nothing was banked into has no aggregate at all and one that
// saw a single protocol holds that component alone, and both — like
// every window — export a snapshot the aggregator's decoder accepts and
// that decodes to the window's own report.
func TestSparseWindowExports(t *testing.T) {
	client, server := enterprise.InternalHost(5, 10), enterprise.InternalHost(5, 200)
	em := gen.NewEmitter(11)
	emitConn(em, 0, windowTestBase, 0) // window 0: connection sums only
	// Window 1: nothing. Window 2: one internal DNS lookup.
	query := &dns.Message{ID: 7, QName: "a.lbl.gov", QType: dns.TypeA}
	reply := &dns.Message{ID: 7, Response: true, QName: "a.lbl.gov", QType: dns.TypeA, AnswerCount: 1}
	em.UDPExchange(client, server, 40000, 53, windowTestBase.Add(130*time.Second), time.Millisecond, dns.Encode(query), dns.Encode(reply))
	emitConn(em, 1, windowTestBase.Add(190*time.Second), 0) // window 3, left open
	a := windowedAnalyzer(time.Minute)
	if err := a.AddTrace(TraceInput{Name: "t0", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
		t.Fatal(err)
	}
	if a.WindowCount() != 4 {
		t.Fatalf("want 4 windows, got %d", a.WindowCount())
	}
	if w := a.local.slots[1].agg; w != nil {
		t.Errorf("the empty window holds an aggregate: %+v", w)
	}
	if ap := a.local.slots[2].agg.apps; ap.dnsInt == nil || ap.dnsWan != nil || ap.http != nil || ap.email != nil || ap.cifs != nil {
		t.Errorf("the DNS-only window holds %+v, want the internal DNS component alone", ap)
	}
	for n := 0; n < a.WindowCount(); n++ {
		we, err := a.ExportWindow(n)
		if err != nil {
			t.Fatal(err)
		}
		e, err := decodeEpoch(we.Payload)
		if err != nil {
			t.Fatalf("window %d: %v", n, err)
		}
		wr, _ := a.WindowReport(n)
		if !bytes.Equal(reportBytes(t, buildReport("win", e, wr.Report.Window)), reportBytes(t, wr.Report)) {
			t.Errorf("window %d: the export decodes to a different report than the window's", n)
		}
	}
	if r, _ := a.WindowReport(2); r.Report.Names.DNSTypes["A"] != 1 {
		t.Errorf("window 2 DNS types: %v", r.Report.Names.DNSTypes)
	}
}
