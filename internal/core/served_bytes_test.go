package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

// connTrace is a hand-built trace of one short conversation per offset
// from windowTestBase; seed keeps clients apart across traces.
func connTrace(seed int64, offsets ...time.Duration) TraceInput {
	em := gen.NewEmitter(seed)
	for i, off := range offsets {
		emitConn(em, int(seed)*10+i, windowTestBase.Add(off), 0)
	}
	return TraceInput{Name: fmt.Sprintf("t%d", seed), Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}
}

// TestReportEndpointsFraming pins what a client sees of every endpoint of
// both servers besides the report itself: the status, a JSON content
// type, a Content-Length that is the body's, a body that ends in a
// newline; HEAD answers like GET without the body, and any other method
// is refused rather than answered with the report.
func TestReportEndpointsFraming(t *testing.T) {
	a := windowedAnalyzer(time.Minute)
	if err := a.AddTrace(connTrace(1, 0, 70*time.Second, 130*time.Second)); err != nil {
		t.Fatal(err)
	}
	rs := NewReportServer(a)
	if err := rs.SetFinal(a.Report()); err != nil {
		t.Fatal(err)
	}
	f := NewFleet(FleetConfig{Dataset: "win"})
	deliverAll(t, f, "east", a)
	fs := NewFleetServer(f)

	// Both views hold windows 0..2.
	const max = 2
	type row struct {
		path string
		code int
	}
	rows := []row{
		{"/healthz", 200},
		{"/report/latest", 200},
		{"/report/window/0", 200},
		{fmt.Sprintf("/report/window/%d", max), 200},
		{fmt.Sprintf("/report/window/%d", max+1), 404},
		{"/report/window/-1", 404},
		{"/report/window/x", 400},
		{"/report/final", 200},
	}
	servers := []struct {
		name string
		h    http.Handler
		rows []row
	}{{"analyzer", rs, rows}, {"fleet", fs, append(rows, row{"/report/fleet", 200})}}
	for _, srv := range servers {
		for _, row := range srv.rows {
			want := row.code
			t.Run(srv.name+row.path, func(t *testing.T) {
				do := func(method string) *httptest.ResponseRecorder {
					rec := httptest.NewRecorder()
					srv.h.ServeHTTP(rec, httptest.NewRequest(method, row.path, nil))
					return rec
				}
				get := do("GET")
				if get.Code != want {
					t.Fatalf("GET: %d, want %d (%s)", get.Code, want, get.Body)
				}
				for _, method := range []string{"POST", "DELETE"} {
					if rec := do(method); rec.Code != http.StatusMethodNotAllowed {
						t.Errorf("%s: %d, want 405", method, rec.Code)
					}
				}
				body := get.Body.Bytes()
				if ct := get.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type = %q", ct)
				}
				if cl := get.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
					t.Errorf("Content-Length = %q, body is %d bytes", cl, len(body))
				}
				if !bytes.HasSuffix(body, []byte("}\n")) || !json.Valid(body) {
					t.Errorf("body is not one JSON document ending in a newline: %q", body)
				}
				head := do("HEAD")
				if head.Code != want || head.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
					t.Errorf("HEAD: %d, Content-Length %q; GET: %d, %d bytes",
						head.Code, head.Header().Get("Content-Length"), want, len(body))
				}
			})
		}
	}
}

// servedPaths GETs every report path a view with windows 0..max could
// answer — each window, one past the last, latest, and the cumulative
// ones in extra — and checks each against want, the view's un-memoised
// render of the same path (nil = 404). It returns what was served, so a
// step that is supposed to change the reports can be shown to have.
func servedPaths(t *testing.T, step string, h http.Handler, max int, extra []string, want func(path string) []byte) map[string][]byte {
	t.Helper()
	paths := append([]string{"/report/latest"}, extra...)
	for n := 0; n <= max+1; n++ {
		paths = append(paths, fmt.Sprintf("/report/window/%d", n))
	}
	served := make(map[string][]byte)
	for _, p := range paths {
		// Twice: the second GET of an unwritten view is the memo's hit.
		for pass := 0; pass < 2; pass++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
			fresh := want(p)
			switch {
			case fresh == nil && rec.Code != 404:
				t.Fatalf("%s: %s answered %d, the view has no such report", step, p, rec.Code)
			case fresh != nil && rec.Code != 200:
				t.Fatalf("%s: %s answered %d (%s), the view renders it", step, p, rec.Code, rec.Body)
			case fresh != nil && !bytes.Equal(rec.Body.Bytes(), fresh):
				t.Fatalf("%s: %s (pass %d) serves bytes that differ from a fresh render of the view", step, p, pass)
			}
			if fresh != nil {
				served[p] = fresh
			}
		}
	}
	return served
}

// freshAnalyzer and freshFleet are servedPaths' references: each path
// rendered through the view's un-memoised accessors.
func freshAnalyzer(t *testing.T, a *Analyzer) func(path string) []byte {
	return func(path string) []byte {
		n := a.LatestWindowIndex()
		if path != "/report/latest" {
			fmt.Sscanf(path, "/report/window/%d", &n)
		}
		wr, ok := a.WindowReport(n)
		if !ok {
			return nil
		}
		return append(reportBytes(t, wr.Report), '\n')
	}
}

func freshFleet(t *testing.T, f *Fleet) func(path string) []byte {
	return func(path string) []byte {
		switch path {
		case "/report/final":
			if !f.Status().FinalReady {
				return nil
			}
			fallthrough
		case "/report/fleet":
			return append(reportBytes(t, f.Report()), '\n')
		}
		n := f.LatestWindowIndex()
		if path != "/report/latest" {
			fmt.Sscanf(path, "/report/window/%d", &n)
		}
		wr, ok := f.WindowReport(n)
		if !ok {
			return nil
		}
		return append(reportBytes(t, wr.Report), '\n')
	}
}

func sameServed(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for p, x := range a {
		if y, ok := b[p]; !ok || !bytes.Equal(x, y) {
			return false
		}
	}
	return true
}

// TestServedBytesMatchFreshRender is the memo's oracle: whatever has been
// written to a view, and whatever was served from it before, every report
// path serves exactly MarshalReport of the un-memoised WindowReport /
// Report plus a newline. Through AddTrace the analyzer's three writers
// always run together, and one's reset would cover for another's, so each
// is also called on its own between polls; every step that writes must
// visibly change some served body, or the test could not tell a reset
// from its absence.
func TestServedBytesMatchFreshRender(t *testing.T) {
	t.Run("analyzer", func(t *testing.T) {
		a := windowedAnalyzer(time.Minute)
		srv := NewReportServer(a)
		fresh := freshAnalyzer(t, a)
		var prev map[string][]byte
		step := func(name string, changes bool, write func()) {
			t.Helper()
			write()
			cur := servedPaths(t, name, srv, a.WindowCount()-1, nil, fresh)
			if changes && sameServed(prev, cur) {
				t.Fatalf("%s changed no served body: the step cannot tell a reset from none", name)
			}
			prev = cur
		}
		oneConn := func(window int) []windowDelta {
			ca := newConnAggregates()
			ca.transConns.Add("tcp", 1)
			ca.transBytes.Add("tcp", 100)
			return []windowDelta{{window: window, delta: &epochAgg{connAggregates: *ca}}}
		}
		mustAdd := func(tr TraceInput) func() {
			return func() {
				if err := a.AddTrace(tr); err != nil {
					t.Fatal(err)
				}
			}
		}

		step("empty", false, func() {})
		// Window 0 exists, labelled from the zero origin, before the clock
		// is pinned; pinning it relabels the window — setOrigin's reset.
		step("bank before the origin", true, func() { a.bankDeltas(oneConn(0)) })
		step("setOrigin", true, func() { a.setOrigin(windowTestBase) })
		step("trace 1, windows 0-2", true, mustAdd(connTrace(1, 0, 70*time.Second, 130*time.Second)))
		// Later traces overlap it in event time: they bank into windows
		// that have been served.
		step("trace 2, windows 0-1", true, mustAdd(connTrace(2, 30*time.Second, 100*time.Second)))
		step("trace 3, windows 1-4", true, mustAdd(connTrace(3, 90*time.Second, 250*time.Second)))
		// A worker's deltas landing in a served window — bankDeltas' reset.
		step("bankDeltas alone", true, func() { a.bankDeltas(oneConn(1)) })
		// A trace-granular delta landing at the watermark's window —
		// finishTrace's reset.
		step("finishTrace alone", true, func() {
			td := newTraceDelta()
			td.totalPackets, td.traceCount = 7, 1
			a.finishTrace(td, time.Time{})
		})
		step("trace 4, window 0", true, mustAdd(connTrace(4, 10*time.Second)))
	})

	t.Run("fleet", func(t *testing.T) {
		f := NewFleet(FleetConfig{Dataset: "win", ExpectSites: []string{"east", "west"}})
		srv := NewFleetServer(f)
		fresh := freshFleet(t, f)
		var prev map[string][]byte
		step := func(name string, changes bool, write func() error) {
			t.Helper()
			if err := write(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cur := servedPaths(t, name, srv, f.WindowCount()-1, []string{"/report/fleet", "/report/final"}, fresh)
			if changes && sameServed(prev, cur) {
				t.Fatalf("%s changed no served body: the step cannot tell a reset from none", name)
			}
			prev = cur
		}
		exports := func(a *Analyzer) []WindowExport {
			t.Helper()
			out, err := a.ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		east := fleetSiteAnalyzer(t, 1, 0, 70*time.Second)
		eastX := exports(east)
		// The same site after more traffic: its re-export of window 0
		// supersedes the first.
		eastLater := fleetSiteAnalyzer(t, 1, 0, 20*time.Second, 70*time.Second)
		westX := exports(fleetSiteAnalyzer(t, 2, 30*time.Second, 100*time.Second))
		delta := func(site string, we WindowExport, seq uint64) func() error {
			return func() error { return f.Delta(site, we.Window, seq, we.Watermark, we.Payload) }
		}

		step("empty", false, func() error { return nil })
		step("hello east", true, func() error { return f.Hello("east", east.FleetHello()) })
		step("delta east 0", true, delta("east", eastX[0], 1))
		step("delta east 1", true, delta("east", eastX[1], 2))
		step("duplicate delta east 0", false, delta("east", eastX[0], 1))
		step("superseding delta east 0", true, delta("east", exports(eastLater)[0], 3))
		step("stale delta east 0", false, delta("east", eastX[0], 2))
		// First contact by heartbeat: the census gains a site owing every
		// window. A known site's heartbeat changes no report.
		step("heartbeat north", true, func() error { f.Heartbeat("north", 0); return nil })
		step("heartbeat east", false, func() error { f.Heartbeat("east", eastX[1].Watermark); return nil })
		// West is expected: it owed every window before it said hello, and
		// still does.
		step("hello west", false, func() error { return f.Hello("west", east.FleetHello()) })
		step("lost west 1", true, func() error { return f.Lost("west", 1, 1) })
		step("delta west 0", true, delta("west", westX[0], 2))
		step("disconnect east", false, func() error { f.Disconnect("east"); return nil })
		// East delivered all it owes, so its fin shows in no report; west's
		// shows in its census row.
		step("fin east", false, func() error { return f.Fin("east", 1, 4, 0) })
		step("fin west", true, func() error { return f.Fin("west", 1, 3, 0) })
		if prev["/report/final"] != nil {
			t.Fatal("/report/final served before north finned")
		}
		// The last fin flips /report/final from 404 to 200 — and north,
		// finned through -1, stops owing windows, so the cumulative
		// /report/fleet has been serving changes with it.
		step("fin north", true, func() error { return f.Fin("north", -1, 1, 0) })
		if prev["/report/final"] == nil {
			t.Fatal("/report/final still 404 with every site finned")
		}
		// A re-export after the fins: what was served as final moves.
		step("delta west 1 after fin", true, delta("west", westX[1], 4))
	})
}

// pollWhile polls paths on h from pollers goroutines until work returns,
// handing every response to check (which must only t.Error).
func pollWhile(h http.Handler, pollers int, paths []string, check func(path string, rec *httptest.ResponseRecorder), work func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < pollers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := paths[i%len(paths)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
				check(p, rec)
			}
		}()
	}
	work()
	close(done)
	wg.Wait()
}

// bankingTraces is a run of small traces that overlap in event time and
// each push the watermark several windows on, so a poll that lands
// mid-run sees windows appear, fill and complete.
func bankingTraces(n int) []TraceInput {
	var out []TraceInput
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 3 * time.Minute
		out = append(out, connTrace(int64(i+1), at/2, at, at+time.Minute, at+170*time.Second))
	}
	return out
}

// TestPollsWhileTracesBank polls both servers from four goroutines while
// their views are written — the memo's fills racing its resets — and,
// once the writers are done, holds every path to the oracle again. Run
// under -race.
func TestPollsWhileTracesBank(t *testing.T) {
	framed := func(p string, rec *httptest.ResponseRecorder) {
		body := rec.Body.Bytes()
		if rec.Code != 200 && rec.Code != 404 {
			t.Errorf("%s: %d (%s)", p, rec.Code, body)
		}
		if rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) || !json.Valid(body) {
			t.Errorf("%s: %d bytes declared %q, valid JSON %v", p, len(body), rec.Header().Get("Content-Length"), json.Valid(body))
		}
	}
	paths := []string{"/report/latest", "/report/window/0", "/report/window/3", "/healthz", "/report/window/9", "/report/final", "/report/fleet"}

	a := NewAnalyzer(Options{Dataset: "win", PayloadAnalysis: true, Workers: 2, ReplayWorkers: 2,
		Window: time.Minute, WindowOrigin: windowTestBase})
	srv := NewReportServer(a)
	pollWhile(srv, 4, paths[:5], framed, func() {
		for _, tr := range bankingTraces(12) {
			if err := a.AddTrace(tr); err != nil {
				t.Error(err)
			}
		}
	})
	servedPaths(t, "analyzer, after the run", srv, a.WindowCount()-1, nil, freshAnalyzer(t, a))

	f := NewFleet(FleetConfig{Dataset: "win"})
	fsrv := NewFleetServer(f)
	exports, err := a.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	pollWhile(fsrv, 4, paths, framed, func() {
		for _, site := range []string{"east", "west"} {
			if err := f.Hello(site, a.FleetHello()); err != nil {
				t.Error(err)
			}
			for i, we := range exports {
				if err := f.Delta(site, we.Window, uint64(i+1), we.Watermark, we.Payload); err != nil {
					t.Error(err)
				}
			}
			if err := f.Fin(site, len(exports)-1, uint64(len(exports)+1), 0); err != nil {
				t.Error(err)
			}
		}
	})
	servedPaths(t, "fleet, after the run", fsrv, f.WindowCount()-1, []string{"/report/fleet", "/report/final"}, freshFleet(t, f))
}

// TestHealthzIsOneSnapshot polls /healthz while traces bank: every
// response must describe one state of the window clock — no more windows
// completed than known, and exactly as many completed as its own
// watermark has passed — and, on the aggregator, no window configuration
// without the site whose Hello brought it. Read one accessor at a time, a
// trace ending (or a Hello landing) between two of them broke both.
func TestHealthzIsOneSnapshot(t *testing.T) {
	a := NewAnalyzer(Options{Dataset: "win", PayloadAnalysis: true, Workers: 2, ReplayWorkers: 2,
		Window: time.Minute, WindowOrigin: windowTestBase})
	pollWhile(NewReportServer(a), 4, []string{"/healthz"}, func(_ string, rec *httptest.ResponseRecorder) {
		var h healthStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Error(err)
			return
		}
		if h.CompletedWindows > h.Windows {
			t.Errorf("%d windows completed of %d known", h.CompletedWindows, h.Windows)
		}
		passed := 0
		if h.Watermark != "" {
			wm, err := time.Parse(time.RFC3339Nano, h.Watermark)
			if err != nil {
				t.Error(err)
				return
			}
			passed = int(wm.Sub(windowTestBase) / time.Minute)
		}
		if h.CompletedWindows != passed {
			t.Errorf("%d windows completed, watermark %q has passed %d", h.CompletedWindows, h.Watermark, passed)
		}
	}, func() {
		for _, tr := range bankingTraces(40) {
			if err := a.AddTrace(tr); err != nil {
				t.Error(err)
			}
		}
	})

	// One Hello per fleet is the whole write, so each round waits for the
	// pollers to be polling before it lands and after.
	hello := a.FleetHello()
	for round := 0; round < 50; round++ {
		f := NewFleet(FleetConfig{Dataset: "win"})
		var polls atomic.Int64
		await := func(n int64) {
			for polls.Load() < n {
				runtime.Gosched()
			}
		}
		pollWhile(NewFleetServer(f), 2, []string{"/healthz"}, func(_ string, rec *httptest.ResponseRecorder) {
			polls.Add(1)
			var h fleetHealth
			if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
				t.Error(err)
				return
			}
			if h.Windowing != (h.Sites > 0) || h.Windowing != (h.WindowDur != "") {
				t.Errorf("windowing %v (%q) with %d sites known", h.Windowing, h.WindowDur, h.Sites)
			}
		}, func() {
			await(4)
			if err := f.Hello("east", hello); err != nil {
				t.Error(err)
			}
			await(polls.Load() + 4)
		})
	}
}
