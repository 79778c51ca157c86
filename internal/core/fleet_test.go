package core

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/fleet"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
)

// fleetTestDataset generates a small but application-rich dataset:
// four monitored subnets' worth of traces, exercising every payload
// analyzer the snapshot codec has to round-trip. Each subnet's trace is
// generated with its own network instance so it carries its own
// endpoint-mapper exchanges: fleet sites own classification-
// self-contained trace blocks (dynamic port registrations do not cross
// sites — see DESIGN.md "Fleet aggregation"), exactly as a real
// per-tap capture is self-contained.
func fleetTestDataset(t *testing.T) *gen.Dataset {
	t.Helper()
	cfg := enterprise.D3()
	cfg.Scale = 0.2
	all := &gen.Dataset{Config: cfg}
	for _, subnet := range cfg.Monitored[:4] {
		c := cfg
		c.Monitored = []int{subnet}
		all.Traces = append(all.Traces, gen.GenerateDataset(c).Traces...)
	}
	return all
}

func datasetOrigin(ds *gen.Dataset) time.Time {
	var origin time.Time
	for _, tr := range ds.Traces {
		if len(tr.Packets) == 0 {
			continue
		}
		ts := tr.Packets[0].Timestamp
		if origin.IsZero() || ts.Before(origin) {
			origin = ts
		}
	}
	return origin
}

// deliverAll feeds every export into the fleet through the Sink
// interface, exactly as the transport would, and fins the site.
func deliverAll(t *testing.T, f *Fleet, site string, a *Analyzer) {
	t.Helper()
	exports, err := a.ExportAll()
	if err != nil {
		t.Fatalf("site %s export: %v", site, err)
	}
	if err := f.Hello(site, a.FleetHello()); err != nil {
		t.Fatalf("site %s hello: %v", site, err)
	}
	maxWindow := -1 // a site with no data fins through window -1: it owes nothing
	for i, we := range exports {
		if err := f.Delta(site, we.Window, uint64(i+1), we.Watermark, we.Payload); err != nil {
			t.Fatalf("site %s window %d: %v", site, we.Window, err)
		}
		if we.Window > maxWindow {
			maxWindow = we.Window
		}
	}
	if err := f.Fin(site, maxWindow, uint64(len(exports)+1), 0); err != nil {
		t.Fatalf("site %s fin: %v", site, err)
	}
	f.Disconnect(site)
}

func reportBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := MarshalReport(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetSingleSiteRoundTrip pins the snapshot codec against the
// analyzer itself: one windowed site's exported windows, decoded and
// folded by the fleet merger, must reproduce the site's own cumulative
// and per-window reports byte for byte. This is the error-free base
// case of the fleet differential — any codec field drift or fold-order
// divergence fails here first, without transport in the way. A single
// instance is a one-site fleet, so the two report servers must also
// serve the same bytes for every window and the final report, at every
// worker grid point; only /report/latest differs, by rule: the analyzer
// serves the last window its watermark has passed, the fleet the last
// window the site delivered.
func TestFleetSingleSiteRoundTrip(t *testing.T) {
	ds := fleetTestDataset(t)
	origin := datasetOrigin(ds)
	for _, g := range []struct{ workers, replay int }{{1, 1}, {4, 3}} {
		a := NewAnalyzer(Options{
			Dataset:         "fleet",
			PayloadAnalysis: true,
			Workers:         g.workers,
			ReplayWorkers:   g.replay,
			Window:          time.Minute,
			WindowOrigin:    origin,
		})
		for i, tr := range ds.Traces {
			if err := a.AddTrace(TraceInput{Name: traceName(i), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
				t.Fatal(err)
			}
		}

		f := NewFleet(FleetConfig{Dataset: "fleet"})
		deliverAll(t, f, "site-a", a)

		fleetFinal := f.Report()
		if fleetFinal.Fleet != nil {
			t.Fatalf("%v: complete single-site fleet carries a degradation census: %+v", g, fleetFinal.Fleet)
		}
		localFinal := a.Report()
		if !bytes.Equal(reportBytes(t, fleetFinal), reportBytes(t, localFinal)) {
			t.Errorf("%v: fleet cumulative report differs from the site's own report", g)
		}
		if RenderText(fleetFinal) != RenderText(localFinal) {
			t.Errorf("%v: fleet cumulative text rendering differs from the site's own", g)
		}

		localWindows := a.WindowReports()
		fleetWindows := f.WindowReports()
		if len(fleetWindows) != len(localWindows) {
			t.Fatalf("%v: fleet has %d windows, site has %d", g, len(fleetWindows), len(localWindows))
		}
		for n := range localWindows {
			if !bytes.Equal(reportBytes(t, fleetWindows[n].Report), reportBytes(t, localWindows[n].Report)) {
				t.Errorf("%v: window %d: fleet report differs from the site's own", g, n)
			}
		}

		rs, fs := NewReportServer(a), NewFleetServer(f)
		if err := rs.SetFinal(localFinal); err != nil {
			t.Fatal(err)
		}
		get := func(h http.Handler, path string) []byte {
			t.Helper()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%v: %s answered %d (%s)", g, path, rec.Code, rec.Body)
			}
			return rec.Body.Bytes()
		}
		window := func(n int) string { return fmt.Sprintf("/report/window/%d", n) }
		for n := range localWindows {
			if !bytes.Equal(get(rs, window(n)), get(fs, window(n))) {
				t.Errorf("%v: the servers serve window %d differently", g, n)
			}
		}
		if !bytes.Equal(get(rs, "/report/final"), get(fs, "/report/final")) {
			t.Errorf("%v: the servers serve /report/final differently", g)
		}
		for _, c := range []struct {
			name string
			h    http.Handler
			got  int
			want int
		}{
			{"analyzer", rs, a.LatestWindowIndex(), int(a.Watermark().Sub(origin)/time.Minute) - 1},
			{"fleet", fs, f.LatestWindowIndex(), len(localWindows) - 1},
		} {
			if c.got != c.want {
				t.Errorf("%v: %s latest window %d, want %d", g, c.name, c.got, c.want)
			}
			if !bytes.Equal(get(c.h, "/report/latest"), get(c.h, window(c.want))) {
				t.Errorf("%v: %s /report/latest is not window %d", g, c.name, c.want)
			}
		}
	}
}

// TestFleetDifferential pins the tentpole invariant without transport:
// a fleet of sites analyzing disjoint blocks of the trace sequence —
// each with the shared window origin and its block's trace-ordinal base
// — merges to the byte-identical report of a single instance over the
// concatenated traces. Both windowed and batch fleets, several site
// counts and worker counts.
func TestFleetDifferential(t *testing.T) {
	ds := fleetTestDataset(t)
	origin := datasetOrigin(ds)
	grid := []struct {
		sites, workers int
		window         time.Duration
	}{
		{2, 1, time.Minute},
		{2, 4, time.Minute},
		{4, 4, time.Minute},
		{2, 4, 0}, // batch fleet: each site ships its whole run as window 0
	}
	for _, g := range grid {
		single := NewAnalyzer(Options{
			Dataset:         "fleet",
			PayloadAnalysis: true,
			Workers:         g.workers,
			ReplayWorkers:   g.workers,
			Window:          g.window,
			WindowOrigin:    origin,
		})
		for i, tr := range ds.Traces {
			if err := single.AddTrace(TraceInput{Name: traceName(i), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
				t.Fatal(err)
			}
		}
		singleFinal := reportBytes(t, single.Report())

		f := NewFleet(FleetConfig{Dataset: "fleet"})
		for s := 0; s < g.sites; s++ {
			lo := len(ds.Traces) * s / g.sites
			hi := len(ds.Traces) * (s + 1) / g.sites
			site := NewAnalyzer(Options{
				Dataset:         "fleet",
				PayloadAnalysis: true,
				Workers:         g.workers,
				ReplayWorkers:   g.workers,
				Window:          g.window,
				WindowOrigin:    origin,
				TraceBase:       lo,
			})
			for i := lo; i < hi; i++ {
				tr := ds.Traces[i]
				if err := site.AddTrace(TraceInput{Name: traceName(i), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
					t.Fatal(err)
				}
			}
			deliverAll(t, f, siteName(s), site)
		}

		fleetFinal := f.Report()
		if fleetFinal.Fleet != nil {
			t.Errorf("sites=%d workers=%d window=%v: complete fleet carries a census: %+v",
				g.sites, g.workers, g.window, fleetFinal.Fleet)
		}
		if !bytes.Equal(reportBytes(t, fleetFinal), singleFinal) {
			t.Errorf("sites=%d workers=%d window=%v: fleet report differs from single instance",
				g.sites, g.workers, g.window)
		}
		if g.window > 0 {
			singleWins := single.WindowReports()
			fleetWins := f.WindowReports()
			if len(fleetWins) != len(singleWins) {
				t.Fatalf("sites=%d workers=%d: fleet %d windows, single %d",
					g.sites, g.workers, len(fleetWins), len(singleWins))
			}
			for n := range singleWins {
				if !bytes.Equal(reportBytes(t, fleetWins[n].Report), reportBytes(t, singleWins[n].Report)) {
					t.Errorf("sites=%d workers=%d window %d: fleet report differs from single instance",
						g.sites, g.workers, n)
				}
			}
		}
	}
}

// TestFleetDegradationCensus pins the partial-fleet behavior: missing
// and lost windows surface in the census exactly once, idempotently
// under duplicate delivery, and a re-export supersedes a loss.
func TestFleetDegradationCensus(t *testing.T) {
	ds := fleetTestDataset(t)
	origin := datasetOrigin(ds)
	a := NewAnalyzer(Options{
		Dataset: "fleet", PayloadAnalysis: true, Workers: 1, ReplayWorkers: 1,
		Window: time.Minute, WindowOrigin: origin,
	})
	for i, tr := range ds.Traces {
		if err := a.AddTrace(TraceInput{Name: traceName(i), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			t.Fatal(err)
		}
	}
	exports, err := a.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) < 3 {
		t.Fatalf("dataset too small: %d windows", len(exports))
	}
	last := len(exports) - 1

	f := NewFleet(FleetConfig{Dataset: "fleet", ExpectSites: []string{"site-a", "site-ghost"}})
	if err := f.Hello("site-a", a.FleetHello()); err != nil {
		t.Fatal(err)
	}
	// Deliver all but windows 1 (declared lost) and 2 (silently missing);
	// duplicate every delivery to check idempotence.
	seq := uint64(0)
	for _, we := range exports {
		seq++
		if we.Window == 1 || we.Window == 2 {
			continue
		}
		for range 2 {
			if err := f.Delta("site-a", we.Window, seq, we.Watermark, we.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	seq++
	if err := f.Lost("site-a", 1, seq); err != nil {
		t.Fatal(err)
	}
	if err := f.Fin("site-a", last, seq+1, 0); err != nil {
		t.Fatal(err)
	}

	r := f.Report()
	if r.Fleet == nil {
		t.Fatal("degraded fleet report has no census")
	}
	if len(r.Fleet.Sites) != 2 {
		t.Fatalf("census sites: %+v", r.Fleet.Sites)
	}
	sa := r.Fleet.Sites[0]
	if sa.Site != "site-a" || !sa.Fin {
		t.Fatalf("census[0] = %+v, want degraded fin site-a", sa)
	}
	if len(sa.LostWindows) != 1 || sa.LostWindows[0] != 1 {
		t.Errorf("LostWindows = %v, want [1] exactly once", sa.LostWindows)
	}
	if len(sa.MissingWindows) != 1 || sa.MissingWindows[0] != 2 {
		t.Errorf("MissingWindows = %v, want [2] exactly once", sa.MissingWindows)
	}
	ghost := r.Fleet.Sites[1]
	if ghost.Site != "site-ghost" || ghost.Fin || len(ghost.MissingWindows) != len(exports) {
		t.Errorf("expected-but-absent site census = %+v", ghost)
	}

	st := f.Status()
	if st.FinalReady {
		t.Error("fleet with an absent expected site reports FinalReady")
	}
	if len(st.MissingSites) != 1 || st.MissingSites[0] != "site-ghost" {
		t.Errorf("MissingSites = %v", st.MissingSites)
	}
	if st.LostWindows != 1 {
		t.Errorf("status LostWindows = %d, want 1", st.LostWindows)
	}

	// A canonical re-export with a higher sequence supersedes the loss:
	// window 1 leaves the census.
	for _, we := range exports {
		if we.Window != 1 {
			continue
		}
		if err := f.Delta("site-a", 1, seq+2, we.Watermark, we.Payload); err != nil {
			t.Fatal(err)
		}
	}
	r = f.Report()
	if r.Fleet == nil {
		t.Fatal("census vanished while window 2 is still missing")
	}
	if got := r.Fleet.Sites[0]; len(got.LostWindows) != 0 {
		t.Errorf("re-exported window still census-lost: %+v", got)
	}
}

func traceName(i int) string { return "trace-" + string(rune('a'+i)) }

func siteName(s int) string { return "site-" + string(rune('a'+s)) }

// syntheticSnapshot encodes a snapshot whose only content is one fan
// host named after (site, window): cheap to build, and folding it
// allocates (every distinct fan host gets its own entry in the merge).
func syntheticSnapshot(t *testing.T, site, window int) []byte {
	t.Helper()
	e := newEpochAgg()
	e.fanAgg[netip.AddrFrom4([4]byte{10, byte(site), byte(window >> 8), byte(window)})] = &flows.FanStats{FanInLocal: 1}
	b, err := fleet.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func syntheticHello() fleet.Hello {
	return fleet.Hello{Schema: SnapshotSchema(), WindowNanos: int64(time.Minute)}
}

// syntheticFleet is a complete fleet of sites × windows synthetic
// snapshots, every site finned.
func syntheticFleet(t *testing.T, sites, windows int) *Fleet {
	t.Helper()
	f := NewFleet(FleetConfig{Dataset: "fleet"})
	for s := 0; s < sites; s++ {
		name := siteName(s)
		if err := f.Hello(name, syntheticHello()); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < windows; w++ {
			if err := f.Delta(name, w, uint64(w+1), int64(w+1), syntheticSnapshot(t, s, w)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Fin(name, windows-1, uint64(windows+1), int64(windows)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestFleetStatusDoesNotFold pins Status as fold-free. It answers
// every /healthz poll and finalJSON's FinalReady gate under the mutex
// Delta needs; when it folded every delivered snapshot to count lost
// windows, its allocations followed sites × windows (here one merged
// fan entry per snapshot, 960 of them, on top of the merged aggregate
// and every map under it). Without the fold they follow the sites alone.
func TestFleetStatusDoesNotFold(t *testing.T) {
	const sites = 16
	allocs := func(windows int) float64 {
		f := syntheticFleet(t, sites, windows)
		if st := f.Status(); !st.FinalReady || st.Windows != windows || len(st.Sites) != sites || st.LostWindows != 0 {
			t.Fatalf("%d windows: status %+v", windows, st)
		}
		if got := f.Report().Figure2.Hosts; got != sites*windows {
			t.Fatalf("%d windows: the fold Status skips would merge %d fan hosts, want %d", windows, got, sites*windows)
		}
		return testing.AllocsPerRun(10, func() { f.Status() })
	}
	few, many := allocs(6), allocs(60)
	if many != few {
		t.Errorf("Status allocates %.0f times over 6 windows a site and %.0f over 60: it should not depend on the window count", few, many)
	}
	if many > 2*sites {
		t.Errorf("Status allocates %.0f times for %d sites; the census of a complete fleet needs a handful plus the rows", many, sites)
	}
}

// TestFleetStatusCostIgnoresTheHorizon pins /healthz's cost to the sites
// and their LOST declarations. When Status took the census it listed
// every window a site owed, under the mutex every Delta needs: one DELTA
// for window 10⁷ made each poll list ten million missing windows for
// the site still running.
func TestFleetStatusCostIgnoresTheHorizon(t *testing.T) {
	const far = 10_000_000
	f := NewFleet(FleetConfig{Dataset: "fleet", ExpectSites: []string{"site-a", "site-b"}})
	for _, site := range []string{"site-a", "site-b"} {
		if err := f.Hello(site, syntheticHello()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Delta("site-a", far, 1, 0, syntheticSnapshot(t, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.Lost("site-b", 3, 1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := f.Status()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("one Status allocated %d bytes after a DELTA for window %d; it should not depend on the window index", got, far)
	}
	if st.Windows != far+1 || st.LostWindows != 1 || st.FinalReady {
		t.Errorf("status %+v, want %d windows, 1 lost, not final", st, far+1)
	}
}

// TestFleetStatusMatchesReportCensus pins that Status (lost windows
// counted from each site's LOST declarations) and Report (the census
// walked over every window a site owes) name the same degradation, case
// by case. Both count by one rule (siteState.lostAt, up to
// siteState.owes); the table keeps them agreeing.
func TestFleetStatusMatchesReportCensus(t *testing.T) {
	type want struct {
		lost, missing map[string][]int // per census site
		missingSites  []string
		finalReady    bool
	}
	cases := []struct {
		name   string
		expect []string
		feed   func(t *testing.T, f *Fleet)
		want   want
	}{
		{
			name: "lost window",
			feed: func(t *testing.T, f *Fleet) {
				deliver(t, f, "site-a", map[int]uint64{0: 1, 2: 3})
				if err := f.Lost("site-a", 1, 2); err != nil {
					t.Fatal(err)
				}
				fin(t, f, "site-a", 2, 4)
			},
			want: want{lost: map[string][]int{"site-a": {1}}, finalReady: true},
		},
		{
			name: "stale provisional under a newer LOST",
			feed: func(t *testing.T, f *Fleet) {
				deliver(t, f, "site-a", map[int]uint64{0: 1, 1: 2})
				// Window 1's canonical re-export (seq 3) was evicted: the
				// provisional delivery still folds, the window is lost.
				if err := f.Lost("site-a", 1, 4); err != nil {
					t.Fatal(err)
				}
				fin(t, f, "site-a", 1, 5)
			},
			want: want{lost: map[string][]int{"site-a": {1}}, finalReady: true},
		},
		{
			name: "re-export newer than the LOST",
			feed: func(t *testing.T, f *Fleet) {
				if err := f.Hello("site-a", syntheticHello()); err != nil {
					t.Fatal(err)
				}
				if err := f.Lost("site-a", 0, 1); err != nil {
					t.Fatal(err)
				}
				deliver(t, f, "site-a", map[int]uint64{0: 2})
				fin(t, f, "site-a", 0, 3)
			},
			want: want{finalReady: true},
		},
		{
			name:   "missing expected site",
			expect: []string{"site-a", "site-ghost"},
			feed: func(t *testing.T, f *Fleet) {
				deliver(t, f, "site-a", map[int]uint64{0: 1, 1: 2})
				fin(t, f, "site-a", 1, 3)
			},
			want: want{missing: map[string][]int{"site-ghost": {0, 1}}, missingSites: []string{"site-ghost"}},
		},
		{
			name: "un-finned site",
			feed: func(t *testing.T, f *Fleet) {
				deliver(t, f, "site-a", map[int]uint64{0: 1, 1: 2, 2: 3})
				fin(t, f, "site-a", 2, 4)
				// site-b is still running: it owes the fleet's horizon.
				deliver(t, f, "site-b", map[int]uint64{0: 1})
				if err := f.Lost("site-b", 2, 2); err != nil {
					t.Fatal(err)
				}
			},
			want: want{lost: map[string][]int{"site-b": {2}}, missing: map[string][]int{"site-b": {1}}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := NewFleet(FleetConfig{Dataset: "fleet", ExpectSites: c.expect})
			c.feed(t, f)
			st, census := f.Status(), f.Report().Fleet
			if census == nil {
				census = &FleetReport{}
			}

			lost, missing := map[string][]int{}, map[string][]int{}
			total := 0
			for _, sr := range census.Sites {
				if len(sr.LostWindows) > 0 {
					lost[sr.Site] = sr.LostWindows
				}
				if len(sr.MissingWindows) > 0 {
					missing[sr.Site] = sr.MissingWindows
				}
				total += len(sr.LostWindows)
			}
			if c.want.lost == nil {
				c.want.lost = map[string][]int{}
			}
			if c.want.missing == nil {
				c.want.missing = map[string][]int{}
			}
			if !reflect.DeepEqual(lost, c.want.lost) || !reflect.DeepEqual(missing, c.want.missing) {
				t.Errorf("report census: lost %v missing %v, want lost %v missing %v", lost, missing, c.want.lost, c.want.missing)
			}
			if st.LostWindows != total {
				t.Errorf("status counts %d lost windows, the report's census names %d", st.LostWindows, total)
			}
			for _, row := range st.Sites {
				if row.LostWindows != len(lost[row.Site]) {
					t.Errorf("status row %s: %d lost windows, census names %v", row.Site, row.LostWindows, lost[row.Site])
				}
			}
			if !reflect.DeepEqual(st.MissingSites, c.want.missingSites) {
				t.Errorf("status MissingSites %v, want %v", st.MissingSites, c.want.missingSites)
			}
			if st.FinalReady != c.want.finalReady {
				t.Errorf("status FinalReady %v, want %v", st.FinalReady, c.want.finalReady)
			}
		})
	}
}

// deliver sends HELLO and the given window → seq snapshots for site.
func deliver(t *testing.T, f *Fleet, site string, windows map[int]uint64) {
	t.Helper()
	if err := f.Hello(site, syntheticHello()); err != nil {
		t.Fatal(err)
	}
	for w, seq := range windows {
		if err := f.Delta(site, w, seq, int64(w+1), syntheticSnapshot(t, 0, w)); err != nil {
			t.Fatal(err)
		}
	}
}

func fin(t *testing.T, f *Fleet, site string, maxWindow int, seq uint64) {
	t.Helper()
	if err := f.Fin(site, maxWindow, seq, 0); err != nil {
		t.Fatal(err)
	}
}

// TestFleetHoldsWireBytes pins what a fleet keeps of a remote window:
// the snapshot's bytes, checked on arrival and folded from the wire, not
// its decoded aggregate, which is about thirteen times larger. The
// heap a fleet holding every site's windows adds, read after two GCs,
// stays within twice the payload bytes it holds plus 1 MiB.
func TestFleetHoldsWireBytes(t *testing.T) {
	ds := fleetTestDataset(t)
	origin := datasetOrigin(ds)
	const sites = 4
	var exports [sites][]WindowExport
	held := 0
	for s := range sites {
		lo, hi := len(ds.Traces)*s/sites, len(ds.Traces)*(s+1)/sites
		a := NewAnalyzer(Options{Dataset: "fleet", PayloadAnalysis: true, Window: time.Minute, WindowOrigin: origin, TraceBase: lo})
		for i := lo; i < hi; i++ {
			tr := ds.Traces[i]
			if err := a.AddTrace(TraceInput{Name: traceName(i), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if exports[s], err = a.ExportAll(); err != nil {
			t.Fatal(err)
		}
		for _, we := range exports[s] {
			held += len(we.Payload)
		}
	}
	ds = nil
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	f := NewFleet(FleetConfig{Dataset: "fleet"})
	for s := range sites {
		if err := f.Hello(siteName(s), fleet.Hello{Schema: SnapshotSchema(), WindowNanos: int64(time.Minute), OriginNanos: origin.UnixNano()}); err != nil {
			t.Fatal(err)
		}
		for i, we := range exports[s] {
			if err := f.Delta(siteName(s), we.Window, uint64(i+1), we.Watermark, we.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown := int64(heap()) - int64(before)
	runtime.KeepAlive(f)
	runtime.KeepAlive(&exports)
	t.Logf("%d windows, %d payload bytes held, heap grew %d bytes", f.WindowCount(), held, grown)
	if limit := int64(2*held + 1<<20); grown > limit {
		t.Errorf("a fleet holding %d payload bytes grew the heap by %d bytes, over %d", held, grown, limit)
	}
}

// TestFleetRefusesNegativeWindows: a DELTA or LOST frame for a window
// below 0 gets an ERR frame from the aggregator, and nothing of it is
// stored — no site row counts it, the fleet has no window. FIN through
// window -1 is a site with no windows, and is acknowledged.
func TestFleetRefusesNegativeWindows(t *testing.T) {
	f := NewFleet(FleetConfig{Dataset: "fleet"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agg := fleet.NewAggregator(ln, f, t.Logf)
	served := make(chan struct{})
	go func() { agg.Serve(); close(served) }()
	defer func() { agg.Close(); <-served }()

	hello, err := fleet.Marshal(&fleet.Hello{Schema: SnapshotSchema(), WindowNanos: int64(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	// session sends HELLO then fr, and returns the answer to fr.
	session := func(fr *fleet.Frame) *fleet.Frame {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for i, out := range []*fleet.Frame{{Type: fleet.FrameHello, Site: "site-a", Payload: hello}, fr} {
			b, err := fleet.EncodeFrame(out)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(b); err != nil {
				t.Fatal(err)
			}
			in, err := fleet.ReadFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				return in
			}
			if in.Type != fleet.FrameAck {
				t.Fatalf("HELLO answered with %s %q", in.Type, in.Payload)
			}
		}
		return nil
	}
	for _, fr := range []*fleet.Frame{
		{Type: fleet.FrameDelta, Site: "site-a", Window: -1, Seq: 1, Payload: syntheticSnapshot(t, 0, 0)},
		{Type: fleet.FrameLost, Site: "site-a", Window: -1, Seq: 2},
	} {
		if got := session(fr); got.Type != fleet.FrameErr {
			t.Errorf("%s for window -1 answered with %s, want %s", fr.Type, got.Type, fleet.FrameErr)
		}
	}
	st := f.Status()
	if st.Windows != 0 || len(st.Sites) != 1 || st.Sites[0].Windows != 0 || st.LostWindows != 0 {
		t.Errorf("a refused frame left state behind: %+v", st)
	}
	if got := session(&fleet.Frame{Type: fleet.FrameFin, Site: "site-a", Window: -1, Seq: 3}); got.Type != fleet.FrameAck {
		t.Errorf("FIN through window -1 answered with %s %q", got.Type, got.Payload)
	}
	if st := f.Status(); !st.FinalReady || st.Windows != 0 {
		t.Errorf("a site finned through window -1: %+v", st)
	}
}

// TestFleetFoldsWhileDeltasLand runs the parallel fold under the fleet's
// mutex while frames keep landing: writers re-deliver every site's
// windows under rising sequence numbers as a reader builds the merged
// report, window reports and served bodies. Run with -race -cpu 1,2,4.
func TestFleetFoldsWhileDeltasLand(t *testing.T) {
	const sites, windows, rounds = 4, 12, 5
	f := syntheticFleet(t, sites, windows)
	var wg sync.WaitGroup
	for s := range sites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				for w := range windows {
					if err := f.Delta(siteName(s), w, uint64(r*windows+w+windows+1), int64(w+1), syntheticSnapshot(t, s, w)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	written, done := make(chan struct{}), make(chan struct{})
	go func() { wg.Wait(); close(written) }()
	go func() {
		defer close(done)
		for {
			if got := f.Report().Figure2.Hosts; got != sites*windows {
				t.Errorf("mid-delivery report folds %d fan hosts, want %d", got, sites*windows)
			}
			if _, ok := f.WindowReport(3); !ok {
				t.Error("window 3 is missing")
			}
			if _, err := f.cumulativeJSON(false); err != nil {
				t.Error(err)
			}
			select {
			case <-written:
				return
			default:
			}
		}
	}()
	<-done
	if got := f.Report().Figure2.Hosts; got != sites*windows {
		t.Errorf("report folds %d fan hosts, want %d", got, sites*windows)
	}
}
