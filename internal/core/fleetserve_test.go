package core

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

func fleetGet(t *testing.T, srv *FleetServer, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

func fleetHealthz(t *testing.T, srv *FleetServer) fleetHealth {
	t.Helper()
	code, body := fleetGet(t, srv, "/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d (%s)", code, body)
	}
	var h fleetHealth
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// fleetSiteAnalyzer builds a windowed analyzer sharing the fleet's
// window clock, with conns starting at the given offsets from the
// origin.
func fleetSiteAnalyzer(t *testing.T, seed int64, offsets ...time.Duration) *Analyzer {
	t.Helper()
	a := NewAnalyzer(Options{
		Dataset:         "win",
		PayloadAnalysis: true,
		Window:          time.Minute,
		WindowOrigin:    windowTestBase,
	})
	if err := a.AddTrace(connTrace(seed, offsets...)); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestFleetServeLifecycle walks the aggregator endpoints through a
// two-site run: degraded while an expected site is missing, window
// endpoints live as deltas land, /report/final gated on every site
// finning, and the final identical to the any-time /report/fleet view.
func TestFleetServeLifecycle(t *testing.T) {
	f := NewFleet(FleetConfig{Dataset: "win", ExpectSites: []string{"east", "west"}})
	srv := NewFleetServer(f)
	srv.SetStaleThreshold(0) // liveness ages are exercised separately

	// Before any site connects: both expected sites missing, nothing
	// windowed, no final.
	h := fleetHealthz(t, srv)
	if h.Status != "degraded" || len(h.MissingSites) != 2 || h.FinalReady {
		t.Errorf("initial health = %+v, want degraded with 2 missing sites", h)
	}
	if code, _ := fleetGet(t, srv, "/report/latest"); code != 404 {
		t.Errorf("latest before hello: %d, want 404", code)
	}
	if code, _ := fleetGet(t, srv, "/report/final"); code != 404 {
		t.Errorf("final before any site: %d, want 404", code)
	}

	// East connects and ships windows 0 and 1; no fin yet.
	east := fleetSiteAnalyzer(t, 1, 0, 70*time.Second)
	eastExports, err := east.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Hello("east", east.FleetHello()); err != nil {
		t.Fatal(err)
	}
	for i, we := range eastExports {
		if err := f.Delta("east", we.Window, uint64(i+1), we.Watermark, we.Payload); err != nil {
			t.Fatal(err)
		}
	}

	h = fleetHealthz(t, srv)
	if h.Status != "degraded" || len(h.MissingSites) != 1 || h.MissingSites[0] != "west" {
		t.Errorf("partial health = %+v, want degraded missing [west]", h)
	}
	if h.Sites != 1 || h.ConnectedSites != 1 || h.FinSites != 0 || !h.Windowing || h.Windows != 2 {
		t.Errorf("partial health counts = %+v, want 1 connected site, 2 windows", h)
	}

	code, body := fleetGet(t, srv, "/report/latest")
	if code != 200 {
		t.Fatalf("latest mid-run: %d (%s)", code, body)
	}
	var latest Report
	if err := json.Unmarshal(body, &latest); err != nil {
		t.Fatal(err)
	}
	if latest.Window == nil || latest.Window.Index != 1 {
		t.Errorf("latest window meta = %+v, want index 1", latest.Window)
	}
	if code, _ := fleetGet(t, srv, "/report/window/0"); code != 200 {
		t.Errorf("window/0: %d, want 200", code)
	}
	if code, _ := fleetGet(t, srv, "/report/window/7"); code != 404 {
		t.Errorf("window/7: %d, want 404", code)
	}
	if code, _ := fleetGet(t, srv, "/report/window/x"); code != 400 {
		t.Errorf("window/x: %d, want 400", code)
	}

	// The any-time fleet view serves, carrying the degradation census
	// for the still-missing site.
	code, body = fleetGet(t, srv, "/report/fleet")
	if code != 200 {
		t.Fatalf("fleet mid-run: %d", code)
	}
	var partial Report
	if err := json.Unmarshal(body, &partial); err != nil {
		t.Fatal(err)
	}
	if partial.Fleet == nil || len(partial.Fleet.Sites) == 0 {
		t.Fatalf("partial fleet report census = %+v, want entries", partial.Fleet)
	}
	foundWest := false
	for _, site := range partial.Fleet.Sites {
		if site.Site == "west" && !site.Fin && len(site.MissingWindows) > 0 {
			foundWest = true
		}
	}
	if !foundWest {
		t.Errorf("census %+v does not name west as missing", partial.Fleet.Sites)
	}
	if code, _ := fleetGet(t, srv, "/report/final"); code != 404 {
		t.Errorf("final before fins: %d, want 404", code)
	}

	// East fins; west delivers fully. The fleet becomes final.
	if err := f.Fin("east", 1, uint64(len(eastExports)+1), 0); err != nil {
		t.Fatal(err)
	}
	deliverAll(t, f, "west", fleetSiteAnalyzer(t, 2, 30*time.Second))

	h = fleetHealthz(t, srv)
	if h.Status != "ok" || !h.FinalReady || h.FinSites != 2 || len(h.MissingSites) != 0 {
		t.Errorf("final health = %+v, want ok/final-ready with 2 finned sites", h)
	}
	code, final := fleetGet(t, srv, "/report/final")
	if code != 200 {
		t.Fatalf("final: %d", code)
	}
	_, fleetView := fleetGet(t, srv, "/report/fleet")
	if !bytes.Equal(final, fleetView) {
		t.Error("/report/final differs from /report/fleet on a complete fleet")
	}
	var fr Report
	if err := json.Unmarshal(final, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Fleet != nil {
		t.Errorf("complete fleet final carries a census: %+v", fr.Fleet)
	}
	if fr.Table3.TotalConns != 3 {
		t.Errorf("final conns = %d, want 3", fr.Table3.TotalConns)
	}
}

// TestFleetServeStaleAndDraining pins the liveness view under a pinned
// clock: a silent site degrades /healthz past the stale threshold and is
// named, watermark skew and delivery ages report while live, and both
// draining and final-ready suppress all lag reporting.
func TestFleetServeStaleAndDraining(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := t0
	f := NewFleet(FleetConfig{Dataset: "win", Now: func() time.Time { return now }})
	srv := NewFleetServer(f)
	srv.SetStaleThreshold(10 * time.Second)

	east := fleetSiteAnalyzer(t, 1, 0, 70*time.Second)
	exports, err := east.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Hello("east", east.FleetHello()); err != nil {
		t.Fatal(err)
	}
	for i, we := range exports {
		if err := f.Delta("east", we.Window, uint64(i+1), we.Watermark, we.Payload); err != nil {
			t.Fatal(err)
		}
	}

	// Fresh delivery: ok, age reported, not stale.
	h := fleetHealthz(t, srv)
	if h.Status != "ok" || len(h.StaleSites) != 0 {
		t.Errorf("fresh health = %+v, want ok", h)
	}
	if len(h.SiteDetail) != 1 || h.SiteDetail[0].LastDeliveryAgeSeconds != 0 {
		t.Errorf("fresh site detail = %+v, want zero age", h.SiteDetail)
	}

	// Silence past the threshold: degraded, the site is named, its age
	// reported.
	now = t0.Add(30 * time.Second)
	h = fleetHealthz(t, srv)
	if h.Status != "degraded" || len(h.StaleSites) != 1 || h.StaleSites[0] != "east" {
		t.Errorf("stale health = %+v, want degraded naming east", h)
	}
	if h.SiteDetail[0].LastDeliveryAgeSeconds != 30 {
		t.Errorf("stale age = %v, want 30", h.SiteDetail[0].LastDeliveryAgeSeconds)
	}

	// Draining suppresses staleness and lag: sites are expected to stop.
	srv.SetDraining(true)
	h = fleetHealthz(t, srv)
	if h.Status != "ok" || !h.Draining || len(h.StaleSites) != 0 || h.SiteDetail[0].LastDeliveryAgeSeconds != 0 {
		t.Errorf("draining health = %+v, want ok with lag suppressed", h)
	}
	srv.SetDraining(false)

	// A finned fleet likewise reads quiet, however old the deliveries.
	if err := f.Fin("east", 1, uint64(len(exports)+1), 0); err != nil {
		t.Fatal(err)
	}
	now = t0.Add(time.Hour)
	h = fleetHealthz(t, srv)
	if h.Status != "ok" || !h.FinalReady || len(h.StaleSites) != 0 {
		t.Errorf("final health = %+v, want ok/final-ready", h)
	}
}

// TestFleetServeBatch: a batch (unwindowed) fleet serves health and the
// cumulative views; window endpoints explain themselves with 404.
func TestFleetServeBatch(t *testing.T) {
	f := NewFleet(FleetConfig{Dataset: "plain"})
	srv := NewFleetServer(f)

	a := NewAnalyzer(Options{Dataset: "plain", PayloadAnalysis: true})
	em := gen.NewEmitter(3)
	emitConn(em, 0, windowTestBase, 0)
	if err := a.AddTrace(TraceInput{Name: "t0", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
		t.Fatal(err)
	}
	deliverAll(t, f, "only", a)

	h := fleetHealthz(t, srv)
	if h.Status != "ok" || h.Windowing || !h.FinalReady {
		t.Errorf("batch health = %+v, want ok unwindowed final-ready", h)
	}
	if code, _ := fleetGet(t, srv, "/report/latest"); code != 404 {
		t.Errorf("latest on batch fleet: %d, want 404", code)
	}
	if code, _ := fleetGet(t, srv, "/report/window/0"); code != 404 {
		t.Errorf("window/0 on batch fleet: %d, want 404", code)
	}
	code, body := fleetGet(t, srv, "/report/final")
	if code != 200 {
		t.Fatalf("batch final: %d", code)
	}
	if !bytes.Equal(body, append(reportBytes(t, a.Report()), '\n')) {
		t.Error("batch fleet final differs from the site's own report")
	}
}
