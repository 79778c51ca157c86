package core

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

func get(t *testing.T, srv *ReportServer, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

// TestServeWindowedRun drives the serve-mode handler through a streaming
// run: window endpoints serve the latest completed window between
// traces — while analysis is still in progress — and the final report
// appears once published.
func TestServeWindowedRun(t *testing.T) {
	a := windowedAnalyzer(time.Minute)
	srv := NewReportServer(a)

	// Before any data: health is up, no window completed, no final.
	code, body := get(t, srv, "/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	var health struct {
		Status           string
		Windowing        bool
		CompletedWindows int
		FinalReady       bool
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || !health.Windowing || health.CompletedWindows != 0 || health.FinalReady {
		t.Errorf("unexpected initial health: %+v", health)
	}
	if code, _ := get(t, srv, "/report/latest"); code != 404 {
		t.Errorf("latest before any window: %d, want 404", code)
	}
	if code, _ := get(t, srv, "/report/final"); code != 404 {
		t.Errorf("final before analysis end: %d, want 404", code)
	}

	// First trace spans two windows; window 0 completes.
	em := gen.NewEmitter(7)
	emitConn(em, 0, windowTestBase, 0)
	emitConn(em, 1, windowTestBase.Add(70*time.Second), 0)
	if err := a.AddTrace(TraceInput{Name: "t0", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
		t.Fatal(err)
	}

	code, body = get(t, srv, "/report/latest")
	if code != 200 {
		t.Fatalf("latest mid-run: %d (%s)", code, body)
	}
	var wr Report
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Window == nil || wr.Window.Index != 0 {
		t.Errorf("latest window meta = %+v, want index 0", wr.Window)
	}
	if wr.Table3.TotalConns != 1 {
		t.Errorf("latest window conns = %d, want 1", wr.Table3.TotalConns)
	}

	// Window by index: 1 is the open window (addressable), 7 is not.
	if code, _ := get(t, srv, "/report/window/1"); code != 200 {
		t.Errorf("window/1: %d, want 200", code)
	}
	if code, _ := get(t, srv, "/report/window/7"); code != 404 {
		t.Errorf("window/7: %d, want 404", code)
	}
	if code, _ := get(t, srv, "/report/window/x"); code != 400 {
		t.Errorf("window/x: %d, want 400", code)
	}

	// Publish the final report.
	if err := srv.SetFinal(a.Report()); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, srv, "/report/final")
	if code != 200 {
		t.Fatalf("final: %d", code)
	}
	var final Report
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if final.Window != nil || final.Table3.TotalConns != 2 {
		t.Errorf("final report: window=%v conns=%d, want nil/2", final.Window, final.Table3.TotalConns)
	}
}

// TestServeStallDetection drives /healthz through the watermark-stall
// state machine: a still progress signature past the threshold degrades
// the status, any advance resets the clock, and a published final
// report suppresses stall reporting entirely.
func TestServeStallDetection(t *testing.T) {
	a := windowedAnalyzer(time.Minute)
	srv := NewReportServer(a)
	srv.stallAfter = time.Millisecond

	health := func() healthStatus {
		t.Helper()
		code, body := get(t, srv, "/healthz")
		if code != 200 {
			t.Fatalf("healthz: %d", code)
		}
		var h healthStatus
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	// First probe arms the clock; no stall yet.
	if h := health(); h.Status != "ok" {
		t.Errorf("initial status = %s, want ok", h.Status)
	}
	time.Sleep(5 * time.Millisecond)
	if h := health(); h.Status != "degraded" || h.StallSeconds <= 0 {
		t.Errorf("stalled status = %+v, want degraded with StallSeconds", h)
	}

	// Progress resets the stall clock.
	em := gen.NewEmitter(7)
	emitConn(em, 0, windowTestBase, 0)
	if err := a.AddTrace(TraceInput{Name: "t0", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}); err != nil {
		t.Fatal(err)
	}
	if h := health(); h.Status != "ok" {
		t.Errorf("status after progress = %s, want ok", h.Status)
	}

	// A finished run cannot advance and must not read as stalled.
	time.Sleep(5 * time.Millisecond)
	if err := srv.SetFinal(a.Report()); err != nil {
		t.Fatal(err)
	}
	if h := health(); h.Status != "ok" || !h.FinalReady {
		t.Errorf("final status = %+v, want ok/final-ready", h)
	}
}

// TestServeDegradedOnSourceErrors: any folded source error turns the
// health status degraded for the rest of the run.
func TestServeDegradedOnSourceErrors(t *testing.T) {
	a := windowedAnalyzer(time.Minute)
	srv := NewReportServer(a)
	a.srcErrsLive.Add(1)
	_, body := get(t, srv, "/healthz")
	var h healthStatus
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.SourceErrors != 1 {
		t.Errorf("health = %+v, want degraded with 1 source error", h)
	}
}

// TestServeWithoutWindowing pins the degraded mode: health and final
// work, window endpoints explain themselves with 404.
func TestServeWithoutWindowing(t *testing.T) {
	a := NewAnalyzer(Options{Dataset: "plain", PayloadAnalysis: true})
	srv := NewReportServer(a)
	if code, _ := get(t, srv, "/healthz"); code != 200 {
		t.Errorf("healthz: %d", code)
	}
	if code, _ := get(t, srv, "/report/latest"); code != 404 {
		t.Errorf("latest: %d, want 404", code)
	}
	if code, _ := get(t, srv, "/report/window/0"); code != 404 {
		t.Errorf("window/0: %d, want 404", code)
	}
}
