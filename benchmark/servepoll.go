package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"enttrace/internal/core"
)

// The request mix, fixed and cyclic: of every ten requests six poll the
// latest window, three fetch a specific window (walking all of them in
// turn) and one checks health — a dashboard with a history pane and a
// liveness probe.
const (
	kindLatest = iota
	kindWindow
	kindHealthz
	kinds
)

var mix = [10]int{kindLatest, kindLatest, kindWindow, kindLatest, kindLatest, kindWindow, kindLatest, kindLatest, kindWindow, kindHealthz}

var kindNames = [kinds]string{"latest", "window", "healthz"}

// serveInput is serve-poll's input: a completed windowed run behind the
// report server, served over loopback HTTP, with each path's expected
// body length.
type serveInput struct {
	soak     *analysis
	analyzer *core.Analyzer
	srv      *core.ReportServer
	ts       *httptest.Server
	client   *http.Client
	windows  int
	wantLen  map[string]int
	sent     int
}

// setupServe runs the soak trace through a windowed analyzer to
// completion and puts the report server in front of it. The expected
// body lengths come from calling the handler directly, without HTTP
// transport — a different path than the op's.
func setupServe(soak *analysis) (*serveInput, error) {
	in := &serveInput{soak: soak, wantLen: make(map[string]int)}
	res, err := soak.run(runOpts{})
	if err != nil {
		return nil, err
	}
	if !res.ok {
		return nil, fmt.Errorf("serve-poll: the analysis run behind the server failed its own check")
	}
	a := res.analyzer
	in.analyzer = a
	in.windows = a.WindowCount()
	in.srv = core.NewReportServer(a)
	if err := in.srv.SetFinal(a.Report()); err != nil {
		return nil, err
	}
	paths := []string{"/report/latest", "/healthz"}
	for n := 0; n < in.windows; n++ {
		paths = append(paths, fmt.Sprintf("/report/window/%d", n))
	}
	for _, p := range paths {
		rr := httptest.NewRecorder()
		in.srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, p, nil))
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("serve-poll reference: %s answered %d", p, rr.Code)
		}
		in.wantLen[p] = rr.Body.Len()
	}
	in.ts = httptest.NewServer(in.srv)
	in.client = in.ts.Client()
	return in, nil
}

func (in *serveInput) close() {
	in.client.CloseIdleConnections()
	in.ts.Close()
}

// path returns the i-th request of the cyclic mix.
func (in *serveInput) path(i int) (kind int, path string) {
	kind = mix[i%len(mix)]
	switch kind {
	case kindWindow:
		// Three window requests per cycle of ten, numbered in sequence.
		nth := i/len(mix)*3 + (i%len(mix))/3
		return kind, fmt.Sprintf("/report/window/%d", nth%in.windows)
	case kindHealthz:
		return kind, "/healthz"
	}
	return kind, "/report/latest"
}

// request is one op: one GET on the keep-alive connection, body read to
// the end. It fails on any error, non-200 status or unexpected length.
func (in *serveInput) request() (kind int, lat time.Duration, n int, ok bool) {
	kind, path := in.path(in.sent)
	in.sent++
	start := time.Now()
	resp, err := in.client.Get(in.ts.URL + path)
	if err != nil {
		return kind, time.Since(start), 0, false
	}
	nb, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	ok = err == nil && resp.StatusCode == http.StatusOK && int(nb) == in.wantLen[path]
	return kind, lat, int(nb), ok
}
