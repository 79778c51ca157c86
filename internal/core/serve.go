package core

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ReportServer exposes a long-running analysis over HTTP:
//
//	GET /healthz            — liveness plus progress (packets, watermark,
//	                          window counts)
//	GET /report/latest      — the most recently completed window, JSON
//	GET /report/window/<n>  — window n (0-based), JSON
//	GET /report/final       — the cumulative report, once analysis ends
//
// Window endpoints are live views: they reflect everything banked so
// far, while analysis is still streaming. They require the analyzer to
// be windowed (Options.Window > 0); without windowing only /healthz and
// /report/final respond.
type ReportServer struct {
	a   *Analyzer
	mux *http.ServeMux

	// final is the marshaled cumulative report SetFinal publishes once
	// analysis ends, on the analysis goroutine, and the handlers read;
	// atomic, since the two race by design.
	final atomic.Pointer[[]byte]

	// Stall detection: /healthz tracks a progress signature (packets
	// seen, watermark) and reports the server degraded once it stops
	// advancing for stallAfter of wall time — a stuck source looks
	// healthy to every other probe, since the process itself is fine.
	mu          sync.Mutex
	stallAfter  time.Duration
	lastPackets int64
	lastMark    time.Time
	lastAdvance time.Time
}

// DefaultStallThreshold is how long /healthz lets the progress
// signature sit still before reporting the run degraded.
const DefaultStallThreshold = 30 * time.Second

// NewReportServer returns a server over a (the handlers use only the
// Analyzer's concurrency-safe accessors).
func NewReportServer(a *Analyzer) *ReportServer {
	s := &ReportServer{a: a, stallAfter: DefaultStallThreshold}
	s.mux = newReportMux(a.windowStore, func() ([]byte, error) {
		if b := s.final.Load(); b != nil {
			return *b, nil
		}
		return nil, nil
	}, s.healthz)
	return s
}

// SetFinal publishes the cumulative report. Call it from the analysis
// goroutine after the last trace; handlers serve 404 on /report/final
// until then. The report is rendered once, here, so handlers never
// touch the analyzer's aggregates after analysis ends.
func (s *ReportServer) SetFinal(r *Report) error {
	b, err := servedJSON(r)
	if err != nil {
		return err
	}
	s.final.Store(&b)
	return nil
}

// ServeHTTP implements http.Handler.
func (s *ReportServer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mux.ServeHTTP(w, req)
}

type healthStatus struct {
	// Status is "ok", or "degraded" when the run has folded source
	// errors or the progress signature has stalled past the threshold.
	Status           string
	Packets          int64
	Windowing        bool
	WindowDuration   string `json:",omitempty"`
	Watermark        string `json:",omitempty"`
	Windows          int
	CompletedWindows int
	FinalReady       bool
	// LiveConns is the resident connection count; SourceErrors the
	// running degraded-run error count.
	LiveConns    int64
	SourceErrors int64
	// Draining marks a graceful shutdown in progress.
	Draining bool `json:",omitempty"`
	// StallSeconds is how long the progress signature has been still,
	// present only once past the stall threshold.
	StallSeconds float64 `json:",omitempty"`
}

// stallAge reports how long the (packets, watermark) progress signature
// has been unchanged, or 0 while it is still advancing. The clock arms
// at the first probe, so a server nobody polls never accumulates a
// phantom stall.
func (s *ReportServer) stallAge(packets int64, mark time.Time) time.Duration {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastAdvance.IsZero() || packets != s.lastPackets || !mark.Equal(s.lastMark) {
		s.lastPackets, s.lastMark, s.lastAdvance = packets, mark, now
		return 0
	}
	return now.Sub(s.lastAdvance)
}

func (s *ReportServer) healthz(w http.ResponseWriter, req *http.Request) {
	windows, completed, wm := s.a.progress()
	h := healthStatus{
		Status:           "ok",
		Packets:          s.a.PacketsSeen(),
		Windowing:        s.a.dur > 0,
		Windows:          windows,
		CompletedWindows: completed,
		FinalReady:       s.final.Load() != nil,
		LiveConns:        s.a.LiveConns(),
		SourceErrors:     s.a.SourceErrorsSeen(),
		Draining:         s.a.Stopping(),
	}
	if h.Windowing {
		h.WindowDuration = s.a.dur.String()
		if !wm.IsZero() {
			h.Watermark = wm.UTC().Format(time.RFC3339Nano)
		}
	}
	// A finished run can't advance and isn't stalled; a draining one is
	// expected to stop moving.
	if !h.FinalReady && !h.Draining {
		if age := s.stallAge(h.Packets, wm); age > s.stallAfter {
			h.Status = "degraded"
			h.StallSeconds = age.Seconds()
		}
	}
	if h.SourceErrors > 0 {
		h.Status = "degraded"
	}
	writeJSON(w, h)
}

// rendered is the window store's memo of response bodies, keyed by
// window index (cumulativeBody for a fleet's cumulative report): exactly
// the bytes a GET is answered with. The store's mutex guards it with the
// slots the bodies are rendered from; every method that writes the store
// clears it, and body fills it under the same lock, so an entry is never
// older than the last write. A poll of a store nobody has written since
// the path was last asked for builds and marshals nothing. It needs no
// bound of its own: an entry exists only for a window someone asked for,
// whose aggregate the store holds anyway (≈16 KB, against ≈9 KB of JSON).
type rendered map[int][]byte

const cumulativeBody = -1

// body returns the memoised body for key, rendering build's report on a
// miss. Callers hold the store's mutex.
func (m rendered) body(key int, build func() *Report) ([]byte, error) {
	if b, ok := m[key]; ok {
		return b, nil
	}
	b, err := servedJSON(build())
	if err == nil {
		m[key] = b
	}
	return b, err
}

// newReportMux wires the endpoints both servers share — /report/latest
// and /report/window/<n> over st, /report/final over final — beside the
// server's own /healthz. Both body sources hand over the response body
// itself, trailing newline included (nil when there is no such
// document); the handlers only write it, and must not change it. GET
// patterns also match HEAD; any other method is a 405.
func newReportMux(st *windowStore, final func() ([]byte, error), healthz http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /report/latest", func(w http.ResponseWriter, req *http.Request) {
		if !st.Windowing() {
			httpError(w, http.StatusNotFound, "windowing disabled; window endpoints need -window")
			return
		}
		b, err := st.windowJSON(st.LatestWindowIndex())
		serveBody(w, b, err, "no completed window yet")
	})
	mux.HandleFunc("GET /report/window/", func(w http.ResponseWriter, req *http.Request) {
		if !st.Windowing() {
			httpError(w, http.StatusNotFound, "windowing disabled; window endpoints need -window")
			return
		}
		n, err := strconv.Atoi(strings.TrimPrefix(req.URL.Path, "/report/window/"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "window index must be an integer")
			return
		}
		b, err := st.windowJSON(n)
		serveBody(w, b, err, "no such window")
	})
	mux.HandleFunc("GET /report/final", func(w http.ResponseWriter, req *http.Request) {
		b, err := final()
		serveBody(w, b, err, "final report not ready: still running")
	})
	return mux
}

// serveBody answers with a body a view handed over: 500 if rendering it
// failed, 404 saying what is missing if the view has no such document.
func serveBody(w http.ResponseWriter, b []byte, err error, missing string) {
	switch {
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
	case b == nil:
		httpError(w, http.StatusNotFound, missing)
	default:
		writeBody(w, http.StatusOK, b)
	}
}

// writeBody is every response this package writes: a JSON body that ends
// in a newline, its length declared, in one Write.
func writeBody(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	w.Write(b)
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, http.StatusOK, append(b, '\n'))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	b, _ := json.Marshal(map[string]string{"error": msg}) // a map of strings cannot fail
	writeBody(w, code, append(b, '\n'))
}
