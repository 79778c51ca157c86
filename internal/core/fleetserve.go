package core

import (
	"net/http"
	"sync/atomic"
	"time"
)

// FleetServer exposes a fleet aggregation over HTTP, mirroring
// ReportServer's surface so fleet-wide reports are drop-in for
// single-instance consumers:
//
//	GET /healthz            — fleet liveness: per-site delivery state,
//	                          lag, and degradation counts
//	GET /report/latest      — the highest merged window, JSON
//	GET /report/window/<n>  — fleet-wide window n (0-based), JSON
//	GET /report/fleet       — the current merged cumulative report,
//	                          served any time (carries the degradation
//	                          census while sites are missing data)
//	GET /report/final       — the merged cumulative report, once every
//	                          site has finned (404 before that)
//
// Window endpoints are live views over whatever snapshots have been
// delivered so far; they require a windowed fleet.
type FleetServer struct {
	f   *Fleet
	mux *http.ServeMux

	// staleAfter is how long a non-finned site may go without delivering
	// a frame before /healthz names it stale; now is the wall-clock seam
	// for that age (tests pin it).
	staleAfter time.Duration
	now        func() time.Time

	draining atomic.Bool
}

// NewFleetServer returns a server over f (the handlers use only the
// Fleet's concurrency-safe accessors).
func NewFleetServer(f *Fleet) *FleetServer {
	s := &FleetServer{f: f, staleAfter: DefaultStallThreshold, now: time.Now}
	s.mux = newReportMux(f.windowStore, func() ([]byte, error) { return f.cumulativeJSON(true) }, s.healthz)
	// /report/fleet serves the current merged cumulative, whatever its
	// completeness; the Fleet section names what is missing while the
	// fleet is partial.
	s.mux.HandleFunc("GET /report/fleet", func(w http.ResponseWriter, req *http.Request) {
		b, err := f.cumulativeJSON(false)
		serveBody(w, b, err, "")
	})
	return s
}

// SetStaleThreshold overrides how long a silent site is tolerated before
// /healthz degrades; d <= 0 disables staleness tracking. Call before
// serving.
func (s *FleetServer) SetStaleThreshold(d time.Duration) { s.staleAfter = d }

// SetDraining marks a graceful shutdown in progress: lag and staleness
// reporting is suppressed (sites are expected to stop delivering).
func (s *FleetServer) SetDraining(v bool) { s.draining.Store(v) }

// ServeHTTP implements http.Handler.
func (s *FleetServer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mux.ServeHTTP(w, req)
}

// fleetHealth is the /healthz document. Lag fields (StaleSites,
// WatermarkSkewSeconds, per-site LastDeliveryAgeSeconds) are suppressed
// once the fleet is draining or final: sites legitimately stop
// delivering then, and a lag alarm would cry wolf on every clean
// shutdown.
type fleetHealth struct {
	// Status is "ok", or "degraded" when windows are census-lost, an
	// expected site never reported, or a live site has gone silent past
	// the stale threshold.
	Status         string
	Sites          int
	ConnectedSites int
	FinSites       int
	// MissingSites are expected sites that never connected; StaleSites
	// are known, unfinished sites whose last delivery is older than the
	// stale threshold (a crashed or partitioned site shows up here).
	MissingSites []string `json:",omitempty"`
	StaleSites   []string `json:",omitempty"`
	Windowing    bool
	WindowDur    string `json:",omitempty"`
	Windows      int
	LostWindows  int
	FinalReady   bool
	Draining     bool `json:",omitempty"`
	// WatermarkSkewSeconds is the event-time spread between the most-
	// and least-advanced reporting sites — the fleet's merge horizon lag.
	WatermarkSkewSeconds float64           `json:",omitempty"`
	SiteDetail           []fleetSiteHealth `json:",omitempty"`
}

// fleetSiteHealth is one site's row in /healthz.
type fleetSiteHealth struct {
	Site        string
	Connected   bool
	Fin         bool
	Windows     int
	LostWindows int    `json:",omitempty"`
	Watermark   string `json:",omitempty"`
	// LastDeliveryAgeSeconds is wall-clock time since the site's last
	// frame (suppressed once the site finned or the fleet is winding
	// down).
	LastDeliveryAgeSeconds float64 `json:",omitempty"`
}

// healthz merges nothing, but it is not free: Status takes the census,
// which walks every window index from 0 to the horizon for every site —
// empty indices included — while it holds the fleet's mutex, the one
// every arriving Delta needs. A poll's cost is the span of window
// indices times the sites, not the windows held or what the snapshots
// weigh (ROADMAP item 14). Everything it reports comes from that one
// Status, so no frame can land between two of its fields.
func (s *FleetServer) healthz(w http.ResponseWriter, req *http.Request) {
	st := s.f.Status()
	h := fleetHealth{
		Status:       "ok",
		Sites:        len(st.Sites),
		MissingSites: st.MissingSites,
		Windowing:    st.Window > 0,
		Windows:      st.Windows,
		LostWindows:  st.LostWindows,
		FinalReady:   st.FinalReady,
		Draining:     s.draining.Load(),
	}
	if h.Windowing {
		h.WindowDur = st.Window.String()
	}
	quiet := h.FinalReady || h.Draining
	now := s.now()
	for _, row := range st.Sites {
		sh := fleetSiteHealth{
			Site:        row.Site,
			Connected:   row.Connected,
			Fin:         row.Fin,
			Windows:     row.Windows,
			LostWindows: row.LostWindows,
		}
		if row.Connected {
			h.ConnectedSites++
		}
		if row.Fin {
			h.FinSites++
		}
		if !row.Watermark.IsZero() {
			sh.Watermark = row.Watermark.Format(time.RFC3339Nano)
		}
		if !quiet && !row.Fin && !row.LastDelivery.IsZero() {
			age := now.Sub(row.LastDelivery)
			sh.LastDeliveryAgeSeconds = age.Seconds()
			if s.staleAfter > 0 && age > s.staleAfter {
				h.StaleSites = append(h.StaleSites, row.Site)
			}
		}
		h.SiteDetail = append(h.SiteDetail, sh)
	}
	if !quiet && st.WatermarkSkew > 0 {
		h.WatermarkSkewSeconds = st.WatermarkSkew.Seconds()
	}
	if h.LostWindows > 0 || len(h.MissingSites) > 0 || len(h.StaleSites) > 0 {
		h.Status = "degraded"
	}
	writeJSON(w, h)
}
