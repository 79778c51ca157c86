package core

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"enttrace/internal/fleet"
)

// This file is the analysis half of two-tier fleet mode: encoding a
// site analyzer's window snapshots for the wire (the shipper side), and
// folding the snapshots of many sites, straight from their bytes, into
// fleet-wide reports (the aggregator side). The transport between the
// two lives in internal/fleet; this file owns what the payloads mean.
//
// The invariant the whole design leans on is the epoch contract: a
// window snapshot is a complete epochAgg, and merging a partition of
// epochs reproduces the aggregate that never split. A fleet of N sites
// analyzing disjoint trace blocks therefore folds — site-major in site
// name order, window-minor — to the same report a single instance
// produces over the concatenated traces, byte for byte, provided the
// sites share a window origin (Options.WindowOrigin) and disjoint
// trace-ordinal ranges (Options.TraceBase).

// SnapshotSchema is the fleet codec's schema hash for the epoch
// snapshot type this build ships. Shipper and aggregator exchange it in
// the HELLO handshake; a mismatch (different builds of the analyzer)
// fails the connection instead of mis-merging silently.
func SnapshotSchema() uint64 { return fleet.SchemaOf(&epochAgg{}) }

// CheckSnapshot reports whether payload is a window snapshot this build
// folds, without decoding it: what Fleet.Delta asks of every arrival.
func CheckSnapshot(payload []byte) error { return fleet.Check[epochAgg](payload) }

// WindowExport is one window's encoded snapshot, ready for
// Shipper.ShipDelta. Payload is a complete snapshot of the window, not
// an increment: re-exporting the same window under a higher sequence
// number replaces the earlier delivery at the aggregator, which is what
// lets a site ship provisional windows mid-run and canonical ones at
// the end of the run.
type WindowExport struct {
	Window    int
	Watermark int64 // event-time watermark at export, unix nanoseconds
	Payload   []byte
}

// FleetHello returns the handshake payload describing this analyzer's
// snapshot schema and window configuration. Windowed fleet members must
// run with Options.WindowOrigin set — the origin rides in the HELLO so
// the aggregator can refuse sites cutting windows on different
// boundaries.
func (a *Analyzer) FleetHello() fleet.Hello {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := fleet.Hello{Schema: SnapshotSchema(), WindowNanos: int64(a.dur)}
	if a.originSet {
		h.OriginNanos = a.origin.UnixNano()
	}
	return h
}

// ExportWindow encodes window n's complete snapshot: the window's
// aggregate as it stands, read in place. On a windowed analyzer it is
// safe to call while analysis streams (banking and the export take the
// same lock). An unwindowed run is one unbounded window: it exports its
// one slot, drained, as window 0, and like Report must not race an
// in-flight Add*. The error path is an encoding bug or an out-of-range
// window, never data-dependent.
func (a *Analyzer) ExportWindow(n int) (WindowExport, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if max := a.exportCountLocked() - 1; n < 0 || n > max {
		return WindowExport{}, fmt.Errorf("window %d out of range (max %d)", n, max)
	}
	a.drainLocked()
	payload, err := fleet.Marshal(a.aggLocked(n))
	if err != nil {
		return WindowExport{}, err
	}
	return WindowExport{Window: n, Watermark: wmNanos(a.local.watermark), Payload: payload}, nil
}

// exportCountLocked is how many snapshots the run exports: every known
// window, or exactly one (the whole run) when it is not windowed.
// Callers hold a.mu.
func (a *Analyzer) exportCountLocked() int {
	if a.dur == 0 {
		return 1
	}
	return a.countLocked()
}

// ExportAll encodes every known window (0..max, empty windows
// included — presence is how the aggregator distinguishes "no traffic"
// from "not delivered"); an unwindowed analyzer exports the whole run as
// a single window 0. Call at end of run for the canonical re-export
// pass; a windowed analyzer that saw no data at all exports nothing.
func (a *Analyzer) ExportAll() ([]WindowExport, error) {
	a.mu.Lock()
	count := a.exportCountLocked()
	a.mu.Unlock()
	out := make([]WindowExport, 0, count)
	for n := 0; n < count; n++ {
		we, err := a.ExportWindow(n)
		if err != nil {
			return nil, err
		}
		out = append(out, we)
	}
	return out, nil
}

func wmNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// FleetConfig configures a fleet aggregation (NewFleet). A fleet's
// window clock is not configured: it adopts the first site's HELLO, and
// every later site must match it exactly.
type FleetConfig struct {
	// Dataset labels the merged reports.
	Dataset string
	// ExpectSites, when non-empty, lists the sites the fleet is complete
	// without — a listed site that never reports keeps the fleet from
	// reaching FinalReady and is named in the health and degradation
	// views.
	ExpectSites []string
	// Now is the wall clock seam for liveness tracking and the delivery
	// ages /healthz reports (nil = time.Now).
	Now func() time.Time
	// Logf receives merge-side diagnostics (nil discards).
	Logf func(format string, args ...any)
}

// Fleet merges per-site window snapshots into fleet-wide reports. It
// implements fleet.Sink: the transport aggregator feeds it frames, it
// owns dedup (latest sequence number per site and window wins —
// delivery is at-least-once and a re-export supersedes earlier
// provisional snapshots), per-site liveness watermarks, and the
// degradation census. Its windows live in the same store an Analyzer
// reads its own from, one site per shipper, and are read through the
// same methods. Safe for concurrent use.
type Fleet struct {
	// windowStore holds every site's slots, horizon and liveness, under
	// its mutex; its memo also holds the merged cumulative behind
	// /report/fleet and /report/final. A known site's Heartbeat and
	// Disconnect write liveness alone (lastSeen, watermark, connected),
	// which only Status reads, so they leave the memo be.
	*windowStore
	expect []string
	schema uint64
	now    func() time.Time
	logf   func(format string, args ...any)
}

// NewFleet returns an empty fleet merger.
func NewFleet(cfg FleetConfig) *Fleet {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Fleet{
		windowStore: newWindowStore(cfg.Dataset, 0),
		expect:      append([]string(nil), cfg.ExpectSites...),
		schema:      SnapshotSchema(),
		now:         now,
		logf:        logf,
	}
}

func (s *siteState) seen(now time.Time, watermark int64) {
	s.lastSeen = now
	if wm := originTime(watermark); wm.After(s.watermark) {
		s.watermark = wm
	}
}

// Hello implements fleet.Sink: schema and window-config validation.
func (f *Fleet) Hello(site string, h fleet.Hello) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.rendered)
	if h.Schema != f.schema {
		return fmt.Errorf("snapshot schema mismatch: site %s ships %#x, aggregator expects %#x (mixed builds cannot merge)",
			site, h.Schema, f.schema)
	}
	win, origin := time.Duration(h.WindowNanos), originTime(h.OriginNanos)
	if !f.originSet {
		f.dur, f.origin, f.originSet = win, origin, true
	} else if win != f.dur || !origin.Equal(f.origin) {
		return fmt.Errorf("window config mismatch: site %s cuts %v windows from %s, fleet uses %v from %s",
			site, win, fmtOrigin(origin), f.dur, fmtOrigin(f.origin))
	}
	s := f.site(site)
	s.connected = true
	s.lastSeen = f.now()
	f.logf("fleet: site %s connected (windows %v)", site, win)
	return nil
}

// Delta implements fleet.Sink: check the snapshot's bytes, then keep a
// copy of them iff its sequence number is the newest seen for (site,
// window) — duplicates and stale redeliveries are no-ops, which is the
// idempotence the at-least-once transport requires. The bytes are not
// decoded: every read of the window folds them straight into its
// aggregate (slot.foldInto).
func (f *Fleet) Delta(site string, window int, seq uint64, watermark int64, payload []byte) error {
	if window < 0 {
		return fmt.Errorf("site %s: negative window %d", site, window)
	}
	if err := CheckSnapshot(payload); err != nil {
		return fmt.Errorf("site %s window %d: %w", site, window, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.rendered)
	s := f.site(site)
	s.seen(f.now(), watermark)
	if prev, ok := s.slots[window]; ok && prev.seq >= seq {
		return nil
	}
	s.slots[window] = slot{seq: seq, wire: bytes.Clone(payload)}
	s.horizon = max(s.horizon, window)
	return nil
}

// Lost implements fleet.Sink: the site's shipper evicted this window
// from its bounded retry queue. A later re-export (higher sequence)
// supersedes the loss; otherwise the window lands in the census.
func (f *Fleet) Lost(site string, window int, seq uint64) error {
	if window < 0 {
		return fmt.Errorf("site %s: negative window %d", site, window)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.rendered)
	s := f.site(site)
	s.seen(f.now(), 0)
	if seq > s.lost[window] {
		s.lost[window] = seq
	}
	s.horizon = max(s.horizon, window)
	return nil
}

// Heartbeat implements fleet.Sink.
func (f *Fleet) Heartbeat(site string, watermark int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sites[site] == nil {
		// First contact: the census gains a site that owes every window.
		clear(f.rendered)
	}
	f.site(site).seen(f.now(), watermark)
}

// Fin implements fleet.Sink: the site is complete — every window
// 0..maxWindow was shipped or declared lost.
func (f *Fleet) Fin(site string, maxWindow int, seq uint64, watermark int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.rendered)
	s := f.site(site)
	s.seen(f.now(), watermark)
	s.fin = true
	s.finMax = max(s.finMax, maxWindow)
	s.horizon = max(s.horizon, maxWindow)
	f.logf("fleet: site %s fin through window %d", site, maxWindow)
	return nil
}

// Disconnect implements fleet.Sink; the staleness clock runs from the
// site's last delivery.
func (f *Fleet) Disconnect(site string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.sites[site]; s != nil {
		s.connected = false
	}
}

func originTime(nanos int64) time.Time {
	if nanos == 0 {
		return time.Time{}
	}
	return time.Unix(0, nanos).UTC()
}

func fmtOrigin(t time.Time) string {
	if t.IsZero() {
		return "unset"
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Report builds the fleet-wide cumulative report: every site's window
// snapshots folded site-major (in site name order) and window-minor —
// the concatenated-trace banking order, so a complete clean fleet
// reproduces the single-instance report byte for byte. When any
// expected window is missing or permanently lost, the report instead
// carries the degradation census in its Fleet section.
func (f *Fleet) Report() *Report {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reportLocked()
}

func (f *Fleet) reportLocked() *Report {
	r := buildReport(f.dataset, foldSlots(f.heldLocked()), nil)
	if census := f.censusLocked(); len(census.Sites) > 0 {
		r.Fleet = census
	}
	return r
}

// owes is the last window the site owes the fleet: a finned site exactly
// windows 0..finMax; a site still running (or dead) is measured against
// the fleet's last window, maxW — what it has not delivered yet is what
// the merged report is missing.
func (s *siteState) owes(maxW int) int {
	if s.fin {
		return s.finMax
	}
	return maxW
}

// lostAt reports whether window w is lost: declared lost and never
// delivered, or declared lost under a newer sequence than its best
// delivery — the canonical re-export was evicted, so the stale
// provisional snapshot folds (best effort) but the window's data is
// incomplete. The census and Status both count by it.
func (s *siteState) lostAt(w int) bool {
	lostSeq, hasLost := s.lost[w]
	sl, delivered := s.slots[w]
	return hasLost && (!delivered || lostSeq > sl.seq)
}

// censusLocked walks every (site, window) the fleet is owed and takes the
// degradation census. It lists every missing window, so its cost follows
// the window horizon; only Report takes it. Callers hold f.mu.
func (f *Fleet) censusLocked() *FleetReport {
	census := &FleetReport{}
	maxW := f.countLocked() - 1
	for _, name := range f.siteNamesLocked() {
		s := f.sites[name]
		sr := FleetSiteReport{Site: name, Fin: s.fin}
		for w, owed := 0, s.owes(maxW); w <= owed; w++ {
			_, delivered := s.slots[w]
			switch {
			case s.lostAt(w):
				sr.LostWindows = append(sr.LostWindows, w)
			case !delivered:
				sr.MissingWindows = append(sr.MissingWindows, w)
			}
			if delivered {
				sr.Windows++
			}
		}
		if len(sr.LostWindows) > 0 || len(sr.MissingWindows) > 0 {
			census.Sites = append(census.Sites, sr)
		}
	}
	// Expected sites that never connected: everything the fleet knows
	// about is missing from them.
	for _, name := range f.expect {
		if f.sites[name] != nil {
			continue
		}
		sr := FleetSiteReport{Site: name}
		for w := 0; w <= maxW; w++ {
			sr.MissingWindows = append(sr.MissingWindows, w)
		}
		census.Sites = append(census.Sites, sr)
	}
	if len(census.Sites) > 0 {
		sort.Slice(census.Sites, func(i, j int) bool {
			return census.Sites[i].Site < census.Sites[j].Site
		})
	}
	return census
}

// cumulativeJSON returns the body of the merged cumulative report:
// /report/fleet's at any time, and with finalOnly /report/final's — nil
// until every site has finned, the moment the report stops changing. The
// gate and the render share one critical section, so what is served as
// final was rendered from a fleet that was final.
func (f *Fleet) cumulativeJSON(finalOnly bool) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if finalOnly && !f.finalReadyLocked() {
		return nil, nil
	}
	return f.rendered.body(cumulativeBody, f.reportLocked)
}

// finalReadyLocked: every known site finned, every expected site known,
// and at least one site reported. Callers hold f.mu.
func (f *Fleet) finalReadyLocked() bool {
	for _, s := range f.sites {
		if !s.fin {
			return false
		}
	}
	for _, name := range f.expect {
		if f.sites[name] == nil {
			return false
		}
	}
	return len(f.sites) > 0
}

// FleetStatus is the operational view of a fleet merge, feeding the
// aggregator's /healthz. Wall-clock quantities (delivery ages) are the
// server's to derive; everything here is observed state.
type FleetStatus struct {
	Sites []FleetSiteStatus
	// MissingSites are expected sites that never connected.
	MissingSites []string
	// FinalReady: every known site finned, every expected site present
	// and finned, and at least one site reported.
	FinalReady bool
	// Window is the fleet's window length (0 for batch fleets or before
	// the first site's Hello fixes the config). Windows is the fleet's
	// window horizon (WindowCount); LostWindows counts census-lost
	// windows across sites.
	Window      time.Duration
	Windows     int
	LostWindows int
	// WatermarkSkew is the spread between the most- and least-advanced
	// site watermarks (0 with fewer than two reporting sites).
	WatermarkSkew time.Duration
}

// FleetSiteStatus is one site's liveness row.
type FleetSiteStatus struct {
	Site         string
	Connected    bool
	Fin          bool
	Windows      int
	LostWindows  int
	Watermark    time.Time // zero when the site has not advanced one
	LastDelivery time.Time // wall clock of the site's last frame
}

// Status snapshots the fleet's liveness state. It neither folds nor
// walks the window horizon: it counts each site's lost windows from its
// LOST declarations, so its cost follows the sites and those
// declarations, not the window indices or the size of the snapshots.
func (f *Fleet) Status() FleetStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	maxW := f.countLocked() - 1
	st := FleetStatus{Window: f.dur, Windows: maxW + 1, FinalReady: f.finalReadyLocked()}
	var minWM, maxWM time.Time
	for _, name := range f.siteNamesLocked() {
		s := f.sites[name]
		lost := 0
		for w := range s.lost {
			if w <= s.owes(maxW) && s.lostAt(w) {
				lost++
			}
		}
		row := FleetSiteStatus{
			Site:         name,
			Connected:    s.connected,
			Fin:          s.fin,
			Windows:      len(s.slots),
			LostWindows:  lost,
			Watermark:    s.watermark,
			LastDelivery: s.lastSeen,
		}
		if !s.watermark.IsZero() {
			if minWM.IsZero() || s.watermark.Before(minWM) {
				minWM = s.watermark
			}
			if s.watermark.After(maxWM) {
				maxWM = s.watermark
			}
		}
		st.LostWindows += row.LostWindows
		st.Sites = append(st.Sites, row)
	}
	st.WatermarkSkew = maxWM.Sub(minWM)
	for _, name := range f.expect {
		if f.sites[name] == nil {
			st.MissingSites = append(st.MissingSites, name)
		}
	}
	sort.Strings(st.MissingSites)
	return st
}
