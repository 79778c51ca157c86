package core

import (
	"net/netip"
	"sync"
	"time"

	"enttrace/internal/fleet"
	"enttrace/internal/flows"
	"enttrace/internal/stats"
)

// epochAgg holds every report-feeding accumulator for one span of event
// time: the whole run (the cumulative aggregate every Analyzer owns),
// one trace, or one time window. Every trace accumulates into a fresh
// per-trace delta that merges into the cumulative aggregate — and, when
// the run is windowed, into the window's aggregate as well — in banking
// order, so the cumulative report is byte-identical however the run was
// cut. It merges by its fields (fleet.Merge): every fold is a sum, a
// union, an exact distribution merge, or an append in banking order, so
// folding a partition of deltas reproduces the aggregate that never
// split.
type epochAgg struct {
	// Table 1 accumulators.
	totalPackets                            int64
	traceCount                              int
	monitoredHosts, localHosts, remoteHosts map[netip.Addr]struct{}

	// Table 2: network-layer packet counts.
	netLayer *stats.Counter

	// Post-filter connection-level accumulators: what the replay workers
	// fold in (Table 3, Figure 1, the origin mix, the hostile-input
	// census, AgedOut), then the trace-level counts beside them.
	connAggregates
	removedConns int
	totalConns   int
	scanners     map[netip.Addr]struct{}

	fanAgg map[netip.Addr]*flows.FanStats // Figure 2

	load *loadAgg

	// roleCounts counts hosts per roles.Role.
	roleCounts *stats.Counter

	// srcErrs is the degraded-run source-error census, one entry per
	// trace that saw errors, in banking order.
	srcErrs []TraceSourceErrors
	// capEvicted counts MaxConns-backstop evictions.
	capEvicted int64

	// apps folds banked application deltas: the phase-A residue at each
	// trace end, and the replay workers' share — their running
	// cumulatives at Report into the cumulative, their cuts at each join
	// into a window's, which is sparse (newWindowAgg).
	apps *appAggregates
}

// newEpochAgg returns an empty aggregate that can be merged into and
// reported from.
func newEpochAgg() *epochAgg {
	e := newTraceDelta()
	e.apps = newAppAggregates()
	return e
}

// newWindowAgg returns an empty window aggregate: merged into like the
// cumulative, but sparse — its apps holds a component only once a banked
// delta has brought one (the merge adopts it).
func newWindowAgg() *epochAgg {
	e := newTraceDelta()
	e.apps = &appAggregates{}
	return e
}

// emptyWindow is what a window nothing was banked into reads as: one
// aggregate shared by every such window of every analyzer, never written.
var emptyWindow = newWindowAgg()

// newTraceDelta returns an empty per-trace delta: an aggregate that is
// only ever merged from, so its apps stays nil until the trace's
// phase-A cut (a sparse delta, nil when nothing banked) is attached.
func newTraceDelta() *epochAgg {
	return &epochAgg{
		monitoredHosts: make(map[netip.Addr]struct{}),
		localHosts:     make(map[netip.Addr]struct{}),
		remoteHosts:    make(map[netip.Addr]struct{}),
		netLayer:       stats.NewCounter(),
		connAggregates: *newConnAggregates(),
		scanners:       make(map[netip.Addr]struct{}),
		fanAgg:         make(map[netip.Addr]*flows.FanStats),
		load:           newLoadAgg(),
		roleCounts:     stats.NewCounter(),
	}
}

// WindowMeta labels a per-window report with its position on the event
// timeline. It rides along in the JSON encoding so consumers can align
// windows across runs and sites.
type WindowMeta struct {
	// Index is the window ordinal (0-based, aligned to the first packet
	// timestamp of the first trace).
	Index int
	// Start and End bound the window: [Start, End) in packet time.
	Start, End time.Time
}

// WindowReport is one completed (or provisionally completed) window.
type WindowReport struct {
	Index      int
	Start, End time.Time
	Report     *Report
}

// windowDelta is one replay worker's contribution to one window: what
// its shard banked up to the cut at the window boundary.
type windowDelta struct {
	window int
	delta  *epochAgg
}

// windowState is the Analyzer's epoch-rotation machinery: the window
// clock (origin + duration), the per-window aggregates, and the
// event-time watermark that decides when a window is complete. All
// access is mutex-guarded: the replay workers bank and emit through it
// while a trace is still replaying (see handoff), and a serve-mode HTTP
// handler reads window reports while analysis is still streaming.
//
// Every Analyzer has one. With dur == 0 the clock never gets an origin,
// so every timestamp maps to the same window: replay workers see no
// boundary and never cut, nothing is banked per window, and the
// accessors answer "no windows". A window boundary is a cut point that
// also banks its delta — not a second accumulation path.
type windowState struct {
	mu sync.Mutex
	// dur is the window length; 0 means the run is not windowed.
	dur      time.Duration
	dataset  string
	onWindow func(*WindowReport)

	origin    time.Time
	originSet bool
	// watermark is the event time before which every window is complete:
	// nothing the run has read can still bank into one. Mid-trace it is
	// the start of the first window some replay worker has not passed
	// (advance, from the hand-off; never past the trace's last packet),
	// and at trace end the trace's last packet (finishTrace). Windows
	// before it have been emitted.
	watermark time.Time
	// windows maps window index to the window's aggregate: everything
	// banked into it so far, merged as it arrived — the workers' deltas
	// of every trace that touched it (bankDeltas), the trace-granular
	// delta of every trace that ended in it (finishTrace). It is the one
	// store a window has: reports and exports are built from it in place,
	// under mu. A window nothing was banked into has no entry and reads
	// as emptyWindow. Windows stay addressable after completion: a later
	// trace that overlaps one in event time banks into it (late data),
	// and WindowReports() at the end of the run reflects everything. (The
	// cumulative does not read these: each worker keeps a running
	// aggregate of everything it cut, drained at Report.)
	windows map[int]*epochAgg
	// maxWindow is the highest window index known (banked or covered by
	// the watermark); -1 before any data.
	maxWindow int
	// nextEmit is the first window index not yet emitted via onWindow.
	nextEmit int
	// rendered memoises the windows' served bodies; every method that
	// writes the clock or an aggregate under mu clears it (setOrigin,
	// bankDeltas, finishTrace). advance moves only the watermark, which
	// no body is rendered from.
	rendered rendered
}

func newWindowState(dataset string, dur time.Duration, onWindow func(*WindowReport)) *windowState {
	return &windowState{
		dur:       dur,
		dataset:   dataset,
		onWindow:  onWindow,
		windows:   make(map[int]*epochAgg),
		maxWindow: -1,
		rendered:  make(rendered),
	}
}

// setOrigin pins the window clock to the first trace's first packet
// timestamp. Idempotent; windows are aligned to multiples of dur from
// this instant for the Analyzer's lifetime. An unwindowed run has no
// clock to pin.
func (ws *windowState) setOrigin(base time.Time) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.dur > 0 && !ws.originSet && !base.IsZero() {
		ws.origin = base
		ws.originSet = true
		clear(ws.rendered)
	}
}

// windowOf maps a packet timestamp to its window index. Timestamps
// before the origin (a later trace starting earlier in event time than
// the first) clamp to window 0.
func (ws *windowState) windowOf(ts time.Time) int {
	if !ws.originSet {
		return 0
	}
	d := ts.Sub(ws.origin)
	if d < 0 {
		return 0
	}
	return int(d / ws.dur)
}

// bankedLocked returns window n's aggregate for banking into, creating
// it on first use. Callers hold ws.mu.
func (ws *windowState) bankedLocked(n int) *epochAgg {
	w := ws.windows[n]
	if w == nil {
		w = newWindowAgg()
		ws.windows[n] = w
	}
	ws.maxWindow = max(ws.maxWindow, n)
	return w
}

// bankDeltas merges worker deltas into their windows, in the order
// given; the hand-off gives every delta of a batch of windows, shard by
// shard (see handoff). A banked delta is consumed: the window adopts
// what it lacks by pointer (the worker moved the delta out at the cut
// and has already copied it into its running cumulative, so nothing
// else holds it) and merges the rest. Arrival order preserves each host
// pair's chronological fold (a pair's deltas all come from one shard, in
// window order), which is what keeps the sum of windows equal to the
// cumulative aggregate.
func (ws *windowState) bankDeltas(deltas []windowDelta) {
	if len(deltas) == 0 {
		return
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	clear(ws.rendered)
	for _, d := range deltas {
		fleet.Merge(ws.bankedLocked(d.window), d.delta)
	}
}

// advance moves the watermark to the start of window lo, the first
// window some replay worker of the trace ending at maxTS has not passed
// (passedAll when none is left), but never past maxTS — the trace
// delta still banks into maxTS's window — and emits the windows that
// completes. finishTrace takes it the rest of the way.
func (ws *windowState) advance(lo int, maxTS time.Time) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if !ws.originSet {
		return
	}
	if start := ws.origin.Add(time.Duration(min(lo, ws.windowOf(maxTS))) * ws.dur); !start.After(maxTS) {
		ws.advanceLocked(start)
	}
}

// advanceLocked lifts the watermark to to (it never moves back) and
// emits every window strictly before the watermark's that has not been
// emitted, each as soon as its report is built; gap windows with no
// traffic at all are enumerated (and emitted) as empty reports. The
// callback runs outside the lock (it may serve HTTP or block). Callers
// hold ws.mu, and one caller at a time emits: a trace's hand-off
// (one banking worker at a time), then its finishTrace after the join.
func (ws *windowState) advanceLocked(to time.Time) {
	if to.After(ws.watermark) {
		ws.watermark = to
	}
	complete := ws.windowOf(ws.watermark)
	ws.maxWindow = max(ws.maxWindow, complete-1)
	for ws.onWindow != nil && ws.nextEmit < complete {
		wr := ws.windowReportLocked(ws.nextEmit)
		ws.nextEmit++
		ws.mu.Unlock()
		ws.onWindow(wr)
		ws.mu.Lock()
	}
}

// finishTrace banks a trace's trace-granular delta (packet censuses,
// scanner removal, load, fan, roles, and the phase-A application
// residue) into the window containing the trace's last packet — the
// window during which those quantities become known — then advances the
// watermark to that packet and emits every newly completed window.
// The windows the replay workers had all passed are out already.
//
// A zero-packet trace has no event time: it banks into the window of
// the current watermark (so window sums still cover it), or into the
// cumulative alone when no packet has ever been seen (or the run is not
// windowed, and so has no clock) — either way the cumulative counts it.
func (ws *windowState) finishTrace(cum, traceDelta *epochAgg, maxTS time.Time) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	fleet.Merge(cum, traceDelta)
	if !ws.originSet {
		return
	}
	at := maxTS
	if at.IsZero() {
		at = ws.watermark
	}
	// The cumulative copied the delta; the window may keep its parts.
	fleet.Merge(ws.bankedLocked(ws.windowOf(at)), traceDelta)
	clear(ws.rendered)
	ws.advanceLocked(maxTS)
}

// aggLocked returns window n's aggregate for reading. Callers hold
// ws.mu, and keep it while they read: a report or an export is built
// from the aggregate banking writes, not from a copy.
func (ws *windowState) aggLocked(n int) *epochAgg {
	if w := ws.windows[n]; w != nil {
		return w
	}
	return emptyWindow
}

// windowReportLocked builds window n's report from its aggregate, in
// place. Callers hold ws.mu.
func (ws *windowState) windowReportLocked(n int) *WindowReport {
	return newWindowReport(ws.dataset, ws.aggLocked(n), n, ws.origin, ws.dur)
}

// newWindowReport renders window n's aggregate, labelled with its span
// [origin + n·dur, origin + (n+1)·dur) on the window clock.
func newWindowReport(dataset string, e *epochAgg, n int, origin time.Time, dur time.Duration) *WindowReport {
	meta := &WindowMeta{Index: n, Start: origin.Add(time.Duration(n) * dur), End: origin.Add(time.Duration(n+1) * dur)}
	return &WindowReport{Index: n, Start: meta.Start, End: meta.End, Report: buildReport(dataset, e, meta)}
}

// Windowing reports whether epoch rotation is enabled.
func (a *Analyzer) Windowing() bool { return a.win.dur > 0 }

// WindowDuration returns the configured window length (0 when
// windowing is disabled).
func (a *Analyzer) WindowDuration() time.Duration { return a.win.dur }

// Watermark returns the event-time high-water mark: the time before
// which every window is complete and emitted — the last packet of the
// last finished trace, or mid-trace the start of the first window a
// replay worker has not passed. Safe for concurrent use with Add*.
func (a *Analyzer) Watermark() time.Time {
	a.win.mu.Lock()
	defer a.win.mu.Unlock()
	return a.win.watermark
}

// LatestWindowIndex returns the highest completed window (-1 when the
// watermark has not passed any window boundary yet). Safe for
// concurrent use with Add*.
func (a *Analyzer) LatestWindowIndex() int {
	a.win.mu.Lock()
	defer a.win.mu.Unlock()
	return a.win.latestLocked()
}

func (ws *windowState) latestLocked() int {
	if !ws.originSet {
		return -1
	}
	return min(ws.windowOf(ws.watermark)-1, ws.maxWindow)
}

// progress reads the window counts and the watermark under one lock:
// read one accessor at a time, a trace ending in between shows a
// completed count from after it beside a window count from before.
func (ws *windowState) progress() (windows, completed int, watermark time.Time) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.maxWindow + 1, ws.latestLocked() + 1, ws.watermark
}

// WindowCount returns the number of known windows (complete or open).
// Safe for concurrent use with Add*.
func (a *Analyzer) WindowCount() int {
	a.win.mu.Lock()
	defer a.win.mu.Unlock()
	return a.win.maxWindow + 1
}

// WindowReport builds the report for window n (false when n is out of
// range). Reports are live views: a window that later traces still feed
// (in event time) reflects everything banked so far. Safe for
// concurrent use with Add*.
func (a *Analyzer) WindowReport(n int) (*WindowReport, bool) {
	a.win.mu.Lock()
	defer a.win.mu.Unlock()
	if n < 0 || n > a.win.maxWindow {
		return nil, false
	}
	return a.win.windowReportLocked(n), true
}

// windowJSON returns the body a report server writes for window n (nil
// when n is out of range), rendered only if the window has not been
// asked for since the view was last written. WindowReport stays the
// un-memoised build: it hands out a *Report its caller may change.
func (a *Analyzer) windowJSON(n int) ([]byte, error) {
	ws := a.win
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if n < 0 || n > ws.maxWindow {
		return nil, nil
	}
	return ws.rendered.body(n, func() *Report { return ws.windowReportLocked(n).Report })
}

// WindowReports builds every window's report in window order, empty
// windows included — the canonical windowed view of the run: late
// banked data is reflected regardless of when (or whether) a window was
// emitted, and the sum of these windows merges to the cumulative
// report, since every banked quantity lives in exactly one window. Nil
// when there are no windows. Safe for concurrent use with Add*.
func (a *Analyzer) WindowReports() []*WindowReport {
	a.win.mu.Lock()
	defer a.win.mu.Unlock()
	var out []*WindowReport
	for n := 0; n <= a.win.maxWindow; n++ {
		out = append(out, a.win.windowReportLocked(n))
	}
	return out
}
