package core

import (
	"fmt"
	"maps"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"enttrace/internal/fleet"
	"enttrace/internal/flows"
	"enttrace/internal/stats"
)

// epochAgg holds every report-feeding accumulator for one span of event
// time: one trace, one time window, or the whole run (the fold of its
// windows). Every trace accumulates into a fresh per-trace delta that
// merges into the window of its last packet, in banking order, so the
// cumulative report is byte-identical however the run was cut. It
// merges by its fields (fleet.Merge): every fold is a sum, a union, an
// exact distribution merge, or an append in banking order, so folding a
// partition of deltas reproduces the aggregate that never split.
type epochAgg struct {
	// Table 1 accumulators.
	totalPackets                            int64
	traceCount                              int
	monitoredHosts, localHosts, remoteHosts fleet.Map[netip.Addr, struct{}]

	// Table 2: network-layer packet counts.
	netLayer *stats.Counter

	// Post-filter connection-level accumulators: what the replay workers
	// fold in (Table 3, Figure 1, the origin mix, the hostile-input
	// census, AgedOut), then the trace-level counts beside them.
	connAggregates
	removedConns int
	totalConns   int
	scanners     fleet.Map[netip.Addr, struct{}]

	fanAgg fleet.Map[netip.Addr, *flows.FanStats] // Figure 2

	load *loadAgg

	// srcErrs is the degraded-run source-error census, one entry per
	// trace that saw errors, in banking order.
	srcErrs []TraceSourceErrors
	// capEvicted counts MaxConns-backstop evictions.
	capEvicted int64

	// apps folds banked application deltas: the phase-A residue at each
	// trace end, and the replay workers' cuts (or, unwindowed, their
	// drained shards) into a window's, which is sparse (newWindowAgg).
	apps *appAggregates
}

// newEpochAgg returns an empty aggregate that can be folded into and
// reported from; it shares nothing with what merges into it.
func newEpochAgg() *epochAgg {
	e := newTraceDelta()
	e.apps = newAppAggregates()
	return e
}

// newWindowAgg returns an empty window aggregate: sparse — its host
// sets, its scanners and fan maps, and its apps's components stay nil
// until a banked delta brings one (the merge adopts it).
func newWindowAgg() *epochAgg {
	return &epochAgg{
		netLayer:       stats.NewCounter(),
		connAggregates: *newConnAggregates(),
		load:           newLoadAgg(),
		apps:           &appAggregates{},
	}
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

// windowStore holds per-window aggregates keyed by site, then window —
// the accumulating panes of the Dataflow model — and answers every window
// read of an Analyzer and of a Fleet alike: a single instance is a
// one-site fleet. An Analyzer's store holds its local site alone, whose
// slots the replay workers and each trace end merge into (bankDeltas,
// finishTrace); a Fleet's holds a site per shipper, whose slots a
// higher-sequence snapshot replaces whole (Fleet.Delta). Reads do not
// tell the two apart: window n's report is built in place from the local
// site when it alone holds the window, or else from a fold of every
// holder in site-name order, and the cumulative report is the fold of
// every slot (heldLocked).
//
// All access is under mu: the replay workers bank and emit while a trace
// is still replaying (see handoff), frames land while a fleet serves, and
// report-server handlers read windows meanwhile.
type windowStore struct {
	mu      sync.Mutex
	dataset string
	// dur and origin are the window clock; dur == 0 means not windowed.
	// originSet records that the clock is pinned: an Analyzer's at its
	// first packet (setOrigin), a Fleet's by its first Hello.
	// An unpinned Analyzer clock maps every timestamp to window 0, so
	// replay workers see no boundary and never cut, and nothing is banked
	// per window.
	dur       time.Duration
	origin    time.Time
	originSet bool
	sites     map[string]*siteState
	// local is an Analyzer's own site (nil in a Fleet); nextEmit is the
	// first of its windows not yet handed to onWindow.
	local    *siteState
	nextEmit int
	onWindow func(*WindowReport)
	// rendered memoises the served bodies. Every method that writes the
	// clock or a slot, or changes what a site owes, clears it: setOrigin,
	// bankDeltas and finishTrace locally; Fleet's Hello, Delta, Lost and
	// Fin, and a Heartbeat that is a site's first contact. advance moves
	// only the local watermark and horizon, which no body is rendered from.
	rendered rendered
}

// siteState is one site's slots, horizon and liveness.
type siteState struct {
	// slots maps window index to the site's aggregate of it. The local
	// site's holds everything banked into the window so far, merged as it
	// arrived — the workers' deltas of every trace that touched it, the
	// trace-granular delta of every trace that ended in it — and stays
	// open after the window completes: a later trace that overlaps it in
	// event time banks into it (late data). An unwindowed run's one slot,
	// 0, is all of it. A remote site's is the latest snapshot it
	// delivered, kept as the bytes it arrived in. A window with no slot
	// reads as emptyWindow.
	slots map[int]slot
	// horizon is the highest window the site has banked, delivered,
	// declared lost, finned through or (local) completed; -1 before any.
	// An unwindowed run's slot 0 is not a window: it leaves it at -1.
	horizon int
	lost    map[int]uint64 // window → seq of its latest LOST declaration
	fin     bool
	finMax  int
	// watermark is the site's event-time watermark. The local site's is
	// the time before which every window is complete and emitted: mid-trace
	// the start of the first window some replay worker has not passed
	// (advance; never past the trace's last packet), at trace end the
	// trace's last packet (finishTrace). A remote site's is the highest its
	// frames have carried.
	watermark time.Time
	connected bool
	lastSeen  time.Time // wall clock of a remote site's last frame
}

// slot is one site's aggregate of one window and the sequence number it
// was delivered under: a remote site's slot is replaced only by a higher
// one, the local site's (seq 0) is merged into. The local site's is the
// aggregate banking merges into (agg); a remote site's is the snapshot's
// encoding (wire), checked when it arrived and never decoded — about a
// tenth of the decoded aggregate's heap.
type slot struct {
	seq  uint64
	agg  *epochAgg
	wire []byte
}

// foldInto merges the slot's aggregate into e: the local site's read in
// place, a remote site's folded straight from its bytes. Folding a local
// slot from bytes would cost what the in-memory fold costs (10.9–18.0 ms
// against 10.8–23.4 ms over the 577 slots of a 12 h windowed-soak op on
// 2 vCPUs), but marshalling the slots first adds 9.7–15.0 ms.
func (sl slot) foldInto(e *epochAgg) {
	if sl.agg != nil {
		fleet.Merge(e, sl.agg)
		return
	}
	if err := fleet.MergeFrom(e, sl.wire); err != nil {
		panic(fmt.Sprintf("core: a snapshot checked on arrival does not fold: %v", err))
	}
}

// foldSlots folds slots, in order, into a fresh aggregate; a single
// local slot it returns as it is, to be read in place. The order is
// cut into contiguous runs, one per GOMAXPROCS goroutine, each folded
// into an aggregate of its own, and the runs' aggregates are merged in
// order. That is exact because merge is associative — (a⊕b)⊕c renders
// as a⊕(b⊕c), which FuzzMergeAssociative pins — and every run starts
// from an empty aggregate, which merges as nothing.
func foldSlots(slots []slot) *epochAgg {
	if len(slots) == 1 && slots[0].agg != nil {
		return slots[0].agg
	}
	parts := make([]*epochAgg, max(1, min(runtime.GOMAXPROCS(0), len(slots))))
	run := func(i int) {
		e := newEpochAgg()
		for _, sl := range slots[i*len(slots)/len(parts) : (i+1)*len(slots)/len(parts)] {
			sl.foldInto(e)
		}
		parts[i] = e
	}
	var wg sync.WaitGroup
	for i := 1; i < len(parts); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(0)
	wg.Wait()
	for _, p := range parts[1:] {
		fleet.Merge(parts[0], p)
	}
	return parts[0]
}

func newWindowStore(dataset string, dur time.Duration) *windowStore {
	return &windowStore{dataset: dataset, dur: dur, sites: make(map[string]*siteState), rendered: make(rendered)}
}

// site returns the named site, creating it on first contact. Callers
// hold st.mu.
func (st *windowStore) site(name string) *siteState {
	s := st.sites[name]
	if s == nil {
		s = &siteState{slots: make(map[int]slot), horizon: -1, lost: make(map[int]uint64), finMax: -1}
		st.sites[name] = s
	}
	return s
}

// setOrigin pins an Analyzer's window clock to the first trace's first
// packet timestamp. Idempotent; windows are aligned to multiples of dur
// from this instant for the Analyzer's lifetime. An unwindowed run has
// no clock to pin.
func (st *windowStore) setOrigin(base time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dur > 0 && !st.originSet && !base.IsZero() {
		st.origin = base
		st.originSet = true
		clear(st.rendered)
	}
}

// windowOf maps a packet timestamp to its window index. Timestamps
// before the origin (a later trace starting earlier in event time than
// the first) clamp to window 0.
func (st *windowStore) windowOf(ts time.Time) int {
	if !st.originSet {
		return 0
	}
	d := ts.Sub(st.origin)
	if d < 0 {
		return 0
	}
	return int(d / st.dur)
}

// bankedLocked returns the local site's aggregate of window n for
// banking into, creating it on first use. Callers hold st.mu.
func (st *windowStore) bankedLocked(n int) *epochAgg {
	s := st.local
	sl := s.slots[n]
	if sl.agg == nil {
		sl.agg = newWindowAgg()
		s.slots[n] = sl
	}
	if st.dur > 0 {
		s.horizon = max(s.horizon, n)
	}
	return sl.agg
}

// bankDeltas merges worker deltas into their windows, in the order
// given; the hand-off gives every delta of a batch of windows, shard by
// shard (see handoff). A banked delta is consumed: the window adopts
// what it lacks by pointer (the worker moved the delta out at the cut,
// so nothing else holds it) and merges the rest. Arrival order preserves
// each host pair's chronological fold (a pair's deltas all come from one
// shard, in window order), which is what keeps the fold of the windows
// equal to the aggregate that never split. Banking through bytes instead
// (Marshal the delta, MergeFrom it) cost 19–39 ms more over the 2 299
// cuts of a 12 h windowed-soak op on 2 vCPUs, against a 170–229 ms
// ingest.
func (st *windowStore) bankDeltas(deltas []windowDelta) {
	if len(deltas) == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	clear(st.rendered)
	for _, d := range deltas {
		fleet.Merge(st.bankedLocked(d.window), d.delta)
	}
}

// advance moves the watermark to the start of window lo, the first
// window some replay worker of the trace ending at maxTS has not passed
// (passedAll when none is left), but never past maxTS — the trace
// delta still banks into maxTS's window — and emits the windows that
// completes. finishTrace takes it the rest of the way.
func (st *windowStore) advance(lo int, maxTS time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.originSet {
		return
	}
	if start := st.origin.Add(time.Duration(min(lo, st.windowOf(maxTS))) * st.dur); !start.After(maxTS) {
		st.advanceLocked(start)
	}
}

// advanceLocked lifts the local watermark to to (it never moves back)
// and emits every window strictly before the watermark's that has not
// been emitted, each as soon as its report is built; gap windows with no
// traffic at all are enumerated (and emitted) as empty reports. The
// callback runs outside the lock (it may serve HTTP or block). Callers
// hold st.mu, and one caller at a time emits: a trace's hand-off (one
// banking worker at a time), then its finishTrace after the join.
func (st *windowStore) advanceLocked(to time.Time) {
	s := st.local
	if to.After(s.watermark) {
		s.watermark = to
	}
	complete := st.windowOf(s.watermark)
	s.horizon = max(s.horizon, complete-1)
	for st.onWindow != nil && st.nextEmit < complete {
		wr := st.windowReportLocked(st.nextEmit)
		st.nextEmit++
		st.mu.Unlock()
		st.onWindow(wr)
		st.mu.Lock()
	}
}

// finishTrace banks a trace's trace-granular delta (packet censuses,
// scanner removal, load, fan, and the phase-A application
// residue) into the window containing the trace's last packet — the
// window during which those quantities become known — then advances the
// watermark to that packet and emits every newly completed window.
// The windows the replay workers had all passed are out already.
//
// A zero-packet trace has no event time: it banks into the window of
// the current watermark, and into window 0 when no packet has been seen
// yet — the clock is not pinned, and every time is in window 0. An
// unwindowed run has no clock: every trace banks into its one slot, 0.
// The window keeps the delta's parts; nothing else holds them.
func (st *windowStore) finishTrace(traceDelta *epochAgg, maxTS time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	at := maxTS
	if at.IsZero() {
		at = st.local.watermark
	}
	fleet.Merge(st.bankedLocked(st.windowOf(at)), traceDelta)
	clear(st.rendered)
	if st.originSet {
		st.advanceLocked(maxTS)
	}
}

// aggLocked returns window n's aggregate for reading: the local site's
// slot, read in place, when no other site holds the window, or else every
// holder's slot folded into a fresh aggregate in site-name order — the
// concatenated-trace banking order; emptyWindow when no site holds it.
// Callers hold st.mu, and keep it while they read: a report or an export
// is built from the aggregate banking writes, not from a copy.
func (st *windowStore) aggLocked(n int) *epochAgg {
	var one slot
	holders := 0
	for _, s := range st.sites {
		if sl, ok := s.slots[n]; ok {
			one, holders = sl, holders+1
		}
	}
	switch {
	case holders == 0:
		return emptyWindow
	case holders == 1 && one.agg != nil:
		return one.agg
	}
	held := make([]slot, 0, holders)
	for _, name := range st.siteNamesLocked() {
		if sl, ok := st.sites[name].slots[n]; ok {
			held = append(held, sl)
		}
	}
	return foldSlots(held)
}

// heldLocked lists the slots the cumulative report folds, in the
// concatenated-trace banking order: every site in name order, each
// site's slots in window order, and of a finned site only the windows up
// to its FIN. An Analyzer's report and a Fleet's both fold this list.
// Callers hold st.mu.
func (st *windowStore) heldLocked() []slot {
	var held []slot
	for _, name := range st.siteNamesLocked() {
		s := st.sites[name]
		for _, w := range slices.Sorted(maps.Keys(s.slots)) {
			if !s.fin || w <= s.finMax {
				held = append(held, s.slots[w])
			}
		}
	}
	return held
}

// windowReportLocked renders window n, labelled with its span
// [origin + n·dur, origin + (n+1)·dur) on the window clock. Callers hold
// st.mu.
func (st *windowStore) windowReportLocked(n int) *WindowReport {
	meta := &WindowMeta{Index: n, Start: st.origin.Add(time.Duration(n) * st.dur), End: st.origin.Add(time.Duration(n+1) * st.dur)}
	return &WindowReport{Index: n, Start: meta.Start, End: meta.End, Report: buildReport(st.dataset, st.aggLocked(n), meta)}
}

// countLocked is the number of windows known: one past the highest site
// horizon. Callers hold st.mu.
func (st *windowStore) countLocked() int {
	n := 0
	for _, s := range st.sites {
		n = max(n, s.horizon+1)
	}
	return n
}

// latestLocked is the window /report/latest serves: the highest any site
// has completed (-1 when none). The local site has completed the windows
// before its watermark; a remote site every window it has delivered,
// declared lost or finned through. Callers hold st.mu.
func (st *windowStore) latestLocked() int {
	latest := -1
	for _, s := range st.sites {
		done := s.horizon
		if s == st.local {
			done = -1
			if st.originSet {
				done = min(st.windowOf(s.watermark)-1, s.horizon)
			}
		}
		latest = max(latest, done)
	}
	return latest
}

func (st *windowStore) siteNamesLocked() []string {
	names := make([]string, 0, len(st.sites))
	for name := range st.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Windowing reports whether the run (or fleet) is cut into windows.
func (st *windowStore) Windowing() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dur > 0
}

// WindowCount returns the number of known windows (complete or open).
// Safe for concurrent use with Add* and with arriving frames.
func (st *windowStore) WindowCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.countLocked()
}

// LatestWindowIndex returns the highest completed window (-1 when there
// is none yet): on an Analyzer the last window its watermark has passed,
// on a Fleet the highest any site has delivered, declared lost or finned
// through. Safe for concurrent use with Add* and with arriving frames.
func (st *windowStore) LatestWindowIndex() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.latestLocked()
}

// WindowReport builds the report for window n (false when the run is not
// windowed or n is out of range). Reports are live views: a window that
// later traces or deliveries still feed reflects everything banked so
// far. Safe for concurrent use with Add* and with arriving frames.
func (st *windowStore) WindowReport(n int) (*WindowReport, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dur <= 0 || n < 0 || n >= st.countLocked() {
		return nil, false
	}
	return st.windowReportLocked(n), true
}

// windowJSON returns the body a report server writes for window n (nil
// when WindowReport has no such window), rendered only if the window has
// not been asked for since the store was last written. WindowReport
// stays the un-memoised build: it hands out a *Report its caller may
// change.
func (st *windowStore) windowJSON(n int) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dur <= 0 || n < 0 || n >= st.countLocked() {
		return nil, nil
	}
	return st.rendered.body(n, func() *Report { return st.windowReportLocked(n).Report })
}

// WindowReports builds every window's report in window order, empty
// windows included — the canonical windowed view of the run: late
// banked data is reflected regardless of when (or whether) a window was
// emitted, and the cumulative report is the fold of these windows,
// since every banked quantity lives in exactly one window. Nil
// when there are no windows. Safe for concurrent use with Add* and with
// arriving frames.
func (st *windowStore) WindowReports() []*WindowReport {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dur <= 0 {
		return nil
	}
	var out []*WindowReport
	for n, count := 0, st.countLocked(); n < count; n++ {
		out = append(out, st.windowReportLocked(n))
	}
	return out
}

// Watermark returns the event-time high-water mark: the time before
// which every window is complete and emitted — the last packet of the
// last finished trace, or mid-trace the start of the first window a
// replay worker has not passed. Safe for concurrent use with Add*.
func (a *Analyzer) Watermark() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.local.watermark
}

// progress reads the window counts and the watermark under one lock:
// read one accessor at a time, a trace ending in between shows a
// completed count from after it beside a window count from before.
func (a *Analyzer) progress() (windows, completed int, watermark time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.countLocked(), a.latestLocked() + 1, a.local.watermark
}
