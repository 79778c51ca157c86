// Transport-level differential tests for the fleet tier: sites shipping
// real snapshot frames over real TCP through the retry/backoff shipper
// must merge to the byte-identical report of a single instance over the
// concatenated traces — clean and under injected connection drops,
// duplicated frames, reorders, and stalls (all non-lossy under the
// at-least-once protocol). Permanent loss exists only as an explicit
// queue-bound eviction, and every evicted window must surface exactly
// once in the degradation census.
package enttrace_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/faults"
	"enttrace/internal/fleet"
	"enttrace/internal/gen"
)

// fleetBlocks generates two classification-self-contained trace blocks —
// one monitored subnet each, generated with its own network instance so
// every block carries its own endpoint-mapper exchanges (dynamic port
// registrations never cross sites; see DESIGN.md "Fleet aggregation").
func fleetBlocks(t *testing.T) (blocks [][]gen.Trace, origin time.Time) {
	t.Helper()
	cfg := enterprise.D3()
	cfg.Scale = 0.2
	for _, subnet := range cfg.Monitored[:2] {
		c := cfg
		c.Monitored = []int{subnet}
		ds := gen.GenerateDataset(c)
		blocks = append(blocks, ds.Traces)
		for _, tr := range ds.Traces {
			if len(tr.Packets) == 0 {
				continue
			}
			if ts := tr.Packets[0].Timestamp; origin.IsZero() || ts.Before(origin) {
				origin = ts
			}
		}
	}
	return blocks, origin
}

// fleetMember builds one windowed analyzer over the given trace blocks,
// sharing the fleet's window clock and owning the global trace ordinals
// starting at base.
func fleetMember(t *testing.T, blocks [][]gen.Trace, base int, origin time.Time) *core.Analyzer {
	t.Helper()
	a := core.NewAnalyzer(core.Options{
		Dataset:         "fleet",
		PayloadAnalysis: true,
		Workers:         2,
		ReplayWorkers:   2,
		Window:          time.Minute,
		WindowOrigin:    origin,
		TraceBase:       base,
	})
	n := base
	for _, block := range blocks {
		for _, tr := range block {
			name := fmt.Sprintf("trace-%02d", n)
			n++
			if err := a.AddTrace(core.TraceInput{Name: name, Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

// shipAll streams a site's full export set to the aggregator at addr
// through a real shipper, optionally under an injected network fault
// schedule, and asserts the drain completed without data loss.
func shipAll(t *testing.T, addr, site string, a *core.Analyzer, sched faults.NetSchedule, wantReconnect bool) {
	var inj *faults.NetInjector
	if len(sched.Events) > 0 {
		inj = faults.NewNetInjector(sched)
		inj.SetSleep(func(time.Duration) {}) // replay stalls instantly
	}
	sh, err := fleet.NewShipper(fleet.ShipperConfig{
		Addr:      addr,
		Site:      site,
		Hello:     a.FleetHello(),
		Backoff:   fleet.Backoff{Base: 200 * time.Microsecond, Max: 2 * time.Millisecond},
		NetFaults: inj,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Errorf("site %s: %v", site, err)
		return
	}
	exports, err := a.ExportAll()
	if err != nil {
		t.Errorf("site %s export: %v", site, err)
		return
	}
	maxWindow := -1
	var watermark int64
	for _, we := range exports {
		sh.ShipDelta(we.Window, we.Watermark, we.Payload)
		if we.Window > maxWindow {
			maxWindow = we.Window
		}
		watermark = we.Watermark
	}
	sh.Fin(maxWindow, watermark)
	// A trailing heartbeat flushes a FIN held by a reorder event at the
	// tail of the stream (untracked, so it costs nothing when clean).
	sh.Heartbeat(watermark)
	if err := sh.Close(); err != nil {
		t.Errorf("site %s close: %v", site, err)
	}
	if lw := sh.LostWindows(); len(lw) != 0 {
		t.Errorf("site %s lost windows under non-lossy faults: %v", site, lw)
	}
	if wantReconnect {
		if st := sh.Stats(); st.Reconnects == 0 || st.Resends == 0 {
			t.Errorf("site %s: drop schedule fired but no reconnect/resend recorded: %+v", site, st)
		}
	}
}

// TestFleetTransportDifferential is the end-to-end tentpole invariant:
// two sites analyzing disjoint trace blocks and shipping over TCP must
// merge to the byte-identical cumulative and per-window reports of a
// single instance — clean, and under every non-lossy fault schedule.
func TestFleetTransportDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet transport analysis in -short mode")
	}
	blocks, origin := fleetBlocks(t)

	single := fleetMember(t, blocks, 0, origin)
	singleFinal, err := core.MarshalReport(single.Report())
	if err != nil {
		t.Fatal(err)
	}
	singleWins := single.WindowReports()

	siteA := fleetMember(t, blocks[:1], 0, origin)
	siteB := fleetMember(t, blocks[1:], len(blocks[0]), origin)

	scenarios := []struct {
		name   string
		scheds [2]faults.NetSchedule // per-site injection schedules
		drops  [2]bool               // whether the schedule forces reconnects
	}{
		{name: "clean"},
		{"drop-dup-reorder", [2]faults.NetSchedule{
			{Events: []faults.NetEvent{
				{Kind: faults.ConnDrop, Index: 1},
				{Kind: faults.DupFrame, Index: 3},
				{Kind: faults.ReorderFrame, Index: 4},
				{Kind: faults.NetStall, Index: 2, Delay: time.Millisecond},
			}},
			{Events: []faults.NetEvent{
				{Kind: faults.ConnDrop, Index: 2},
				{Kind: faults.ConnDrop, Index: 3},
				{Kind: faults.DupFrame, Index: 5},
			}},
		}, [2]bool{true, true}},
		{"random-seeded", [2]faults.NetSchedule{
			faults.RandomNetSchedule(11, 5, 20),
			faults.RandomNetSchedule(23, 5, 20),
		}, [2]bool{false, false}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			sink := core.NewFleet(core.FleetConfig{Dataset: "fleet", ExpectSites: []string{"site-a", "site-b"}})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			agg := fleet.NewAggregator(ln, sink, t.Logf)
			served := make(chan struct{})
			go func() { agg.Serve(); close(served) }()
			defer func() { agg.Close(); <-served }()
			addr := ln.Addr().String()

			var wg sync.WaitGroup
			for i, a := range []*core.Analyzer{siteA, siteB} {
				i, a := i, a
				wg.Add(1)
				go func() {
					defer wg.Done()
					shipAll(t, addr, fmt.Sprintf("site-%c", 'a'+i), a, sc.scheds[i], sc.drops[i])
				}()
			}
			wg.Wait()

			st := sink.Status()
			if !st.FinalReady || st.LostWindows != 0 || len(st.MissingSites) != 0 {
				t.Fatalf("fleet status after drain = %+v, want final-ready with nothing lost", st)
			}
			r := sink.Report()
			if r.Fleet != nil {
				t.Errorf("complete fleet carries a degradation census: %+v", r.Fleet)
			}
			got, err := core.MarshalReport(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, singleFinal) {
				t.Errorf("fleet report over TCP differs from single instance (%d vs %d bytes)", len(got), len(singleFinal))
			}
			fleetWins := sink.WindowReports()
			if len(fleetWins) != len(singleWins) {
				t.Fatalf("fleet has %d windows, single instance %d", len(fleetWins), len(singleWins))
			}
			for n := range singleWins {
				fw, err := core.MarshalReport(fleetWins[n].Report)
				if err != nil {
					t.Fatal(err)
				}
				sw, err := core.MarshalReport(singleWins[n].Report)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fw, sw) {
					t.Errorf("window %d: fleet report differs from single instance", n)
				}
			}
		})
	}
}

// TestFleetTransportPermanentLoss drives the one genuinely lossy path —
// the shipper's bounded-queue eviction — end to end: the first
// connection goes to a server that never acknowledges, so the queue
// overflows deterministically; after reconnecting to the real
// aggregator, the surviving deltas and the LOST declarations for every
// evicted window arrive, and each lost window appears exactly once in
// the degradation census. The transport-fed fleet must match an in-core
// fold given the same deliveries and losses.
func TestFleetTransportPermanentLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet transport analysis in -short mode")
	}
	blocks, origin := fleetBlocks(t)
	a := fleetMember(t, blocks, 0, origin)
	exports, err := a.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) < 4 {
		t.Fatalf("dataset spans only %d windows; the eviction walk needs 4+", len(exports))
	}
	nWin := len(exports)
	const queueLimit = 2

	sink := core.NewFleet(core.FleetConfig{Dataset: "fleet"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agg := fleet.NewAggregator(ln, sink, t.Logf)
	served := make(chan struct{})
	go func() { agg.Serve(); close(served) }()
	defer func() { agg.Close(); <-served }()

	// First dial lands on a black-hole server that reads frames but never
	// acks; every later dial reaches the real aggregator. With the queue
	// bounded at 2 and no acks arriving, deltas 0..nWin-3 are evicted in
	// order, each replaced by a LOST frame. The black hole hangs up after
	// the full send sequence: HELLO + nWin deltas + (nWin-2) LOSTs + FIN.
	hole, holePeer := net.Pipe()
	holeDone := make(chan struct{})
	go func() {
		defer close(holeDone)
		defer holePeer.Close()
		br := bufio.NewReader(holePeer)
		for seen := 0; seen < 2*nWin; seen++ {
			if _, err := fleet.ReadFrame(br); err != nil {
				t.Errorf("black hole read %d: %v", seen, err)
				return
			}
		}
	}()
	var dialMu sync.Mutex
	dials := 0
	dial := func() (net.Conn, error) {
		dialMu.Lock()
		defer dialMu.Unlock()
		dials++
		if dials == 1 {
			return hole, nil
		}
		return net.Dial("tcp", ln.Addr().String())
	}

	sh, err := fleet.NewShipper(fleet.ShipperConfig{
		Site:       "site-a",
		Hello:      a.FleetHello(),
		Dial:       dial,
		Backoff:    fleet.Backoff{Base: 200 * time.Microsecond, Max: 2 * time.Millisecond},
		QueueLimit: queueLimit,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, we := range exports {
		sh.ShipDelta(we.Window, we.Watermark, we.Payload)
	}
	sh.Fin(nWin-1, 0)
	<-holeDone
	if err := sh.Close(); err != nil {
		t.Fatalf("close after reconnect: %v", err)
	}

	wantLost := make([]int, 0, nWin-queueLimit)
	for w := 0; w < nWin-queueLimit; w++ {
		wantLost = append(wantLost, w)
	}
	gotLost := sh.LostWindows()
	if len(gotLost) != len(wantLost) {
		t.Fatalf("shipper lost %v, want %v", gotLost, wantLost)
	}
	for i, w := range wantLost {
		if gotLost[i] != w {
			t.Fatalf("shipper lost %v, want %v", gotLost, wantLost)
		}
	}

	st := sink.Status()
	if !st.FinalReady {
		t.Fatalf("fleet not final after fin: %+v", st)
	}
	if st.LostWindows != len(wantLost) {
		t.Errorf("status counts %d lost windows, want %d", st.LostWindows, len(wantLost))
	}
	r := sink.Report()
	if r.Fleet == nil || len(r.Fleet.Sites) != 1 {
		t.Fatalf("census = %+v, want one degraded site", r.Fleet)
	}
	site := r.Fleet.Sites[0]
	if !site.Fin || site.Windows != queueLimit {
		t.Errorf("census site = %+v, want finned with %d delivered windows", site, queueLimit)
	}
	if len(site.MissingWindows) != 0 {
		t.Errorf("census reports missing windows %v; every gap was declared lost", site.MissingWindows)
	}
	// Exactly once: the census loss list equals the shipper's, no
	// duplicates, no overlap with delivered windows.
	if len(site.LostWindows) != len(wantLost) {
		t.Fatalf("census lost %v, want %v", site.LostWindows, wantLost)
	}
	for i, w := range wantLost {
		if site.LostWindows[i] != w {
			t.Fatalf("census lost %v, want %v exactly once each", site.LostWindows, wantLost)
		}
	}

	// Differential against an in-core fold of the same partial delivery:
	// the transport path must not change what a loss merges to.
	ref := core.NewFleet(core.FleetConfig{Dataset: "fleet"})
	if err := ref.Hello("site-a", a.FleetHello()); err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	for _, we := range exports[nWin-queueLimit:] {
		seq++
		if err := ref.Delta("site-a", we.Window, seq, we.Watermark, we.Payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range wantLost {
		seq++
		if err := ref.Lost("site-a", w, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Fin("site-a", nWin-1, seq+1, 0); err != nil {
		t.Fatal(err)
	}
	want, err := core.MarshalReport(ref.Report())
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.MarshalReport(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("transport-fed degraded report differs from in-core fold (%d vs %d bytes)", len(got), len(want))
	}
}
