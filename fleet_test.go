// The fleet tier's one lossy path, end to end: permanent loss exists
// only as an explicit queue-bound eviction, and every evicted window
// must surface exactly once in the degradation census. The lossless
// paths — clean and under drops, duplicates, reorders and stalls — are
// TestFleetTransportDifferential's rows in grid_test.go.
package enttrace_test

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/fleet"
)

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
	member := point{in: fleetInput, workers: 2, replay: 2, window: time.Minute, source: "packets"}
	a := member.analyze(t, nil, 0, len(fleetInput.get(t).traces))
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
