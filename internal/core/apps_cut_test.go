package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/fleet"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
)

// foldDataset is the reference fold the cut tests compare against: it
// replays a small generated dataset into ap the way a replay worker
// does — per trace, UDP messages in arrival order, then connections in
// first-packet order, through the real packet stage and the real
// accumulation entry points — but never cuts on its own. step runs
// after every replayed message and connection, so the caller decides
// where (if anywhere) the aggregate is cut.
func foldDataset(t *testing.T, ap *appAggregates, step func()) {
	t.Helper()
	cfg := enterprise.D3()
	cfg.Scale = 0.2
	cfg.Monitored = cfg.Monitored[:1]
	a := NewAnalyzer(Options{Dataset: "cut", PayloadAnalysis: true})
	for trace, tr := range gen.GenerateDataset(cfg).Traces {
		// One replay shard, fed by nothing: the tap keeps every datagram.
		feed := newTraceFeed(a.win, make([]*replayWorker, 1), 1)
		var sink *udpTap
		res, err := pipeline.Run(pcap.NewSliceSource(tr.Packets), pipeline.Config{
			Workers: 1,
			NewSink: func(shard int, base time.Time) pipeline.Sink {
				sink = &udpTap{shardSink: newShardSink(&a.opts, a.registry, tr.Prefix, base, feed, shard)}
				return sink
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range sink.events {
			replayUDPEvent(ap, &sink.events[i])
			step()
		}
		for _, rec := range res.SortedConns() {
			c := rec.Conn
			name, _ := a.registry.Classify(c.Proto, c.Key.Src, c.Key.Dst, c.Key.SrcPort, c.Key.DstPort)
			ap.transportConn(c, name)
			if app := connStreamsOf(c); app != nil {
				a.parseConnPayload(ap, trace, c, name, app)
				app.release()
			}
			step()
		}
	}
}

// udpTap keeps, in place of publishing them, the datagrams a one-worker
// sink captures for a one-shard replay: every datagram, in index order.
type udpTap struct {
	*shardSink
	events []udpEvent
}

func (t *udpTap) Publish(int64, bool) {
	t.events = append(t.events, t.in.batchUDP[0]...)
	t.in.batchUDP[0], t.in.batchConns = t.in.batchUDP[0][:0], t.in.batchConns[:0]
}

// appsReport renders an application aggregate (full, or a sparse cut
// delta) through the report builder, the comparison every byte-identity
// differential ultimately makes.
func appsReport(ap *appAggregates) *Report {
	e := newEpochAgg()
	fleet.Merge(e.apps, ap)
	return buildReport("cut", e, nil)
}

// TestAppAggregatesMergeOfCutsMatchesUncut pins the aggregate-level
// epoch contract against the reference it exists to honour: merging
// every cut of an aggregate reproduces the aggregate that was never cut,
// wherever the cuts fall. It is also what keeps cut()'s field
// enumeration from drifting when appAggregates grows a field: a
// statistic the real accumulation paths bank and cut() fails to move
// never reaches the merge and fails the deep comparison.
//
// Every cut is merged twice: into a full aggregate, which copies it, and
// then into a sparse one, which adopts what it lacks and is read in
// place through dense() — the way a window banks and reports. A
// component Merge cannot adopt, or dense() does not fill, fails on the
// sparse side; anything the adoption let the sparse side share with the
// copy shows on the full one, which is compared after every later cut
// has been merged into what was adopted.
func TestAppAggregatesMergeOfCutsMatchesUncut(t *testing.T) {
	uncut := newAppAggregates()
	foldDataset(t, uncut, func() {})
	want := appsReport(uncut)
	if want.HTTP.InternalRequests == 0 || want.Names.DNSTypes == nil || want.Windows.CIFSTotalRequests == 0 {
		t.Fatal("reference fold banked no HTTP/DNS/CIFS statistics; the comparison would be vacuous")
	}

	for _, every := range []int{1, 7, 1000} {
		src := newAppAggregates()
		merged := newAppAggregates()
		window := newWindowAgg()
		steps, cuts := 0, 0
		bank := func() {
			if d := fleet.Cut(src); d != nil {
				fleet.Merge(merged, d)
				fleet.Merge(window.apps, d)
				cuts++
			}
		}
		foldDataset(t, src, func() {
			if steps++; steps%every == 0 {
				bank()
			}
		})
		bank()
		if cuts < 2 {
			t.Fatalf("every=%d: only %d cuts", every, cuts)
		}
		if d := fleet.Cut(src); d != nil {
			t.Errorf("every=%d: cut left banked statistics behind", every)
		}
		if got := appsReport(merged); !reflect.DeepEqual(got, want) {
			t.Errorf("every=%d: merge of %d cuts differs from the uncut aggregate", every, cuts)
		}
		if got := buildReport("cut", window, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("every=%d: %d cuts adopted into a sparse aggregate read differently from the uncut aggregate", every, cuts)
		}
	}
}

// TestAppAggregatesCutIndependent pins that a cut shares no mutable
// state with its source: what the source banks afterwards must not leak
// into the delta, and folding the delta elsewhere must not alias it. One
// level up, a merge into a full epoch aggregate or a fresh set of
// connection sums — the cumulative's, a worker's running cumulative's,
// the fleet's fold — shares no map or pointer with what it merged, for
// every window of a windowed run.
func TestAppAggregatesCutIndependent(t *testing.T) {
	src := newAppAggregates()
	sum := newAppAggregates()
	var delta *appAggregates
	var before *Report
	steps := 0
	// Cut mid-fold, render the delta at once, fold it elsewhere, and keep
	// accumulating into both neighbours.
	foldDataset(t, src, func() {
		if steps++; steps == 400 {
			delta = fleet.Cut(src)
			before = appsReport(delta)
			fleet.Merge(sum, delta)
		}
	})
	if delta == nil {
		t.Fatal("cut of a populated aggregate returned nil")
	}
	foldDataset(t, sum, func() {})
	if after := appsReport(delta); !reflect.DeepEqual(before, after) {
		t.Error("cut delta aliases its source or an aggregate it was merged into")
	}
	if reflect.DeepEqual(before, appsReport(src)) {
		t.Error("source banked nothing after the cut; the check would be vacuous")
	}

	ds := fleetTestDataset(t)
	a := NewAnalyzer(Options{Dataset: "refs", PayloadAnalysis: true, Workers: 2, ReplayWorkers: 2, Window: 5 * time.Minute})
	for i, tr := range ds.Traces[:3] {
		if err := a.AddTrace(TraceInput{Name: traceName(i), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.win.windows) < 3 {
		t.Fatalf("%d windows banked: the check would be vacuous", len(a.win.windows))
	}
	for n, w := range a.win.windows {
		e := newEpochAgg()
		fleet.Merge(e, w)
		sharesNothing(t, fmt.Sprintf("window %d into an epoch", n), e, w)
		ca := newConnAggregates()
		fleet.Merge(ca, &w.connAggregates)
		sharesNothing(t, fmt.Sprintf("window %d into connection sums", n), ca, &w.connAggregates)
	}
}
