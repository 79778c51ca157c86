package core

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"testing"
	"time"

	"enttrace/internal/categories"
	"enttrace/internal/enterprise"
	"enttrace/internal/faults"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
	"enttrace/internal/scan"
)

// gateSource hands over every packet of a trace but the last, then
// blocks until it is opened.
type gateSource struct {
	pkts []*pcap.Packet
	next int
	// held is closed when the source blocks; open releases it.
	held, open chan struct{}
}

func newGateSource(pkts []*pcap.Packet) *gateSource {
	return &gateSource{pkts: pkts, held: make(chan struct{}), open: make(chan struct{})}
}

func (g *gateSource) Next() (*pcap.Packet, error) {
	if g.next == len(g.pkts)-1 {
		close(g.held)
		<-g.open
	}
	if g.next == len(g.pkts) {
		return nil, io.EOF
	}
	g.next++
	return g.pkts[g.next-1], nil
}

// TestUDPPassRunsDuringRead pins where the UDP message pass runs: while
// the trace is still being read. With the source blocked before its last
// packet — every other packet handed over, end of input not yet seen —
// at least 90 % of the trace's datagrams must already be replayed, at
// every pipeline and replay width, batch and windowed. What may be left
// is what the router has not yet flushed to a worker and what lies past
// the lowest shard watermark: a few batches, of a trace of ≈38 k packets.
func TestUDPPassRunsDuringRead(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 1
	pkts := gen.GenerateScheduledTrace(enterprise.NewNetwork(cfg), cfg.Monitored[0], 0, gen.DefaultSchedule().Repeat(time.Hour))
	prefix := enterprise.SubnetPrefix(cfg.Monitored[0])
	ref := NewAnalyzer(Options{PayloadAnalysis: true})
	if err := ref.AddTrace(TraceInput{Name: "ref", Monitored: prefix, Packets: pkts}); err != nil {
		t.Fatal(err)
	}
	total := ref.feed.replayed.Load()
	if total < 1000 {
		t.Fatalf("%d datagrams in %d packets: too few to tell", total, len(pkts))
	}
	for _, workers := range []int{1, 2, 4} {
		for _, replay := range []int{1, 3} {
			for _, window := range []time.Duration{0, time.Minute} {
				t.Run(fmt.Sprintf("workers=%d/replay=%d/window=%v", workers, replay, window), func(t *testing.T) {
					a := NewAnalyzer(Options{PayloadAnalysis: true, Workers: workers, ReplayWorkers: replay, Window: window})
					src := newGateSource(pkts)
					done := make(chan error, 1)
					go func() { done <- a.AddTraceSource("gate", prefix, src) }()
					<-src.held
					// The pipeline workers drain what was routed to them and
					// replay as they publish; give them until they are quiet.
					want := total * 9 / 10
					during := a.feed.replayed.Load()
					for deadline := time.Now().Add(10 * time.Second); during < want && time.Now().Before(deadline); {
						time.Sleep(5 * time.Millisecond)
						during = a.feed.replayed.Load()
					}
					close(src.open)
					if err := <-done; err != nil {
						t.Fatal(err)
					}
					if got := a.feed.replayed.Load(); got != total {
						t.Fatalf("%d datagrams replayed in all, the reference replayed %d", got, total)
					}
					if during < want {
						t.Errorf("%d of %d datagrams replayed before end of input, want at least %d", during, total, want)
					}
					t.Logf("%d of %d datagrams replayed before end of input", during, total)
				})
			}
		}
	}
}

// TestFeedKeepsNothingOfATrace pins that a trace does not outlive its
// Add* in the feed: the feed lives as long as the Analyzer and keeps its
// buffers, so anything those buffers still point at — a connection and
// its streams, a datagram's payload, a window delta — would stay
// reachable until the next trace, or for good after the last one.
func TestFeedKeepsNothingOfATrace(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 1
	pkts := gen.GenerateScheduledTrace(enterprise.NewNetwork(cfg), cfg.Monitored[0], 0, gen.DefaultSchedule().Repeat(time.Hour))
	for _, window := range []time.Duration{0, time.Minute} {
		a := NewAnalyzer(Options{PayloadAnalysis: true, Workers: 2, ReplayWorkers: 3, Window: window})
		if err := a.AddTrace(TraceInput{Name: "t", Monitored: enterprise.SubnetPrefix(cfg.Monitored[0]), Packets: pkts}); err != nil {
			t.Fatal(err)
		}
		f := a.feed
		if cap(f.conns) < 1000 {
			t.Fatalf("window=%v: the feed ordered %d connections: too few to tell", window, cap(f.conns))
		}
		held := 0
		for _, c := range f.conns[:cap(f.conns)] {
			held += btoi(c != nil)
		}
		for _, in := range f.in {
			for _, fc := range in.pending[:cap(in.pending)] {
				held += btoi(fc.conn != nil)
			}
		}
		for r, runs := range f.udp {
			for _, run := range runs {
				for _, ev := range run[:cap(run)] {
					held += btoi(ev.payload != nil)
				}
			}
			for _, d := range f.passes[r].cuts.deltas[:cap(f.passes[r].cuts.deltas)] {
				held += btoi(d.delta != nil)
			}
		}
		if held > 0 {
			t.Errorf("window=%v: the feed still points at %d connections, datagrams or deltas of a finished trace", window, held)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// countingSource counts the Next calls made on it.
type countingSource struct {
	pcap.PacketSource
	calls int
}

func (c *countingSource) Next() (*pcap.Packet, error) {
	c.calls++
	return c.PacketSource.Next()
}

// TestFailFastAbortIsSticky pins the FailFast contract now that the UDP
// pass runs during the read: a read@N fault aborts the trace after the
// replay has taken in part of its datagrams, so the Analyzer keeps the
// error, and every later Add* returns it without reading a byte.
func TestFailFastAbortIsSticky(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 1
	pkts := gen.GenerateScheduledTrace(enterprise.NewNetwork(cfg), cfg.Monitored[0], 0, gen.DefaultSchedule().Repeat(time.Hour))
	prefix := enterprise.SubnetPrefix(cfg.Monitored[0])
	for _, workers := range []int{1, 4} {
		sched, err := faults.ParseSpec(fmt.Sprintf("read@%d", len(pkts)/2), faults.Packets)
		if err != nil {
			t.Fatal(err)
		}
		in := &faults.Injector{Schedule: sched}
		a := NewAnalyzer(Options{PayloadAnalysis: true, Workers: workers})
		abort := a.AddTraceSource("faulted", prefix, in.Wrap(pcap.NewSliceSource(pkts)))
		if abort == nil {
			t.Fatalf("workers=%d: read@%d did not abort the trace", workers, len(pkts)/2)
		}
		if a.feed.replayed.Load() == 0 {
			t.Fatalf("workers=%d: the aborted trace left nothing in the replay shards; the check would be vacuous", workers)
		}
		seen := a.PacketsSeen()

		src := &countingSource{PacketSource: pcap.NewSliceSource(pkts)}
		if err := a.AddTraceSource("after", prefix, src); err != abort {
			t.Errorf("workers=%d: AddTraceSource after the abort returned %v, want %v", workers, err, abort)
		}
		if src.calls != 0 {
			t.Errorf("workers=%d: AddTraceSource read its source %d times after the abort", workers, src.calls)
		}
		if err := a.AddTrace(TraceInput{Name: "after", Monitored: prefix, Packets: pkts}); err != abort {
			t.Errorf("workers=%d: AddTrace after the abort returned %v, want %v", workers, err, abort)
		}
		r := bytes.NewReader([]byte("not even a pcap header"))
		if err := a.AddTraceReader("after", prefix, r); err != abort {
			t.Errorf("workers=%d: AddTraceReader after the abort returned %v, want %v", workers, err, abort)
		}
		if r.Len() != len("not even a pcap header") {
			t.Errorf("workers=%d: AddTraceReader read %d bytes after the abort", workers, len("not even a pcap header")-r.Len())
		}
		if got := a.PacketsSeen(); got != seen {
			t.Errorf("workers=%d: %d packets counted after the abort, %d before", workers, got, seen)
		}
	}
}

// TestRunJSONIndependentOfBatchSize is the batch-size axis: batches are
// the granularity at which the packet stage hands connections and
// datagrams to the replay, so where they end must not move a byte. A
// small D3 dataset and two evasion scenarios, at batch sizes 1, 7 and
// 256 across the {1,4}×{1,3} worker grid, batch and minute-windowed, must
// each write one run JSON.
func TestRunJSONIndependentOfBatchSize(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 0.4
	cfg.Monitored = cfg.Monitored[:2]
	inputs := map[string][]gen.Trace{"D3": gen.GenerateDataset(cfg).Traces}
	for _, sc := range gen.EvasionScenarios()[:2] {
		inputs[sc.Name] = []gen.Trace{sc.Build()}
	}
	for name, traces := range inputs {
		raws := make([][]byte, len(traces))
		for i, tr := range traces {
			var buf bytes.Buffer
			if err := gen.WriteTrace(&buf, enterprise.Config{Snaplen: 65535}, tr); err != nil {
				t.Fatal(err)
			}
			raws[i] = buf.Bytes()
		}
		for _, window := range []time.Duration{0, time.Minute} {
			var want []byte
			for _, batch := range []int{256, 7, 1} {
				for _, workers := range []int{1, 4} {
					for _, replay := range []int{1, 3} {
						a := NewAnalyzer(Options{Dataset: name, KnownScanners: enterprise.KnownScanners(), PayloadAnalysis: true,
							Workers: workers, ReplayWorkers: replay, Window: window, batchSize: batch})
						for i, raw := range raws {
							if err := a.AddTraceReader(fmt.Sprint(i), traces[i].Prefix, bytes.NewReader(raw)); err != nil {
								t.Fatal(err)
							}
						}
						var got bytes.Buffer
						if err := WriteRunJSON(&got, a.WindowReports(), a.Report()); err != nil {
							t.Fatal(err)
						}
						if want == nil {
							if name == "D3" && (a.feed.replayed.Load() < 1000 || window > 0 && a.WindowCount() < 10) {
								t.Fatalf("D3 window=%v: %d datagrams, %d windows: too thin to pin the hand-off", window, a.feed.replayed.Load(), a.WindowCount())
							}
							want = got.Bytes()
						} else if !bytes.Equal(got.Bytes(), want) {
							t.Errorf("%s window=%v: batch %d at %d pipeline / %d replay workers writes different run JSON than batch 256 at 1/1",
								name, window, batch, workers, replay)
						}
					}
				}
			}
		}
	}
}

// TestFeedOrderMatchesSortedConns holds the order the feed builds while
// the trace is read to the one the pipeline gives after it: the feed's
// connection list is Result.SortedConns, and each replay shard's list is
// the subsequence of it whose host pairs map there — at every pipeline
// width and batch size, with the idle sweep splitting connections.
func TestFeedOrderMatchesSortedConns(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 0.3
	cfg.Monitored = cfg.Monitored[:1]
	pkts := gen.GenerateDataset(cfg).Traces[0].Packets
	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{1, 7, 256} {
			opts := Options{PayloadAnalysis: true, Workers: workers, ReplayWorkers: 3}
			feed := testFeed(opts)
			res, err := pipeline.Run(pcap.NewSliceSource(pkts), pipeline.Config{
				Workers:   workers,
				BatchSize: batch,
				Flows:     flows.Config{IdleTimeout: 10 * time.Second},
				NewSink: func(shard int, base time.Time) pipeline.Sink {
					return newShardSink(&opts, categories.NewRegistry(), enterprise.EnterprisePrefix, base, feed, shard)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			feed.finish()
			recs := res.SortedConns()
			if len(feed.conns) != len(recs) || len(recs) < 1000 {
				t.Fatalf("workers=%d batch=%d: the feed ordered %d connections, SortedConns %d", workers, batch, len(feed.conns), len(recs))
			}
			byShard := make([][]int32, len(feed.byShard))
			for i, rec := range recs {
				if feed.conns[i] != rec.Conn {
					t.Fatalf("workers=%d batch=%d: connection %d differs from SortedConns'", workers, batch, i)
				}
				s := pairShard(rec.Conn.Key.Src, rec.Conn.Key.Dst, len(byShard))
				byShard[s] = append(byShard[s], int32(i))
			}
			for s := range byShard {
				if !slices.Equal(feed.byShard[s], byShard[s]) {
					t.Fatalf("workers=%d batch=%d: replay shard %d lists %d connections, the partition of SortedConns %d", workers, batch, s, len(feed.byShard[s]), len(byShard[s]))
				}
			}
		}
	}
}

// settleWatch notes, for each connection a sink creates, whether its
// first packet settled it — it is not TCP, or that packet is a pure SYN —
// as read from the packet, beside the sink that reads it from the
// connection.
type settleWatch struct {
	*shardSink
	settled map[*flows.Conn]bool
}

func (w *settleWatch) Packet(idx int64, pk *pcap.Packet, p *layers.Packet, conn *flows.Conn, dir flows.Dir) {
	if conn != nil && idx == conn.FirstIdx {
		w.settled[conn] = conn.Proto != layers.ProtoTCP ||
			p.Layers.Has(layers.LayerTCP) && p.TCP.Flags&(layers.TCPSyn|layers.TCPAck) == layers.TCPSyn
	}
	w.shardSink.Packet(idx, pk, p, conn, dir)
}

// regressed rewrites a trace as a capture whose clock stepped back half
// an hour a third of the way in, for a stretch of a hundred packets.
func regressed(pkts []*pcap.Packet) []*pcap.Packet {
	out := make([]*pcap.Packet, len(pkts))
	for i, p := range pkts {
		cp := *p
		if at := len(pkts) / 3; i >= at && i < at+100 {
			cp.Timestamp = cp.Timestamp.Add(-30 * time.Minute)
		}
		out[i] = &cp
	}
	return out
}

// TestCensusDuringReadMatchesTakeCensus holds the census the feed takes
// while a trace is read to the one taken after it: per trace, Finish over
// the feed's connections must equal scan.TakeCensus over them in every
// field, at pipeline widths 1, 2 and 4 — over all five datasets, every
// evasion scenario, a capture that starts without its SYNs (connections
// reorient after their first packet, so the census must stop at the first
// that may) and one whose clock steps back (the census must stop at the
// regression and Finish must sort). Before Finish, the census must not
// have observed an unsettled connection or anything past a regression.
func TestCensusDuringReadMatchesTakeCensus(t *testing.T) {
	type input struct {
		name    string
		tr      gen.Trace
		payload bool
	}
	var inputs []input
	for _, cfg := range enterprise.AllDatasets() {
		cfg.Scale = 0.05
		cfg.Monitored = cfg.Monitored[:2]
		cfg.PerTap = 1
		payload := cfg.Snaplen >= 1500
		for i, tr := range gen.GenerateDataset(cfg).Traces {
			inputs = append(inputs, input{fmt.Sprintf("%s/%d", cfg.Name, i), tr, payload})
			if i == 0 {
				syn, back := tr, tr
				syn.Packets, back.Packets = synLessStart(tr.Packets), regressed(tr.Packets)
				inputs = append(inputs, input{cfg.Name + "/syn-less", syn, payload}, input{cfg.Name + "/regressed", back, payload})
			}
		}
	}
	for _, sc := range gen.EvasionScenarios() {
		inputs = append(inputs, input{sc.Name, sc.Build(), true})
	}
	known := enterprise.KnownScanners()
	var observed, total, stoppedUnsettled, stoppedRegressed int
	for _, in := range inputs {
		for _, workers := range []int{1, 2, 4} {
			opts := Options{KnownScanners: known, PayloadAnalysis: in.payload, Workers: workers}
			feed := testFeed(opts)
			registry := categories.NewRegistry()
			var watches []*settleWatch
			res, err := pipeline.Run(pcap.NewSliceSource(in.tr.Packets), pipeline.Config{
				Workers: workers,
				NewSink: func(shard int, base time.Time) pipeline.Sink {
					w := &settleWatch{shardSink: newShardSink(&opts, registry, in.tr.Prefix, base, feed, shard), settled: make(map[*flows.Conn]bool)}
					watches = append(watches, w)
					return w
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			feed.finish()
			conns := feed.conns
			// The census may have observed at most the leading run of
			// settled connections in start order.
			bound := len(conns)
			for i, c := range conns {
				settled := false
				for _, w := range watches {
					if s, ok := w.settled[c]; ok {
						settled = s
					}
				}
				if !settled || i > 0 && c.Start.Before(conns[i-1].Start) {
					bound = i
					if settled {
						stoppedRegressed++
					} else {
						stoppedUnsettled++
					}
					break
				}
			}
			n := feed.census.Len()
			if n > bound {
				t.Errorf("%s workers=%d: the census observed %d connections before end of input; only the first %d were settled and in start order", in.name, workers, n, bound)
			}
			observed += n
			total += len(conns)

			if diff := censusDiff(feed.census.Finish(conns), scan.TakeCensus(conns, known)); diff != "" {
				t.Errorf("%s workers=%d: %s of the census taken during the read differs from TakeCensus's", in.name, workers, diff)
			}
			for _, rec := range res.SortedConns() {
				if app := connStreamsOf(rec.Conn); app != nil {
					app.release()
				}
			}
		}
	}
	t.Logf("%d of %d connections observed before end of input; stopped %d times at an unsettled connection, %d at a regression",
		observed, total, stoppedUnsettled, stoppedRegressed)
	if stoppedUnsettled == 0 || stoppedRegressed == 0 || observed < total/2 {
		t.Errorf("the inputs never stopped the census at an unsettled connection (%d) or a regression (%d), or it observed too little (%d of %d)",
			stoppedUnsettled, stoppedRegressed, observed, total)
	}
}

// censusDiff names the first field in which two censuses differ, or
// returns "".
func censusDiff(got, want *scan.Census) string {
	switch {
	case !slices.Equal(got.Kept, want.Kept):
		return "Kept"
	case !slices.Equal(got.PairOf, want.PairOf):
		return "PairOf"
	case !slices.Equal(got.Pairs, want.Pairs):
		return "Pairs"
	case !slices.Equal(got.Scanners, want.Scanners):
		return "Scanners"
	case got.RemovedConns != want.RemovedConns:
		return "RemovedConns"
	}
	return ""
}

// TestCensusRunsDuringRead pins where the census observes connections:
// while the trace is read. With the source blocked before its last
// packet, at least 90 % of the trace's connections must already be
// observed, for a header-only D2 trace and a D3 trace with payload, at
// every pipeline width, batch and windowed. What may be left is what lies
// past the lowest shard watermark, as for the UDP pass: a few batches, of
// a trace of ≈5 400 connections.
func TestCensusRunsDuringRead(t *testing.T) {
	for _, cfg := range []enterprise.Config{enterprise.D2(), enterprise.D3()} {
		cfg.Scale = 1
		pkts := gen.GenerateScheduledTrace(enterprise.NewNetwork(cfg), cfg.Monitored[0], 0, gen.DefaultSchedule().Repeat(3*time.Hour))
		prefix := enterprise.SubnetPrefix(cfg.Monitored[0])
		res, err := pipeline.Run(pcap.NewSliceSource(pkts), pipeline.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		total := len(res.SortedConns())
		if total < 1000 {
			t.Fatalf("%s: %d connections in %d packets: too few to tell", cfg.Name, total, len(pkts))
		}
		for _, workers := range []int{1, 2, 4} {
			for _, window := range []time.Duration{0, time.Minute} {
				t.Run(fmt.Sprintf("%s/workers=%d/window=%v", cfg.Name, workers, window), func(t *testing.T) {
					a := NewAnalyzer(Options{PayloadAnalysis: cfg.Snaplen >= 1500, Workers: workers, Window: window})
					src := newGateSource(pkts)
					done := make(chan error, 1)
					go func() { done <- a.AddTraceSource("gate", prefix, src) }()
					<-src.held
					want := int64(total) * 9 / 10
					during := a.feed.observed.Load()
					for deadline := time.Now().Add(10 * time.Second); during < want && time.Now().Before(deadline); {
						time.Sleep(5 * time.Millisecond)
						during = a.feed.observed.Load()
					}
					close(src.open)
					if err := <-done; err != nil {
						t.Fatal(err)
					}
					if during < want {
						t.Errorf("%d of %d connections observed before end of input, want at least %d", during, total, want)
					}
					t.Logf("%d of %d connections observed before end of input", during, total)
				})
			}
		}
	}
}

// FuzzCensusBuilder feeds fuzzed connection lists through the feed as
// two pipeline shards would publish them — in fuzzed batches and
// watermarks, some connections unsettled and reoriented before end of
// input, some starting before their predecessor — and holds the census it
// takes to scan.TakeCensus over the final connections. The fuzz's own
// goroutine plays the census goroutine, taking each wake-up a publish
// leaves, so where the census stands when a connection reorients is
// decided by the fuzz bytes alone. Three bytes a connection: source and
// flags, destination, and how it is published.
func FuzzCensusBuilder(f *testing.F) {
	var sweepSeed []byte
	for i := 0; i < 60; i++ {
		sweepSeed = append(sweepSeed, 1, byte(i*4), byte(i%4)<<1|byte(i%2))
	}
	f.Add(sweepSeed)
	f.Add([]byte{})
	f.Add([]byte{0x45, 3, 0x04, 2, 200, 0x0c, 0x81, 9, 0x13, 0x41, 250, 0x06, 2, 3, 0x0e})
	f.Fuzz(func(t *testing.T, data []byte) {
		addr := func(b byte) netip.Addr {
			switch {
			case b < 128:
				return netip.AddrFrom4([4]byte{10, 0, 0, b})
			case b < 192:
				return netip.AddrFrom4([4]byte{198, 51, 100, b})
			default:
				return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: b})
			}
		}
		known := []netip.Addr{addr(5), netip.MustParseAddr("131.243.9.9")}
		var idx int64
		feed := NewAnalyzer(Options{Workers: 2, ReplayWorkers: 1}).ensureFeed()
		feed.census, feed.censusWake = scan.NewBuilder(known, 0), make(chan struct{}, 1)
		publish := func(q int, more bool) {
			feed.publish(q, idx, more)
			select {
			case <-feed.censusWake:
				feed.observe()
			default:
			}
		}
		var flip []*flows.Conn
		var ts int64
		for ; len(data) >= 3; data = data[3:] {
			// Source byte: bit 7 steps the clock back, bit 6 leaves the
			// connection unsettled. Publish byte: bit 0 ties the previous
			// start, bit 1 picks the pipeline shard, bit 2 publishes its
			// batch after this connection with the worker idle when bit 3
			// is set, and bit 4 makes the connection multicast.
			src, dst, pub := data[0], data[1], data[2]
			switch {
			case src&0x80 != 0:
				ts -= 2
			case pub&1 == 0:
				ts++
			}
			c := censusConn(addr(src&0x3f), addr(dst), 445, ts)
			if pub&0x10 != 0 {
				c.Key.Dst = netip.AddrFrom4([4]byte{224, 0, 0, dst})
				c.Multicast = true
			}
			settled := src&0x40 == 0
			if !settled && dst&1 != 0 {
				flip = append(flip, c)
			}
			in := feed.in[pub>>1&1]
			in.batchConns = append(in.batchConns, fedConn{conn: c, idx: idx, settled: settled})
			idx++
			if pub&4 != 0 {
				publish(int(pub>>1&1), pub&8 == 0)
			}
		}
		// A connection that was not settled may reorient before end of
		// input: the census must not have read it.
		for _, c := range flip {
			c.Key = c.Key.Reverse()
		}
		for q := range feed.in {
			publish(q, false)
		}
		feed.finish()
		if len(feed.conns) != int(idx) {
			t.Fatalf("the feed ordered %d of %d connections", len(feed.conns), idx)
		}
		got, want := feed.census.Finish(feed.conns), scan.TakeCensus(feed.conns, known)
		if diff := censusDiff(got, want); diff != "" {
			t.Errorf("%s of the census taken as the feed published differs from TakeCensus:\n got %+v\nwant %+v", diff, got, want)
		}
	})
}
