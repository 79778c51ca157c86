//go:build !race

// Allocation ceilings: what keeps the per-packet pass cheap is a
// near-zero-allocation hot path, and this one table is what holds it.
// benchmark/ measures time and memory end to end; nothing there fails a
// PR that adds one allocation per packet. The race detector changes
// what allocates, hence the build tag.
package enttrace_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"enttrace/internal/appproto/cifs"
	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/appproto/ncp"
	"enttrace/internal/appproto/smtp"
	"enttrace/internal/appproto/sunrpc"
	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/fleet"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/reassembly"
	"enttrace/internal/stats"
)

// ceilingsToolchain is the Go minor the table's values were recorded
// on. Allocation counts move between minors (runtime, inliner, escape
// analysis), so on any other toolchain only the zero rows are checked.
const ceilingsToolchain = "go1.24"

// A row fails above recorded × (1 + ceilingTolerance) + slack, and —
// the gate is a ratchet — below recorded × (1 − ceilingRatchet) − slack.
// The slack keeps rows that sit at a handful of allocations from
// tripping on one; the rows at thousands are governed by the ratio.
const (
	ceilingTolerance = 0.10
	ceilingRatchet   = 0.20
	allocSlack       = 8
	bytesSlack       = 1024
)

// allocsPerOp measures f the way testing.AllocsPerRun does — one P, one
// warm-up call outside the counters — and reports allocated bytes per
// call beside the malloc count. It first finishes any collection an
// earlier row's garbage left running: one that reached its start inside
// the counters emptied every sync.Pool there, and the next Put
// re-registered the pool, allocating its per-P array and growing the
// runtime's pool list (the 1–5 allocations, 16–200 B, that a zero row
// such as codec/check read in about one run in twenty).
func allocsPerOp(runs int, f func()) (allocs, size uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}

// drainTrace reads one pcap to EOF, through pool's slab reader when pool
// is non-nil and through the owning Reader otherwise. A read failure
// must fail the row, not shrink its workload.
func drainTrace(tb testing.TB, raw []byte, pool *pcap.Pool) {
	rd, err := pcap.NewReader(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	if pool == nil {
		for err == nil {
			_, err = rd.Next()
		}
	} else {
		src := pcap.NewPooledReader(rd, pool)
		for err == nil {
			var p *pcap.Packet
			if p, err = src.Next(); err == nil {
				src.Release(p)
			}
		}
	}
	if err != io.EOF {
		tb.Fatalf("trace read failed mid-measurement: %v", err)
	}
}

// TestAllocationCeilings pins mallocs and allocated bytes per operation
// for the hot path's layers and the end-to-end analyses built on them.
// Row names are those of the baseline file this table replaced, so
// EXPERIMENTS' history still maps. Every row logs its measured values in
// the row's literal form (shown on failure, or with -v); paste them over
// the recorded ones if, and only if, the change is meant to move them.
// Diagnose with
//
//	go test -run 'TestAllocationCeilings/<row>' -memprofile mem.pprof -memprofilerate 1 .
func TestAllocationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analyses in -short mode")
	}
	type datasetKey struct {
		name  string
		scale float64
	}
	datasets := map[datasetKey]*gen.Dataset{}
	dataset := func(tb testing.TB, name string, scale float64) *gen.Dataset {
		key := datasetKey{name, scale}
		if datasets[key] == nil {
			datasets[key] = determinismDataset(tb, name, scale)
		}
		return datasets[key]
	}
	d3 := func(tb testing.TB) *gen.Dataset { return dataset(tb, "D3", 0.15) }

	// A setup builds its inputs off the counters and returns the op.
	type setup func(tb testing.TB) func()
	analyze := func(name string) setup {
		return func(tb testing.TB) func() {
			ds := dataset(tb, name, 0.15)
			return func() { analyzeWorkers(tb, ds, 4) }
		}
	}
	stream := func(workers int) setup {
		return func(tb testing.TB) func() {
			ds := d3(tb)
			raws := datasetPcaps(tb, ds)
			return func() { analyzeStream(tb, ds, raws, workers) }
		}
	}
	replay := func(replayWorkers int) setup {
		return func(tb testing.TB) func() {
			ds := d3(tb)
			return func() { analyzeGrid(tb, ds, 4, replayWorkers) }
		}
	}
	// The rotation pair runs at the reproduction's full density, where a
	// 60-second window carries a realistic packet volume: one cut per
	// trace against ~60 per one-hour trace, every window rendered.
	rotation := func(window time.Duration) setup {
		return func(tb testing.TB) func() {
			ds := dataset(tb, "D3", 1.0)
			return func() {
				a := addTraces(tb, datasetAnalyzer(ds, 4, 4, window), ds)
				a.Report()
				a.WindowReports()
			}
		}
	}
	// The gen→analyze loop of `entanalyze -gen`: the default shape tiled
	// to an hour, streamed with no pcap bytes anywhere.
	soak := func(window time.Duration) setup {
		return func(tb testing.TB) func() {
			cfg := enterprise.D3()
			sched := gen.DefaultSchedule().Repeat(time.Hour)
			subnet := cfg.Monitored[0]
			return func() {
				a := soakAnalyzer(cfg, 4, window)
				src := gen.NewStreamSource(gen.StreamConfig{
					Network:  enterprise.NewNetwork(cfg),
					Subnet:   subnet,
					Schedule: sched,
					Snaplen:  cfg.Snaplen,
				})
				if err := a.AddTraceSource("soak", enterprise.SubnetPrefix(subnet), src); err != nil {
					tb.Fatal(err)
				}
				a.Report()
			}
		}
	}

	// The generator's own price. One op = one trace of the dataset's
	// first vantage at scale 0.15, as GenerateDataset produces it.
	genTrace := func(cfg enterprise.Config) setup {
		return func(tb testing.TB) func() {
			cfg.Scale = 0.15
			net := enterprise.NewNetwork(cfg)
			return func() {
				if len(gen.GenerateTrace(net, cfg.Monitored[0], 0)) == 0 {
					tb.Fatal("empty trace")
				}
			}
		}
	}

	// One op = one GET into a recorder for a window nobody has written
	// since it was last served: the warm-up call renders it, and every
	// counted call may only hand the bytes over (the recorder's buffer
	// is most of what is left). A fold, a Report and a MarshalIndent per
	// poll is what these rows refuse.
	serveHit := func(path string) setup {
		return func(tb testing.TB) func() {
			ds := d3(tb)
			srv := core.NewReportServer(addTraces(tb, datasetAnalyzer(ds, 4, 4, 60*time.Second), ds))
			req := httptest.NewRequest("GET", path, nil)
			return func() {
				rr := httptest.NewRecorder()
				srv.ServeHTTP(rr, req)
				if rr.Code != 200 {
					tb.Fatalf("%s: %d", path, rr.Code)
				}
			}
		}
	}

	// One op = one window closing: a four-connection trace whose clients
	// hash two to each of two replay workers, each trace one window later
	// than the last, so its workers' hand-off builds the report of the
	// window before and hands it to OnWindow once both have entered the
	// new one, and banks their two deltas (HTTP component and connection
	// sums) into the new window once both are done. The trace's
	// own trip through the pipeline is most of the count; what the row
	// refuses is a fold — a fresh full aggregate and a merge of both
	// deltas into it — coming back between banking and the report.
	windowClose := func(tb testing.TB) func() {
		const ops = 50
		emitted := 0
		a := core.NewAnalyzer(core.Options{Dataset: "close", PayloadAnalysis: true, Workers: 1, ReplayWorkers: 2,
			Window: time.Minute, OnWindow: func(*core.WindowReport) { emitted++ }})
		server := enterprise.InternalHost(5, 200)
		base := time.Date(2005, 1, 6, 9, 0, 0, 0, time.UTC)
		traces := make([]core.TraceInput, ops+1) // allocsPerOp warms up with one
		for i := range traces {
			em := gen.NewEmitter(int64(i))
			for c := 0; c < 4; c++ {
				em.TCPSession(gen.TCPOpts{
					Client: enterprise.InternalHost(5, 10+c), Server: server,
					ClientPort: uint16(40000 + c), ServerPort: 80,
					Start: base.Add(time.Duration(i)*time.Minute + time.Duration(c)*time.Second), RTT: time.Millisecond,
					Turns: []gen.Turn{
						{FromClient: true, Data: []byte("GET / HTTP/1.1\r\nHost: www.lbl.gov\r\nUser-Agent: Mozilla/4.0\r\n\r\n")},
						{Data: []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 2\r\n\r\nok")},
					},
				})
			}
			traces[i] = core.TraceInput{Name: "close", Monitored: enterprise.SubnetPrefix(5), Packets: em.Packets()}
		}
		next := 0
		return func() {
			if err := a.AddTrace(traces[next]); err != nil {
				tb.Fatal(err)
			}
			if next++; emitted != next-1 {
				tb.Fatalf("%d windows emitted after %d traces", emitted, next)
			}
		}
	}

	// The fleet codec over every window of a 60 s-windowed D3 schedule
	// run, the default shape tiled to an hour (61 windows). A codec op
	// is handed the run and its window payloads off the counters and
	// returns what one op does with them.
	var windowed *core.Analyzer
	var payloads [][]byte
	codec := func(op func(tb testing.TB, a *core.Analyzer, payloads [][]byte) func()) setup {
		return func(tb testing.TB) func() {
			if windowed == nil {
				cfg := enterprise.D3()
				subnet := cfg.Monitored[0]
				pkts := gen.GenerateScheduledTrace(enterprise.NewNetwork(cfg), subnet, 0, gen.DefaultSchedule().Repeat(time.Hour))
				windowed = core.NewAnalyzer(core.Options{PayloadAnalysis: true, Window: time.Minute})
				if err := windowed.AddTrace(core.TraceInput{Name: "codec", Monitored: enterprise.SubnetPrefix(subnet), Packets: pkts}); err != nil {
					tb.Fatal(err)
				}
				exports, err := windowed.ExportAll()
				if err != nil || len(exports) < 30 {
					tb.Fatalf("%d windows exported: %v", len(exports), err)
				}
				for _, we := range exports {
					payloads = append(payloads, we.Payload)
				}
			}
			return op(tb, windowed, payloads)
		}
	}

	// One op = one MSS-sized chunk handed to a stream parser that is inside
	// a record body: enter puts a parser there and returns its Data.
	body := func(enter func() func([]byte)) setup {
		return func(testing.TB) func() {
			data, chunk := enter(), make([]byte, 1460)
			return func() { data(chunk) }
		}
	}

	rows := []struct {
		name          string
		allocs, bytes uint64 // recorded per op on ceilingsToolchain
		runs          int    // ops averaged over; 0 means 1
		setup         setup
	}{
		{name: "decode/d3", allocs: 0, bytes: 0, setup: func(tb testing.TB) func() {
			pkts := d3(tb).Traces[0].Packets
			var p layers.Packet
			return func() {
				for _, pk := range pkts {
					_ = layers.Decode(pk.Data, pk.OrigLen, &p)
				}
			}
		}},
		{name: "pcap/read-trace", allocs: 4875, bytes: 2684216, setup: func(tb testing.TB) func() {
			raw := datasetPcaps(tb, d3(tb))[0]
			return func() { drainTrace(tb, raw, nil) }
		}},
		{name: "pcap/read-trace-pooled", allocs: 3, bytes: 168, setup: func(tb testing.TB) func() {
			raw, pool := datasetPcaps(tb, d3(tb))[0], pcap.NewPool()
			return func() { drainTrace(tb, raw, pool) }
		}},
		{name: "pipeline/stream/workers=1", allocs: 11173, bytes: 7291136, setup: stream(1)},
		{name: "pipeline/stream/workers=4", allocs: 12335, bytes: 13657960, setup: stream(4)},
		{name: "pipeline/stream/workers=8", allocs: 13279, bytes: 16912376, setup: stream(8)},
		// In-order delivery borrows the caller's slice and buffers nothing.
		{name: "reassembly/in-order", allocs: 0, bytes: 0, runs: 1000, setup: func(tb testing.TB) func() {
			data := make([]byte, 1460)
			c := &reassembly.BufferConsumer{Limit: 1} // measure reassembly, not retention
			s := reassembly.NewStream(c)
			seq := uint32(0)
			return func() {
				s.Segment(seq, data)
				seq += uint32(len(data))
			}
		}},
		// One op = an 8-segment burst delivered in reverse with a
		// retransmit mixed in: every segment but the last is buffered
		// through the pool and drained at once.
		{name: "reassembly/out-of-order", allocs: 4, bytes: 480, runs: 1000, setup: func(tb testing.TB) func() {
			data := make([]byte, 1460)
			c := &reassembly.BufferConsumer{Limit: 1}
			base := uint32(0)
			return func() {
				var s reassembly.Stream
				s.Init(c)
				s.SetISN(base)
				for seg := 7; seg >= 1; seg-- {
					s.Segment(base+uint32(seg*len(data)), data)
				}
				s.Segment(base+uint32(len(data)), data)
				s.Segment(base, data) // plugs the hole
				base += 64 << 10
			}
		}},
		// One op = a D3-sized distribution, 64k integer-valued samples
		// over 1k distinct values plus the extraction a report performs:
		// Dist must not retain per-sample memory.
		{name: "stats/dist-observe", allocs: 38, bytes: 112368, setup: func(tb testing.TB) func() {
			return func() {
				d := stats.NewDist()
				for j := 0; j < 64<<10; j++ {
					d.Observe(float64(j & 1023))
				}
				d.Median()
				d.CDF(128)
			}
		}},
		// A parser passes a record body over by count: no allocation per
		// chunk, whatever the protocol. An NCP payload, an RPC record and
		// a mail message can claim the gigabytes a thousand chunks need; an
		// SMB payload and a DCE/RPC fragment hold 64 KiB at most, hence
		// forty.
		{name: "parser/ncp/body", allocs: 0, bytes: 0, runs: 1000, setup: body(func() func([]byte) {
			var p ncp.StreamParser
			p.Init(0)
			hdr := ncp.Encode(&ncp.Msg{Request: true, Function: ncp.FnWriteFile})
			binary.BigEndian.PutUint32(hdr[5:], math.MaxUint32) // the claimed payload length
			p.Data(hdr)
			return p.Data
		})},
		{name: "parser/sunrpc/body", allocs: 0, bytes: 0, runs: 1000, setup: body(func() func([]byte) {
			var p sunrpc.StreamParser
			p.Init(0)
			p.Data([]byte{0x7f, 0xff, 0xff, 0xff}) // a record mark claiming 2 GiB
			return p.Data
		})},
		{name: "parser/smtp/body", allocs: 0, bytes: 0, runs: 1000, setup: body(func() func([]byte) {
			var p smtp.StreamParser
			p.InitClient(0)
			p.Data([]byte("DATA\r\n"))
			return p.Data
		})},
		{name: "parser/cifs/body", allocs: 0, bytes: 0, runs: 40, setup: body(func() func([]byte) {
			var p cifs.StreamParser
			p.Init(false, 0)
			p.Data(cifs.Encode(&cifs.Message{Command: cifs.CmdWriteAndX, Payload: make([]byte, 65000)})[:64])
			return p.Data
		})},
		{name: "parser/dcerpc/body", allocs: 0, bytes: 0, runs: 40, setup: body(func() func([]byte) {
			var p dcerpc.StreamParser
			p.Data(dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, Stub: make([]byte, 65000)})[:64])
			return p.Data
		})},
		{name: "replay/D3/workers=1", allocs: 12112, bytes: 8601528, setup: replay(1)},
		{name: "replay/D3/workers=4", allocs: 13477, bytes: 8682584, setup: replay(4)},
		{name: "replay/D3/workers=8", allocs: 14890, bytes: 8871952, setup: replay(8)},
		// The UDP pass replays while the trace is read: no merged copy of
		// a trace's datagrams, no partition of them, is allocated at its
		// end (6.7 MB an op at this density; EXPERIMENTS "UDP messages
		// replay while the trace is read").
		{name: "replay/D3/window=0", allocs: 46714, bytes: 25183016, setup: rotation(0)},
		{name: "replay/D3/window=60s", allocs: 146148, bytes: 35573768, setup: rotation(60 * time.Second)},
		{name: "analyze/D0", allocs: 6099, bytes: 3125480, setup: analyze("D0")},
		{name: "analyze/D1", allocs: 4686, bytes: 6575912, setup: analyze("D1")},
		{name: "analyze/D2", allocs: 4733, bytes: 6432120, setup: analyze("D2")},
		{name: "analyze/D3", allocs: 12112, bytes: 8601040, setup: analyze("D3")},
		{name: "analyze/D4", allocs: 11897, bytes: 8310824, setup: analyze("D4")},
		{name: "soak/D3-shape", allocs: 52981, bytes: 42121024, setup: soak(0)},
		{name: "soak/D3-shape/window=60s", allocs: 70348, bytes: 44408208, setup: soak(60 * time.Second)},
		// Per frame these come to 0.61 allocations and 1 132 B (D2: 9 894
		// frames, 68 bytes kept of each), 0.83 and 1 521 B (D3: 4 872 whole
		// frames) and 0.78 and 791 B (the stream: 37 707 frames built in
		// pooled packets) — at the parent of the commit that added the rows,
		// which built every frame twice at full size, 2.68 and 2 435 B, 2.90
		// and 2 122 B, 5.29 and 3 065 B. What is left is per session, not per
		// frame: turn payloads (generated whole to be checksummed, even when
		// the capture keeps 68 bytes), encoder buffers and turn lists; and
		// for a trace its arena chunks, its packet structs and their sort.
		{name: "gen/trace/D2", allocs: 6017, bytes: 9821304, setup: genTrace(enterprise.D2())},
		{name: "gen/trace/D3", allocs: 4041, bytes: 6897472, setup: genTrace(enterprise.D3())},
		{name: "gen/stream", allocs: 25092, bytes: 27873336, setup: func(tb testing.TB) func() {
			cfg := enterprise.D3()
			scfg := gen.StreamConfig{
				Network:  enterprise.NewNetwork(cfg),
				Subnet:   cfg.Monitored[0],
				Schedule: gen.DefaultSchedule().Repeat(time.Hour),
				Snaplen:  cfg.Snaplen,
			}
			return func() {
				src := gen.NewStreamSource(scfg)
				for {
					p, err := src.Next()
					if err != nil {
						break
					}
					src.Release(p)
				}
				if src.Stats().Frames == 0 {
					tb.Fatal("empty stream")
				}
			}
		}},
		{name: "window/close", allocs: 403, bytes: 73517, runs: 50, setup: windowClose},
		// Marshal a window: one op is an ExportAll, one payload a window
		// and the slice.
		{name: "codec/marshal", allocs: 62, bytes: 79488, runs: 10, setup: codec(func(tb testing.TB, a *core.Analyzer, _ [][]byte) func() {
			return func() {
				if _, err := a.ExportAll(); err != nil {
					tb.Fatal(err)
				}
			}
		})},
		// Fold every window off the wire: one op is Fleet.Report of one
		// site that delivered them all, the windows folded into one fresh
		// aggregate and its report built once.
		{name: "codec/merge-from", allocs: 1190, bytes: 589640, runs: 10, setup: codec(func(tb testing.TB, _ *core.Analyzer, payloads [][]byte) func() {
			f := core.NewFleet(core.FleetConfig{Dataset: "codec"})
			for w, p := range payloads {
				if err := f.Delta("site", w, 1, 0, p); err != nil {
					tb.Fatal(err)
				}
			}
			return func() { f.Report() }
		})},
		// A snapshot is checked on arrival without decoding it.
		{name: "codec/check", allocs: 0, bytes: 0, runs: 10, setup: codec(func(tb testing.TB, _ *core.Analyzer, payloads [][]byte) func() {
			return func() {
				for _, p := range payloads {
					if err := core.CheckSnapshot(p); err != nil {
						tb.Fatal(err)
					}
				}
			}
		})},
		// A frame is built in one buffer sized from its site and payload
		// up front: one allocation a frame. The payload is the mean window
		// snapshot of the codec rows' run.
		{name: "fleet/encode-frame", allocs: 1, bytes: 1280, runs: 100, setup: func(tb testing.TB) func() {
			f := &fleet.Frame{Type: fleet.FrameDelta, Site: "site-07", Window: 61, Seq: 62, Watermark: 1105000000000000000, Payload: make([]byte, 1182)}
			return func() {
				if _, err := fleet.EncodeFrame(f); err != nil {
					tb.Fatal(err)
				}
			}
		}},
		{name: "serve/window-hit", allocs: 14, bytes: 9228, runs: 100, setup: serveHit("/report/window/0")},
		{name: "serve/latest-hit", allocs: 11, bytes: 7124, runs: 100, setup: serveHit("/report/latest")},
		// The hostile-input price: the evasion scenario family through
		// the differential harness's replay path at the default shape.
		{name: "adversarial/evasion", allocs: 8380, bytes: 1701264, setup: func(tb testing.TB) func() {
			for _, in := range evasion {
				in.get(tb)
			}
			return func() {
				for _, in := range evasion {
					res := point{in: in, workers: 4, replay: 4, source: "pooled"}.run(tb)
					if res.report.Hostile.IngestBytes == 0 {
						tb.Fatal("evasion replay produced no reassembled bytes")
					}
				}
			}
		}},
	}

	v := runtime.Version()
	recordedHere := v == ceilingsToolchain || strings.HasPrefix(v, ceilingsToolchain+".")
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if !recordedHere && row.allocs != 0 {
				t.Skipf("ceilings were recorded on %s, this is %s", ceilingsToolchain, v)
			}
			allocs, size := allocsPerOp(max(row.runs, 1), row.setup(t))
			t.Logf("measured {name: %q, allocs: %d, bytes: %d, …}", row.name, allocs, size)
			check := func(unit string, got, recorded, slack uint64) {
				switch {
				case recorded == 0 && got != 0:
					t.Errorf("%d %s/op on a path that must not allocate", got, unit)
				case float64(got) > float64(recorded)*(1+ceilingTolerance)+float64(slack):
					t.Errorf("%d %s/op is over the ceiling: recorded %d, +%.0f%% +%d allowed",
						got, unit, recorded, ceilingTolerance*100, slack)
				case float64(got) < float64(recorded)*(1-ceilingRatchet)-float64(slack):
					t.Errorf("%d %s/op against a recorded %d: improved — record the new value", got, unit, recorded)
				}
			}
			check("allocs", allocs, row.allocs, allocSlack)
			check("bytes", size, row.bytes, bytesSlack)
		})
	}
}
