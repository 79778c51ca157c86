package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"enttrace/internal/appproto/http"
	"enttrace/internal/categories"
	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
	"enttrace/internal/reassembly"
)

// tcpStep is one TCP segment of a test schedule.
type tcpStep struct {
	dir   flows.Dir
	flags uint8
	seq   uint32
	data  []byte
}

// driveSink feeds steps to a shard sink with app already hung on conn, so
// the real packet path (SYN, RST and payload handling included)
// decides what reaches the streams. The payload is lent in a buffer that
// is scribbled over after each packet, as a pooled source would.
func driveSink(app *connStreams, conn *flows.Conn, steps []tcpStep) {
	opts := Options{PayloadAnalysis: true, Workers: 1}
	feed := testFeed(opts)
	defer feed.finish()
	s := newShardSink(&opts, categories.NewRegistry(), enterprise.EnterprisePrefix, time.Unix(100, 0), feed, 0)
	conn.App = app
	var lent []byte
	for i, st := range steps {
		lent = append(lent[:0], st.data...)
		p := layers.Packet{
			Layers:  layers.LayerIPv4 | layers.LayerTCP,
			TCP:     layers.TCP{Seq: st.seq, Flags: st.flags},
			Payload: lent,
		}
		p.IP4.Src, p.IP4.Dst = conn.Key.Src, conn.Key.Dst
		if st.dir == flows.DirResp {
			p.IP4.Src, p.IP4.Dst = conn.Key.Dst, conn.Key.Src
		}
		pk := pcap.Packet{Timestamp: time.Unix(100, int64(i)), OrigLen: 54 + len(lent)}
		s.Packet(int64(i), &pk, &p, conn, st.dir)
		for j := range lent {
			lent[j] = 0xEE
		}
	}
}

// httpTransactions builds a keep-alive connection's two streams.
func httpTransactions(r *rand.Rand, n, maxBody int) (cli, srv []byte) {
	for i := 0; i < n; i++ {
		req := &http.Request{Method: "GET", URI: "/doc", Host: "www", UserAgent: "Mozilla/4.0", Conditional: r.Intn(3) == 0}
		if r.Intn(4) == 0 {
			req.Method, req.BodyLen = "POST", r.Intn(3000)
		}
		cli = append(cli, http.EncodeRequest(req)...)
		srv = append(srv, http.EncodeResponse(&http.Response{Status: []int{200, 200, 304, 404}[r.Intn(4)],
			ContentType: "text/html; charset=iso-8859-1", BodyLen: r.Intn(2) * r.Intn(maxBody)})...)
	}
	return cli, srv
}

// segments cuts a stream into MSS-sized data steps from isn+1 on.
func segments(dir flows.Dir, isn uint32, stream []byte) []tcpStep {
	const mss = 1460
	var steps []tcpStep
	for at := 0; at < len(stream); at += mss {
		steps = append(steps, tcpStep{dir: dir, flags: layers.TCPAck, seq: isn + 1 + uint32(at), data: stream[at:min(at+mss, len(stream))]})
	}
	return steps
}

// interleave merges the two directions' steps, a few at a time.
func interleave(r *rand.Rand, a, b []tcpStep) []tcpStep {
	var out []tcpStep
	for len(a) > 0 || len(b) > 0 {
		n := min(1+r.Intn(4), len(a))
		out, a = append(out, a[:n]...), a[n:]
		n = min(1+r.Intn(8), len(b))
		out, b = append(out, b[:n]...), b[n:]
	}
	return out
}

// TestHTTPStreamsMatchBufferedReference is the connStreams-level
// differential: the parse-as-it-arrives HTTP consumer and the 4 MiB
// BufferConsumer it replaced see the same segment schedule through the
// real packet path, and must end with the same transactions, the same
// reassembly ledgers and the same RST evidence.
func TestHTTPStreamsMatchBufferedReference(t *testing.T) {
	const cliISN, srvISN = 0xFFFFF000, 7_000_000 // the client side wraps
	syn := []tcpStep{
		{dir: flows.DirOrig, flags: layers.TCPSyn, seq: cliISN},
		{dir: flows.DirResp, flags: layers.TCPSyn | layers.TCPAck, seq: srvISN},
	}
	schedules := map[string]func(t *testing.T, r *rand.Rand) []tcpStep{
		"in order": func(t *testing.T, r *rand.Rand) []tcpStep {
			cli, srv := httpTransactions(r, 40, 60000)
			return append(syn, interleave(r, segments(flows.DirOrig, cliISN, cli), segments(flows.DirResp, srvISN, srv))...)
		},
		"reordered": func(t *testing.T, r *rand.Rand) []tcpStep {
			cli, srv := httpTransactions(r, 40, 60000)
			steps := interleave(r, segments(flows.DirOrig, cliISN, cli), segments(flows.DirResp, srvISN, srv))
			for i := range steps {
				j := min(i+r.Intn(12), len(steps)-1)
				steps[i], steps[j] = steps[j], steps[i]
			}
			return append(syn, steps...)
		},
		"retransmitted": func(t *testing.T, r *rand.Rand) []tcpStep {
			cli, srv := httpTransactions(r, 40, 60000)
			var steps []tcpStep
			for _, st := range interleave(r, segments(flows.DirOrig, cliISN, cli), segments(flows.DirResp, srvISN, srv)) {
				steps = append(steps, st)
				switch r.Intn(5) {
				case 0: // the whole segment again, late
					steps = append(steps, st)
				case 1: // a retransmission that straddles the cursor, with different bytes
					again := bytes.ToUpper(st.data[len(st.data)/2:])
					steps = append(steps, tcpStep{dir: st.dir, flags: st.flags, seq: st.seq + uint32(len(st.data)/2), data: append(again, "tail"...)})
				}
			}
			return append(syn, steps...)
		},
		"gap past MaxPending": func(t *testing.T, r *rand.Rand) []tcpStep {
			cli, srv := httpTransactions(r, 60, 80000)
			srvSteps := segments(flows.DirResp, srvISN, srv)
			// The capture lost three segments: one inside the first
			// response, one later, and the stream's last.
			lost := map[int]bool{2: true, len(srvSteps) / 2: true, len(srvSteps) - 1: true}
			var kept []tcpStep
			for i, st := range srvSteps {
				if !lost[i] {
					kept = append(kept, st)
				}
			}
			if len(srv) < 3*reassembly.DefaultMaxPending {
				t.Fatalf("response stream of %d bytes cannot overrun MaxPending", len(srv))
			}
			return append(syn, interleave(r, segments(flows.DirOrig, cliISN, cli), kept)...)
		},
		"past the 4 MiB limit": func(t *testing.T, r *rand.Rand) []tcpStep {
			cli, srv := httpTransactions(r, 220, 120000)
			if len(srv) < 9<<19 {
				t.Fatalf("response stream of %d bytes does not reach past the limit", len(srv))
			}
			return append(syn, interleave(r, segments(flows.DirOrig, cliISN, cli), segments(flows.DirResp, srvISN, srv))...)
		},
		"data after RST": func(t *testing.T, r *rand.Rand) []tcpStep {
			cli, srv := httpTransactions(r, 20, 30000)
			steps := interleave(r, segments(flows.DirOrig, cliISN, cli), segments(flows.DirResp, srvISN, srv))
			mid := len(steps) / 2
			rsts := []tcpStep{
				{dir: flows.DirResp, flags: layers.TCPRst, seq: 12345},           // blind: off the cursor
				{dir: steps[mid].dir, flags: layers.TCPRst, seq: steps[mid].seq}, // plausible
			}
			return append(syn, append(append(append([]tcpStep{}, steps[:mid]...), rsts...), steps[mid:]...)...)
		},
		"SYN-less start": func(t *testing.T, r *rand.Rand) []tcpStep {
			cli, srv := httpTransactions(r, 20, 30000)
			// The trace opens mid-connection, mid-body on the server side.
			return interleave(r, segments(flows.DirOrig, cliISN, cli), segments(flows.DirResp, srvISN, srv)[3:])
		},
	}
	conn := tcpConn(hostA, hostB, 40123, 80, flows.StateEstablished)
	for name, schedule := range schedules {
		t.Run(name, func(t *testing.T) {
			steps := schedule(t, rand.New(rand.NewSource(14)))
			got := newConnStreams("HTTP", conn, true)
			if got.http == nil {
				t.Fatal("a responder-port HTTP connection is not parsed as it arrives")
			}
			limit := bufferedProtos["HTTP"]
			want := &connStreams{buffered: true}
			want.cliBuf.Limit, want.srvBuf.Limit = limit, limit
			want.cliStream.Init(&want.cliBuf)
			want.srvStream.Init(&want.srvBuf)
			for _, app := range []*connStreams{got, want} {
				driveSink(app, conn, steps)
				app.cliStream.Close()
				app.srvStream.Close()
			}

			wantReqs, wantResps := http.ParseRequests(want.cliBuf.Buf), http.ParseResponses(want.srvBuf.Buf)
			// Each schedule must have exercised what it is named for.
			srvLedger := want.srvStream.Accounting()
			for _, c := range []struct {
				schedule string
				hit      bool
			}{
				{"reordered", srvLedger.PeakPendingBytes > 0},
				{"retransmitted", srvLedger.DuplicateBytes > 0},
				{"gap past MaxPending", srvLedger.GapEvents >= 2 && srvLedger.PeakPendingBytes > reassembly.DefaultMaxPending-1460},
				{"past the 4 MiB limit", want.srvBuf.Overflow > 0},
				{"data after RST", want.bogusRST == 1 && want.postRSTData > 0},
				{"in order", want.cliStream.Accounting().WrapEvents == 1},
			} {
				if c.schedule == name && !c.hit {
					t.Fatalf("the schedule did not produce its event: %+v", srvLedger)
				}
			}
			// A lost or missing stretch of a body desynchronizes either
			// parser for good, so the damaged schedules end early — alike.
			if len(wantReqs) < 10 || len(wantResps) == 0 && name != "SYN-less start" {
				t.Fatalf("schedule too weak: the reference parsed %d requests, %d responses", len(wantReqs), len(wantResps))
			}
			if reqs := got.http.cli.Requests(); !reflect.DeepEqual(reqs, wantReqs) {
				t.Errorf("requests differ: got %d, reference %d", len(reqs), len(wantReqs))
			}
			if resps := got.http.srv.Responses(); !reflect.DeepEqual(resps, wantResps) {
				t.Errorf("responses differ: got %d, reference %d", len(resps), len(wantResps))
			}
			if g, w := got.cliStream.Accounting(), want.cliStream.Accounting(); g != w {
				t.Errorf("client ledger differs:\n got %+v\nwant %+v", g, w)
			}
			if g, w := got.srvStream.Accounting(), want.srvStream.Accounting(); g != w {
				t.Errorf("server ledger differs:\n got %+v\nwant %+v", g, w)
			}
			if got.rstSeen != want.rstSeen || got.bogusRST != want.bogusRST || got.postRSTData != want.postRSTData {
				t.Errorf("RST evidence differs: got %v/%d/%d, want %v/%d/%d",
					got.rstSeen, got.bogusRST, got.postRSTData, want.rstSeen, want.bogusRST, want.postRSTData)
			}
			var gh, wh hostileCounters
			got.release()
			want.release()
			gh.fold(got)
			wh.fold(want)
			if gh != wh {
				t.Errorf("hostile census differs:\n got %+v\nwant %+v", gh, wh)
			}
		})
	}
}

// parsed reports whether the connection's streams feed stream parsers.
func (app *connStreams) parsed() bool {
	return app.http != nil || app.smtp != nil || app.cifs != nil || app.ncp != nil || app.nfs != nil
}

// Only the responder's well-known port fixes a verdict for good; anything
// else keeps its bytes for whatever replay classifies it as. FTP's control
// channel and the Endpoint Mapper keep theirs whatever the port: replay
// reads them for registrations before it classifies anything.
func TestNewConnStreamsConsumerChoice(t *testing.T) {
	for _, c := range []struct {
		name         string
		sport, dport uint16
		parsed, null bool
		raw          bool
	}{
		{"HTTP", 40000, 80, true, false, false},
		{"HTTP", 40000, 8080, true, false, false},
		{"HTTP", 80, 40000, false, false, true}, // matched via the originator's port
		{"IMAP4", 40000, 143, false, true, false},
		{"IMAP4", 143, 40000, false, false, true},
		{"SMTP", 40000, 25, true, false, false},
		{"SMTP", 25, 40000, false, false, true},
		{"CIFS", 40000, 445, true, false, false},
		{"CIFS", 445, 40000, false, false, true},
		{"Netbios-SSN", 40000, 139, true, false, false},
		{"NCP", 40000, 524, true, false, false},
		{"NCP", 524, 40000, false, false, true},
		{"NFS", 40000, 2049, true, false, false},
		{"FTP", 40000, 21, false, false, true},
		{"Spoolss", 40000, 1026, false, false, true}, // a name only a registration gives
		{"", 40000, 40001, false, false, true},
		{"", 40000, 999, false, false, false},
	} {
		conn := tcpConn(hostA, hostB, c.sport, c.dport, flows.StateEstablished)
		app := newConnStreams(c.name, conn, true)
		if app.buffered {
			app.cliStream.Segment(1, []byte("GET / HTTP/1.1\r\n\r\n"))
		}
		raw := len(app.cliBuf.Buf) > 0
		null := app.buffered && !raw && !app.parsed() && app.epmCli == nil
		if parsed := app.parsed(); parsed != c.parsed || null != c.null || raw != c.raw {
			t.Errorf("%q %d→%d: parsed=%v null=%v raw=%v, want %v/%v/%v", c.name, c.sport, c.dport, parsed, null, raw, c.parsed, c.null, c.raw)
		}
		if c.name != "" && app.buffered != (bufferedProtos[c.name] > 0) {
			t.Errorf("%q %d→%d: buffered=%v, so the hostile ledger would change", c.name, c.sport, c.dport, app.buffered)
		}
		// The differential's reference keeps every one of them raw.
		if ref := newConnStreams(c.name, conn, false); ref.parsed() || ref.buffered != app.buffered {
			t.Errorf("%q %d→%d: the buffered reference parses, or reassembles something else", c.name, c.sport, c.dport)
		}
		app.release()
	}
}

// TestSinkHoldsNoParsedStreamBytesAtEndOfInput pins the analyzer-side
// memory the incremental parsers buy, at the moment it peaks: when
// pipeline.Run returns, before replay, a connection whose protocol is
// fixed by its responder port and parsed by a stream consumer owns no
// pooled stream storage at all (only out-of-order pending data). That
// the UDP capture owns its payload bytes, not the capture buffers, is
// TestRecycledBufferMutationDoesNotChangeReport's.
func TestSinkHoldsNoParsedStreamBytesAtEndOfInput(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Monitored = []int{2, 7}
	cfg.Scale = 0.25
	opts := Options{PayloadAnalysis: true, Workers: 2}
	a := NewAnalyzer(opts)
	type tally struct {
		conns     int
		delivered int64
	}
	parsed := map[string]*tally{"HTTP": {}, "SMTP": {}, "CIFS": {}, "Netbios-SSN": {}, "NCP": {}, "NFS": {}}
	for _, tr := range gen.GenerateDataset(cfg).Traces {
		var raw bytes.Buffer
		if err := gen.WriteTrace(&raw, cfg, tr); err != nil {
			t.Fatal(err)
		}
		rd, err := pcap.NewReader(&raw)
		if err != nil {
			t.Fatal(err)
		}
		var sinks []*shardSink
		feed := a.ensureFeed()
		feed.reset()
		feed.start(nil, true)
		res, err := pipeline.Run(pcap.NewPooledReader(rd, nil), pipeline.Config{
			Workers: 2,
			NewSink: func(shard int, base time.Time) pipeline.Sink {
				s := newShardSink(&opts, a.registry, tr.Prefix, base, feed, shard)
				sinks = append(sinks, s)
				return s
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for shard := range sinks {
			for _, rec := range res.Shards[shard].Conns {
				conn, app := rec.Conn, connStreamsOf(rec.Conn)
				if app == nil {
					continue
				}
				name := categories.WellKnown(conn.Proto, conn.Key.DstPort)
				seen := parsed[name]
				if seen == nil {
					continue
				}
				if !app.parsed() {
					t.Fatalf("%v is %s by its responder port and still buffered raw", conn.Key, name)
				}
				seen.conns++
				seen.delivered += app.cliStream.Accounting().DeliveredBytes + app.srvStream.Accounting().DeliveredBytes
				if held := cap(app.cliBuf.Buf) + cap(app.srvBuf.Buf); held != 0 || app.epmCli != nil {
					t.Fatalf("%v holds %d bytes of pooled stream storage", conn.Key, held)
				}
			}
			for _, rec := range res.Shards[shard].Conns {
				if app := connStreamsOf(rec.Conn); app != nil {
					app.release()
				}
			}
		}
		feed.finish()
		for r := range feed.passes {
			feed.replayUDP(r, true)
		}
	}
	// A trace too thin in any of the protocols would pin nothing for it.
	for proto, floor := range map[string]tally{
		"HTTP": {50, 1 << 20}, "SMTP": {2, 64 << 10}, "CIFS": {10, 64 << 10},
		"Netbios-SSN": {5, 64 << 10}, "NCP": {5, 256 << 10}, "NFS": {1, 64 << 10},
	} {
		if seen := parsed[proto]; seen.conns < floor.conns || seen.delivered < floor.delivered {
			t.Errorf("trace too thin to pin anything for %s: %d connections delivered %d bytes", proto, seen.conns, seen.delivered)
		}
		t.Logf("%-11s %4d connections delivered %8d stream bytes and hold none", proto, parsed[proto].conns, parsed[proto].delivered)
	}
	if n := a.feed.replayed.Load(); n < 50 {
		t.Fatalf("trace too thin to pin anything: %d captured datagrams", n)
	} else {
		t.Logf("%d datagrams captured", n)
	}
}
