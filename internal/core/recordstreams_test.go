package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"enttrace/internal/appproto/cifs"
	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/appproto/ncp"
	"enttrace/internal/appproto/netbios"
	"enttrace/internal/appproto/smtp"
	"enttrace/internal/appproto/sunrpc"
	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
	"enttrace/internal/pipeline"
	"enttrace/internal/reassembly"
)

// TestRecordStreamsMatchBufferedReference is the whole-report
// differential for the record parsers: the same D3 and D4 traces analyzed
// with SMTP, CIFS, Netbios-SSN, NCP and NFS (and HTTP) parsed as they
// reassemble, and again with every stream buffered to end of trace and
// parsed at replay as before, must produce the same cumulative report and
// the same window reports, byte for byte, as JSON and as text. It runs at
// the default worker widths, so `-cpu 1,2,4` under the race detector has
// the parsers written by pipeline workers and read by replay workers.
func TestRecordStreamsMatchBufferedReference(t *testing.T) {
	for _, cfg := range []enterprise.Config{enterprise.D3(), enterprise.D4()} {
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.Scale = 0.3
			cfg.Monitored = cfg.Monitored[:6]
			ds := gen.GenerateDataset(cfg)
			analyze := func(buffer bool) (*Report, []*WindowReport) {
				var windows []*WindowReport
				a := NewAnalyzer(Options{
					Dataset:         cfg.Name,
					KnownScanners:   enterprise.KnownScanners(),
					PayloadAnalysis: true,
					Window:          10 * time.Minute,
					OnWindow:        func(w *WindowReport) { windows = append(windows, w) },
					bufferStreams:   buffer,
				})
				for _, tr := range ds.Traces {
					if err := a.AddTrace(TraceInput{Name: tr.Prefix.String(), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
						t.Fatal(err)
					}
				}
				return a.Report(), windows
			}
			got, gotWindows := analyze(false)
			want, wantWindows := analyze(true)

			// Each parser must have had something to parse.
			for _, c := range []struct {
				proto string
				n     int64
			}{
				{"SMTP", want.Email.Bytes["SMTP"]}, // its verdicts reach no report: see the connection-level differential
				{"CIFS", want.Windows.CIFSTotalRequests},
				{"DCE/RPC over pipes", want.Windows.RPCTotalRequests},
				{"Netbios-SSN", int64(want.Windows.Table9["Netbios/SSN"].Pairs)},
				{"NCP", want.FileSvc.NCPRequests},
				{"NFS", want.FileSvc.NFSRequests},
				{"HTTP", want.HTTP.InternalRequests},
			} {
				if c.n == 0 {
					t.Fatalf("trace too thin to pin anything: the reference found no %s", c.proto)
				}
			}
			if !bytes.Equal(reportBytes(t, got), reportBytes(t, want)) {
				t.Error("cumulative report JSON differs from the buffered reference")
			}
			if RenderText(got) != RenderText(want) {
				t.Error("cumulative report text differs from the buffered reference")
			}
			if len(gotWindows) != len(wantWindows) || len(wantWindows) < 3 {
				t.Fatalf("%d windows against the reference's %d", len(gotWindows), len(wantWindows))
			}
			for i := range wantWindows {
				if !bytes.Equal(reportBytes(t, gotWindows[i].Report), reportBytes(t, wantWindows[i].Report)) {
					t.Errorf("window %d differs from the buffered reference", i)
				}
			}
		})
	}
}

// recordProtos are the protocols parsed while they reassemble, each with
// a generator of one connection's two streams of at least size bytes in
// the heavier direction.
var recordProtos = []struct {
	name    string
	port    uint16
	streams func(r *rand.Rand, size int) (cli, srv []byte)
}{
	{"NCP", 524, func(r *rand.Rand, size int) (cli, srv []byte) {
		fns := []uint8{ncp.FnReadFile, ncp.FnReadFile, ncp.FnWriteFile, ncp.FnFileDirInfo, ncp.FnGetFileSize, ncp.FnDirService}
		for seq := 0; len(srv) < size; seq++ {
			req := ncp.RequestFor(uint8(seq), fns[r.Intn(len(fns))], r.Intn(4000))
			reply := ncp.ReplyFor(req, 260+r.Intn(8)*1024)
			if r.Intn(9) == 0 {
				reply.Completion, reply.Payload = 0x89, nil
			}
			cli, srv = append(cli, ncp.Encode(req)...), append(srv, ncp.Encode(reply)...)
		}
		return cli, srv
	}},
	{"CIFS", 445, func(r *rand.Rand, size int) (cli, srv []byte) {
		for mid := 0; len(cli) < size; mid++ {
			req, resp := smbExchange(r, uint16(mid))
			cli, srv = append(cli, req...), append(srv, resp...)
		}
		return cli, srv
	}},
	{"Netbios-SSN", 139, func(r *rand.Rand, size int) (cli, srv []byte) {
		cli = netbios.EncodeSSN(netbios.SSNRequest, make([]byte, 68))
		srv = netbios.EncodeSSN(netbios.SSNPositiveResponse, nil)
		for mid := 0; len(cli) < size; mid++ {
			req, resp := smbExchange(r, uint16(mid))
			cli, srv = append(cli, netbios.EncodeSSN(netbios.SSNMessage, req)...), append(srv, netbios.EncodeSSN(netbios.SSNMessage, resp)...)
			if r.Intn(20) == 0 {
				cli = append(cli, netbios.EncodeSSN(netbios.SSNKeepAlive, nil)...)
			}
		}
		return cli, srv
	}},
	{"NFS", 2049, func(r *rand.Rand, size int) (cli, srv []byte) {
		procs := []uint32{sunrpc.ProcGetAttr, sunrpc.ProcLookup, sunrpc.ProcAccess, sunrpc.ProcRead, sunrpc.ProcRead, sunrpc.ProcWrite}
		for xid := uint32(1); len(srv) < size; xid++ {
			proc, n := procs[r.Intn(len(procs))], r.Intn(3)*4096
			status := uint32(r.Intn(2) * r.Intn(2) * int(sunrpc.NFSErrNoEnt))
			cli = append(cli, sunrpc.MarkRecord(sunrpc.Encode(&sunrpc.Msg{XID: xid, Type: sunrpc.MsgCall, Prog: sunrpc.ProgNFS, Vers: 3, Proc: proc, DataLen: n}))...)
			srv = append(srv, sunrpc.MarkRecord(sunrpc.Encode(&sunrpc.Msg{XID: xid, Type: sunrpc.MsgReply, Proc: proc, Status: status, DataLen: n}))...)
		}
		return cli, srv
	}},
	{"SMTP", 25, func(r *rand.Rand, size int) (cli, srv []byte) {
		d := smtp.Dialogue{ClientHost: "pc1.lbl.gov", From: "a@lbl.gov", To: "b@lbl.gov", MessageSize: size}
		for _, turn := range d.Turns() {
			if turn.FromClient {
				cli = append(cli, turn.Data...)
			} else {
				srv = append(srv, turn.Data...)
			}
		}
		return cli, srv
	}},
}

// smbExchange builds one SMB request and its response: file reads and
// writes, session set-up, and named-pipe transactions carrying DCE/RPC.
func smbExchange(r *rand.Rand, mid uint16) (req, resp []byte) {
	switch r.Intn(5) {
	case 0:
		pipe := []string{`\PIPE\spoolss`, `\PIPE\lsarpc`, cifs.LanmanPipe}[r.Intn(3)]
		call := dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, CallID: uint32(mid), Opnum: dcerpc.OpSpoolssWritePrinter, Stub: make([]byte, r.Intn(4000))})
		if mid%7 == 0 {
			call = append(dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBind, CallID: 1, Iface: dcerpc.IfSpoolss}), call...)
		}
		return cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, PipeName: pipe, Payload: call}),
			cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, Response: true, PipeName: pipe, Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTResponse, CallID: uint32(mid), Stub: make([]byte, 24)})})
	case 1:
		return cifs.Encode(&cifs.Message{Command: cifs.CmdWriteAndX, MID: mid, Payload: make([]byte, r.Intn(16000))}),
			cifs.Encode(&cifs.Message{Command: cifs.CmdWriteAndX, MID: mid, Response: true})
	case 2:
		return cifs.Encode(&cifs.Message{Command: cifs.CmdReadAndX, MID: mid}),
			cifs.Encode(&cifs.Message{Command: cifs.CmdReadAndX, MID: mid, Response: true, Payload: make([]byte, r.Intn(16000))})
	default:
		cmd := []uint8{cifs.CmdNegotiate, cifs.CmdSessionSetupAndX, cifs.CmdNTCreateAndX, cifs.CmdTrans2}[r.Intn(4)]
		return cifs.Encode(&cifs.Message{Command: cmd, MID: mid}),
			cifs.Encode(&cifs.Message{Command: cmd, MID: mid, Response: true, Status: uint32(r.Intn(2)) * cifs.StatusAccessDenied})
	}
}

// TestRecordStreamsMatchBufferedConnection is the connStreams-level
// differential, per protocol and per hostile schedule: the parser pair and
// the BufferConsumers they replaced see the same segments through the
// real packet path, and replay must fold the two connections into the
// same aggregate, with the same reassembly ledgers and hostile census —
// while the parsed connection holds no pooled stream storage.
func TestRecordStreamsMatchBufferedConnection(t *testing.T) {
	const cliISN, srvISN = 0xFFFFF000, 7_000_000 // the client side wraps
	syn := []tcpStep{
		{dir: flows.DirOrig, flags: layers.TCPSyn, seq: cliISN},
		{dir: flows.DirResp, flags: layers.TCPSyn | layers.TCPAck, seq: srvISN},
	}
	schedules := []struct {
		name  string
		size  func(limit int) int
		steps func(r *rand.Rand, cli, srv []tcpStep) []tcpStep
		hit   func(want *connStreams) bool
	}{
		{"in order", func(int) int { return 300 << 10 },
			func(r *rand.Rand, cli, srv []tcpStep) []tcpStep { return interleave(r, cli, srv) },
			func(want *connStreams) bool { return want.cliStream.Accounting().WrapEvents == 1 }},
		{"reordered and retransmitted", func(int) int { return 300 << 10 },
			func(r *rand.Rand, cli, srv []tcpStep) []tcpStep {
				var steps []tcpStep
				for _, st := range interleave(r, cli, srv) {
					steps = append(steps, st)
					if r.Intn(6) == 0 { // a late copy that straddles the cursor, with different bytes
						again := bytes.ToUpper(st.data[len(st.data)/2:])
						steps = append(steps, tcpStep{dir: st.dir, flags: st.flags, seq: st.seq + uint32(len(st.data)/2), data: append(again, "tail"...)})
					}
				}
				for i := range steps {
					j := min(i+r.Intn(12), len(steps)-1)
					steps[i], steps[j] = steps[j], steps[i]
				}
				return steps
			},
			func(want *connStreams) bool {
				cli, srv := want.cliStream.Accounting(), want.srvStream.Accounting()
				return cli.PeakPendingBytes+srv.PeakPendingBytes > 0 && cli.DuplicateBytes+srv.DuplicateBytes > 0
			}},
		{"gaps past MaxPending", func(int) int { return 4 * reassembly.DefaultMaxPending },
			func(r *rand.Rand, cli, srv []tcpStep) []tcpStep {
				// The capture lost a segment early and one later in each
				// direction that has them to lose: records desynchronize,
				// alike on both sides.
				drop := func(steps []tcpStep) (kept []tcpStep) {
					for i, st := range steps {
						if len(steps) < 8 || i != 2 && i != len(steps)/2 {
							kept = append(kept, st)
						}
					}
					return kept
				}
				return interleave(r, drop(cli), drop(srv))
			},
			func(want *connStreams) bool {
				return want.cliStream.Accounting().GapEvents+want.srvStream.Accounting().GapEvents >= 2
			}},
		{"past the limit", func(limit int) int { return limit + limit/4 },
			func(r *rand.Rand, cli, srv []tcpStep) []tcpStep { return interleave(r, cli, srv) },
			func(want *connStreams) bool { return want.cliBuf.Overflow+want.srvBuf.Overflow > 0 }},
		{"data after RST", func(int) int { return 200 << 10 },
			func(r *rand.Rand, cli, srv []tcpStep) []tcpStep {
				steps := interleave(r, cli, srv)
				mid := len(steps) / 2
				rsts := []tcpStep{
					{dir: flows.DirResp, flags: layers.TCPRst, seq: 12345},           // blind: off the cursor
					{dir: steps[mid].dir, flags: layers.TCPRst, seq: steps[mid].seq}, // plausible
				}
				return append(append(append([]tcpStep{}, steps[:mid]...), rsts...), steps[mid:]...)
			},
			func(want *connStreams) bool { return want.bogusRST == 1 && want.postRSTData > 0 }},
	}
	a := NewAnalyzer(Options{PayloadAnalysis: true})
	empty := fmt.Appendf(reportBytes(t, appsReport(newAppAggregates())), "\nsmtp accepted 0 rejected 0")
	for _, proto := range recordProtos {
		conn := tcpConn(hostA, hostB, 40123, proto.port, flows.StateEstablished)
		for _, sched := range schedules {
			t.Run(proto.name+"/"+sched.name, func(t *testing.T) {
				r := rand.New(rand.NewSource(21))
				cli, srv := proto.streams(r, sched.size(bufferedProtos[proto.name]))
				steps := append(syn, sched.steps(r, segments(flows.DirOrig, cliISN, cli), segments(flows.DirResp, srvISN, srv))...)
				got, want := newConnStreams(proto.name, conn, true), newConnStreams(proto.name, conn, false)
				if cap(want.cliBuf.Buf) != 0 || got.cliBuf.Limit != 0 || want.cliBuf.Limit != bufferedProtos[proto.name] {
					t.Fatal("the pair under test is not one parsed and one buffered connection")
				}
				var folded [2][]byte
				for i, app := range []*connStreams{got, want} {
					driveSink(app, conn, steps)
					ap := newAppAggregates()
					a.parseConnPayload(ap, 0, pipeline.ConnRecord{Conn: conn}, proto.name, app)
					// The SMTP verdicts reach no report; compare them as banked.
					folded[i] = fmt.Appendf(reportBytes(t, appsReport(ap)), "\nsmtp accepted %d rejected %d", ap.email.smtpAccepted, ap.email.smtpRejected)
				}
				if !sched.hit(want) {
					t.Fatalf("the schedule did not produce its event: %+v / %+v", want.cliStream.Accounting(), want.srvStream.Accounting())
				}
				if bytes.Equal(folded[1], empty) {
					t.Fatal("schedule too weak: the reference folded nothing")
				}
				if !bytes.Equal(folded[0], folded[1]) {
					t.Errorf("the parsed connection folds differently from the buffered one:\n got %s\nwant %s", folded[0], folded[1])
				}
				if held := cap(got.cliBuf.Buf) + cap(got.srvBuf.Buf); held != 0 {
					t.Errorf("the parsed connection holds %d bytes of pooled stream storage", held)
				}
				if g, w := got.cliStream.Accounting(), want.cliStream.Accounting(); g != w {
					t.Errorf("client ledger differs:\n got %+v\nwant %+v", g, w)
				}
				if g, w := got.srvStream.Accounting(), want.srvStream.Accounting(); g != w {
					t.Errorf("server ledger differs:\n got %+v\nwant %+v", g, w)
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
}

// TestPoolParksLessSinceRecordParsers pins what taking five protocols off
// the buffer path did to the process-wide reassembly pool: after all 18
// D3 traces it parked 19 546 112 bytes when this test was written, most
// of it 1–2 MiB buffers that only NCP, CIFS and NFS streams grew to, and
// parks a fifth of that now — under a bound that no longer lets it hold
// 32 MiB per size class.
func TestPoolParksLessSinceRecordParsers(t *testing.T) {
	if testing.Short() {
		t.Skip("a full 18-trace D3 analysis in -short mode")
	}
	const parkedBefore = 19_546_112
	cfg := enterprise.D3()
	a := NewAnalyzer(Options{Dataset: cfg.Name, KnownScanners: enterprise.KnownScanners(), PayloadAnalysis: true})
	for _, tr := range gen.GenerateDataset(cfg).Traces {
		if err := a.AddTrace(TraceInput{Name: tr.Prefix.String(), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			t.Fatal(err)
		}
	}
	if r := a.Report(); r.FileSvc.NCPRequests == 0 || r.Windows.CIFSTotalRequests == 0 {
		t.Fatal("the run parsed no NCP or CIFS; its pool reading would pin nothing")
	}
	parked := reassembly.ParkedBytes()
	t.Logf("the reassembly pool parks %d bytes after an 18-trace D3 run; it parked %d before the record parsers", parked, parkedBefore)
	if parked == 0 || parked > parkedBefore/2 {
		t.Errorf("the pool parks %d bytes, want some and under half of %d", parked, parkedBefore)
	}
}

// TestRegistrationStreamsAreBounded pins the two streams replay must read
// before it can classify anything: an FTP control channel's server side
// and an Endpoint Mapper connection keep the first bufferedProtos bytes of
// each direction, however long the responder goes on. A PASV reply within
// the limit still registers its port; one past it is not seen.
func TestRegistrationStreamsAreBounded(t *testing.T) {
	const isn = 1000
	early, late := "227 Entering Passive Mode (10,0,0,9,31,64)\r\n", "227 Entering Passive Mode (10,0,0,9,31,65)\r\n"
	flood := append([]byte(early), bytes.Repeat([]byte("230-still talking, at great length, about nothing\r\n"), 8<<20/50)...)
	flood = append(flood, late...)
	for _, c := range []struct {
		name string
		port uint16
	}{{"FTP", 21}, {"DCE/RPC-EPM", 135}} {
		t.Run(c.name, func(t *testing.T) {
			limit := bufferedProtos[c.name]
			if limit == 0 || len(flood) < 8*limit {
				t.Fatalf("limit %d against a %d-byte stream", limit, len(flood))
			}
			conn := tcpConn(hostA, hostB, 40123, c.port, flows.StateEstablished)
			app := newConnStreams(c.name, conn, true)
			// A lost segment now and then, so the Endpoint Mapper's buffer
			// has its limit to count across segments.
			var steps []tcpStep
			for i, st := range segments(flows.DirResp, isn, flood) {
				if i%97 != 5 {
					steps = append(steps, st)
				}
			}
			driveSink(app, conn, steps)
			app.srvStream.Close()
			kept, storage := len(app.srvBuf.Buf), cap(app.srvBuf.Buf)
			if app.epmSrv != nil {
				for _, seg := range app.epmSrv.segments() {
					kept, storage = kept+len(seg), storage+cap(seg)
				}
				if len(app.epmSrv.segments()) < 2 {
					t.Error("the schedule left the Endpoint Mapper stream in one segment")
				}
			}
			if kept != limit || storage > 2*limit {
				t.Errorf("an %d-byte responder stream is kept as %d bytes in %d of storage, want %d", len(flood), kept, storage, limit)
			}
			if c.name == "FTP" {
				a := NewAnalyzer(Options{PayloadAnalysis: true})
				a.replayFTPRegistrations(hostB, app.srvBuf.Buf)
				for port, want := range map[uint16]string{31<<8 | 64: "FTP-Data", 31<<8 | 65: ""} {
					if got, _ := a.registry.Classify(layers.ProtoTCP, hostA, hostB, 40200, port); got != want {
						t.Errorf("port %d classifies as %q after the registrations, want %q", port, got, want)
					}
				}
			}
			app.release()
		})
	}
}
