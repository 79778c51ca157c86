package core

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/appproto/ftp"
	"enttrace/internal/categories"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
)

// replayHost builds an in-enterprise host for hand-crafted traces.
func replayHost(addr string, mac byte) enterprise.Host {
	return enterprise.Host{
		Addr: netip.MustParseAddr(addr),
		MAC:  layers.MAC{0x02, 0x00, 0x00, 0x00, 0x00, mac},
	}
}

// registrationOrderTrace builds a trace that pins the classification
// snapshot semantics of the two-phase replay: for both dynamic
// registration mechanisms (FTP PASV and the DCE/RPC Endpoint Mapper), a
// connection to the advertised port that starts BEFORE the registering
// connection must stay unclassified, while an identical one starting
// after it must classify (and parse) as the registered service.
func registrationOrderTrace() TraceInput {
	const (
		ftpDataPort uint16 = 35021
		spoolssPort uint16 = 42101
	)
	clientA := replayHost("128.3.2.10", 1)
	clientB := replayHost("128.3.2.11", 2)
	clientC := replayHost("128.3.2.12", 3)
	ftpSrv := replayHost("128.3.7.5", 4)
	dc := replayHost("128.3.7.6", 5)

	em := gen.NewEmitter(41)
	t0 := time.Unix(1_100_000_000, 0)
	rtt := 10 * time.Millisecond

	// Spoolss-shaped payload: a bind plus three WritePrinter requests —
	// identical on the early and late connections, so a classification
	// leak would show up as extra counted requests.
	spoolssTurns := func() []gen.Turn {
		turns := []gen.Turn{
			{FromClient: true, Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBind, CallID: 1, Iface: dcerpc.IfSpoolss})},
			{Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBindAck, CallID: 1, Iface: dcerpc.IfSpoolss})},
		}
		for j := 0; j < 3; j++ {
			turns = append(turns,
				gen.Turn{FromClient: true, Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, CallID: uint32(2 + j), Opnum: dcerpc.OpSpoolssWritePrinter, Stub: make([]byte, 512)})},
				gen.Turn{Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTResponse, CallID: uint32(2 + j), Stub: make([]byte, 16)})},
			)
		}
		return turns
	}
	bulkTurns := []gen.Turn{
		{FromClient: true, Data: make([]byte, 2048)},
		{Data: make([]byte, 512)},
	}

	// Early connections to the not-yet-registered ports.
	em.TCPSession(gen.TCPOpts{Client: clientA, Server: ftpSrv, ClientPort: 40001, ServerPort: ftpDataPort,
		Start: t0, RTT: rtt, Turns: bulkTurns})
	em.TCPSession(gen.TCPOpts{Client: clientB, Server: dc, ClientPort: 40002, ServerPort: spoolssPort,
		Start: t0.Add(1 * time.Second), RTT: rtt, Turns: spoolssTurns()})

	// The registering connections.
	var ftpTurns []gen.Turn
	for _, turn := range ftp.RetrievalDialogue("alice", "data.bin", [4]byte{128, 3, 7, 5}, ftpDataPort) {
		ftpTurns = append(ftpTurns, gen.Turn{FromClient: turn.FromClient, Data: turn.Data})
	}
	em.TCPSession(gen.TCPOpts{Client: clientA, Server: ftpSrv, ClientPort: 40003, ServerPort: 21,
		Start: t0.Add(2 * time.Second), RTT: rtt, Turns: ftpTurns})
	em.TCPSession(gen.TCPOpts{Client: clientB, Server: dc, ClientPort: 40004, ServerPort: 135,
		Start: t0.Add(3 * time.Second), RTT: rtt, Turns: []gen.Turn{
			{FromClient: true, Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBind, CallID: 1, Iface: dcerpc.IfEPM})},
			{Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBindAck, CallID: 1, Iface: dcerpc.IfEPM})},
			{FromClient: true, Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, CallID: 2, Opnum: dcerpc.OpEpmMap, Stub: make([]byte, 24)})},
			{Data: dcerpc.EncodeEpmMapResponse(2, dcerpc.IfSpoolss, dc.Addr, spoolssPort)},
		}})

	// Late connections to the now-registered ports.
	em.TCPSession(gen.TCPOpts{Client: clientC, Server: ftpSrv, ClientPort: 40005, ServerPort: ftpDataPort,
		Start: t0.Add(4 * time.Second), RTT: rtt, Turns: bulkTurns})
	em.TCPSession(gen.TCPOpts{Client: clientC, Server: dc, ClientPort: 40006, ServerPort: spoolssPort,
		Start: t0.Add(5 * time.Second), RTT: rtt, Turns: spoolssTurns()})

	return TraceInput{
		Name:      "registration-order",
		Monitored: netip.MustParsePrefix("128.3.0.0/16"),
		Packets:   em.Packets(),
	}
}

func analyzeRegistrationOrder(t *testing.T, workers, replayWorkers int) *Report {
	t.Helper()
	a := NewAnalyzer(Options{
		Dataset:         "order",
		PayloadAnalysis: true,
		Workers:         workers,
		ReplayWorkers:   replayWorkers,
	})
	if err := a.AddTrace(registrationOrderTrace()); err != nil {
		t.Fatal(err)
	}
	return a.Report()
}

// TestReplayRegistrationOrdering is the direct serial-replay versus
// parallel-replay equality test: the PASV- and EPM-registered ports must
// classify only later-starting connections, identically for every
// replay worker count.
func TestReplayRegistrationOrdering(t *testing.T) {
	serial := analyzeRegistrationOrder(t, 1, 1)

	// Snapshot semantics: exactly one data connection counted as
	// FTP-Data — the one starting after the control connection's PASV.
	if got := serial.Bulk.FTPDataConns; got != 1 {
		t.Errorf("FTP-Data conns = %d, want 1 (late connection only)", got)
	}
	if serial.Bulk.FTPSessions != 1 || serial.Bulk.FTPTransfers != 1 {
		t.Errorf("FTP sessions/transfers = %d/%d, want 1/1",
			serial.Bulk.FTPSessions, serial.Bulk.FTPTransfers)
	}
	// Exactly the EPM map request plus the late connection's three
	// WritePrinter requests; the early (pre-registration) connection's
	// identical payload must not be parsed.
	if got := serial.Windows.RPCTotalRequests; got != 4 {
		t.Errorf("RPC requests = %d, want 4 (1 EPM map + 3 late WritePrinter)", got)
	}
	if frac := serial.Windows.RPCRequests["Spoolss/WritePrinter"]; math.Abs(frac-0.75) > 1e-9 {
		t.Errorf("WritePrinter share = %v, want 0.75", frac)
	}

	for _, grid := range [][2]int{{1, 4}, {1, 8}, {4, 1}, {4, 4}, {8, 8}} {
		got := analyzeRegistrationOrder(t, grid[0], grid[1])
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("report with %d pipeline / %d replay workers differs from serial replay",
				grid[0], grid[1])
		}
	}
}

// TestPairShardBalance holds the pair→shard map to an even split: worker
// balance decides when the replay frontier passes a window, so a skewed
// map would show up as window lag. The population is every host pair of
// a D3 dataset, since the map holds for the Analyzer's lifetime; one
// trace's ≈1 100 pairs spread up to 1.25× at eight shards under any good
// hash, which is sampling noise rather than skew.
func TestPairShardBalance(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 0.3
	pairs := make(map[layers.HostPair]bool)
	var p layers.Packet
	for _, tr := range gen.GenerateDataset(cfg).Traces {
		for _, pk := range tr.Packets {
			if layers.Decode(pk.Data, pk.OrigLen, &p) != nil {
				continue
			}
			if k, ok := layers.FlowKeyOf(&p); ok {
				pairs[layers.NewHostPair(k.Src, k.Dst)] = true
			}
		}
	}
	if len(pairs) < 5000 {
		t.Fatalf("%d host pairs: too few to tell skew from noise", len(pairs))
	}
	for _, n := range []int{2, 4, 8} {
		counts := make([]int, n)
		for hp := range pairs {
			if s := pairShard(hp.B, hp.A, n); s != pairShard(hp.A, hp.B, n) {
				t.Fatalf("pair %v maps to shards %d and %d by argument order", hp, s, pairShard(hp.A, hp.B, n))
			}
			counts[pairShard(hp.A, hp.B, n)]++
		}
		if most := slices.Max(counts); float64(most) > 1.15*float64(len(pairs))/float64(n) {
			t.Errorf("%d shards: the largest holds %d of %d pairs (%.3f× its share): %v",
				n, most, len(pairs), float64(most*n)/float64(len(pairs)), counts)
		}
	}
}

// FuzzReplayFTPRegistrations holds the one walk of buffered stream bytes
// replay still makes — the CRLF scan of an FTP control connection's
// server side for 227 replies — to a reference that splits the stream
// with bytes.Split and parses every complete line: over arbitrary bytes
// the two must find the same set of data ports, and what the scan finds
// must be what reaches the registry, scoped to the server.
func FuzzReplayFTPRegistrations(f *testing.F) {
	const pasv = "227 Entering Passive Mode (128,3,7,5,136,205)\r\n"
	f.Add([]byte("220 ready\r\n" + pasv + "226 done\r\n"))
	f.Add([]byte("220 ready\r\n227 Entering Passive Mode (128,3,7,5,\r\n136,205)\r\n")) // a 227 line split in two
	f.Add([]byte("227 Entering Passive Mode (128,3,7,5,136,205)\r"))                    // a bare CR: the line never ends
	f.Add([]byte(strings.Repeat("x", 1<<20) + "\r\n" + pasv))                           // a 227 after 1 MiB of one line
	server, other := netip.MustParseAddr("128.3.7.5"), netip.MustParseAddr("128.3.7.6")
	f.Fuzz(func(t *testing.T, srv []byte) {
		want := make(map[uint16]bool)
		lines := bytes.Split(srv, []byte("\r\n"))
		for _, line := range lines[:len(lines)-1] { // what follows the last CRLF is not a line yet
			if code, text, ok := ftp.ParseReplyLine(line); ok && code == 227 {
				if port, ok := ftp.PasvPortFromText(text); ok {
					want[port] = true
				}
			}
		}
		got := make(map[uint16]bool)
		pasvPorts(srv, func(port uint16) { got[port] = true })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the scan found data ports %v, the split-lines reference %v", got, want)
		}
		a := NewAnalyzer(Options{Dataset: "ftp"})
		a.replayFTPRegistrations(server, srv)
		for port := range want {
			if categories.WellKnown(layers.ProtoTCP, port) != "" {
				continue // the static table names the port, whatever is registered
			}
			if name, _ := a.registry.Classify(layers.ProtoTCP, other, server, 40000, port); name != "FTP-Data" {
				t.Fatalf("port %d advertised by the server classifies as %q there", port, name)
			}
			if name, _ := a.registry.Classify(layers.ProtoTCP, server, other, 40000, port); name != "" {
				t.Fatalf("port %d advertised by the server classifies as %q on another host", port, name)
			}
		}
	})
}
