package gen

import (
	"bytes"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/reassembly"
)

func hosts() (c, s enterprise.Host) {
	return enterprise.InternalHost(3, 20), enterprise.InternalHost(6, 2)
}

func t0() time.Time { return time.Unix(1100000000, 0).UTC() }

// runThroughFlows decodes emitted frames and feeds them into a connection
// table, returning the conns — the generator's packets must be readable by
// the real analysis path.
func runThroughFlows(t *testing.T, pkts []*pcap.Packet) []*flows.Conn {
	t.Helper()
	tbl := flows.NewTable(flows.Config{})
	var p layers.Packet
	for _, pk := range pkts {
		if err := layers.Decode(pk.Data, pk.OrigLen, &p); err != nil {
			t.Fatalf("generated frame undecodable: %v", err)
		}
		tbl.Packet(pk.Timestamp, &p, pk.OrigLen)
	}
	tbl.Flush()
	return tbl.Conns()
}

func TestTCPSessionEstablished(t *testing.T) {
	c, s := hosts()
	em := NewEmitter(1)
	payload := bytes.Repeat([]byte{0x42}, 5000)
	em.TCPSession(TCPOpts{
		Client: c, Server: s, ClientPort: 40000, ServerPort: 80,
		Start: t0(), RTT: time.Millisecond,
		Turns: []Turn{
			{FromClient: true, Data: []byte("request")},
			{Data: payload},
		},
	})
	conns := runThroughFlows(t, em.Packets())
	if len(conns) != 1 {
		t.Fatalf("conns = %d", len(conns))
	}
	conn := conns[0]
	if conn.State != flows.StateEstablished {
		t.Errorf("state = %v", conn.State)
	}
	if conn.OrigBytes != 7 || conn.RespBytes != 5000 {
		t.Errorf("bytes = %d/%d", conn.OrigBytes, conn.RespBytes)
	}
	if conn.Retrans != 0 {
		t.Errorf("unexpected retransmissions: %d", conn.Retrans)
	}
}

func TestTCPSessionReassembles(t *testing.T) {
	// The emitted segments must reassemble to exactly the turn data.
	c, s := hosts()
	em := NewEmitter(2)
	want := bytes.Repeat([]byte("0123456789abcdef"), 700) // > 7 segments
	em.TCPSession(TCPOpts{
		Client: c, Server: s, ClientPort: 40001, ServerPort: 13724,
		Start: t0(), RTT: 500 * time.Microsecond,
		Turns: []Turn{{FromClient: true, Data: want}},
	})
	var buf reassembly.BufferConsumer
	stream := reassembly.NewStream(&buf)
	var p layers.Packet
	for _, pk := range em.Packets() {
		if err := layers.Decode(pk.Data, pk.OrigLen, &p); err != nil {
			t.Fatal(err)
		}
		if !p.Layers.Has(layers.LayerTCP) || p.IP4.Src != c.Addr || len(p.Payload) == 0 {
			continue
		}
		if p.TCP.Flags&layers.TCPSyn != 0 {
			continue
		}
		stream.Segment(p.TCP.Seq, p.Payload)
	}
	stream.Close()
	if !bytes.Equal(buf.Buf, want) {
		t.Errorf("reassembled %d bytes, want %d (gaps=%d)", len(buf.Buf), len(want), buf.Gaps)
	}
}

func TestTCPOutcomes(t *testing.T) {
	c, s := hosts()
	for _, tc := range []struct {
		outcome Outcome
		state   flows.State
	}{
		{Rejected, flows.StateRejected},
		{Unanswered, flows.StateAttempted},
	} {
		em := NewEmitter(3)
		em.TCPSession(TCPOpts{
			Client: c, Server: s, ClientPort: 40002, ServerPort: 445,
			Start: t0(), RTT: time.Millisecond, Outcome: tc.outcome,
		})
		conns := runThroughFlows(t, em.Packets())
		if len(conns) != 1 || conns[0].State != tc.state {
			t.Errorf("outcome %v → state %v", tc.outcome, conns[0].State)
		}
	}
}

func TestLossInjectionProducesRetransmissions(t *testing.T) {
	c, s := hosts()
	em := NewEmitter(4)
	em.TCPSession(TCPOpts{
		Client: c, Server: s, ClientPort: 40003, ServerPort: 13724,
		Start: t0(), RTT: time.Millisecond,
		Turns:    []Turn{{FromClient: true, Data: make([]byte, 300*MSS)}},
		LossProb: 0.05,
	})
	conns := runThroughFlows(t, em.Packets())
	if len(conns) != 1 {
		t.Fatal("want one conn")
	}
	r := conns[0].Retrans
	if r < 5 || r > 40 {
		t.Errorf("retransmissions = %d, want ≈15 of 300 segments", r)
	}
}

func TestKeepAlivesDetected(t *testing.T) {
	c, s := hosts()
	em := NewEmitter(5)
	em.TCPSession(TCPOpts{
		Client: c, Server: s, ClientPort: 40004, ServerPort: 524,
		Start: t0(), RTT: time.Millisecond,
		Turns:      []Turn{{FromClient: true, Data: []byte("ab")}},
		KeepAlives: 5, KeepAliveGap: time.Minute,
		NoFin: true,
	})
	conns := runThroughFlows(t, em.Packets())
	if len(conns) != 1 {
		t.Fatal("want one conn")
	}
	if conns[0].KeepAliveRetrans != 5 {
		t.Errorf("keepalives = %d, want 5", conns[0].KeepAliveRetrans)
	}
	if conns[0].Retrans != 0 {
		t.Errorf("retrans = %d", conns[0].Retrans)
	}
}

func TestPacketsSortedAndDeterministic(t *testing.T) {
	net := enterprise.NewNetwork(scaled(enterprise.D0(), 0.1))
	p1 := GenerateTrace(net, 3, 0)
	p2 := GenerateTrace(net, 3, 0)
	if len(p1) == 0 {
		t.Fatal("empty trace")
	}
	if len(p1) != len(p2) {
		t.Fatalf("nondeterministic: %d vs %d packets", len(p1), len(p2))
	}
	for i := range p1 {
		if !p1[i].Timestamp.Equal(p2[i].Timestamp) || !bytes.Equal(p1[i].Data, p2[i].Data) {
			t.Fatalf("packet %d differs between runs", i)
		}
		if i > 0 && p1[i].Timestamp.Before(p1[i-1].Timestamp) {
			t.Fatalf("packet %d out of order", i)
		}
	}
}

func scaled(cfg enterprise.Config, s float64) enterprise.Config {
	cfg.Scale = s
	return cfg
}

func TestTraceDecodableAndMixed(t *testing.T) {
	net := enterprise.NewNetwork(scaled(enterprise.D3(), 0.2))
	pkts := GenerateTrace(net, 5, 0)
	var p layers.Packet
	var ip, arp, ipx, tcp, udp, icmp int
	for _, pk := range pkts {
		if err := layers.Decode(pk.Data, pk.OrigLen, &p); err != nil {
			t.Fatalf("undecodable frame: %v", err)
		}
		switch {
		case p.Layers.Has(layers.LayerIPv4):
			ip++
		case p.Layers.Has(layers.LayerARP):
			arp++
		case p.Layers.Has(layers.LayerIPX):
			ipx++
		}
		switch {
		case p.Layers.Has(layers.LayerTCP):
			tcp++
		case p.Layers.Has(layers.LayerUDP):
			udp++
		case p.Layers.Has(layers.LayerICMP):
			icmp++
		}
	}
	if ip == 0 || arp == 0 || ipx == 0 || tcp == 0 || udp == 0 || icmp == 0 {
		t.Errorf("missing traffic classes: ip=%d arp=%d ipx=%d tcp=%d udp=%d icmp=%d", ip, arp, ipx, tcp, udp, icmp)
	}
	if float64(ip) < 0.9*float64(len(pkts)) {
		t.Errorf("IP fraction = %d/%d, want > 90%%", ip, len(pkts))
	}
}

func TestDatasetSnaplen(t *testing.T) {
	cfg := scaled(enterprise.D1(), 0.03)
	cfg.Monitored = cfg.Monitored[:2]
	ds := GenerateDataset(cfg)
	if len(ds.Traces) != 2*cfg.PerTap {
		t.Fatalf("traces = %d", len(ds.Traces))
	}
	truncated := 0
	for _, tr := range ds.Traces {
		for _, pk := range tr.Packets {
			if len(pk.Data) > 68 {
				t.Fatalf("packet exceeds snaplen: %d bytes", len(pk.Data))
			}
			if pk.OrigLen > len(pk.Data) {
				truncated++
			}
		}
	}
	if truncated == 0 {
		t.Error("no packets truncated at snaplen 68")
	}
	if ds.TotalPackets() == 0 {
		t.Error("empty dataset")
	}

	// A header trace is the whole-frame trace cut at 68 bytes — same
	// frames, same order, wire lengths intact — and holds no more memory
	// than it shows: frames are built at capture length, not built whole
	// and resliced over a 1 500-byte array (which pinned 5 886 816 bytes
	// behind this trace's 612 552).
	d2 := scaled(enterprise.D2(), 0.15)
	d2.Monitored = d2.Monitored[:1]
	header := func() []*pcap.Packet { return GenerateDataset(d2).Traces[0].Packets }
	t.Run("keeps-what-it-captures", func(t *testing.T) {
		uncut := d2
		uncut.Snaplen = 0
		whole := GenerateDataset(uncut).Traces[0].Packets
		pkts := header()
		if len(pkts) != len(whole) || len(pkts) == 0 {
			t.Fatalf("%d packets at snaplen 68, %d uncut", len(pkts), len(whole))
		}
		kept, pinned := 0, 0
		for i, pk := range pkts {
			w := whole[i].Data
			if pk.OrigLen != len(w) || !pk.Timestamp.Equal(whole[i].Timestamp) {
				t.Fatalf("packet %d: wire length %d at %v, uncut frame is %d bytes at %v",
					i, pk.OrigLen, pk.Timestamp, len(w), whole[i].Timestamp)
			}
			if !bytes.Equal(pk.Data, w[:min(len(w), 68)]) {
				t.Fatalf("packet %d: captured bytes are not the uncut frame's first %d", i, len(pk.Data))
			}
			kept += len(pk.Data)
			pinned += cap(pk.Data)
		}
		if pinned != kept {
			t.Errorf("trace keeps %d bytes and pins %d", kept, pinned)
		}
	})
	// Frames share arena chunks end to end; a consumer appending to one
	// must get a new array, not the next frame's bytes.
	t.Run("append-leaves-neighbours-alone", func(t *testing.T) {
		pkts := header()
		before := make([][]byte, len(pkts))
		for i, pk := range pkts {
			before[i] = bytes.Clone(pk.Data)
		}
		for _, pk := range pkts {
			pk.Data = append(pk.Data, 0xee, 0xee, 0xee, 0xee)
		}
		for i, pk := range pkts {
			if !bytes.Equal(pk.Data[:len(before[i])], before[i]) {
				t.Fatalf("packet %d changed when other packets' Data were appended to", i)
			}
		}
	})
}

func TestWriteTraceRoundTrip(t *testing.T) {
	cfg := scaled(enterprise.D0(), 0.03)
	cfg.Monitored = cfg.Monitored[:1]
	ds := GenerateDataset(cfg)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cfg, ds.Traces[0]); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pcap.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds.Traces[0].Packets) {
		t.Errorf("pcap round trip: %d vs %d packets", len(got), len(ds.Traces[0].Packets))
	}
	for i := range got {
		if got[i].OrigLen != ds.Traces[0].Packets[i].OrigLen {
			t.Fatalf("packet %d origlen lost", i)
		}
	}
}

func TestMulticastEmission(t *testing.T) {
	net := enterprise.NewNetwork(scaled(enterprise.D4(), 0.2))
	pkts := GenerateTrace(net, 5, 0)
	conns := runThroughFlows(t, pkts)
	mcast := 0
	for _, c := range conns {
		if c.Multicast {
			mcast++
		}
	}
	if mcast == 0 {
		t.Error("no multicast flows generated")
	}
}

func BenchmarkGenerateTrace(b *testing.B) {
	net := enterprise.NewNetwork(scaled(enterprise.D4(), 0.1))
	captured := 0
	for _, pk := range GenerateTrace(net, 5, 0) {
		captured += len(pk.Data)
	}
	b.SetBytes(int64(captured))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GenerateTrace(net, 5, 0)
	}
}
