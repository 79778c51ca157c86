package flows

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"enttrace/internal/layers"
)

var (
	macA = layers.MAC{0, 1, 2, 3, 4, 5}
	macB = layers.MAC{6, 7, 8, 9, 10, 11}
	ipA  = netip.MustParseAddr("10.0.0.1")
	ipB  = netip.MustParseAddr("10.0.0.2")
	ipC  = netip.MustParseAddr("192.168.9.9")
)

func t0(ms int64) time.Time { return time.Unix(100, 0).Add(time.Duration(ms) * time.Millisecond) }

func feedTCP(t *testing.T, tbl *Table, ts time.Time, src, dst netip.Addr, sp, dp uint16, seq, ack uint32, flags uint8, payload []byte) (*Conn, Dir) {
	t.Helper()
	frame := layers.BuildTCP(layers.TCPOpts{
		FrameOpts: layers.FrameOpts{SrcMAC: macA, DstMAC: macB, SrcIP: src, DstIP: dst},
		SrcPort:   sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags, Payload: payload,
	})
	var p layers.Packet
	if err := layers.Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	c, dir, _ := tbl.Packet(ts, &p, len(frame))
	return c, dir
}

func feedUDP(t *testing.T, tbl *Table, ts time.Time, src, dst netip.Addr, sp, dp uint16, n int) (*Conn, Dir) {
	t.Helper()
	frame := layers.BuildUDP(layers.UDPOpts{
		FrameOpts: layers.FrameOpts{SrcMAC: macA, DstMAC: macB, SrcIP: src, DstIP: dst},
		SrcPort:   sp, DstPort: dp, Payload: make([]byte, n),
	})
	var p layers.Packet
	if err := layers.Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	c, dir, _ := tbl.Packet(ts, &p, len(frame))
	return c, dir
}

func TestTCPHandshakeEstablished(t *testing.T) {
	tbl := NewTable(Config{})
	c1, d1 := feedTCP(t, tbl, t0(0), ipA, ipB, 3000, 80, 100, 0, layers.TCPSyn, nil)
	if d1 != DirOrig {
		t.Error("SYN should be originator direction")
	}
	c2, d2 := feedTCP(t, tbl, t0(1), ipB, ipA, 80, 3000, 500, 101, layers.TCPSyn|layers.TCPAck, nil)
	if c1 != c2 {
		t.Fatal("same connection expected")
	}
	if d2 != DirResp {
		t.Error("SYN-ACK should be responder direction")
	}
	feedTCP(t, tbl, t0(2), ipA, ipB, 3000, 80, 101, 501, layers.TCPAck, []byte("hello"))
	if c1.State != StateEstablished {
		t.Errorf("state = %v", c1.State)
	}
	if !c1.Successful() {
		t.Error("established conn should be successful")
	}
	if c1.OrigBytes != 5 || c1.RespBytes != 0 {
		t.Errorf("bytes orig=%d resp=%d", c1.OrigBytes, c1.RespBytes)
	}
	if c1.Key.Src != ipA || c1.Key.Dst != ipB {
		t.Errorf("orientation: %v", c1.Key)
	}
	if c1.Duration() != 2*time.Millisecond {
		t.Errorf("duration = %v", c1.Duration())
	}
	tbl.Flush()
	if len(tbl.Conns()) != 1 {
		t.Errorf("conns = %d", len(tbl.Conns()))
	}
}

func TestTCPRejected(t *testing.T) {
	tbl := NewTable(Config{})
	c, _ := feedTCP(t, tbl, t0(0), ipA, ipB, 3000, 445, 1, 0, layers.TCPSyn, nil)
	feedTCP(t, tbl, t0(1), ipB, ipA, 445, 3000, 0, 2, layers.TCPRst|layers.TCPAck, nil)
	if c.State != StateRejected {
		t.Errorf("state = %v, want rejected", c.State)
	}
	if c.Successful() {
		t.Error("rejected conn counted successful")
	}
	if c.State.String() != "rejected" {
		t.Errorf("string = %s", c.State)
	}
}

func TestTCPUnanswered(t *testing.T) {
	tbl := NewTable(Config{})
	c, _ := feedTCP(t, tbl, t0(0), ipA, ipB, 3000, 139, 1, 0, layers.TCPSyn, nil)
	feedTCP(t, tbl, t0(500), ipA, ipB, 3000, 139, 1, 0, layers.TCPSyn, nil) // retry
	if c.State != StateAttempted {
		t.Errorf("state = %v, want attempted", c.State)
	}
	if c.Successful() {
		t.Error("unanswered conn counted successful")
	}
	if c.OrigPkts != 2 {
		t.Errorf("pkts = %d", c.OrigPkts)
	}
}

func TestTCPReorientOnLateSYN(t *testing.T) {
	// Trace catches the server's data packet before the client's SYN
	// (possible with the merged unidirectional streams).
	tbl := NewTable(Config{})
	c, _ := feedTCP(t, tbl, t0(0), ipB, ipA, 80, 3000, 900, 0, layers.TCPAck, []byte("srv"))
	feedTCP(t, tbl, t0(1), ipA, ipB, 3000, 80, 100, 0, layers.TCPSyn, nil)
	if c.Key.Src != ipA {
		t.Errorf("conn should reorient to SYN sender: %v", c.Key)
	}
	if c.RespBytes != 3 || c.OrigBytes != 0 {
		t.Errorf("bytes not swapped: orig=%d resp=%d", c.OrigBytes, c.RespBytes)
	}
}

func TestMidstreamActive(t *testing.T) {
	tbl := NewTable(Config{})
	c, _ := feedTCP(t, tbl, t0(0), ipA, ipB, 9, 10, 5, 0, layers.TCPAck, []byte("x"))
	feedTCP(t, tbl, t0(1), ipB, ipA, 10, 9, 50, 6, layers.TCPAck, []byte("y"))
	if c.State != StateActive {
		t.Errorf("state = %v", c.State)
	}
	if !c.Successful() {
		t.Error("bidirectional midstream flow should count successful")
	}
}

func TestRetransmissionDetection(t *testing.T) {
	tbl := NewTable(Config{})
	c, _ := feedTCP(t, tbl, t0(0), ipA, ipB, 1, 2, 1000, 0, layers.TCPAck, []byte("abcd"))
	feedTCP(t, tbl, t0(1), ipA, ipB, 1, 2, 1004, 0, layers.TCPAck, []byte("efgh"))
	feedTCP(t, tbl, t0(2), ipA, ipB, 1, 2, 1004, 0, layers.TCPAck, []byte("efgh")) // retransmission
	feedTCP(t, tbl, t0(3), ipA, ipB, 1, 2, 1000, 0, layers.TCPAck, []byte("abcd")) // older retransmission
	if c.Retrans != 2 {
		t.Errorf("retrans = %d, want 2", c.Retrans)
	}
	if c.KeepAliveRetrans != 0 {
		t.Errorf("keepalives = %d", c.KeepAliveRetrans)
	}
	// New data after retransmissions is not counted.
	feedTCP(t, tbl, t0(4), ipA, ipB, 1, 2, 1008, 0, layers.TCPAck, []byte("ijkl"))
	if c.Retrans != 2 {
		t.Errorf("retrans after new data = %d", c.Retrans)
	}
}

func TestKeepAliveDetection(t *testing.T) {
	// NCP-style keep-alive: 1 byte at snd_nxt-1, repeatedly.
	tbl := NewTable(Config{})
	c, _ := feedTCP(t, tbl, t0(0), ipA, ipB, 1, 524, 100, 0, layers.TCPAck, []byte("ab"))
	for i := 1; i <= 3; i++ {
		feedTCP(t, tbl, t0(int64(i*1000)), ipA, ipB, 1, 524, 101, 0, layers.TCPAck, []byte("b"))
	}
	if c.KeepAliveRetrans != 3 {
		t.Errorf("keepalives = %d, want 3", c.KeepAliveRetrans)
	}
	if c.Retrans != 0 {
		t.Errorf("retrans = %d, want 0", c.Retrans)
	}
}

func TestSYNRetransNotData(t *testing.T) {
	tbl := NewTable(Config{})
	c, _ := feedTCP(t, tbl, t0(0), ipA, ipB, 1, 2, 9, 0, layers.TCPSyn, nil)
	feedTCP(t, tbl, t0(3000), ipA, ipB, 1, 2, 9, 0, layers.TCPSyn, nil)
	if c.Retrans != 0 {
		t.Errorf("SYN retransmission should not count as data retrans, got %d", c.Retrans)
	}
}

func TestUDPFlowAggregation(t *testing.T) {
	tbl := NewTable(Config{})
	c1, _ := feedUDP(t, tbl, t0(0), ipA, ipB, 5000, 53, 30)
	c2, d2 := feedUDP(t, tbl, t0(5), ipB, ipA, 53, 5000, 100)
	if c1 != c2 || d2 != DirResp {
		t.Error("reply should join the same flow as responder")
	}
	if !c1.Successful() {
		t.Error("answered UDP flow should be successful")
	}
	if c1.OrigBytes != 30 || c1.RespBytes != 100 {
		t.Errorf("bytes: %d/%d", c1.OrigBytes, c1.RespBytes)
	}
}

func TestUDPTimeoutSplitsFlows(t *testing.T) {
	tbl := NewTable(Config{UDPTimeout: time.Second})
	c1, _ := feedUDP(t, tbl, t0(0), ipA, ipB, 5000, 123, 48)
	c2, _ := feedUDP(t, tbl, t0(5000), ipA, ipB, 5000, 123, 48) // 5 s later
	if c1 == c2 {
		t.Error("flow should have timed out and split")
	}
	tbl.Flush()
	if n := len(tbl.Conns()); n != 2 {
		t.Errorf("conns = %d, want 2", n)
	}
}

func TestICMPEchoPairing(t *testing.T) {
	tbl := NewTable(Config{})
	build := func(typ uint8, id uint16, src, dst netip.Addr) *layers.Packet {
		frame := layers.BuildICMP(layers.ICMPOpts{
			FrameOpts: layers.FrameOpts{SrcMAC: macA, DstMAC: macB, SrcIP: src, DstIP: dst},
			Type:      typ, ID: id, Seq: 1,
		})
		var p layers.Packet
		if err := layers.Decode(frame, len(frame), &p); err != nil {
			t.Fatal(err)
		}
		return &p
	}
	c1, _, new1 := tbl.Packet(t0(0), build(layers.ICMPEchoRequest, 7, ipA, ipB), 60)
	c2, d, new2 := tbl.Packet(t0(1), build(layers.ICMPEchoReply, 7, ipB, ipA), 60)
	if c1 != c2 || d != DirResp {
		t.Error("echo reply should pair with request")
	}
	if !new1 || new2 {
		t.Errorf("new-connection report = %v then %v, want true then false", new1, new2)
	}
	c3, _, new3 := tbl.Packet(t0(2), build(layers.ICMPEchoRequest, 8, ipA, ipB), 60)
	if c3 == c1 || !new3 {
		t.Error("different echo ID should be a distinct, new flow")
	}
}

func TestMulticastFlagged(t *testing.T) {
	tbl := NewTable(Config{})
	group := netip.MustParseAddr("239.2.11.71")
	frame := layers.BuildUDP(layers.UDPOpts{
		FrameOpts: layers.FrameOpts{SrcMAC: macA, DstMAC: layers.MulticastMAC(group), SrcIP: ipA, DstIP: group},
		SrcPort:   3000, DstPort: 5004, Payload: make([]byte, 200),
	})
	var p layers.Packet
	if err := layers.Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	c, _, _ := tbl.Packet(t0(0), &p, len(frame))
	if !c.Multicast {
		t.Error("multicast flow not flagged")
	}
}

func TestNonIPIgnored(t *testing.T) {
	tbl := NewTable(Config{})
	frame := layers.BuildARP(layers.ARPOpts{SrcMAC: macA, DstMAC: layers.Broadcast, Op: 1, SenderHW: macA, SenderIP: ipA, TargetIP: ipB})
	var p layers.Packet
	if err := layers.Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	if c, _, _ := tbl.Packet(t0(0), &p, len(frame)); c != nil {
		t.Error("ARP should not create a connection")
	}
}

func TestWireBytesAccounting(t *testing.T) {
	tbl := NewTable(Config{})
	c, _ := feedUDP(t, tbl, t0(0), ipA, ipB, 1, 2, 100)
	want := int64(14 + 20 + 8 + 100)
	if c.WireBytes != want {
		t.Errorf("wire bytes = %d, want %d", c.WireBytes, want)
	}
}

// unicastPairs is conns' distinct unicast (originator, responder) pairs,
// the table a trace's census hands FanInOut.
func unicastPairs(conns []*Conn) []Pair {
	var t Pairs
	for _, c := range conns {
		if !c.Multicast {
			t.Add(c.Key.Src, c.Key.Dst)
		}
	}
	return t.List()
}

func TestFanInOut(t *testing.T) {
	tbl := NewTable(Config{})
	// A (monitored, local) talks to B (local) and C (remote).
	feedUDP(t, tbl, t0(0), ipA, ipB, 1000, 53, 10)
	feedUDP(t, tbl, t0(1), ipA, ipC, 1001, 53, 10)
	// C contacts A.
	feedUDP(t, tbl, t0(2), ipC, ipA, 2000, 80, 10)
	// A second conversation with B adds a connection, not a peer.
	feedUDP(t, tbl, t0(3), ipA, ipB, 1002, 53, 10)
	tbl.Flush()
	local := func(a netip.Addr) bool { return a == ipA || a == ipB }
	monitored := func(a netip.Addr) bool { return a == ipA }
	fan := FanInOut(unicastPairs(tbl.Conns()), monitored, local)
	s := fan[ipA]
	if s == nil {
		t.Fatal("no stats for monitored host")
	}
	if s.FanOutLocal != 1 || s.FanOutRemote != 1 || s.FanOut() != 2 {
		t.Errorf("fan-out: %+v", s)
	}
	if s.FanInRemote != 1 || s.FanInLocal != 0 || s.FanIn() != 1 {
		t.Errorf("fan-in: %+v", s)
	}
	if _, ok := fan[ipB]; ok {
		t.Error("unmonitored host should have no entry")
	}
}

func TestFanInOutExcludesMulticast(t *testing.T) {
	tbl := NewTable(Config{})
	group := netip.MustParseAddr("224.0.1.1")
	frame := layers.BuildUDP(layers.UDPOpts{
		FrameOpts: layers.FrameOpts{SrcMAC: macA, DstMAC: layers.MulticastMAC(group), SrcIP: ipA, DstIP: group},
		SrcPort:   427, DstPort: 427, Payload: make([]byte, 50),
	})
	var p layers.Packet
	if err := layers.Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	tbl.Packet(t0(0), &p, len(frame))
	tbl.Flush()
	all := func(netip.Addr) bool { return true }
	fan := FanInOut(unicastPairs(tbl.Conns()), all, all)
	if s := fan[ipA]; s != nil && s.FanOut() != 0 {
		t.Errorf("multicast contributed to fan-out: %+v", s)
	}
}

// TestPairsDeduplicate pins the pair table: one entry per directed pair
// of addresses, in first-connection order.
func TestPairsDeduplicate(t *testing.T) {
	var tbl Pairs
	// ipA as an IPv4-mapped IPv6 address is another host, and an IPv6
	// pair goes through the other index.
	mapped, v6 := netip.AddrFrom16(ipA.As16()), netip.MustParseAddr("2001:db8::1")
	adds := [][2]netip.Addr{{ipA, ipB}, {ipB, ipA}, {ipA, ipB}, {ipA, ipC}, {mapped, ipB}, {v6, mapped}, {ipA, ipB}, {v6, mapped}}
	wantFirst := []bool{true, true, false, true, true, true, false, false}
	for i, ad := range adds {
		if first := tbl.Add(ad[0], ad[1]); first != wantFirst[i] {
			t.Errorf("add %d: first %v, want %v", i, first, wantFirst[i])
		}
	}
	want := []Pair{{ipA, ipB}, {ipB, ipA}, {ipA, ipC}, {mapped, ipB}, {v6, mapped}}
	if got := tbl.List(); !slices.Equal(got, want) {
		t.Errorf("pairs = %v, want %v", got, want)
	}
}

func TestManyConnsDistinct(t *testing.T) {
	tbl := NewTable(Config{})
	for i := 0; i < 100; i++ {
		feedTCP(t, tbl, t0(int64(i)), ipA, ipB, uint16(10000+i), 80, 1, 0, layers.TCPSyn, nil)
	}
	tbl.Flush()
	if n := len(tbl.Conns()); n != 100 {
		t.Errorf("conns = %d, want 100", n)
	}
}

// BenchmarkTablePacket prices one packet of a live connection on each key
// path: IPv4 and IPv6 with ports, and a TCP header the snaplen cut short,
// which keys with zero ports.
func BenchmarkTablePacket(b *testing.B) {
	frame := layers.BuildTCP(layers.TCPOpts{
		FrameOpts: layers.FrameOpts{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB},
		SrcPort:   3000, DstPort: 80, Seq: 1, Flags: layers.TCPAck, Payload: make([]byte, 512),
	})
	v6 := asIPv6(frame, ip6A, ip6B)
	for _, bc := range []struct {
		name    string
		frame   []byte
		origLen int
		port    uint16
	}{
		{"ipv4", frame, len(frame), 3000},
		{"ipv6", v6, len(v6), 3000},
		{"truncated", frame[:14+20+8], len(frame), 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tbl := NewTable(Config{})
			var p layers.Packet
			if err := layers.Decode(bc.frame, bc.origLen, &p); err != nil {
				b.Fatal(err)
			}
			ts := t0(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.Packet(ts, &p, bc.origLen)
			}
			b.StopTimer()
			if c, _, _ := tbl.Packet(ts, &p, bc.origLen); tbl.Live() != 1 || c.Key.SrcPort != bc.port {
				b.Fatalf("%d live connections, key %v: want one, source port %d", tbl.Live(), c.Key, bc.port)
			}
		})
	}
}

// TestDirectionMatchesKeyComparison pins the flip-bit direction against
// the comparison it replaced: a packet is responder → originator exactly
// when its key differs from the connection's as the connection stood when
// the packet arrived — through reorientation, where the connection's key
// turns around under later packets.
func TestDirectionMatchesKeyComparison(t *testing.T) {
	tbl := NewTable(Config{})
	keyOf := map[*Conn]layers.FlowKey{}
	steps := []struct {
		src, dst netip.Addr
		sp, dp   uint16
		flags    uint8
	}{
		{ipB, ipA, 80, 3000, layers.TCPAck},                 // capture starts on the server's side
		{ipA, ipB, 3000, 80, layers.TCPAck},                 // client, still "responder"
		{ipA, ipB, 3000, 80, layers.TCPSyn},                 // late SYN: reorients
		{ipB, ipA, 80, 3000, layers.TCPSyn | layers.TCPAck}, // now the responder
		{ipA, ipB, 3000, 80, layers.TCPAck},
		{ipC, ipC, 7, 7, layers.TCPAck}, // its own reverse: all originator
		{ipC, ipC, 7, 7, layers.TCPSyn},
		{ipC, ipA, 9, 9, layers.TCPAck}, // higher address first
		{ipA, ipC, 9, 9, layers.TCPAck},
	}
	reoriented := false
	for i, st := range steps {
		key := layers.FlowKey{Proto: layers.ProtoTCP, Src: st.src, Dst: st.dst, SrcPort: st.sp, DstPort: st.dp}
		c, dir := feedTCP(t, tbl, t0(int64(i)), st.src, st.dst, st.sp, st.dp, 100, 0, st.flags, nil)
		want := DirOrig
		if was, seen := keyOf[c]; seen && was != key {
			want = DirResp
		}
		if dir != want {
			t.Errorf("step %d (%v): dir = %v, key comparison says %v", i, key, dir, want)
		}
		if was, seen := keyOf[c]; seen && was != c.Key {
			reoriented = true
		}
		keyOf[c] = c.Key
	}
	if !reoriented {
		t.Error("no step reoriented a connection")
	}
}
