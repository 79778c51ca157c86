package layers

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	macA = MAC{0x00, 0x11, 0x22, 0x33, 0x44, 0x55}
	macB = MAC{0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb}
	ipA  = netip.MustParseAddr("10.1.2.3")
	ipB  = netip.MustParseAddr("10.4.5.6")
	ip6A = netip.MustParseAddr("2001:db8::1")
	ip6B = netip.MustParseAddr("2001:db8::2")
)

func frameOpts() FrameOpts {
	return FrameOpts{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB, IPID: 7}
}

func TestTCPRoundTrip(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\n\r\n")
	frame := BuildTCP(TCPOpts{
		FrameOpts: frameOpts(),
		SrcPort:   33000, DstPort: 80,
		Seq: 1000, Ack: 2000,
		Flags:   TCPPsh | TCPAck,
		Payload: payload,
	})
	var p Packet
	if err := Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Layers.Has(LayerEthernet | LayerIPv4 | LayerTCP | LayerPayload) {
		t.Fatalf("layers = %b", p.Layers)
	}
	if p.Eth.Src != macA || p.Eth.Dst != macB || p.Eth.EtherType != EtherTypeIPv4 {
		t.Errorf("ethernet mismatch: %+v", p.Eth)
	}
	if p.IP4.Src != ipA || p.IP4.Dst != ipB || p.IP4.Protocol != ProtoTCP {
		t.Errorf("ipv4 mismatch: %+v", p.IP4)
	}
	if !p.IP4.DF() || p.IP4.MF() || p.IP4.Fragment() {
		t.Errorf("flag decode wrong: %+v", p.IP4)
	}
	if p.TCP.SrcPort != 33000 || p.TCP.DstPort != 80 || p.TCP.Seq != 1000 || p.TCP.Ack != 2000 {
		t.Errorf("tcp mismatch: %+v", p.TCP)
	}
	if p.TCP.Flags != TCPPsh|TCPAck {
		t.Errorf("flags = %#x", p.TCP.Flags)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %q", p.Payload)
	}
	if p.PayloadLen != len(payload) {
		t.Errorf("payload len = %d", p.PayloadLen)
	}
	if p.Truncated {
		t.Error("unexpected truncation")
	}
	if !VerifyIPv4Checksum(frame[14:]) {
		t.Error("IPv4 checksum invalid")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	frame := BuildUDP(UDPOpts{FrameOpts: frameOpts(), SrcPort: 5353, DstPort: 53, Payload: payload})
	var p Packet
	if err := Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Layers.Has(LayerIPv4 | LayerUDP | LayerPayload) {
		t.Fatalf("layers = %b", p.Layers)
	}
	if p.UDP.SrcPort != 5353 || p.UDP.DstPort != 53 || int(p.UDP.Length) != 8+len(payload) {
		t.Errorf("udp mismatch: %+v", p.UDP)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %x", p.Payload)
	}
}

func TestUDPOverIPv6(t *testing.T) {
	o := frameOpts()
	o.SrcIP, o.DstIP = ip6A, ip6B
	frame := BuildUDP(UDPOpts{FrameOpts: o, SrcPort: 1024, DstPort: 53, Payload: []byte("x")})
	var p Packet
	if err := Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Layers.Has(LayerIPv6 | LayerUDP) {
		t.Fatalf("layers = %b", p.Layers)
	}
	if p.IP6.Src != ip6A || p.IP6.Dst != ip6B || p.IP6.NextHeader != ProtoUDP {
		t.Errorf("ipv6 mismatch: %+v", p.IP6)
	}
	src, ok := p.NetSrc()
	if !ok || src != ip6A {
		t.Errorf("NetSrc = %v %v", src, ok)
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	frame := BuildICMP(ICMPOpts{FrameOpts: frameOpts(), Type: ICMPEchoRequest, ID: 77, Seq: 3, Payload: []byte("ping")})
	var p Packet
	if err := Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Layers.Has(LayerICMP) {
		t.Fatalf("layers = %b", p.Layers)
	}
	if p.ICMP.Type != ICMPEchoRequest || p.ICMP.ID != 77 || p.ICMP.Seq != 3 {
		t.Errorf("icmp mismatch: %+v", p.ICMP)
	}
	proto, ok := p.IPProto()
	if !ok || proto != ProtoICMP {
		t.Errorf("IPProto = %d %v", proto, ok)
	}
}

func TestARPRoundTrip(t *testing.T) {
	frame := BuildARP(ARPOpts{
		SrcMAC: macA, DstMAC: Broadcast,
		Op:       1,
		SenderHW: macA, SenderIP: ipA,
		TargetIP: ipB,
	})
	if len(frame) != 60 {
		t.Errorf("ARP frame len = %d, want padded 60", len(frame))
	}
	var p Packet
	if err := Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Layers.Has(LayerARP) {
		t.Fatalf("layers = %b", p.Layers)
	}
	if p.ARP.Op != 1 || p.ARP.SenderIP != ipA || p.ARP.TargetIP != ipB || p.ARP.SenderHW != macA {
		t.Errorf("arp mismatch: %+v", p.ARP)
	}
	if p.Eth.Dst != Broadcast || !p.Eth.Dst.Multicast() {
		t.Error("broadcast dst expected")
	}
}

func TestIPXBothEncapsulations(t *testing.T) {
	for _, raw := range []bool{false, true} {
		frame := BuildIPX(IPXOpts{
			SrcMAC: macA, DstMAC: Broadcast,
			SrcNet: 1, DstNet: 2,
			SrcSocket: 0x4003, DstSocket: 0x0452,
			PacketType: 4,
			Payload:    []byte("sap announce"),
			Raw8023:    raw,
		})
		var p Packet
		if err := Decode(frame, len(frame), &p); err != nil {
			t.Fatalf("raw=%v: %v", raw, err)
		}
		if !p.Layers.Has(LayerIPX) {
			t.Fatalf("raw=%v layers = %b", raw, p.Layers)
		}
		if p.IPX.SrcSocket != 0x4003 || p.IPX.DstSocket != 0x0452 || p.IPX.PacketType != 4 {
			t.Errorf("raw=%v ipx mismatch: %+v", raw, p.IPX)
		}
		if raw && p.Eth.EtherType != 0 {
			t.Errorf("raw frame should have no ethertype, got %#x", p.Eth.EtherType)
		}
		if !raw && p.Eth.EtherType != EtherTypeIPX {
			t.Errorf("ethertype = %#x", p.Eth.EtherType)
		}
	}
}

func TestSnaplenTruncatedTCP(t *testing.T) {
	payload := bytes.Repeat([]byte{0xaa}, 1000)
	frame := BuildTCP(TCPOpts{FrameOpts: frameOpts(), SrcPort: 1, DstPort: 2, Flags: TCPAck, Payload: payload})
	// Simulate the paper's 68-byte snaplen.
	snap := frame[:68]
	var p Packet
	if err := Decode(snap, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Truncated {
		t.Error("should be marked truncated")
	}
	if !p.Layers.Has(LayerTCP) {
		t.Error("TCP header should still decode from 68 bytes")
	}
	if p.PayloadLen != 1000 {
		t.Errorf("PayloadLen = %d, want 1000 (from headers)", p.PayloadLen)
	}
	if len(p.Payload) >= 1000 {
		t.Errorf("captured payload should be short, got %d", len(p.Payload))
	}
}

func TestShortFrame(t *testing.T) {
	var p Packet
	if err := Decode([]byte{1, 2, 3}, 3, &p); err != ErrShortFrame {
		t.Errorf("err = %v, want ErrShortFrame", err)
	}
}

func TestUnknownEtherType(t *testing.T) {
	frame := make([]byte, 20)
	copy(frame[0:6], macB[:])
	copy(frame[6:12], macA[:])
	be.PutUint16(frame[12:14], 0x88cc) // LLDP, not handled
	var p Packet
	if err := Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Layers.Has(LayerEthernet) || p.Layers.Has(LayerIPv4) {
		t.Errorf("layers = %b", p.Layers)
	}
}

func TestFragmentNoTransportParse(t *testing.T) {
	frame := BuildTCP(TCPOpts{FrameOpts: frameOpts(), SrcPort: 9, DstPort: 10, Flags: TCPAck, Payload: []byte("abcdef")})
	// Turn it into a non-first fragment: set frag offset 100, fix checksum.
	ip := frame[14:]
	ip[6], ip[7] = 0x20, 100 // MF + offset
	ip[10], ip[11] = 0, 0
	be.PutUint16(ip[10:12], foldChecksum(internetChecksum(0, ip[:20])))
	var p Packet
	if err := Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	if p.Layers.Has(LayerTCP) {
		t.Error("non-first fragment should not decode TCP")
	}
	if !p.IP4.Fragment() || !p.IP4.MF() {
		t.Errorf("fragment flags: %+v", p.IP4)
	}
}

func TestPacketReset(t *testing.T) {
	frame := BuildTCP(TCPOpts{FrameOpts: frameOpts(), SrcPort: 1, DstPort: 2, Flags: TCPSyn})
	var p Packet
	if err := Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	arp := BuildARP(ARPOpts{SrcMAC: macA, DstMAC: Broadcast, Op: 1, SenderHW: macA, SenderIP: ipA, TargetIP: ipB})
	if err := Decode(arp, len(arp), &p); err != nil {
		t.Fatal(err)
	}
	if p.Layers.Has(LayerTCP) || p.Layers.Has(LayerIPv4) {
		t.Error("stale layers survived reuse")
	}
}

func TestFlowKeyCanonical(t *testing.T) {
	k := FlowKey{Proto: ProtoTCP, Src: ipB, Dst: ipA, SrcPort: 80, DstPort: 33000}
	c1, flipped1 := k.Canonical()
	c2, flipped2 := k.Reverse().Canonical()
	if c1 != c2 {
		t.Errorf("canonical keys differ: %v vs %v", c1, c2)
	}
	if flipped1 == flipped2 {
		t.Error("exactly one direction should be flipped")
	}
	if k.Reverse().Reverse() != k {
		t.Error("double reverse should be identity")
	}
}

func TestFlowKeySamePortOrdering(t *testing.T) {
	k := FlowKey{Proto: ProtoTCP, Src: ipA, Dst: ipA, SrcPort: 9, DstPort: 5}
	c, flipped := k.Canonical()
	if !flipped || c.SrcPort != 5 {
		t.Errorf("same-addr canonicalization: %+v flipped=%v", c, flipped)
	}
}

func TestHostPairUnordered(t *testing.T) {
	if NewHostPair(ipA, ipB) != NewHostPair(ipB, ipA) {
		t.Error("host pair should be direction independent")
	}
}

func TestFlowKeyOf(t *testing.T) {
	frame := BuildUDP(UDPOpts{FrameOpts: frameOpts(), SrcPort: 137, DstPort: 137, Payload: []byte("x")})
	var p Packet
	if err := Decode(frame, len(frame), &p); err != nil {
		t.Fatal(err)
	}
	k, ok := FlowKeyOf(&p)
	if !ok {
		t.Fatal("no flow key")
	}
	if k.Proto != ProtoUDP || k.Src != ipA || k.SrcPort != 137 {
		t.Errorf("key = %v", k)
	}
	// Non-IP packet has no flow key.
	arp := BuildARP(ARPOpts{SrcMAC: macA, DstMAC: Broadcast, Op: 1, SenderHW: macA, SenderIP: ipA, TargetIP: ipB})
	if err := Decode(arp, len(arp), &p); err != nil {
		t.Fatal(err)
	}
	if _, ok := FlowKeyOf(&p); ok {
		t.Error("ARP should not produce a flow key")
	}
}

func TestMulticastMAC(t *testing.T) {
	m := MulticastMAC(netip.MustParseAddr("239.255.255.250"))
	want := MAC{0x01, 0x00, 0x5e, 0x7f, 0xff, 0xfa}
	if m != want {
		t.Errorf("mac = %v, want %v", m, want)
	}
	if !m.Multicast() {
		t.Error("multicast bit missing")
	}
}

// Property: any generated TCP frame decodes back to the same header fields
// and payload for arbitrary ports/seq/payload.
func TestTCPRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		flags &= 0x3f
		frame := BuildTCP(TCPOpts{
			FrameOpts: frameOpts(),
			SrcPort:   sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags,
			Payload: payload,
		})
		var p Packet
		if err := Decode(frame, len(frame), &p); err != nil {
			return false
		}
		return p.TCP.SrcPort == sp && p.TCP.DstPort == dp &&
			p.TCP.Seq == seq && p.TCP.Ack == ack && p.TCP.Flags == flags &&
			bytes.Equal(p.Payload, payload) &&
			VerifyIPv4Checksum(frame[14:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: decoding never panics on arbitrary bytes and never claims more
// payload than captured+missing.
func TestDecodeFuzzProperty(t *testing.T) {
	f := func(data []byte, extra uint8) bool {
		var p Packet
		_ = Decode(data, len(data)+int(extra), &p)
		return len(p.Payload) <= len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: UDP checksum validates against recomputation.
func TestUDPChecksumProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		frame := BuildUDP(UDPOpts{FrameOpts: frameOpts(), SrcPort: sp, DstPort: dp, Payload: payload})
		var p Packet
		if err := Decode(frame, len(frame), &p); err != nil {
			return false
		}
		// Recompute: checksum field zeroed, sum over datagram + pseudo header.
		dg := frame[14+20:]
		sum := pseudoHeaderSum(ipA, ipB, ProtoUDP, len(dg))
		cp := make([]byte, len(dg))
		copy(cp, dg)
		cp[6], cp[7] = 0, 0
		return foldChecksum(internetChecksum(sum, cp)) == p.UDP.Checksum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDecodeTCP(b *testing.B) {
	frame := BuildTCP(TCPOpts{FrameOpts: frameOpts(), SrcPort: 33000, DstPort: 80, Flags: TCPAck, Payload: bytes.Repeat([]byte{0xaa}, 512)})
	var p Packet
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Decode(frame, len(frame), &p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildTCP(b *testing.B) {
	opts := TCPOpts{FrameOpts: frameOpts(), SrcPort: 33000, DstPort: 80, Flags: TCPAck, Payload: bytes.Repeat([]byte{0xaa}, 512)}
	b.SetBytes(int64(len(BuildTCP(opts))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildTCP(opts)
	}
}
