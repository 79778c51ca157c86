package layers

import (
	"net/netip"
	"slices"
)

// internetChecksum adds data's RFC 1071 one's-complement sum to sum (a
// pseudo-header seed, or an earlier part of the same segment that ended
// on an even offset). It sums eight bytes per step as two 32-bit words
// into a 64-bit accumulator — 2^16 ≡ 1 (mod 0xffff), so wide words are
// congruent to the 16-bit ones they hold — and hands back a partial sum
// already folded below 2^18, which foldChecksum finishes to the same 16
// bits the word-by-word sum reaches.
func internetChecksum(sum uint32, data []byte) uint32 {
	acc := uint64(sum)
	for len(data) >= 8 {
		v := be.Uint64(data)
		acc += v>>32 + v&0xffffffff
		data = data[8:]
	}
	if len(data) >= 4 {
		acc += uint64(be.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		acc += uint64(be.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint64(data[0]) << 8
	}
	acc = acc>>32 + acc&0xffffffff
	return uint32(acc>>16 + acc&0xffff)
}

func foldChecksum(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

func pseudoHeaderSum(src, dst netip.Addr, proto uint8, length int) uint32 {
	var sum uint32
	if src.Is4() {
		s, d := src.As4(), dst.As4()
		sum = internetChecksum(sum, s[:])
		sum = internetChecksum(sum, d[:])
	} else {
		s, d := src.As16(), dst.As16()
		sum = internetChecksum(sum, s[:])
		sum = internetChecksum(sum, d[:])
	}
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// FrameOpts carries the addressing shared by every frame builder.
type FrameOpts struct {
	SrcMAC, DstMAC MAC
	SrcIP, DstIP   netip.Addr
	TTL            uint8 // default 64
	IPID           uint16
	TOS            uint8
}

func (o *FrameOpts) ttl() uint8 {
	if o.TTL == 0 {
		return 64
	}
	return o.TTL
}

func putEthernet(buf []byte, src, dst MAC, etherType uint16) {
	copy(buf[0:6], dst[:])
	copy(buf[6:12], src[:])
	be.PutUint16(buf[12:14], etherType)
}

// The frame kernel. AppendTCP, AppendUDP and AppendICMP build a frame
// exactly once: the Ethernet, IP and transport headers are assembled in
// a stack array, the transport checksum is taken over that header and
// over the payload where the caller holds it, and header and payload are
// then appended to dst — no segment buffer in between, nothing allocated
// when dst has room. snaplen is the capture length: when positive, at
// most that many bytes of the frame are appended, while the checksums
// and length fields still describe the whole frame, so a header-only
// capture never copies a body it would drop. Each returns the extended
// slice and the frame's wire length. BuildTCP, BuildUDP and BuildICMP
// are the same code with a nil dst and no capture limit.

const (
	ethLen = 14
	ip4Len = 20
	ip6Len = 40
)

// MaxHeaderLen is the longest header a builder puts before the payload
// (Ethernet, IPv6, UDP): a dst with MaxHeaderLen+len(Payload) spare
// bytes, or snaplen if that is less, is never reallocated.
const MaxHeaderLen = ethLen + ip6Len + 8

// appendFrame appends hdr and payload to dst, cut to snaplen bytes
// together when snaplen is positive, and returns the wire length.
func appendFrame(dst, hdr, payload []byte, snaplen int) ([]byte, int) {
	wire := len(hdr) + len(payload)
	if snaplen > 0 && snaplen < wire {
		hdr = hdr[:min(len(hdr), snaplen)]
		payload = payload[:snaplen-len(hdr)]
	}
	dst = slices.Grow(dst, len(hdr)+len(payload)) // one allocation, if any
	return append(append(dst, hdr...), payload...), wire
}

// AppendRaw appends a frame built elsewhere (ARP, IPX, a deliberately
// corrupt one) under the same capture rule as the builders.
func AppendRaw(dst, frame []byte, snaplen int) ([]byte, int) {
	return appendFrame(dst, frame, nil, snaplen)
}

// putIPv4 writes the Ethernet and IPv4 headers of a frame carrying
// transportLen bytes of proto into hdr[:ethLen+ip4Len].
func putIPv4(hdr []byte, o *FrameOpts, proto uint8, transportLen int) {
	putEthernet(hdr, o.SrcMAC, o.DstMAC, EtherTypeIPv4)
	ip := hdr[ethLen : ethLen+ip4Len]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = o.TOS
	be.PutUint16(ip[2:4], uint16(ip4Len+transportLen))
	be.PutUint16(ip[4:6], o.IPID)
	ip[6] = 0x40 // DF
	ip[8] = o.ttl()
	ip[9] = proto
	src, dst := o.SrcIP.As4(), o.DstIP.As4()
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])
	be.PutUint16(ip[10:12], foldChecksum(internetChecksum(0, ip)))
}

// putIPv6 is putIPv4 for IPv6 addresses: hdr[:ethLen+ip6Len].
func putIPv6(hdr []byte, o *FrameOpts, next uint8, transportLen int) {
	putEthernet(hdr, o.SrcMAC, o.DstMAC, EtherTypeIPv6)
	ip := hdr[ethLen : ethLen+ip6Len]
	ip[0] = 6 << 4
	be.PutUint16(ip[4:6], uint16(transportLen))
	ip[6] = next
	ip[7] = o.ttl()
	src, dst := o.SrcIP.As16(), o.DstIP.As16()
	copy(ip[8:24], src[:])
	copy(ip[24:40], dst[:])
}

// TCPOpts describes one TCP segment for AppendTCP and BuildTCP.
type TCPOpts struct {
	FrameOpts
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16 // default 65535
	Payload          []byte
}

// AppendTCP appends an Ethernet/IPv4/TCP frame with valid checksums.
func AppendTCP(dst []byte, o *TCPOpts, snaplen int) ([]byte, int) {
	var hdr [ethLen + ip4Len + 20]byte
	segLen := 20 + len(o.Payload)
	putIPv4(hdr[:], &o.FrameOpts, ProtoTCP, segLen)
	tcp := hdr[ethLen+ip4Len:]
	be.PutUint16(tcp[0:2], o.SrcPort)
	be.PutUint16(tcp[2:4], o.DstPort)
	be.PutUint32(tcp[4:8], o.Seq)
	be.PutUint32(tcp[8:12], o.Ack)
	tcp[12] = 5 << 4
	tcp[13] = o.Flags
	window := o.Window
	if window == 0 {
		window = 65535
	}
	be.PutUint16(tcp[14:16], window)
	sum := pseudoHeaderSum(o.SrcIP, o.DstIP, ProtoTCP, segLen)
	sum = internetChecksum(internetChecksum(sum, tcp), o.Payload)
	be.PutUint16(tcp[16:18], foldChecksum(sum))
	return appendFrame(dst, hdr[:], o.Payload, snaplen)
}

// BuildTCP serializes a full Ethernet/IPv4/TCP frame with valid checksums.
func BuildTCP(o TCPOpts) []byte {
	frame, _ := AppendTCP(nil, &o, 0)
	return frame
}

// UDPOpts describes one UDP datagram for AppendUDP and BuildUDP.
type UDPOpts struct {
	FrameOpts
	SrcPort, DstPort uint16
	Payload          []byte
}

// AppendUDP appends an Ethernet/IPv4/UDP frame (IPv6 when the addresses
// are v6) with valid checksums.
func AppendUDP(dst []byte, o *UDPOpts, snaplen int) ([]byte, int) {
	var hdr [MaxHeaderLen]byte
	dgLen := 8 + len(o.Payload)
	ipEnd := ethLen + ip4Len
	if o.SrcIP.Is4() {
		putIPv4(hdr[:], &o.FrameOpts, ProtoUDP, dgLen)
	} else {
		ipEnd = ethLen + ip6Len
		putIPv6(hdr[:], &o.FrameOpts, ProtoUDP, dgLen)
	}
	udp := hdr[ipEnd : ipEnd+8]
	be.PutUint16(udp[0:2], o.SrcPort)
	be.PutUint16(udp[2:4], o.DstPort)
	be.PutUint16(udp[4:6], uint16(dgLen))
	sum := pseudoHeaderSum(o.SrcIP, o.DstIP, ProtoUDP, dgLen)
	sum = internetChecksum(internetChecksum(sum, udp), o.Payload)
	be.PutUint16(udp[6:8], foldChecksum(sum))
	return appendFrame(dst, hdr[:ipEnd+8], o.Payload, snaplen)
}

// BuildUDP serializes a full Ethernet/IPv4/UDP frame (or IPv6 when the
// addresses are v6) with valid checksums.
func BuildUDP(o UDPOpts) []byte {
	frame, _ := AppendUDP(nil, &o, 0)
	return frame
}

// ICMPOpts describes one ICMP message for AppendICMP and BuildICMP.
type ICMPOpts struct {
	FrameOpts
	Type, Code uint8
	ID, Seq    uint16
	Payload    []byte
}

// AppendICMP appends an Ethernet/IPv4/ICMP frame.
func AppendICMP(dst []byte, o *ICMPOpts, snaplen int) ([]byte, int) {
	var hdr [ethLen + ip4Len + 8]byte
	putIPv4(hdr[:], &o.FrameOpts, ProtoICMP, 8+len(o.Payload))
	msg := hdr[ethLen+ip4Len:]
	msg[0] = o.Type
	msg[1] = o.Code
	be.PutUint16(msg[4:6], o.ID)
	be.PutUint16(msg[6:8], o.Seq)
	sum := internetChecksum(internetChecksum(0, msg), o.Payload)
	be.PutUint16(msg[2:4], foldChecksum(sum))
	return appendFrame(dst, hdr[:], o.Payload, snaplen)
}

// BuildICMP serializes a full Ethernet/IPv4/ICMP frame.
func BuildICMP(o ICMPOpts) []byte {
	frame, _ := AppendICMP(nil, &o, 0)
	return frame
}

// ARPOpts describes an ARP request or reply for BuildARP.
type ARPOpts struct {
	SrcMAC, DstMAC     MAC // Ethernet addressing (DstMAC usually Broadcast for requests)
	Op                 uint16
	SenderHW, TargetHW MAC
	SenderIP, TargetIP netip.Addr
}

// BuildARP serializes an Ethernet ARP frame (hardware Ethernet, protocol
// IPv4), padded to the 60-byte Ethernet minimum.
func BuildARP(o ARPOpts) []byte {
	frame := make([]byte, 60)
	putEthernet(frame, o.SrcMAC, o.DstMAC, EtherTypeARP)
	a := frame[14:]
	be.PutUint16(a[0:2], 1) // Ethernet
	be.PutUint16(a[2:4], uint16(EtherTypeIPv4))
	a[4], a[5] = 6, 4
	be.PutUint16(a[6:8], o.Op)
	copy(a[8:14], o.SenderHW[:])
	sip := o.SenderIP.As4()
	copy(a[14:18], sip[:])
	copy(a[18:24], o.TargetHW[:])
	tip := o.TargetIP.As4()
	copy(a[24:28], tip[:])
	return frame
}

// IPXOpts describes an IPX datagram for BuildIPX.
type IPXOpts struct {
	SrcMAC, DstMAC       MAC
	SrcNet, DstNet       uint32
	SrcSocket, DstSocket uint16
	PacketType           uint8
	Payload              []byte
	// Raw8023 selects the "raw" Novell encapsulation (802.3 length field,
	// 0xFFFF checksum) instead of EtherType 0x8137.
	Raw8023 bool
}

// BuildIPX serializes an IPX frame in either encapsulation.
func BuildIPX(o IPXOpts) []byte {
	ipxLen := 30 + len(o.Payload)
	frame := make([]byte, 14+ipxLen)
	copy(frame[0:6], o.DstMAC[:])
	copy(frame[6:12], o.SrcMAC[:])
	if o.Raw8023 {
		be.PutUint16(frame[12:14], uint16(ipxLen))
	} else {
		be.PutUint16(frame[12:14], EtherTypeIPX)
	}
	x := frame[14:]
	be.PutUint16(x[0:2], 0xFFFF) // checksum: none
	be.PutUint16(x[2:4], uint16(ipxLen))
	x[5] = o.PacketType
	be.PutUint32(x[6:10], o.DstNet)
	copy(x[10:16], o.DstMAC[:])
	be.PutUint16(x[16:18], o.DstSocket)
	be.PutUint32(x[18:22], o.SrcNet)
	copy(x[22:28], o.SrcMAC[:])
	be.PutUint16(x[28:30], o.SrcSocket)
	copy(x[30:], o.Payload)
	if len(frame) < 60 {
		padded := make([]byte, 60)
		copy(padded, frame)
		frame = padded
	}
	return frame
}

// MulticastMAC maps an IPv4 multicast group address to its Ethernet
// multicast MAC (01:00:5e + low 23 bits).
func MulticastMAC(group netip.Addr) MAC {
	g := group.As4()
	return MAC{0x01, 0x00, 0x5e, g[1] & 0x7f, g[2], g[3]}
}

// VerifyIPv4Checksum recomputes the header checksum of a serialized IPv4
// header and reports whether it is consistent. Used by tests and by the
// analyzer's sanity pass.
func VerifyIPv4Checksum(ipHeader []byte) bool {
	if len(ipHeader) < 20 {
		return false
	}
	hlen := int(ipHeader[0]&0x0f) * 4
	if hlen < 20 || hlen > len(ipHeader) {
		return false
	}
	return foldChecksum(internetChecksum(0, ipHeader[:hlen])) == 0
}
