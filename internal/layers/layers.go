// Package layers implements decoding and serialization of the packet
// formats that appear in the paper's traces: Ethernet II and 802.3 (raw
// IPX), ARP, IPX, IPv4, IPv6, TCP, UDP, and ICMP.
//
// The design follows the gopacket "DecodingLayerParser" idea: Decode fills
// a caller-owned Packet struct in place and sub-slices the original buffer,
// so the hot decode path performs no allocation. A bitmask records which
// layers were present. Serialization goes the other way for the traffic
// generator, emitting byte-exact frames (with correct checksums) that the
// decoder — or any other pcap tool — can parse.
package layers

import "net/netip"

// EtherType values seen in the traces.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeIPX  uint16 = 0x8137
	EtherTypeIPv6 uint16 = 0x86DD
)

// IP protocol numbers used by the paper's transport breakdown.
const (
	ProtoICMP  uint8 = 1
	ProtoIGMP  uint8 = 2
	ProtoTCP   uint8 = 6
	ProtoUDP   uint8 = 17
	ProtoGRE   uint8 = 47
	ProtoESP   uint8 = 50
	ProtoPIM   uint8 = 103
	Proto224   uint8 = 224 // the unidentified protocol the paper notes
	ProtoICMP6 uint8 = 58
)

// LayerMask records which layers Decode found in a frame.
type LayerMask uint16

// Layer presence bits.
const (
	LayerEthernet LayerMask = 1 << iota
	LayerARP
	LayerIPX
	LayerIPv4
	LayerIPv6
	LayerTCP
	LayerUDP
	LayerICMP
	LayerPayload
)

// Has reports whether all bits in m are set.
func (l LayerMask) Has(m LayerMask) bool { return l&m == m }

// MAC is an Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Multicast reports whether the address has the group bit set.
func (m MAC) Multicast() bool { return m[0]&1 == 1 }

// Ethernet is the decoded link-layer header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16 // 0 for raw-802.3 IPX frames
	// Length802 is the 802.3 length field when EtherType < 0x0600.
	Length802 uint16
}

// ARP is a decoded ARP packet (Ethernet/IPv4 flavor only; anything else is
// recorded by opcode with zero addresses).
type ARP struct {
	Op                 uint16 // 1 request, 2 reply
	SenderHW, TargetHW MAC
	SenderIP, TargetIP netip.Addr
}

// IPX is a decoded Netware IPX header.
type IPX struct {
	Length     uint16
	Hops       uint8
	PacketType uint8
	DstNet     uint32
	DstNode    MAC
	DstSocket  uint16
	SrcNet     uint32
	SrcNode    MAC
	SrcSocket  uint16
}

// IPv4 is a decoded IPv4 header.
type IPv4 struct {
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	Length   uint16 // total length
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst netip.Addr
}

// DF reports the don't-fragment bit.
func (ip *IPv4) DF() bool { return ip.Flags&0x2 != 0 }

// MF reports the more-fragments bit.
func (ip *IPv4) MF() bool { return ip.Flags&0x1 != 0 }

// Fragment reports whether this packet is part of a fragmented datagram.
func (ip *IPv4) Fragment() bool { return ip.MF() || ip.FragOff != 0 }

// IPv6 is a decoded IPv6 header (no extension-header walking beyond what
// the traces need; an unrecognized next header terminates decoding with
// the remaining bytes as payload).
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	Length       uint16 // payload length
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCP is a decoded TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8 // header length in 32-bit words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// ICMP is a decoded ICMP header (v4).
type ICMP struct {
	Type, Code uint8
	Checksum   uint16
	ID, Seq    uint16 // meaningful for echo request/reply
}

// ICMP types the analyses care about.
const (
	ICMPEchoReply   uint8 = 0
	ICMPUnreachable uint8 = 3
	ICMPEchoRequest uint8 = 8
	ICMPTimeExceed  uint8 = 11
)

// Packet is the reusable decode target. After Decode, Layers records which
// fields are valid, Payload sub-slices the input at the transport payload,
// and Truncated reports that the frame claimed more bytes than were
// captured (snaplen truncation, ubiquitous in the paper's D1/D2).
type Packet struct {
	Eth     Ethernet
	ARP     ARP
	IPX     IPX
	IP4     IPv4
	IP6     IPv6
	TCP     TCP
	UDP     UDP
	ICMP    ICMP
	Layers  LayerMask
	Payload []byte
	// PayloadLen is the transport payload length implied by the headers
	// even when the capture is truncated; len(Payload) may be smaller.
	PayloadLen int
	Truncated  bool
}

// Reset clears the packet for reuse.
func (p *Packet) Reset() {
	p.Layers = 0
	p.Payload = nil
	p.PayloadLen = 0
	p.Truncated = false
}

// NetSrc returns the network-layer source address, if any.
func (p *Packet) NetSrc() (netip.Addr, bool) {
	switch {
	case p.Layers.Has(LayerIPv4):
		return p.IP4.Src, true
	case p.Layers.Has(LayerIPv6):
		return p.IP6.Src, true
	}
	return netip.Addr{}, false
}

// NetDst returns the network-layer destination address, if any.
func (p *Packet) NetDst() (netip.Addr, bool) {
	switch {
	case p.Layers.Has(LayerIPv4):
		return p.IP4.Dst, true
	case p.Layers.Has(LayerIPv6):
		return p.IP6.Dst, true
	}
	return netip.Addr{}, false
}

// IPProto returns the transport protocol number, if an IP layer is present.
func (p *Packet) IPProto() (uint8, bool) {
	switch {
	case p.Layers.Has(LayerIPv4):
		return p.IP4.Protocol, true
	case p.Layers.Has(LayerIPv6):
		return p.IP6.NextHeader, true
	}
	return 0, false
}

// Ports returns transport src/dst ports for TCP or UDP packets.
func (p *Packet) Ports() (src, dst uint16, ok bool) {
	switch {
	case p.Layers.Has(LayerTCP):
		return p.TCP.SrcPort, p.TCP.DstPort, true
	case p.Layers.Has(LayerUDP):
		return p.UDP.SrcPort, p.UDP.DstPort, true
	}
	return 0, 0, false
}
