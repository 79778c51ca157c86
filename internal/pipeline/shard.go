package pipeline

import (
	"encoding/binary"
	"math/bits"
)

// shardOf routes a raw Ethernet frame to a shard with a header-only
// 5-tuple parse — no allocation, no full decode. The only property the
// router needs is that every packet of one connection (as built by
// layers.Decode + flows.Table) lands on the same shard:
//
//   - TCP/UDP packets hash the canonical (proto, addr pair, port pair).
//   - ICMP and non-first IP fragments hash with zero ports, a superset of
//     the flow table's keying (echo-ID refinement still stays on-shard
//     because both directions share the address pair).
//   - Non-IP frames (ARP, IPX) never form connections; they hash by
//     header words purely for load spreading.
//
// Addresses and ports are loaded as words, the endpoints ordered by
// integer compare, and the two endpoint words mixed with two multiplies.
// Full decoding happens later, on the shard worker, in parallel.
func shardOf(data []byte, workers int) int {
	if workers <= 1 || len(data) < 14 {
		return 0
	}
	be := binary.BigEndian
	ip := data[14:]
	var srcHi, srcLo, dstHi, dstLo, ports uint64 // ports: source<<16 | destination
	var proto byte
	switch be.Uint16(data[12:14]) {
	case etherTypeIPv4:
		if len(ip) < 20 || ip[0]>>4 != 4 {
			// Decode either fails or finds no addresses — no connection
			// forms, so any shard is consistent.
			return 0
		}
		hlen := int(ip[0]&0x0f) * 4
		if hlen < 20 {
			return 0
		}
		proto = ip[9]
		srcLo, dstLo = uint64(be.Uint32(ip[12:16])), uint64(be.Uint32(ip[16:20]))
		// Ports participate in the hash only when layers.Decode would
		// parse the transport header: not a later fragment, the header
		// captured in full (TCP 20 / UDP 8 bytes), and the IP total
		// length not cutting it short. Otherwise the flow table keys
		// the packet with zero ports, and the hash must match.
		fragOff := be.Uint16(ip[6:8]) & 0x1fff
		if fragOff == 0 && (proto == protoTCP || proto == protoUDP) && len(ip) >= hlen {
			bodyLen := len(ip) - hlen
			if totalLen := int(be.Uint16(ip[2:4])); totalLen >= hlen && totalLen-hlen < bodyLen {
				bodyLen = totalLen - hlen
			}
			if bodyLen >= transportHeaderLen(proto) {
				ports = uint64(be.Uint32(ip[hlen:]))
			}
		}
	case etherTypeIPv6:
		if len(ip) < 40 || ip[0]>>4 != 6 {
			return 0
		}
		proto = ip[6]
		srcHi, srcLo = be.Uint64(ip[8:16]), be.Uint64(ip[16:24])
		dstHi, dstLo = be.Uint64(ip[24:32]), be.Uint64(ip[32:40])
		if proto == protoTCP || proto == protoUDP {
			bodyLen := len(ip) - 40
			if payLen := int(be.Uint16(ip[4:6])); payLen < bodyLen {
				bodyLen = payLen
			}
			if bodyLen >= transportHeaderLen(proto) {
				ports = uint64(be.Uint32(ip[40:]))
			}
		}
	default:
		// Connection-less link traffic: spread by the Ethernet header.
		return mix(be.Uint64(data[0:8]), uint64(be.Uint32(data[8:12]))<<16|uint64(be.Uint16(data[12:14])), workers)
	}
	// Canonicalize direction: order the (addr, port) endpoints as integers
	// so both directions of a connection collide.
	sp, dp := ports>>16, ports&0xffff
	if srcHi > dstHi || srcHi == dstHi && (srcLo > dstLo || srcLo == dstLo && sp > dp) {
		srcHi, srcLo, sp, dstHi, dstLo, dp = dstHi, dstLo, dp, srcHi, srcLo, sp
	}
	// One word per endpoint: an IPv4 address sits above its port, an
	// IPv6 address folds its low word into its high one.
	x := srcHi ^ bits.RotateLeft64(srcLo, 16) ^ sp
	y := dstHi ^ bits.RotateLeft64(dstLo, 16) ^ dp ^ uint64(proto)<<56
	return mix(x, y, workers)
}

// mix hashes two words with two multiplies, whose product's high half
// depends on every input bit, and maps that half onto [0, n) by a third
// multiply and a shift where a modulus would divide.
func mix(x, y uint64, n int) int {
	h := (x*0x9E3779B97F4A7C15 ^ y) * 0xBF58476D1CE4E5B9
	return int((h >> 32) * uint64(n) >> 32)
}

// transportHeaderLen is the minimum captured bytes layers.Decode needs
// to parse ports out of a transport header.
func transportHeaderLen(proto byte) int {
	if proto == protoTCP {
		return 20
	}
	return 8 // UDP
}

const (
	etherTypeIPv4 = 0x0800
	etherTypeIPv6 = 0x86DD
	protoTCP      = 6
	protoUDP      = 17
)
