package layers

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
)

// The reference the frame kernel is held to: the builders as they were
// before it — a transport segment in one buffer, checksummed two bytes at
// a time, then copied behind the IP header in a second — kept test-side
// so FuzzAppendFrameMatchesReference and the generator's golden digests
// compare against code that shares nothing with serialize.go but the
// option structs and putEthernet.

func refChecksum(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

func refPseudoHeaderSum(src, dst netip.Addr, proto uint8, length int) uint32 {
	var sum uint32
	if src.Is4() {
		s, d := src.As4(), dst.As4()
		sum = refChecksum(refChecksum(sum, s[:]), d[:])
	} else {
		s, d := src.As16(), dst.As16()
		sum = refChecksum(refChecksum(sum, s[:]), d[:])
	}
	return sum + uint32(proto) + uint32(length)
}

func refBuildIPv4(o *FrameOpts, proto uint8, transport []byte) []byte {
	totalLen := 20 + len(transport)
	frame := make([]byte, 14+totalLen)
	putEthernet(frame, o.SrcMAC, o.DstMAC, EtherTypeIPv4)
	ip := frame[14:]
	ip[0] = 0x45
	ip[1] = o.TOS
	be.PutUint16(ip[2:4], uint16(totalLen))
	be.PutUint16(ip[4:6], o.IPID)
	ip[6] = 0x40
	ip[8] = o.ttl()
	ip[9] = proto
	src, dst := o.SrcIP.As4(), o.DstIP.As4()
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])
	be.PutUint16(ip[10:12], foldChecksum(refChecksum(0, ip[:20])))
	copy(ip[20:], transport)
	return frame
}

func refBuildIPv6(o *FrameOpts, next uint8, transport []byte) []byte {
	frame := make([]byte, 14+40+len(transport))
	putEthernet(frame, o.SrcMAC, o.DstMAC, EtherTypeIPv6)
	ip := frame[14:]
	ip[0] = 6 << 4
	be.PutUint16(ip[4:6], uint16(len(transport)))
	ip[6] = next
	ip[7] = o.ttl()
	src, dst := o.SrcIP.As16(), o.DstIP.As16()
	copy(ip[8:24], src[:])
	copy(ip[24:40], dst[:])
	copy(ip[40:], transport)
	return frame
}

func refBuildTCP(o TCPOpts) []byte {
	if o.Window == 0 {
		o.Window = 65535
	}
	seg := make([]byte, 20+len(o.Payload))
	be.PutUint16(seg[0:2], o.SrcPort)
	be.PutUint16(seg[2:4], o.DstPort)
	be.PutUint32(seg[4:8], o.Seq)
	be.PutUint32(seg[8:12], o.Ack)
	seg[12] = 5 << 4
	seg[13] = o.Flags
	be.PutUint16(seg[14:16], o.Window)
	copy(seg[20:], o.Payload)
	sum := refPseudoHeaderSum(o.SrcIP, o.DstIP, ProtoTCP, len(seg))
	be.PutUint16(seg[16:18], foldChecksum(refChecksum(sum, seg)))
	return refBuildIPv4(&o.FrameOpts, ProtoTCP, seg)
}

func refBuildUDP(o UDPOpts) []byte {
	dg := make([]byte, 8+len(o.Payload))
	be.PutUint16(dg[0:2], o.SrcPort)
	be.PutUint16(dg[2:4], o.DstPort)
	be.PutUint16(dg[4:6], uint16(len(dg)))
	copy(dg[8:], o.Payload)
	sum := refPseudoHeaderSum(o.SrcIP, o.DstIP, ProtoUDP, len(dg))
	be.PutUint16(dg[6:8], foldChecksum(refChecksum(sum, dg)))
	if o.SrcIP.Is4() {
		return refBuildIPv4(&o.FrameOpts, ProtoUDP, dg)
	}
	return refBuildIPv6(&o.FrameOpts, ProtoUDP, dg)
}

func refBuildICMP(o ICMPOpts) []byte {
	msg := make([]byte, 8+len(o.Payload))
	msg[0] = o.Type
	msg[1] = o.Code
	be.PutUint16(msg[4:6], o.ID)
	be.PutUint16(msg[6:8], o.Seq)
	copy(msg[8:], o.Payload)
	be.PutUint16(msg[2:4], foldChecksum(refChecksum(0, msg)))
	return refBuildIPv4(&o.FrameOpts, ProtoICMP, msg)
}

// TestChecksumMatchesBytePairReference holds the eight-bytes-per-step
// sum equal, after folding, to the two-bytes-per-step reference for every
// length a frame can have and then some, with the data starting on an
// even and on an odd address (the wide loads are unaligned either way)
// and a non-zero pseudo-header seed. All-ones data is the case with the
// most carries. The reference's 32-bit accumulator would wrap past
// 128 KiB of 0xffff words and the wide one far later; no frame comes near
// (the IPv4 total-length field stops at 64 KiB), so neither is exercised
// there.
func TestChecksumMatchesBytePairReference(t *testing.T) {
	const maxLen = 4096
	random := make([]byte, maxLen+1)
	rand.New(rand.NewSource(1)).Read(random)
	ones := bytes.Repeat([]byte{0xff}, maxLen+1)
	for _, buf := range [][]byte{random, ones} {
		for n := 0; n <= maxLen; n++ {
			for parity := 0; parity < 2; parity++ {
				data := buf[parity : parity+n]
				seed := refPseudoHeaderSum(ipA, ipB, ProtoTCP, n)
				got := foldChecksum(internetChecksum(seed, data))
				want := foldChecksum(refChecksum(seed, data))
				if got != want {
					t.Fatalf("len %d, start parity %d: checksum %#04x, byte-pair reference %#04x", n, parity, got, want)
				}
			}
		}
	}
	if got := internetChecksum(0, make([]byte, 64)); got != 0 {
		t.Errorf("all-zero data sums to %#x, want 0 (a zero sum must stay zero for foldChecksum)", got)
	}
}

// fuzzAddr makes an address out of two fuzzed words: the low four bytes
// for IPv4, all sixteen for IPv6.
func fuzzAddr(v6 bool, hi, lo uint64) netip.Addr {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], hi)
	binary.BigEndian.PutUint64(b[8:16], lo)
	if v6 {
		return netip.AddrFrom16(b)
	}
	return netip.AddrFrom4([4]byte(b[12:16]))
}

// FuzzAppendFrameMatchesReference is the differential for the frame
// kernel: for any addressing, ports, sequence numbers, flags and payload,
// behind any dst prefix and at any capture length, the append-style
// builders produce the reference frame cut to the capture length, byte
// for byte, and report the reference's length as the wire length. It
// also holds the properties a built frame must have whatever built it:
// layers.Decode and VerifyIPv4Checksum accept it, and the transport
// checksum verifies against the byte-pair sum.
func FuzzAppendFrameMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0x0a010203), uint64(0), uint64(0x0a040506),
		uint16(33000), uint16(80), uint32(1000), uint32(2000), uint8(TCPAck|TCPPsh), uint16(7),
		[]byte("GET / HTTP/1.1\r\n\r\n"), uint16(68), []byte("prefix"))
	f.Add(uint8(1), uint64(0), uint64(0x80030502), uint64(0), uint64(0xe00201fe),
		uint16(5353), uint16(53), uint32(0), uint32(0), uint8(0), uint16(0xffff),
		bytes.Repeat([]byte{0xff}, 1316), uint16(0), []byte(nil))
	f.Add(uint8(4), uint64(0x20010db800000000), uint64(1), uint64(0x20010db800000000), uint64(2),
		uint16(2049), uint16(900), uint32(0), uint32(0), uint8(0), uint16(1),
		bytes.Repeat([]byte("nfs"), 2731), uint16(1500), []byte{0})
	f.Add(uint8(2), uint64(0), uint64(0x83f30102), uint64(0), uint64(0x80030a0b),
		uint16(7), uint16(3), uint32(0), uint32(0), uint8(0), uint16(9),
		make([]byte, 56), uint16(40), []byte("x"))
	f.Fuzz(func(t *testing.T, kind uint8, srcHi, srcLo, dstHi, dstLo uint64,
		sport, dport uint16, seq, ack uint32, flags uint8, ipid uint16,
		payload []byte, snaplen uint16, prefix []byte) {
		// An IPv4 total length stops at 64 KiB; stay under it so the
		// reference frame is one the decoder can be asked to accept.
		payload = payload[:min(len(payload), 60000)]
		snap := int(snaplen) % 1601
		v6 := kind%3 == 1 && kind >= 3 // only UDP is built over IPv6
		fo := FrameOpts{
			SrcMAC: macA, DstMAC: macB,
			SrcIP: fuzzAddr(v6, srcHi, srcLo), DstIP: fuzzAddr(v6, dstHi, dstLo),
			IPID: ipid, TTL: uint8(seq), TOS: uint8(ack),
		}
		// Odd kinds leave the kernel room to build in place, even kinds
		// make it grow dst.
		dst := append([]byte(nil), prefix...)
		if kind&1 == 1 {
			dst = append(make([]byte, 0, len(prefix)+MaxHeaderLen+len(payload)), prefix...)
		}
		var ref, got []byte
		var wire int
		var proto uint8
		switch kind % 3 {
		case 0:
			o := TCPOpts{FrameOpts: fo, SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack,
				Flags: flags, Window: uint16(srcLo >> 32), Payload: payload}
			ref, proto = refBuildTCP(o), ProtoTCP
			got, wire = AppendTCP(dst, &o, snap)
			if whole := BuildTCP(o); !bytes.Equal(whole, ref) {
				t.Fatalf("BuildTCP differs from the reference (%d vs %d bytes)", len(whole), len(ref))
			}
		case 1:
			o := UDPOpts{FrameOpts: fo, SrcPort: sport, DstPort: dport, Payload: payload}
			ref, proto = refBuildUDP(o), ProtoUDP
			got, wire = AppendUDP(dst, &o, snap)
			if whole := BuildUDP(o); !bytes.Equal(whole, ref) {
				t.Fatalf("BuildUDP differs from the reference (%d vs %d bytes)", len(whole), len(ref))
			}
		case 2:
			o := ICMPOpts{FrameOpts: fo, Type: flags, Code: uint8(sport), ID: dport, Seq: uint16(seq), Payload: payload}
			ref, proto = refBuildICMP(o), ProtoICMP
			got, wire = AppendICMP(dst, &o, snap)
			if whole := BuildICMP(o); !bytes.Equal(whole, ref) {
				t.Fatalf("BuildICMP differs from the reference (%d vs %d bytes)", len(whole), len(ref))
			}
		}
		if wire != len(ref) {
			t.Fatalf("wire length %d, reference frame is %d bytes", wire, len(ref))
		}
		want := ref
		if snap > 0 && snap < len(want) {
			want = want[:snap]
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("dst prefix overwritten: %x, was %x", got[:len(prefix)], prefix)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("frame at snaplen %d differs from the reference: %d bytes %x…, want %d bytes %x…",
				snap, len(got)-len(prefix), got[len(prefix):min(len(got), len(prefix)+64)], len(want), want[:min(len(want), 64)])
		}

		var p Packet
		if err := Decode(ref, len(ref), &p); err != nil {
			t.Fatalf("Decode rejects a built frame: %v", err)
		}
		ipEnd := 14 + 40
		if !v6 {
			ipEnd = 14 + 20
			if !VerifyIPv4Checksum(ref[14:]) {
				t.Fatal("IPv4 header checksum does not verify")
			}
		}
		// A segment summed with its own checksum field (and pseudo
		// header, for TCP and UDP) folds to zero.
		seg := ref[ipEnd:]
		var sum uint32
		if proto != ProtoICMP {
			sum = refPseudoHeaderSum(fo.SrcIP, fo.DstIP, proto, len(seg))
		}
		if c := foldChecksum(refChecksum(sum, seg)); c != 0 {
			t.Fatalf("transport checksum does not verify: residue %#04x", c)
		}
	})
}
