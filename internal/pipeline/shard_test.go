package pipeline

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
)

// TestShardOfBalance holds the router to an even split of flows: at 2,
// 4 and 8 workers no shard holds more than 1.15× its share of a D3
// dataset's distinct flows, each routed by the frame that opens it. A flow
// is a trace's canonical 5-tuple, not a connection: the UDP timeout splits
// one tuple into many connections (SAP's 45 s announcements make over
// 2 600, an eighth of the dataset), and no router may separate them.
func TestShardOfBalance(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 0.3
	workers := []int{2, 4, 8}
	counts := make([][]int, len(workers))
	for i, n := range workers {
		counts[i] = make([]int, n)
	}
	total := 0
	var p layers.Packet
	for _, tr := range gen.GenerateDataset(cfg).Traces {
		tbl := flows.NewTable(flows.Config{})
		seen := make(map[layers.FlowKey]bool)
		for _, pk := range tr.Packets {
			if layers.Decode(pk.Data, pk.OrigLen, &p) != nil {
				continue
			}
			c, _, isNew := tbl.Packet(pk.Timestamp, &p, pk.OrigLen)
			if !isNew {
				continue
			}
			canon, _ := c.Key.Canonical()
			if seen[canon] {
				continue
			}
			seen[canon] = true
			total++
			for i, n := range workers {
				counts[i][shardOf(pk.Data, n)]++
			}
		}
	}
	if total < 10000 {
		t.Fatalf("%d flows: too few to tell skew from noise", total)
	}
	for i, n := range workers {
		if most := slices.Max(counts[i]); float64(most) > 1.15*float64(total)/float64(n) {
			t.Errorf("%d shards: the largest holds %d of %d flows (%.3f× its share): %v",
				n, most, total, float64(most*n)/float64(total), counts[i])
		}
	}
}

// swapDirection exchanges the source and destination addresses, and the
// port bytes after the IP header, of an IPv4 or IPv6 frame in its raw
// bytes. Any other frame is returned as a copy.
func swapDirection(frame []byte) []byte {
	g := append([]byte(nil), frame...)
	if len(g) < 14 {
		return g
	}
	ip := g[14:]
	var a, b, ports []byte
	switch binary.BigEndian.Uint16(g[12:14]) {
	case etherTypeIPv4:
		if len(ip) < 20 || ip[0]&0x0f < 5 {
			return g
		}
		hlen := int(ip[0]&0x0f) * 4
		a, b = ip[12:16], ip[16:20]
		if len(ip) >= hlen+4 {
			ports = ip[hlen : hlen+4]
		}
	case etherTypeIPv6:
		if len(ip) < 40 {
			return g
		}
		a, b = ip[8:24], ip[24:40]
		if len(ip) >= 44 {
			ports = ip[40:44]
		}
	default:
		return g
	}
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
	if ports != nil {
		ports[0], ports[1], ports[2], ports[3] = ports[2], ports[3], ports[0], ports[1]
	}
	return g
}

// FuzzShardOfFollowsFlowKey holds the router to the flow table's keying.
// A fuzzed frame and its direction-swapped twin route to one shard at 2
// to 8 workers, and so does every pair of frames the flow table puts in
// one connection — among the frame, its twin, both cut at every length
// through their IP and transport headers (where ports drop out of the
// key), and a second fuzzed frame.
func FuzzShardOfFollowsFlowKey(f *testing.F) {
	a, b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.2")
	a6, b6 := netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2")
	fo := layers.FrameOpts{SrcIP: a, DstIP: b}
	fo6 := layers.FrameOpts{SrcIP: a6, DstIP: b6}
	tcp := layers.BuildTCP(layers.TCPOpts{FrameOpts: fo, SrcPort: 40000, DstPort: 445, Flags: layers.TCPSyn})
	udp := layers.BuildUDP(layers.UDPOpts{FrameOpts: fo, SrcPort: 137, DstPort: 137, Payload: make([]byte, 50)})
	udp6 := layers.BuildUDP(layers.UDPOpts{FrameOpts: fo6, SrcPort: 5353, DstPort: 53, Payload: make([]byte, 20)})
	echo := layers.BuildICMP(layers.ICMPOpts{FrameOpts: fo, Type: layers.ICMPEchoRequest, ID: 9, Seq: 1})
	frag := append([]byte(nil), udp...)
	frag[14+7] = 0x20 // a later fragment
	arp := layers.BuildARP(layers.ARPOpts{Op: 1, SenderIP: a, TargetIP: b})
	f.Add(tcp, swapDirection(tcp))
	f.Add(udp, frag)
	f.Add(udp6, swapDirection(udp6)[:14+40+6])
	f.Add(echo, swapDirection(echo))
	f.Add(frag, tcp[:14+20+8])
	f.Add(arp, udp)
	f.Fuzz(func(t *testing.T, frame, other []byte) {
		twin := swapDirection(frame)
		frames := [][]byte{frame, twin, other}
		for cut := 14; cut < len(frame) && cut <= 14+40+20; cut++ {
			frames = append(frames, frame[:cut], twin[:cut])
		}
		for n := 2; n <= 8; n++ {
			if s, st := shardOf(frame, n), shardOf(twin, n); s != st {
				t.Fatalf("%d workers: frame on shard %d, its twin on %d", n, s, st)
			}
		}
		// One table, one instant: nothing expires, so frames share a
		// connection exactly when they share a key.
		tbl := flows.NewTable(flows.Config{})
		ts := time.Unix(1000, 0)
		conns := make([]*flows.Conn, len(frames))
		var p layers.Packet
		for i, fr := range frames {
			if layers.Decode(fr, len(fr), &p) == nil {
				conns[i], _, _ = tbl.Packet(ts, &p, len(fr))
			}
		}
		for i := range frames {
			for j := i + 1; j < len(frames); j++ {
				if conns[i] == nil || conns[i] != conns[j] {
					continue
				}
				for n := 2; n <= 8; n++ {
					if si, sj := shardOf(frames[i], n), shardOf(frames[j], n); si != sj {
						t.Fatalf("%d workers: frames %d and %d share connection %v but route to shards %d and %d",
							n, i, j, conns[i].Key, si, sj)
					}
				}
			}
		}
	})
}
