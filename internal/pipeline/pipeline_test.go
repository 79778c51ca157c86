package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
)

// testTrace generates one small but fully featured trace.
func testTrace(t testing.TB) []*pcap.Packet {
	t.Helper()
	cfg := enterprise.D3()
	cfg.Scale = 0.05
	cfg.Monitored = cfg.Monitored[:1]
	cfg.PerTap = 1
	ds := gen.GenerateDataset(cfg)
	if len(ds.Traces) == 0 || len(ds.Traces[0].Packets) == 0 {
		t.Fatal("generator produced no packets")
	}
	return ds.Traces[0].Packets
}

// connFingerprint is a worker-count-independent connection identity.
func connFingerprint(c *flows.Conn) string {
	canon, _ := c.Key.Canonical()
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d|%s|%d",
		canon, c.OrigPkts+c.RespPkts, c.OrigBytes, c.RespBytes,
		c.WireBytes, c.Retrans, c.State, c.Start.UnixNano())
}

func runWorkers(t *testing.T, pkts []*pcap.Packet, workers int) *Result {
	t.Helper()
	res, err := Run(pcap.NewSliceSource(pkts), Config{Workers: workers})
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	return res
}

func TestShardingPreservesConnections(t *testing.T) {
	pkts := testTrace(t)
	base := runWorkers(t, pkts, 1)
	if base.Packets != int64(len(pkts)) {
		t.Fatalf("packets = %d, want %d", base.Packets, len(pkts))
	}
	want := fingerprints(base)
	for _, workers := range []int{2, 3, 4, 8} {
		res := runWorkers(t, pkts, workers)
		if res.Packets != base.Packets {
			t.Errorf("workers=%d: packets = %d, want %d", workers, res.Packets, base.Packets)
		}
		if len(res.Shards) != workers {
			t.Errorf("workers=%d: %d shards", workers, len(res.Shards))
		}
		got := fingerprints(res)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d conns, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: conn %d fingerprint mismatch\n got %s\nwant %s",
					workers, i, got[i], want[i])
			}
		}
	}
}

// fingerprints returns the sorted multiset of connection identities —
// including per-connection flow state, so a connection split across
// shards (a sharding bug) would change byte/packet totals and show up.
func fingerprints(res *Result) []string {
	var out []string
	for _, rec := range res.SortedConns() {
		out = append(out, connFingerprint(rec.Conn))
	}
	sort.Strings(out)
	return out
}

// TestSortedConnsOrderedByFirstPacket also pins what the workers no longer
// sort for: each shard's connections already come in first-packet order,
// whichever way they left the flow table — end of trace, idle splits and
// sweeps, or the MaxConns backstop.
func TestSortedConnsOrderedByFirstPacket(t *testing.T) {
	pkts := testTrace(t)
	for name, fcfg := range map[string]flows.Config{
		"whole flows":      {},
		"evicting, capped": {IdleTimeout: time.Second, MaxConns: 4},
	} {
		res, err := Run(pcap.NewSliceSource(pkts), Config{Workers: 4, Flows: fcfg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "whole flows" && res.CapEvicted == 0 {
			t.Fatalf("%s: the cap evicted nothing", name)
		}
		recs := res.SortedConns()
		if len(recs) == 0 {
			t.Fatalf("%s: no connections", name)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].FirstIdx <= recs[i-1].FirstIdx {
				t.Fatalf("%s: FirstIdx not strictly increasing at %d: %d then %d",
					name, i, recs[i-1].FirstIdx, recs[i].FirstIdx)
			}
		}
		// First-packet order must agree with start-timestamp order.
		for i := 1; i < len(recs); i++ {
			if recs[i].Conn.Start.Before(recs[i-1].Conn.Start) {
				t.Fatalf("%s: conn %d starts before its predecessor", name, i)
			}
		}
		for _, rec := range recs {
			if rec.FirstIdx != rec.Conn.FirstIdx {
				t.Fatalf("%s: record says first packet %d, connection says %d", name, rec.FirstIdx, rec.Conn.FirstIdx)
			}
		}
	}
}

func TestPcapSourceMatchesSliceSource(t *testing.T) {
	// The classic pcap format stores microsecond timestamps, so truncate
	// the generated nanosecond stamps before comparing the two sources.
	var pkts []*pcap.Packet
	for _, p := range testTrace(t) {
		cp := *p
		cp.Timestamp = p.Timestamp.Truncate(time.Microsecond)
		pkts = append(pkts, &cp)
	}
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0, pcap.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WriteCaptured(p.Timestamp, p.Data, p.OrigLen); err != nil {
			t.Fatal(err)
		}
	}
	src, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := Run(src, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fromSlice := runWorkers(t, pkts, 2)
	got, want := fingerprints(fromFile), fingerprints(fromSlice)
	if len(got) != len(want) {
		t.Fatalf("pcap source: %d conns, slice source: %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("conn %d differs between pcap and slice sources", i)
		}
	}
}

// pcapBytes serializes packets to a classic pcap stream (microsecond
// timestamps, so inputs should already be microsecond-aligned).
func pcapBytes(t testing.TB, pkts []*pcap.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0, pcap.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WriteCaptured(p.Timestamp, p.Data, p.OrigLen); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestPooledSourceMatchesSliceSource runs the same trace through a
// recycled-packet source and an owning slice source at several worker
// counts: connection results must be identical, pinning that buffer
// reuse never corrupts flow state.
func TestPooledSourceMatchesSliceSource(t *testing.T) {
	var pkts []*pcap.Packet
	for _, p := range testTrace(t) {
		cp := *p
		cp.Timestamp = p.Timestamp.Truncate(time.Microsecond)
		pkts = append(pkts, &cp)
	}
	raw := pcapBytes(t, pkts)
	for _, workers := range []int{1, 4, 8} {
		rd, err := pcap.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := Run(pcap.NewPooledReader(rd, nil), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		slice := runWorkers(t, pkts, workers)
		got, want := fingerprints(pooled), fingerprints(slice)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: pooled %d conns, slice %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: conn %d differs between pooled and slice sources", workers, i)
			}
		}
	}
}

func TestEmptySource(t *testing.T) {
	res, err := Run(pcap.NewSliceSource(nil), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 0 || len(res.Shards) != 0 || !res.Base.IsZero() {
		t.Fatalf("empty source result: %+v", res)
	}
}

type failingSource struct {
	pkts []*pcap.Packet
	pos  int
}

func (s *failingSource) Next() (*pcap.Packet, error) {
	if s.pos >= len(s.pkts) {
		return nil, io.ErrUnexpectedEOF
	}
	p := s.pkts[s.pos]
	s.pos++
	return p, nil
}

func TestSourceErrorPropagates(t *testing.T) {
	pkts := testTrace(t)
	if len(pkts) > 500 {
		pkts = pkts[:500]
	}
	for _, workers := range []int{1, 4} {
		_, err := Run(&failingSource{pkts: pkts}, Config{Workers: workers})
		if err != io.ErrUnexpectedEOF {
			t.Errorf("workers=%d: err = %v, want ErrUnexpectedEOF", workers, err)
		}
	}
}

// truncatedTCPFrame builds an Ethernet+IPv4 frame whose capture stops 4
// bytes into the TCP header: the port bytes are visible on the wire, but
// layers.Decode cannot parse the transport header, so the flow table
// keys the packet with zero ports.
func truncatedTCPFrame(srcLast, dstLast byte, srcPort, dstPort uint16) *pcap.Packet {
	f := make([]byte, 38)
	f[12], f[13] = 0x08, 0x00 // IPv4
	ip := f[14:]
	ip[0] = 0x45
	ip[2], ip[3] = 0, 60 // total length: full TCP header + payload existed
	ip[8] = 64           // TTL
	ip[9] = 6            // TCP
	copy(ip[12:16], []byte{10, 0, 0, srcLast})
	copy(ip[16:20], []byte{10, 0, 1, dstLast})
	ip[20] = byte(srcPort >> 8)
	ip[21] = byte(srcPort)
	ip[22] = byte(dstPort >> 8)
	ip[23] = byte(dstPort)
	return &pcap.Packet{Timestamp: time.Unix(1000, 0).UTC(), Data: f, OrigLen: 74}
}

// TestTruncatedTransportHeadersShardConsistently pins the regression
// where a snaplen cutting into the TCP header (fewer than 20 captured
// transport bytes) left the flow table keying packets with zero ports
// while the router sharded them by the visible port bytes — splitting
// one host pair's flow across shards and breaking worker-count
// determinism.
func TestTruncatedTransportHeadersShardConsistently(t *testing.T) {
	// One host pair, many distinct ephemeral port pairs: the flow table
	// sees a single zero-port connection; a port-sensitive shard hash
	// would scatter it.
	var pkts []*pcap.Packet
	for i := 0; i < 32; i++ {
		pkts = append(pkts, truncatedTCPFrame(1, 2, uint16(40000+i), 445))
	}
	one := runWorkers(t, pkts, 1)
	eight := runWorkers(t, pkts, 8)
	a, b := fingerprints(one), fingerprints(eight)
	if len(a) != 1 {
		t.Fatalf("expected one zero-port connection at 1 worker, got %d", len(a))
	}
	if len(b) != len(a) {
		t.Fatalf("truncated flow split across shards: %d conns at 1 worker, %d at 8", len(a), len(b))
	}
	if a[0] != b[0] {
		t.Fatalf("truncated flow differs between 1 and 8 workers:\n %s\n %s", a[0], b[0])
	}
}

func TestShardOfDirectionIndependent(t *testing.T) {
	pkts := testTrace(t)
	// For every packet, flipping addresses and ports must not change the
	// shard. Rather than synthesizing flips, assert the invariant the
	// sharding actually needs: packets of one connection all land on the
	// same shard. Run with many workers and check each connection's
	// packet count against the single-shard run.
	one := runWorkers(t, pkts, 1)
	many := runWorkers(t, pkts, 8)
	count := func(res *Result) map[string]int64 {
		m := make(map[string]int64)
		for _, rec := range res.SortedConns() {
			canon, _ := rec.Conn.Key.Canonical()
			m[canon.String()] += rec.Conn.Packets()
		}
		return m
	}
	a, b := count(one), count(many)
	if len(a) != len(b) {
		t.Fatalf("conn key sets differ: %d vs %d", len(a), len(b))
	}
	for k, n := range a {
		if b[k] != n {
			t.Fatalf("conn %s: %d packets on 1 worker, %d on 8", k, n, b[k])
		}
	}
}
