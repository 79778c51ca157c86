package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
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

// publishSink records, at every Publish, the watermark and how many of
// the shard's packets it had seen. yield has it step aside at every
// Publish, so the other workers get a turn however few cores there are.
type publishSink struct {
	seen  []int64
	marks [][2]int64 // through, len(seen)
	yield bool
}

func (s *publishSink) Packet(idx int64, _ *pcap.Packet, _ *layers.Packet, _ *flows.Conn, _ flows.Dir) {
	s.seen = append(s.seen, idx)
}
func (s *publishSink) Undecodable(idx int64) { s.seen = append(s.seen, idx) }
func (s *publishSink) Publish(through int64, _ bool) {
	s.marks = append(s.marks, [2]int64{through, int64(len(s.seen))})
	if s.yield {
		runtime.Gosched()
	}
}

// TestPublishBoundsWhatTheShardSaw pins the Publish contract a caller
// builds cross-shard order on before the workers finish: at every call,
// the shard has seen exactly its packets below the watermark, the
// watermark never falls, the last one covers everything the shard saw,
// the calls come per batch, not per packet, and no shard's watermark is
// left far behind the read while the run goes on.
func TestPublishBoundsWhatTheShardSaw(t *testing.T) {
	pkts := testTrace(t)
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, 7, 256} {
			var sinks []*publishSink
			res, err := Run(pcap.NewSliceSource(pkts), Config{
				Workers:   workers,
				BatchSize: batch,
				NewSink: func(int, time.Time) Sink {
					s := &publishSink{}
					sinks = append(sinks, s)
					return s
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			for shard, s := range sinks {
				calls += len(s.marks)
				if len(s.seen) > 0 && (len(s.marks) == 0 || s.marks[len(s.marks)-1][0] <= s.seen[len(s.seen)-1]) {
					t.Fatalf("workers=%d batch=%d shard %d: the last watermark does not cover packet %d", workers, batch, shard, s.seen[len(s.seen)-1])
				}
				prev := int64(0)
				for _, m := range s.marks {
					through, n := m[0], m[1]
					if through < prev {
						t.Fatalf("workers=%d batch=%d shard %d: watermark fell from %d to %d", workers, batch, shard, prev, through)
					}
					prev = through
					if below := sort.Search(len(s.seen), func(i int) bool { return s.seen[i] >= through }); int64(below) != n {
						t.Fatalf("workers=%d batch=%d shard %d: at watermark %d the shard had seen %d packets, %d of its packets lie below it",
							workers, batch, shard, through, n, below)
					}
				}
			}
			// A full batch per BatchSize packets, a last one per shard, and
			// a left-behind shard's catch-up at most once per 2·workers
			// batches' worth of packets.
			if most := 3*int(res.Packets)/(2*batch) + workers; calls > most {
				t.Errorf("workers=%d batch=%d: %d Publish calls for %d packets, at most %d batches", workers, batch, calls, res.Packets, most)
			}
		}
	}
}

// TestLeftBehindShardKeepsPublishing pins the router's catch-up: a
// trace of one connection routes every packet to one shard, and the
// other shard, given nothing, must still see its watermark carried along
// with the read — or a caller merging shards by their watermarks would
// wait on it until end of input.
func TestLeftBehindShardKeepsPublishing(t *testing.T) {
	em := gen.NewEmitter(3)
	em.TCPSession(gen.TCPOpts{
		Client: enterprise.InternalHost(5, 10), Server: enterprise.InternalHost(5, 200),
		ClientPort: 40000, ServerPort: 80, Start: time.Unix(1_100_000_000, 0), RTT: time.Millisecond,
		Turns: []gen.Turn{{FromClient: true, Data: make([]byte, 4<<20)}},
	})
	pkts := em.Packets()
	const workers, batch = 2, 16
	var sinks []*publishSink
	res, err := Run(pcap.NewSliceSource(pkts), Config{
		Workers:   workers,
		BatchSize: batch,
		NewSink: func(int, time.Time) Sink {
			s := &publishSink{yield: true}
			sinks = append(sinks, s)
			return s
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	idle := sinks[0]
	if len(idle.seen) > 0 {
		idle = sinks[1]
	}
	if len(idle.seen) > 0 || res.Packets < 1000 {
		t.Fatalf("%d packets, both shards saw some: the trace does not leave one behind", res.Packets)
	}
	// A catch-up goes only to an empty queue, so how many arrive depends
	// on when the idle worker runs; what is pinned is that its watermark
	// moved mid-run, well past the start — at end of input the router
	// sends an empty shard nothing, so every call here is a catch-up.
	if n := len(idle.marks); n < 4 {
		t.Fatalf("the idle shard published %d times over %d packets", n, res.Packets)
	}
	if last := idle.marks[len(idle.marks)-1][0]; last < res.Packets/2 {
		t.Errorf("the idle shard's last watermark is %d of %d packets", last, res.Packets)
	}
}
