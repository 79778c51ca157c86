package flows

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"enttrace/internal/layers"
)

// TestIdleTimeoutSplitsConnection: a packet on a tuple idle past the
// horizon starts a fresh connection instead of extending the old one.
func TestIdleTimeoutSplitsConnection(t *testing.T) {
	tbl := NewTable(Config{IdleTimeout: time.Minute})
	c1, _ := feedTCP(t, tbl, t0(0), ipA, ipB, 3000, 80, 100, 0, layers.TCPSyn, nil)
	c2, _ := feedTCP(t, tbl, t0(0).Add(2*time.Minute), ipA, ipB, 3000, 80, 200, 0, layers.TCPSyn, nil)
	if c1 == c2 {
		t.Fatal("idle connection extended past the horizon instead of splitting")
	}
	tbl.Flush()
	if n := len(tbl.Conns()); n != 2 {
		t.Errorf("conns = %d, want 2", n)
	}
}

// TestSweepEvictsIdleConnWithoutRevisit: the periodic sweep finishes a
// connection whose tuple is never touched again, driven only by other
// traffic advancing the clock — the bounded-memory guarantee.
func TestSweepEvictsIdleConnWithoutRevisit(t *testing.T) {
	var gauge atomic.Int64
	tbl := NewTable(Config{IdleTimeout: time.Minute, LiveGauge: &gauge})
	feedUDP(t, tbl, t0(0), ipA, ipB, 5000, 53, 64)
	if gauge.Load() != 1 {
		t.Fatalf("gauge = %d after first insert, want 1", gauge.Load())
	}
	// Unrelated traffic two minutes later triggers the sweep.
	feedUDP(t, tbl, t0(0).Add(2*time.Minute), ipA, ipC, 5001, 53, 64)
	aged, capped := tbl.EvictStats()
	if aged != 1 || capped != 0 {
		t.Errorf("EvictStats = (%d, %d), want (1, 0)", aged, capped)
	}
	if gauge.Load() != 1 {
		t.Errorf("gauge = %d after sweep, want 1 (old conn evicted, new live)", gauge.Load())
	}
	tbl.Flush()
	if gauge.Load() != 0 {
		t.Errorf("gauge = %d after flush, want 0", gauge.Load())
	}
	if n := len(tbl.Conns()); n != 2 {
		t.Errorf("conns = %d, want 2 (evicted conn still reported)", n)
	}
}

// TestMaxConnsBackstopEvictsColdest: an insert past the cap evicts the
// least-recently-active connection, never the one just inserted, and
// every evicted connection still reaches the finished list.
func TestMaxConnsBackstopEvictsColdest(t *testing.T) {
	var gauge atomic.Int64
	tbl := NewTable(Config{MaxConns: 2, LiveGauge: &gauge})
	a, _ := feedUDP(t, tbl, t0(0), ipA, ipB, 5000, 53, 64)
	feedUDP(t, tbl, t0(10), ipA, ipB, 5001, 53, 64)
	feedUDP(t, tbl, t0(20), ipA, ipC, 5002, 53, 64)
	if got := tbl.CapEvicted(); got != 1 {
		t.Fatalf("CapEvicted = %d, want 1", got)
	}
	if gauge.Load() != 2 {
		t.Errorf("gauge = %d with cap 2, want 2", gauge.Load())
	}
	// The coldest (first) connection is the victim: a later packet on
	// its tuple starts a new connection.
	a2, _ := feedUDP(t, tbl, t0(30), ipA, ipB, 5000, 53, 64)
	if a2 == a {
		t.Error("evicted connection was extended, want a fresh one")
	}
	tbl.Flush()
	if n := len(tbl.Conns()); n != 4 {
		t.Errorf("conns = %d, want 4 (3 originals + post-eviction revisit)", n)
	}
	if gauge.Load() != 0 {
		t.Errorf("gauge = %d after flush, want 0", gauge.Load())
	}
}

// TestNoAgingWithoutConfig: the zero config keeps the historical
// behavior — a TCP connection never expires on idleness alone (UDP and
// ICMP keep their own protocol timeouts), and nothing is capped.
func TestNoAgingWithoutConfig(t *testing.T) {
	tbl := NewTable(Config{})
	c1, _ := feedTCP(t, tbl, t0(0), ipA, ipB, 3000, 80, 100, 0, layers.TCPSyn, nil)
	c2, _ := feedTCP(t, tbl, t0(0).Add(24*time.Hour), ipA, ipB, 3000, 80, 101, 0, layers.TCPAck, nil)
	if c1 != c2 {
		t.Error("TCP connection split with no IdleTimeout configured")
	}
	aged, capped := tbl.EvictStats()
	if aged != 0 || capped != 0 {
		t.Errorf("EvictStats = (%d, %d), want zeros", aged, capped)
	}
}

// TestConnsInCreationOrder pins the order Conns promises, which is what
// lets the pipeline skip sorting a shard's connections: creation order,
// however the connections left the live table — idle splits, the sweep,
// the MaxConns backstop, or Flush — and a subsequence of it before Flush.
func TestConnsInCreationOrder(t *testing.T) {
	tbl := NewTable(Config{IdleTimeout: 5 * time.Second, MaxConns: 24})
	var created []*Conn
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		// Thirty tuples revisited at random over 200 s: flows pause past
		// the horizon and split, and the cap evicts the coldest.
		frame := layers.BuildUDP(layers.UDPOpts{
			FrameOpts: layers.FrameOpts{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB},
			SrcPort:   uint16(5000 + rng.Intn(30)), DstPort: 53, Payload: make([]byte, 64),
		})
		var p layers.Packet
		if err := layers.Decode(frame, len(frame), &p); err != nil {
			t.Fatal(err)
		}
		if c, _, isNew := tbl.Packet(t0(int64(i)*100), &p, len(frame)); isNew {
			created = append(created, c)
		}
	}
	aged, capped := tbl.EvictStats()
	if aged == 0 || capped == 0 || len(created) < 100 {
		t.Fatalf("input too tame: %d connections, %d aged out, %d cap-evicted", len(created), aged, capped)
	}

	var finished []*Conn
	for _, c := range created {
		if c.finished {
			finished = append(finished, c)
		}
	}
	if tbl.Live() == 0 || !slices.Equal(tbl.Conns(), finished) {
		t.Errorf("before Flush: Conns is not the finished connections in creation order (%d live)", tbl.Live())
	}
	tbl.Flush()
	if !slices.Equal(tbl.Conns(), created) {
		t.Error("after Flush: Conns is not every connection in creation order")
	}
}
