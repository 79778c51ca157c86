package scan

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"enttrace/internal/flows"
	"enttrace/internal/layers"
)

func addr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
}

func TestSequentialScannerDetected(t *testing.T) {
	d := NewDetector()
	src := netip.MustParseAddr("128.3.2.1")
	for i := 0; i < 60; i++ {
		d.observe(src, addr(i))
	}
	if !d.IsScanner(src) {
		t.Error("ascending sweep of 60 hosts should be a scanner")
	}
}

func TestDescendingScannerDetected(t *testing.T) {
	d := NewDetector()
	src := netip.MustParseAddr("128.3.2.2")
	for i := 100; i > 30; i-- {
		d.observe(src, addr(i))
	}
	if !d.IsScanner(src) {
		t.Error("descending sweep should be a scanner")
	}
}

func TestBusyServerNotScanner(t *testing.T) {
	// A mail server talks to many hosts but in arbitrary order.
	d := NewDetector()
	src := netip.MustParseAddr("10.9.9.9")
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(200)
	for _, i := range perm {
		d.observe(src, addr(i))
	}
	if d.IsScanner(src) {
		t.Error("random-order contacts misclassified as scanner")
	}
}

func TestFewHostsNotScanner(t *testing.T) {
	d := NewDetector()
	src := netip.MustParseAddr("10.1.1.1")
	for i := 0; i < 50; i++ { // exactly the threshold, not above it
		d.observe(src, addr(i))
	}
	if d.IsScanner(src) {
		t.Error("50 hosts is not more than 50")
	}
	d.observe(src, addr(50))
	if !d.IsScanner(src) {
		t.Error("51 ascending hosts should flip to scanner")
	}
}

func TestDuplicateContactsIgnored(t *testing.T) {
	d := NewDetector()
	src := netip.MustParseAddr("10.2.2.2")
	// Repeatedly contacting two hosts should never look like a scan.
	for i := 0; i < 500; i++ {
		d.observe(src, addr(i%2))
	}
	if d.IsScanner(src) {
		t.Error("two hosts contacted repeatedly misclassified")
	}
}

func TestKnownScanner(t *testing.T) {
	d := NewDetector()
	src := netip.MustParseAddr("131.243.1.1")
	d.AddKnown(src)
	if !d.IsScanner(src) {
		t.Error("known scanner not flagged")
	}
	found := false
	for _, s := range d.Scanners() {
		if s == src {
			found = true
		}
	}
	if !found {
		t.Error("known scanner missing from Scanners()")
	}
}

// TestScannersSorted pins Scanners' order: address order, the same on
// every call, for known and heuristic scanners alike — map iteration
// order must not leak into it.
func TestScannersSorted(t *testing.T) {
	d := NewDetector()
	var want []netip.Addr
	for s := 0; s < 40; s++ {
		src := netip.AddrFrom4([4]byte{192, 0, 2, byte(200 - s*5)})
		want = append(want, src)
		if s%3 == 0 {
			d.AddKnown(src)
			continue
		}
		for i := 0; i < 60; i++ {
			d.observe(src, addr(i))
		}
	}
	slices.SortFunc(want, netip.Addr.Compare)
	for run := 0; run < 50; run++ {
		if got := d.Scanners(); !slices.Equal(got, want) {
			t.Fatalf("call %d: Scanners() = %v, want %v", run, got, want)
		}
	}
}

func makeConn(src, dst netip.Addr, port uint16) *flows.Conn {
	return &flows.Conn{
		Key:   layers.FlowKey{Proto: layers.ProtoTCP, Src: src, Dst: dst, SrcPort: 40000, DstPort: port},
		Proto: layers.ProtoTCP,
		Start: time.Unix(0, 0),
	}
}

func TestFilterRemovesScannerConns(t *testing.T) {
	var conns []*flows.Conn
	scanner := netip.MustParseAddr("198.51.100.7")
	for i := 0; i < 80; i++ {
		conns = append(conns, makeConn(scanner, addr(i), 80))
	}
	normal := netip.MustParseAddr("10.5.5.5")
	for i := 0; i < 20; i++ {
		conns = append(conns, makeConn(normal, addr(1000+i*7%13), 25))
	}
	res := TakeCensus(conns, nil)
	if res.RemovedConns != 80 {
		t.Errorf("removed = %d, want 80", res.RemovedConns)
	}
	for i, kept := range res.Kept {
		if kept != (i >= 80) {
			t.Errorf("conn %d kept = %v", i, kept)
		}
	}
	if len(res.Scanners) != 1 || res.Scanners[0] != scanner {
		t.Errorf("scanners = %v", res.Scanners)
	}
	// The kept pair table is the normal source's distinct pairs alone.
	for _, p := range res.Pairs {
		if p.Orig != normal {
			t.Errorf("scanner pair %v survived", p)
		}
	}
}

func TestFilterEmpty(t *testing.T) {
	res := TakeCensus(nil, nil)
	if res.RemovedConns != 0 || len(res.Kept) != 0 || len(res.Pairs) != 0 {
		t.Errorf("empty census: %+v", res)
	}
}

func TestFilterKnownInternal(t *testing.T) {
	known := netip.MustParseAddr("128.3.0.2")
	conns := []*flows.Conn{makeConn(known, addr(1), 80), makeConn(addr(5), addr(6), 80)}
	res := TakeCensus(conns, []netip.Addr{known})
	if res.RemovedConns != 1 || res.Kept[0] || !res.Kept[1] {
		t.Errorf("known scanner filter: removed=%d kept=%v", res.RemovedConns, res.Kept)
	}
}

func TestMulticastConnsNotObserved(t *testing.T) {
	src := netip.MustParseAddr("10.3.3.3")
	var conns []*flows.Conn
	for i := 0; i < 60; i++ {
		c := makeConn(src, addr(i), 5004)
		c.Multicast = true
		conns = append(conns, c)
	}
	res := TakeCensus(conns, nil)
	if res.RemovedConns != 0 {
		t.Error("multicast fan-out misclassified as scanning")
	}
	if len(res.Pairs) != 0 {
		t.Errorf("multicast entered the pair table: %v", res.Pairs)
	}
}

// Property: a source with a strictly ascending first-contact sequence of
// length n is a scanner iff n > HostThreshold and n >= OrderedThreshold.
func TestThresholdProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)
		d := NewDetector()
		src := netip.MustParseAddr("192.0.2.1")
		for i := 0; i < n; i++ {
			d.observe(src, addr(i))
		}
		want := n > d.HostThreshold && n >= d.OrderedThreshold
		return d.IsScanner(src) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: observation order of *duplicate* contacts never affects the
// verdict; only the first-contact sequence matters.
func TestDuplicateInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := netip.MustParseAddr("192.0.2.2")
		d1, d2 := NewDetector(), NewDetector()
		var firsts []netip.Addr
		for i := 0; i < 70; i++ {
			a := addr(i)
			firsts = append(firsts, a)
			d1.observe(src, a)
			d2.observe(src, a)
			// d2 also gets duplicate re-contacts of earlier hosts.
			if len(firsts) > 1 {
				d2.observe(src, firsts[rng.Intn(len(firsts))])
			}
		}
		return d1.IsScanner(src) == d2.IsScanner(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkObserve(b *testing.B) {
	d := NewDetector()
	srcs := make([]netip.Addr, 100)
	for i := range srcs {
		srcs[i] = netip.MustParseAddr(fmt.Sprintf("10.1.%d.%d", i/250, i%250))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.observe(srcs[i%100], addr(i%4096))
	}
}
