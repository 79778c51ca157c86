package core

import (
	"cmp"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
	"enttrace/internal/scan"
)

// The references below are the scanner filter and Figure 2 fan as they
// were computed before the census: a stable sort of a copy and a seen
// set per source for the filter, then sorted edge lists scanned in runs
// over the kept connections for fan.

type refTrack struct {
	seen            map[netip.Addr]struct{}
	last            netip.Addr
	hasLast         bool
	ascRun, descRun int
	maxAsc, maxDesc int
}

// refFilter is the §3 filter: every unicast first contact observed in
// start order, then every connection a scanner originated removed. Its
// scanner list is sorted for comparison; the filter itself kept them in
// map order.
func refFilter(conns []*flows.Conn, known []netip.Addr) (kept []bool, removed int, scanners []netip.Addr) {
	ordered := slices.Clone(conns)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start.Before(ordered[j].Start) })
	tracks := make(map[netip.Addr]*refTrack)
	for _, c := range ordered {
		if c.Multicast {
			continue
		}
		tr := tracks[c.Key.Src]
		if tr == nil {
			tr = &refTrack{seen: make(map[netip.Addr]struct{})}
			tracks[c.Key.Src] = tr
		}
		dst := c.Key.Dst
		if _, dup := tr.seen[dst]; dup {
			continue
		}
		tr.seen[dst] = struct{}{}
		if !tr.hasLast {
			tr.ascRun, tr.descRun = 1, 1
		} else {
			switch tr.last.Compare(dst) {
			case -1:
				tr.ascRun++
				tr.descRun = 1
			case 1:
				tr.descRun++
				tr.ascRun = 1
			}
		}
		tr.maxAsc = max(tr.maxAsc, tr.ascRun)
		tr.maxDesc = max(tr.maxDesc, tr.descRun)
		tr.last, tr.hasLast = dst, true
	}
	isScanner := make(map[netip.Addr]bool)
	for _, k := range known {
		isScanner[k] = true
	}
	for src, tr := range tracks {
		if len(tr.seen) > scan.DefaultHostThreshold &&
			(tr.maxAsc >= scan.DefaultOrderedThreshold || tr.maxDesc >= scan.DefaultOrderedThreshold) {
			isScanner[src] = true
		}
	}
	for s := range isScanner {
		scanners = append(scanners, s)
	}
	slices.SortFunc(scanners, netip.Addr.Compare)
	kept = make([]bool, len(conns))
	for i, c := range conns {
		if isScanner[c.Key.Src] {
			removed++
		} else {
			kept[i] = true
		}
	}
	return kept, removed, scanners
}

type refEdge struct {
	host, peer netip.Addr
	port       uint16
}

func refByHostPeer(a, b refEdge) int {
	if c := a.host.Compare(b.host); c != 0 {
		return c
	}
	if c := a.peer.Compare(b.peer); c != 0 {
		return c
	}
	return cmp.Compare(a.port, b.port)
}

// refFanInOut is Figure 2's fan over kept connections by sorted edges.
func refFanInOut(conns []*flows.Conn, monitored, isLocal func(netip.Addr) bool) map[netip.Addr]*flows.FanStats {
	var inE, outE []refEdge
	for _, c := range conns {
		if c.Multicast {
			continue
		}
		if monitored(c.Key.Dst) {
			inE = append(inE, refEdge{host: c.Key.Dst, peer: c.Key.Src})
		}
		if monitored(c.Key.Src) {
			outE = append(outE, refEdge{host: c.Key.Src, peer: c.Key.Dst})
		}
	}
	out := make(map[netip.Addr]*flows.FanStats)
	scanRuns := func(e []refEdge, record func(s *flows.FanStats, local bool)) {
		slices.SortFunc(e, refByHostPeer)
		for i := range e {
			if i > 0 && e[i] == e[i-1] {
				continue
			}
			s := out[e[i].host]
			if s == nil {
				s = &flows.FanStats{}
				out[e[i].host] = s
			}
			record(s, isLocal(e[i].peer))
		}
	}
	scanRuns(inE, func(s *flows.FanStats, local bool) {
		if local {
			s.FanInLocal++
		} else {
			s.FanInRemote++
		}
	})
	scanRuns(outE, func(s *flows.FanStats, local bool) {
		if local {
			s.FanOutLocal++
		} else {
			s.FanOutRemote++
		}
	})
	return out
}

// checkCensus compares one trace's census — the kept mask, scanner set
// and removed count, then every FanStats read from it — with the
// references, and returns the census.
func checkCensus(t testing.TB, label string, conns []*flows.Conn, known []netip.Addr, monitored netip.Prefix) *scan.Census {
	t.Helper()
	census := scan.TakeCensus(conns, known)
	fan := flows.FanInOut(census.Pairs, monitored.Contains, enterprise.IsLocal)
	kept, removed, scanners := refFilter(conns, known)
	if !slices.Equal(census.Kept, kept) {
		t.Errorf("%s: kept mask differs from the reference", label)
	}
	if census.RemovedConns != removed {
		t.Errorf("%s: removed %d connections, reference %d", label, census.RemovedConns, removed)
	}
	if !slices.Equal(census.Scanners, scanners) {
		t.Errorf("%s: scanners %v, reference %v", label, census.Scanners, scanners)
	}
	var keptConns []*flows.Conn
	for i, c := range conns {
		if kept[i] {
			keptConns = append(keptConns, c)
		}
	}
	if want := refFanInOut(keptConns, monitored.Contains, enterprise.IsLocal); !reflect.DeepEqual(fan, want) {
		t.Errorf("%s: fan over %d hosts differs from the reference over %d", label, len(fan), len(want))
	}
	return census
}

// censusConn is a hand-built connection for the census cases.
func censusConn(src, dst netip.Addr, port uint16, start int64) *flows.Conn {
	return &flows.Conn{
		Key:   layers.FlowKey{Proto: layers.ProtoTCP, Src: src, Dst: dst, SrcPort: 40000, DstPort: port},
		Proto: layers.ProtoTCP,
		Start: time.Unix(1_100_000_000+start, 0),
	}
}

// sweep has src contact dsts in the given order, one second apart from
// start.
func sweep(src netip.Addr, dsts []netip.Addr, start int64) []*flows.Conn {
	var out []*flows.Conn
	for i, d := range dsts {
		out = append(out, censusConn(src, d, 445, start+int64(i)))
	}
	return out
}

func hosts(prefix string, from, n int) []netip.Addr {
	var out []netip.Addr
	for i := from; i < from+n; i++ {
		out = append(out, netip.MustParseAddr(fmt.Sprintf(prefix, i)))
	}
	return out
}

// runOf is n addresses whose longest ascending first-contact run is
// exactly run: an ascending stretch, then alternating low and high
// addresses that break every run at two.
func runOf(run, n int) []netip.Addr {
	out := hosts("10.0.3.%d", 100, run)
	for i := 0; len(out) < n; i++ {
		if i%2 == 0 {
			out = append(out, netip.AddrFrom4([4]byte{10, 0, 3, byte(10 + i)}))
		} else {
			out = append(out, netip.AddrFrom4([4]byte{10, 0, 3, byte(240 + i)}))
		}
	}
	return out
}

// TestCensusMatchesReference pins the census against the references
// over every dataset's generated traces and over hand-built traces that
// sit on each edge the census could get wrong.
func TestCensusMatchesReference(t *testing.T) {
	known := enterprise.KnownScanners()
	var scanners, removed int
	for _, cfg := range enterprise.AllDatasets() {
		cfg.Scale = 0.1
		cfg.Monitored = cfg.Monitored[:2]
		cfg.PerTap = 1
		for i, tr := range gen.GenerateDataset(cfg).Traces {
			res, err := pipeline.Run(pcap.NewSliceSource(tr.Packets), pipeline.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var conns []*flows.Conn
			for _, rec := range res.SortedConns() {
				conns = append(conns, rec.Conn)
			}
			c := checkCensus(t, fmt.Sprintf("%s/trace %d", cfg.Name, i), conns, known, tr.Prefix)
			scanners += len(c.Scanners) - len(known)
			removed += c.RemovedConns
		}
	}
	t.Logf("generated traces: %d heuristic scanners, %d connections removed", scanners, removed)
	if scanners == 0 || removed == 0 {
		t.Errorf("the generated traces exercised no heuristic scanner (%d) or removal (%d)", scanners, removed)
	}

	monitored := netip.MustParsePrefix("10.0.0.0/16")
	server := netip.MustParseAddr("10.0.1.1")
	var clients []*flows.Conn
	for i, c := range hosts("10.0.2.%d", 1, 8) {
		clients = append(clients, censusConn(c, server, 80, int64(i)), censusConn(c, server, 80, int64(i)+20))
		clients = append(clients, censusConn(c, netip.MustParseAddr("192.0.2.7"), 443, int64(i)+40))
	}

	// A sweep listed out of start order: walked as listed its longest run
	// is 30, walked in start order it is one descending run of 60. Starts
	// of the second sweep tie in pairs listed high-first, so a walk that
	// does not keep ties in list order would see runs where the stable
	// order sees none.
	sweeper := netip.MustParseAddr("10.0.9.9")
	regressed := sweep(sweeper, hosts("10.0.4.%d", 1, 60), 0)
	for i := range regressed {
		regressed[i].Start = time.Unix(1_100_000_000+int64(60-i), 0)
	}
	slices.Reverse(regressed[:30])
	tied := netip.MustParseAddr("10.0.9.10")
	var ties []*flows.Conn
	for i, d := range hosts("10.0.5.%d", 1, 60) {
		ties = append(ties, censusConn(tied, d, 445, int64(i/2)))
	}
	for i := 0; i+1 < len(ties); i += 2 {
		ties[i], ties[i+1] = ties[i+1], ties[i]
	}
	// And a sweep at one instant, listed in address order between
	// connections whose starts the sort must move: only a stable order
	// keeps it one run.
	instant := netip.MustParseAddr("10.0.9.11")
	for i, d := range hosts("10.0.6.%d", 100, 60) {
		ties = append(ties, censusConn(instant, d, 445, 50), censusConn(server, d, 139, int64(i*37%100)))
	}

	scanner := netip.MustParseAddr("198.51.100.3")
	multicast := sweep(scanner, hosts("10.0.6.%d", 1, 55), 0)
	for _, src := range []netip.Addr{scanner, server} {
		m := censusConn(src, netip.MustParseAddr("224.0.1.22"), 427, 100)
		m.Multicast = true
		multicast = append(multicast, m)
	}

	v6 := netip.MustParseAddr("2001:db8::1")
	ipv6 := sweep(v6, hosts("2001:db8:1::%x", 1, 60), 0)
	for i, c := range hosts("2001:db8:2::%x", 1, 6) {
		ipv6 = append(ipv6, censusConn(c, v6, 22, int64(i)))
	}

	var thresholds []*flows.Conn
	for i, src := range hosts("10.0.8.%d", 1, 4) {
		n, run := 50+i%2, 44+i/2 // 50/44, 51/44, 50/45, 51/45
		thresholds = append(thresholds, sweep(src, runOf(run, n), int64(i)*100)...)
	}
	thresholds = append(thresholds, sweep(netip.MustParseAddr("10.0.8.9"), hosts("10.0.7.%d", 1, 51), 0)...)
	thresholds = append(thresholds, sweep(netip.MustParseAddr("10.0.8.10"), hosts("10.0.7.%d", 1, 50), 0)...)

	absent := netip.MustParseAddr("131.243.9.9")
	for _, tc := range []struct {
		name  string
		conns []*flows.Conn
		known []netip.Addr
		want  []netip.Addr
	}{
		{"empty", nil, nil, nil},
		{"timestamp regression", append(slices.Clone(clients), regressed...), nil, []netip.Addr{sweeper}},
		{"start ties", append(slices.Clone(clients), ties...), nil, []netip.Addr{instant}},
		{"multicast from a scanner", append(slices.Clone(clients), multicast...), nil, []netip.Addr{scanner}},
		{"known scanner absent", clients, []netip.Addr{absent, clients[0].Key.Src}, []netip.Addr{clients[0].Key.Src, absent}},
		{"thresholds", thresholds, nil, []netip.Addr{netip.MustParseAddr("10.0.8.4"), netip.MustParseAddr("10.0.8.9")}},
		{"ipv6", append(slices.Clone(clients), ipv6...), nil, []netip.Addr{v6}},
	} {
		c := checkCensus(t, tc.name, tc.conns, tc.known, monitored)
		if !slices.Equal(c.Scanners, tc.want) {
			t.Errorf("%s: scanners %v, want %v", tc.name, c.Scanners, tc.want)
		}
	}
}

// FuzzCensusMatchesReference decodes fuzz bytes into a connection list —
// three bytes a connection: source (and flags), destination, port — and
// holds the census to the references on it. Destinations ascend with
// their byte across local, remote and IPv6 addresses, so a run of
// ascending bytes from one source is a sweep; one source is a known
// scanner, and another known scanner never appears.
func FuzzCensusMatchesReference(f *testing.F) {
	var sweepSeed []byte
	for i := 0; i < 60; i++ {
		sweepSeed = append(sweepSeed, 1, byte(i*4), 1)
	}
	f.Add(sweepSeed)
	f.Add([]byte{})
	f.Add([]byte{0x85, 3, 4, 2, 200, 0, 0x42, 9, 1, 0x81, 250, 3, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		addr := func(b byte) netip.Addr {
			switch {
			case b < 128:
				return netip.AddrFrom4([4]byte{10, 0, 0, b})
			case b < 192:
				return netip.AddrFrom4([4]byte{198, 51, 100, b})
			default:
				return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: b})
			}
		}
		var conns []*flows.Conn
		var ts int64
		for ; len(data) >= 3; data = data[3:] {
			// Bit 7 of the source byte steps the clock back, bit 6 marks
			// the connection multicast; the port's low bit decides
			// whether its start ties the previous one.
			switch {
			case data[0]&0x80 != 0:
				ts -= 2
			case data[2]&1 != 0:
				ts++
			}
			c := censusConn(addr(data[0]&0x3f), addr(data[1]), uint16(data[2]%8), ts)
			if data[0]&0x40 != 0 {
				c.Key.Dst = netip.AddrFrom4([4]byte{224, 0, 0, data[1]})
				c.Multicast = true
			}
			conns = append(conns, c)
		}
		known := []netip.Addr{addr(5), netip.MustParseAddr("131.243.9.9")}
		checkCensus(t, "fuzz", conns, known, netip.MustParsePrefix("10.0.0.0/26"))
	})
}
