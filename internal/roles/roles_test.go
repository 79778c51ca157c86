package roles

import (
	"net/netip"
	"testing"
	"testing/quick"

	"enttrace/internal/flows"
	"enttrace/internal/layers"
)

func addr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
}

func conn(src, dst netip.Addr, sport, dport uint16) *flows.Conn {
	return &flows.Conn{
		Key:   layers.FlowKey{Proto: layers.ProtoTCP, Src: src, Dst: dst, SrcPort: sport, DstPort: dport},
		Proto: layers.ProtoTCP,
	}
}

// classify profiles every host appearing as an endpoint of conns, the
// way a trace's census feeds Accumulate: one pair per distinct unicast
// (originator, responder), every unicast connection counted toward its
// pair.
func classify(conns []*flows.Conn) map[netip.Addr]*HostProfile {
	var pairs flows.Pairs
	pairOf := make([]int32, len(conns))
	for i, c := range conns {
		pairOf[i] = -1
		if !c.Multicast {
			pairOf[i], _ = pairs.Add(c.Key.Src, c.Key.Dst)
		}
	}
	profiles := make(map[netip.Addr]*HostProfile)
	for _, p := range Accumulate(pairs.List(), conns, pairOf).Finalize() {
		profiles[p.Addr] = &p
	}
	return profiles
}

func TestServerDetection(t *testing.T) {
	srv := addr(1)
	var conns []*flows.Conn
	for i := 2; i < 12; i++ {
		conns = append(conns, conn(addr(i), srv, uint16(40000+i), 80))
	}
	profiles := classify(conns)
	p := profiles[srv]
	if p == nil || p.Role != Server {
		t.Fatalf("server profile = %+v", p)
	}
	if len(p.ServicePorts) != 1 || p.ServicePorts[0] != 80 {
		t.Errorf("service ports = %v", p.ServicePorts)
	}
	if p.FanIn != 10 || p.FanOut != 0 {
		t.Errorf("fan = %d/%d", p.FanIn, p.FanOut)
	}
	// The contacting hosts are clients.
	if profiles[addr(3)].Role != Client {
		t.Errorf("client role = %v", profiles[addr(3)].Role)
	}
}

func TestMultiServiceServer(t *testing.T) {
	srv := addr(1)
	var conns []*flows.Conn
	for i := 2; i < 8; i++ {
		conns = append(conns, conn(addr(i), srv, uint16(40000+i), 25))
		conns = append(conns, conn(addr(i), srv, uint16(41000+i), 993))
	}
	p := classify(conns)[srv]
	if len(p.ServicePorts) != 2 {
		t.Fatalf("service ports = %v", p.ServicePorts)
	}
}

func TestPeerDetection(t *testing.T) {
	// SrvLoc-style mesh: one host converses symmetrically with many.
	hub := addr(1)
	var conns []*flows.Conn
	for i := 2; i < 10; i++ {
		// Distinct ports so no single port crosses the service threshold.
		conns = append(conns, conn(hub, addr(i), uint16(42000+i), uint16(43000+i)))
		conns = append(conns, conn(addr(i), hub, uint16(44000+i), uint16(45000+i)))
	}
	p := classify(conns)[hub]
	if p.Role != Peer {
		t.Fatalf("hub role = %v (%+v)", p.Role, p)
	}
}

func TestQuietAbsent(t *testing.T) {
	profiles := classify(nil)
	if len(profiles) != 0 {
		t.Error("no conns should give no profiles")
	}
}

func TestMulticastIgnored(t *testing.T) {
	c := conn(addr(1), addr(2), 40000, 5004)
	c.Multicast = true
	if got := classify([]*flows.Conn{c}); len(got) != 0 {
		t.Errorf("multicast produced profiles: %v", got)
	}
}

func TestServiceThreshold(t *testing.T) {
	srv := addr(1)
	conns := []*flows.Conn{
		conn(addr(2), srv, 40001, 80),
		conn(addr(3), srv, 40002, 80),
	}
	// Two clients is below the default threshold of three.
	p := classify(conns)[srv]
	if len(p.ServicePorts) != 0 {
		t.Errorf("ports = %v, want none below threshold", p.ServicePorts)
	}
	conns = append(conns, conn(addr(4), srv, 40003, 80))
	p = classify(conns)[srv]
	if len(p.ServicePorts) != 1 {
		t.Errorf("ports = %v, want port 80 at threshold", p.ServicePorts)
	}
}

func TestSummary(t *testing.T) {
	srv := addr(1)
	var conns []*flows.Conn
	for i := 2; i < 8; i++ {
		conns = append(conns, conn(addr(i), srv, uint16(40000+i), 443))
	}
	var profiles []HostProfile
	for _, p := range classify(conns) {
		profiles = append(profiles, *p)
	}
	sum := Summary(profiles)
	if sum[Server] != 1 || sum[Client] != 6 {
		t.Errorf("summary = %v", sum)
	}
}

// Property: every endpoint of every unicast connection gets a profile,
// and fan counts never exceed the number of distinct peers.
func TestCoverageProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		var conns []*flows.Conn
		for _, pr := range pairs {
			a, b := int(pr%50), int(pr/50%50)
			if a == b {
				continue
			}
			conns = append(conns, conn(addr(a), addr(b), 40000, uint16(1+pr%1000)))
		}
		profiles := classify(conns)
		for _, c := range conns {
			if profiles[c.Key.Src] == nil || profiles[c.Key.Dst] == nil {
				return false
			}
		}
		for _, p := range profiles {
			if p.FanIn > len(profiles) || p.FanOut > len(profiles) {
				return false
			}
			if p.Role == Quiet {
				return false // quiet hosts can't appear via a connection
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkClassify(b *testing.B) {
	var conns []*flows.Conn
	for i := 0; i < 2000; i++ {
		conns = append(conns, conn(addr(i%100), addr(100+i%40), uint16(40000+i), uint16(1+i%500)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := classify(conns); len(got) == 0 {
			b.Fatal("empty")
		}
	}
}
