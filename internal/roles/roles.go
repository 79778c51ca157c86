// Package roles infers host roles from connection patterns — the analysis
// direction the paper cites as related work (Tan et al., "Role
// Classification of Hosts within Enterprise Networks") and leaves to
// future study. Given a trace's connection summaries it classifies each
// host as a server (high fan-in concentrated on few local ports), a
// client (fan-out dominated), a peer (balanced, many symmetric
// conversations — the SrvLoc pattern), or inactive.
//
// Epoch obligations: Partial owes the aggregate layer only Merge. Role
// evidence is trace-granular — each replay worker accumulates a fresh
// Partial per trace, the workers' Partials merge at join, and the whole
// trace's verdicts bank into the window containing the trace's last
// packet rather than being cut mid-trace; see DESIGN.md § "Epoch cuts
// and windowed reports: the Cut/Merge/watermark contract".
package roles

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"

	"enttrace/internal/flows"
)

// Role is an inferred host role.
type Role string

// Role values.
const (
	Server Role = "server"
	Client Role = "client"
	Peer   Role = "peer"
	Quiet  Role = "quiet"
)

// HostProfile carries the evidence behind a classification.
type HostProfile struct {
	Addr netip.Addr
	Role Role
	// FanIn/FanOut are distinct-peer counts as originator target/source.
	FanIn, FanOut int
	// ServicePorts lists the local ports that received connections from
	// at least MinClientsPerService distinct peers, most popular first.
	ServicePorts []uint16
	// ConnsIn/ConnsOut are raw connection counts.
	ConnsIn, ConnsOut int64
}

// Config tunes the classifier.
type Config struct {
	// MinClientsPerService is the distinct-peer threshold for a local
	// port to count as a service. Default 3.
	MinClientsPerService int
	// ServerFanInRatio: fan-in must exceed fan-out by this factor for a
	// server verdict. Default 2.
	ServerFanInRatio float64
	// PeerSymmetry: |fanIn-fanOut| / max ≤ this for a peer verdict when
	// both sides are substantial. Default 0.5.
	PeerSymmetry float64
	// MinPeerDegree: both fan directions must reach this for peer.
	// Default 5.
	MinPeerDegree int
}

func (c Config) withDefaults() Config {
	if c.MinClientsPerService == 0 {
		c.MinClientsPerService = 3
	}
	if c.ServerFanInRatio == 0 {
		c.ServerFanInRatio = 2
	}
	if c.PeerSymmetry == 0 {
		c.PeerSymmetry = 0.5
	}
	if c.MinPeerDegree == 0 {
		c.MinPeerDegree = 5
	}
	return c
}

// classifyEdge is one directed conversation endpoint used by Classify's
// sort-and-scan passes.
type classifyEdge struct {
	host, peer netip.Addr
	port       uint16
}

// Classify profiles every host appearing as an endpoint of conns.
// Multicast flows are ignored. It is Accumulate followed by Finalize;
// callers that shard the connection set use those directly.
func Classify(conns []*flows.Conn, cfg Config) map[netip.Addr]*HostProfile {
	return Accumulate(conns).Finalize(cfg)
}

// hostPort keys distinct-client counts for one host's local port.
type hostPort struct {
	host netip.Addr
	port uint16
}

// Partial is mergeable per-host classification evidence: distinct-peer
// fans, raw connection counts, and distinct-client counts per local
// port, with thresholds and verdicts deferred to Finalize. Partials
// built from connection subsets merge exactly when the subsets split by
// host pair — every distinct-count domain here is (host, peer) — which
// is the invariant the parallel replay's sharding provides.
type Partial struct {
	profiles map[netip.Addr]*HostProfile
	ports    map[hostPort]int
}

// Accumulate builds the evidence for one connection subset.
//
// The distinct-peer and per-port client counts are computed by sorting
// edge lists and scanning runs rather than by nested maps of sets: the
// map form allocated tens of thousands of small objects per trace, which
// made this the second-biggest allocation site on the analysis hot path.
func Accumulate(conns []*flows.Conn) *Partial {
	outE := make([]classifyEdge, 0, len(conns))
	inE := make([]classifyEdge, 0, len(conns))
	for _, c := range conns {
		if c.Multicast {
			continue
		}
		outE = append(outE, classifyEdge{host: c.Key.Src, peer: c.Key.Dst})
		inE = append(inE, classifyEdge{host: c.Key.Dst, peer: c.Key.Src, port: c.Key.DstPort})
	}
	pt := &Partial{
		profiles: make(map[netip.Addr]*HostProfile),
		ports:    make(map[hostPort]int),
	}
	get := func(h netip.Addr) *HostProfile {
		p := pt.profiles[h]
		if p == nil {
			p = &HostProfile{Addr: h}
			pt.profiles[h] = p
		}
		return p
	}

	// Fan-out and raw out-connection counts.
	slices.SortFunc(outE, byHostPeer)
	for i := 0; i < len(outE); {
		h := outE[i].host
		fan, j := 0, i
		for ; j < len(outE) && outE[j].host == h; j++ {
			if j == i || outE[j].peer != outE[j-1].peer {
				fan++
			}
		}
		p := get(h)
		p.FanOut += fan
		p.ConnsOut += int64(j - i)
		i = j
	}

	// Fan-in and raw in-connection counts.
	slices.SortFunc(inE, byHostPeer)
	for i := 0; i < len(inE); {
		h := inE[i].host
		fan, j := 0, i
		for ; j < len(inE) && inE[j].host == h; j++ {
			if j == i || inE[j].peer != inE[j-1].peer {
				fan++
			}
		}
		p := get(h)
		p.FanIn += fan
		p.ConnsIn += int64(j - i)
		i = j
	}

	// Distinct clients per local port. Resort the in-edges by
	// (host, port, peer) and scan (host, port) runs; the service
	// threshold is applied at Finalize, after any merging.
	slices.SortFunc(inE, func(a, b classifyEdge) int {
		if c := a.host.Compare(b.host); c != 0 {
			return c
		}
		if c := cmp.Compare(a.port, b.port); c != 0 {
			return c
		}
		return a.peer.Compare(b.peer)
	})
	for i := 0; i < len(inE); {
		h, port := inE[i].host, inE[i].port
		clients, j := 0, i
		for ; j < len(inE) && inE[j].host == h && inE[j].port == port; j++ {
			if j == i || inE[j].peer != inE[j-1].peer {
				clients++
			}
		}
		pt.ports[hostPort{h, port}] += clients
		i = j
	}
	return pt
}

// byHostPeer orders edges by (host, peer), then port: a total order, so
// the sorted list is the same whatever order the edges arrived in.
func byHostPeer(a, b classifyEdge) int {
	if c := a.host.Compare(b.host); c != 0 {
		return c
	}
	if c := a.peer.Compare(b.peer); c != 0 {
		return c
	}
	return cmp.Compare(a.port, b.port)
}

// Merge folds other's evidence into pt. Exact when the underlying
// connection subsets were split by host pair: each (host, peer) edge
// domain then lives in exactly one source, so distinct counts add. It is
// written out rather than left to the fleet codec's merge plan because a
// HostProfile carries its host's address, which identifies the entry and
// does not merge: the plan would need a tag kind for it, for the one type
// that is never windowed or shipped.
func (pt *Partial) Merge(other *Partial) {
	for h, op := range other.profiles {
		p := pt.profiles[h]
		if p == nil {
			p = &HostProfile{Addr: h}
			pt.profiles[h] = p
		}
		p.FanIn += op.FanIn
		p.FanOut += op.FanOut
		p.ConnsIn += op.ConnsIn
		p.ConnsOut += op.ConnsOut
	}
	for hp, n := range other.ports {
		pt.ports[hp] += n
	}
}

// Finalize applies the service-port threshold and the role rules,
// consuming pt.
func (pt *Partial) Finalize(cfg Config) map[netip.Addr]*HostProfile {
	cfg = cfg.withDefaults()
	type svc struct {
		port uint16
		n    int
	}
	perHost := make(map[netip.Addr][]svc)
	for hp, clients := range pt.ports {
		if clients >= cfg.MinClientsPerService {
			perHost[hp.host] = append(perHost[hp.host], svc{hp.port, clients})
		}
	}
	for h, svcs := range perHost {
		sort.Slice(svcs, func(a, b int) bool {
			if svcs[a].n != svcs[b].n {
				return svcs[a].n > svcs[b].n
			}
			return svcs[a].port < svcs[b].port
		})
		p := pt.profiles[h]
		if p == nil {
			p = &HostProfile{Addr: h}
			pt.profiles[h] = p
		}
		p.ServicePorts = make([]uint16, len(svcs))
		for k, s := range svcs {
			p.ServicePorts[k] = s.port
		}
	}
	for _, p := range pt.profiles {
		p.Role = classifyOne(p, cfg)
	}
	return pt.profiles
}

func classifyOne(p *HostProfile, cfg Config) Role {
	fi, fo := float64(p.FanIn), float64(p.FanOut)
	switch {
	case p.FanIn == 0 && p.FanOut == 0:
		return Quiet
	case len(p.ServicePorts) > 0 && fi >= cfg.ServerFanInRatio*fo:
		return Server
	case p.FanIn >= cfg.MinPeerDegree && p.FanOut >= cfg.MinPeerDegree &&
		absDiff(fi, fo)/maxf(fi, fo) <= cfg.PeerSymmetry:
		return Peer
	case p.FanOut >= p.FanIn:
		return Client
	default:
		// In-dominated but no qualifying service port: likely a server
		// whose clients are few, or a probe target; call it server when a
		// port saw repeat business, client otherwise.
		if len(p.ServicePorts) > 0 {
			return Server
		}
		return Client
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Summary counts hosts by role.
func Summary(profiles map[netip.Addr]*HostProfile) map[Role]int {
	out := make(map[Role]int)
	for _, p := range profiles {
		out[p.Role]++
	}
	return out
}
