// Package roles infers host roles from connection patterns — the analysis
// direction the paper cites as related work (Tan et al., "Role
// Classification of Hosts within Enterprise Networks") and leaves to
// future study. Given a trace's connection summaries it classifies each
// host as a server (high fan-in concentrated on few local ports), a
// client (fan-out dominated), a peer (balanced, many symmetric
// conversations — the SrvLoc pattern), or inactive.
//
// Epoch obligations: none. Role evidence is trace-granular — one
// Evidence per trace, read from that trace's census (scan.TakeCensus),
// finalized once — and the whole trace's verdicts bank into the window
// containing the trace's last packet rather than being cut mid-trace;
// see DESIGN.md § "Epoch cuts and windowed reports: the Cut/Merge/
// watermark contract".
package roles

import (
	"net/netip"
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
	// at least minClientsPerService (3) distinct peers, most popular first.
	ServicePorts []uint16
	// ConnsIn/ConnsOut are raw connection counts.
	ConnsIn, ConnsOut int64
}

// Classifier thresholds.
const (
	// minClientsPerService is the distinct-peer threshold for a local
	// port to count as a service.
	minClientsPerService = 3
	// serverFanInRatio: fan-in must exceed fan-out by this factor for a
	// server verdict.
	serverFanInRatio = 2
	// peerSymmetry: |fanIn-fanOut| / max ≤ this for a peer verdict when
	// both sides are substantial.
	peerSymmetry = 0.5
	// minPeerDegree: both fan directions must reach this for peer.
	minPeerDegree = 5
)

// Evidence is one trace's per-host classification evidence: distinct-peer
// fans, raw connection counts, and distinct-client counts per local port,
// with thresholds and verdicts deferred to Finalize.
type Evidence struct {
	hosts []HostProfile
	// clients counts distinct clients per local port, keyed by the host's
	// index in hosts and the port as index<<16 | port.
	clients map[uint64]int
}

// Accumulate builds the evidence from a set of connections' distinct
// (originator, responder) pairs: each pair is one peer of its
// originator's fan-out and of its responder's fan-in, and carries their
// connection counts. Distinct clients per local port take one pass over
// conns, where conns[i] counts toward pairs[pairOf[i]], or toward nothing
// when pairOf[i] < 0: one (pair, port) is one distinct (responder, port,
// originator).
func Accumulate(pairs []flows.Pair, conns []*flows.Conn, pairOf []int32) *Evidence {
	ev := &Evidence{clients: make(map[uint64]int)}
	index := make(map[netip.Addr]int32, len(pairs))
	host := func(h netip.Addr) int32 {
		i, ok := index[h]
		if !ok {
			i = int32(len(ev.hosts))
			index[h] = i
			ev.hosts = append(ev.hosts, HostProfile{Addr: h})
		}
		return i
	}
	// resp[j] is pairs[j]'s responder's index in hosts.
	resp := make([]int32, len(pairs))
	for j, p := range pairs {
		o := host(p.Orig)
		ev.hosts[o].FanOut++
		ev.hosts[o].ConnsOut += p.Conns
		resp[j] = host(p.Resp)
		ev.hosts[resp[j]].FanIn++
		ev.hosts[resp[j]].ConnsIn += p.Conns
	}
	seen := make(map[uint64]struct{}, len(pairs))
	for i, c := range conns {
		j := pairOf[i]
		if j < 0 {
			continue
		}
		port := uint64(c.Key.DstPort)
		k := uint64(j)<<16 | port
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			ev.clients[uint64(resp[j])<<16|port]++
		}
	}
	return ev
}

// Finalize applies the service-port threshold and the role rules,
// consuming ev. Hosts come in the order the pairs first named them.
func (ev *Evidence) Finalize() []HostProfile {
	type svc struct {
		port uint16
		n    int
	}
	perHost := make(map[int32][]svc)
	for k, clients := range ev.clients {
		if clients >= minClientsPerService {
			perHost[int32(k>>16)] = append(perHost[int32(k>>16)], svc{uint16(k), clients})
		}
	}
	for h, svcs := range perHost {
		sort.Slice(svcs, func(a, b int) bool {
			if svcs[a].n != svcs[b].n {
				return svcs[a].n > svcs[b].n
			}
			return svcs[a].port < svcs[b].port
		})
		p := &ev.hosts[h]
		p.ServicePorts = make([]uint16, len(svcs))
		for k, s := range svcs {
			p.ServicePorts[k] = s.port
		}
	}
	for i := range ev.hosts {
		ev.hosts[i].Role = classifyOne(&ev.hosts[i])
	}
	return ev.hosts
}

func classifyOne(p *HostProfile) Role {
	fi, fo := float64(p.FanIn), float64(p.FanOut)
	switch {
	case p.FanIn == 0 && p.FanOut == 0:
		return Quiet
	case len(p.ServicePorts) > 0 && fi >= serverFanInRatio*fo:
		return Server
	case p.FanIn >= minPeerDegree && p.FanOut >= minPeerDegree &&
		absDiff(fi, fo)/maxf(fi, fo) <= peerSymmetry:
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
func Summary(profiles []HostProfile) map[Role]int {
	out := make(map[Role]int)
	for _, p := range profiles {
		out[p.Role]++
	}
	return out
}
