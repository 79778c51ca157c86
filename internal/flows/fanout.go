package flows

import (
	"net/netip"
	"slices"
)

// FanStats holds, for one host, the set sizes the paper's §4 reports:
// fan-in (distinct hosts that originate conversations to it) and fan-out
// (distinct hosts it originates conversations to), split by whether the
// peer is local to the enterprise. Two FanStats add field by field
// exactly when they were computed over connection sets split by host
// pair (each (host, peer) edge then lives in exactly one) — the
// invariant both the replay sharding and the per-trace fan census
// provide.
type FanStats struct {
	FanInLocal, FanInRemote   int
	FanOutLocal, FanOutRemote int
}

// FanIn is total distinct originating peers.
func (f FanStats) FanIn() int { return f.FanInLocal + f.FanInRemote }

// FanOut is total distinct contacted peers.
func (f FanStats) FanOut() int { return f.FanOutLocal + f.FanOutRemote }

// FanInOut computes per-host fan statistics over a set of connections.
// isLocal classifies an address as inside the enterprise; only hosts for
// which monitored(addr) is true get an entry (the paper computes fan only
// for monitored hosts). Multicast flows are excluded.
//
// Distinct peers are counted by sorting (host, peer) edge lists and
// scanning runs — the per-host set-of-maps form this replaces allocated
// a small object per host pair per trace.
func FanInOut(conns []*Conn, monitored, isLocal func(netip.Addr) bool) map[netip.Addr]*FanStats {
	type edge struct{ host, peer netip.Addr }
	inE := make([]edge, 0, len(conns))
	outE := make([]edge, 0, len(conns))
	for _, c := range conns {
		if c.Multicast {
			continue
		}
		orig, resp := c.Key.Src, c.Key.Dst
		if monitored(resp) {
			inE = append(inE, edge{host: resp, peer: orig})
		}
		if monitored(orig) {
			outE = append(outE, edge{host: orig, peer: resp})
		}
	}
	out := make(map[netip.Addr]*FanStats)
	scan := func(e []edge, record func(s *FanStats, peer netip.Addr)) {
		slices.SortFunc(e, func(a, b edge) int {
			if c := a.host.Compare(b.host); c != 0 {
				return c
			}
			return a.peer.Compare(b.peer)
		})
		for i := 0; i < len(e); i++ {
			if i > 0 && e[i] == e[i-1] {
				continue // duplicate (host, peer) pair
			}
			s := out[e[i].host]
			if s == nil {
				s = &FanStats{}
				out[e[i].host] = s
			}
			record(s, e[i].peer)
		}
	}
	scan(inE, func(s *FanStats, peer netip.Addr) {
		if isLocal(peer) {
			s.FanInLocal++
		} else {
			s.FanInRemote++
		}
	})
	scan(outE, func(s *FanStats, peer netip.Addr) {
		if isLocal(peer) {
			s.FanOutLocal++
		} else {
			s.FanOutRemote++
		}
	})
	return out
}
