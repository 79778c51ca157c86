package flows

import (
	"encoding/binary"
	"net/netip"
)

// FanStats holds, for one host, the set sizes the paper's §4 reports:
// fan-in (distinct hosts that originate conversations to it) and fan-out
// (distinct hosts it originates conversations to), split by whether the
// peer is local to the enterprise. Each trace's FanStats come from that
// trace's distinct pairs; across traces they add field by field.
type FanStats struct {
	FanInLocal, FanInRemote   int
	FanOutLocal, FanOutRemote int
}

// FanIn is total distinct originating peers.
func (f FanStats) FanIn() int { return f.FanInLocal + f.FanInRemote }

// FanOut is total distinct contacted peers.
func (f FanStats) FanOut() int { return f.FanOutLocal + f.FanOutRemote }

// Pair is one distinct (originator, responder) address pair of a set of
// connections.
type Pair struct {
	Orig, Resp netip.Addr
}

// Pairs deduplicates connections' (originator, responder) pairs,
// numbering each distinct pair in the order its first connection was
// added. The zero value is ready to use. A pair's addresses live only in
// its index key until List builds the pairs: a trace's census holds its
// table for as long as the trace is read.
type Pairs struct {
	// n is the number of distinct pairs.
	n int32
	// v4 indexes the pairs of two IPv4 addresses by both as one word,
	// other the rest by their bytes (pairKey). Neither holds a pointer for
	// the collector to scan, and the first hashes a word, not 34 bytes:
	// one D3 trace's census (2 768 connections, Xeon, two vCPUs) took
	// 350 µs with every pair keyed by pairKey and 233 µs split this way.
	v4    map[uint64]int32
	other map[pairKey]int32
}

// pairKey is a pair's addresses as 16-byte forms and which of them are
// IPv4. Decoded addresses carry no IPv6 zone, so nothing is lost.
type pairKey struct {
	orig, resp [16]byte
	is4        [2]bool
}

// Reserve sizes the table for n distinct pairs, most of them IPv4.
func (t *Pairs) Reserve(n int) {
	if t.v4 == nil {
		t.v4 = make(map[uint64]int32, n)
	}
}

// Add records one connection from orig to resp and reports whether it is
// the pair's first.
func (t *Pairs) Add(orig, resp netip.Addr) bool {
	if orig.Is4() && resp.Is4() {
		o, r := orig.As4(), resp.As4()
		return addPair(t, &t.v4, uint64(binary.BigEndian.Uint32(o[:]))<<32|uint64(binary.BigEndian.Uint32(r[:])))
	}
	return addPair(t, &t.other, pairKey{orig.As16(), resp.As16(), [2]bool{orig.Is4(), resp.Is4()}})
}

func addPair[K comparable](t *Pairs, index *map[K]int32, k K) bool {
	if _, ok := (*index)[k]; ok {
		return false
	}
	if *index == nil {
		*index = make(map[K]int32)
	}
	(*index)[k] = t.n
	t.n++
	return true
}

// List returns the distinct pairs, pair i at index i.
func (t *Pairs) List() []Pair {
	out := make([]Pair, t.n)
	for k, i := range t.v4 {
		var o, r [4]byte
		binary.BigEndian.PutUint32(o[:], uint32(k>>32))
		binary.BigEndian.PutUint32(r[:], uint32(k))
		out[i] = Pair{Orig: netip.AddrFrom4(o), Resp: netip.AddrFrom4(r)}
	}
	addr := func(b [16]byte, is4 bool) netip.Addr {
		if is4 {
			return netip.AddrFrom16(b).Unmap()
		}
		return netip.AddrFrom16(b)
	}
	for k, i := range t.other {
		out[i] = Pair{Orig: addr(k.orig, k.is4[0]), Resp: addr(k.resp, k.is4[1])}
	}
	return out
}

// FanInOut computes per-host fan statistics from distinct pairs: each
// pair is one peer of its originator's fan-out and of its responder's
// fan-in. isLocal classifies an address as inside the enterprise; only
// hosts for which monitored(addr) is true get an entry (the paper
// computes fan only for monitored hosts). The pairs are the caller's
// choice of connections — the census passes a trace's kept unicast ones.
func FanInOut(pairs []Pair, monitored, isLocal func(netip.Addr) bool) map[netip.Addr]*FanStats {
	out := make(map[netip.Addr]*FanStats)
	get := func(h netip.Addr) *FanStats {
		s := out[h]
		if s == nil {
			s = &FanStats{}
			out[h] = s
		}
		return s
	}
	for _, p := range pairs {
		if monitored(p.Resp) {
			if s := get(p.Resp); isLocal(p.Orig) {
				s.FanInLocal++
			} else {
				s.FanInRemote++
			}
		}
		if monitored(p.Orig) {
			if s := get(p.Orig); isLocal(p.Resp) {
				s.FanOutLocal++
			} else {
				s.FanOutRemote++
			}
		}
	}
	return out
}
