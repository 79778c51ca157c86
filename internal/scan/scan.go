// Package scan implements the paper's scanner-identification heuristic
// (§3): a source is deemed a scanner when it contacts more than 50
// distinct hosts and at least 45 of the distinct addresses probed were in
// ascending or descending order. The site's known internal vulnerability
// scanners can be added explicitly. Scanner traffic is removed before all
// of the paper's breakdowns; the fraction removed (4–18% of connections in
// the paper) is reported from the Census.
//
// A Census is one walk of a trace's connections in start order. It
// builds the trace's table of distinct (originator, responder) pairs —
// which is also the heuristic's seen set: a contact is a first contact
// exactly when its pair is new — and the per-source run tracker beside
// it. The same table, less the scanners' pairs, is the kept connections'
// deduplicated edge set, from which Figure 2 fan and host-role evidence
// are read (flows.FanInOut, roles.Accumulate) without sorting anything.
//
// Epoch obligations: scanner removal is deliberately trace-granular, not
// per-window — a Census sees a whole trace's connection summaries at
// once, so a slow scan cannot escape detection by straddling window cuts,
// and the removal delta banks into the window containing the trace's last
// packet. Reset readies a Detector for the next trace, not the next
// window. See DESIGN.md § "Epoch cuts and windowed reports: the
// Cut/Merge/watermark contract".
package scan

import (
	"net/netip"
	"slices"

	"enttrace/internal/flows"
)

// Defaults for the paper's heuristic.
const (
	DefaultHostThreshold    = 50
	DefaultOrderedThreshold = 45
)

// Detector accumulates per-source contact sequences.
type Detector struct {
	// HostThreshold is the minimum number of distinct destinations
	// (exclusive) for scanner consideration.
	HostThreshold int
	// OrderedThreshold is the number of addresses that must appear in
	// ascending or descending first-contact order.
	OrderedThreshold int

	known map[netip.Addr]bool
	// pairs is every observed (source, destination) pair: the seen set.
	pairs flows.Pairs
	// sources indexes tracks by source address.
	sources map[netip.Addr]int32
	tracks  []srcTrack
}

// srcTrack is one source's first-contact sequence, summarized.
type srcTrack struct {
	src netip.Addr
	// distinct counts first contacts. last is the previous first-contact
	// address. ascRun/descRun are the current consecutive monotone run
	// lengths (in addresses) within the first-contact sequence, and
	// maxAsc/maxDesc their maxima. A random contact order produces only
	// short runs; a sequential sweep produces a run covering nearly every
	// address, which is what the heuristic keys on.
	distinct        int
	last            netip.Addr
	ascRun, descRun int
	maxAsc, maxDesc int
}

// firstContact extends the sequence with dst, a destination the source
// has not contacted before.
func (tr *srcTrack) firstContact(dst netip.Addr) {
	if tr.distinct == 0 {
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
	tr.last = dst
	tr.distinct++
}

// NewDetector returns a Detector with the paper's thresholds.
func NewDetector() *Detector {
	return &Detector{
		HostThreshold:    DefaultHostThreshold,
		OrderedThreshold: DefaultOrderedThreshold,
		known:            make(map[netip.Addr]bool),
		sources:          make(map[netip.Addr]int32),
	}
}

// AddKnown marks a source as a known scanner (the two internal
// vulnerability scanners in the paper's traces) regardless of heuristics.
func (d *Detector) AddKnown(src netip.Addr) { d.known[src] = true }

// Reset clears the per-source contact evidence in place while keeping
// the known-scanner list — the epoch cut for a long-running detector: a
// serve-mode process rotates detection windows without forgetting the
// operator-configured scanners. Heuristic verdicts restart from scratch
// in the new epoch (contact sequences do not straddle a Reset).
func (d *Detector) Reset() {
	d.pairs.Reset()
	clear(d.sources)
	d.tracks = d.tracks[:0]
}

// Observe records that src originated a conversation to dst.
func (d *Detector) Observe(src, dst netip.Addr) { d.observe(src, dst) }

// observe counts one src→dst connection in the pair table, advances
// src's tracker when the pair is new, and returns the pair's index.
func (d *Detector) observe(src, dst netip.Addr) int32 {
	i, first := d.pairs.Add(src, dst)
	if first {
		k, ok := d.sources[src]
		if !ok {
			k = int32(len(d.tracks))
			d.sources[src] = k
			d.tracks = append(d.tracks, srcTrack{src: src})
		}
		d.tracks[k].firstContact(dst)
	}
	return i
}

// IsScanner reports whether src currently qualifies as a scanner.
func (d *Detector) IsScanner(src netip.Addr) bool {
	if d.known[src] {
		return true
	}
	k, ok := d.sources[src]
	return ok && d.qualifies(&d.tracks[k])
}

func (d *Detector) qualifies(tr *srcTrack) bool {
	return tr.distinct > d.HostThreshold &&
		(tr.maxAsc >= d.OrderedThreshold || tr.maxDesc >= d.OrderedThreshold)
}

// Scanners returns every source currently classified as a scanner —
// the known ones whether or not they were observed — in address order.
func (d *Detector) Scanners() []netip.Addr {
	var out []netip.Addr
	for src := range d.known {
		out = append(out, src)
	}
	for i := range d.tracks {
		if tr := &d.tracks[i]; !d.known[tr.src] && d.qualifies(tr) {
			out = append(out, tr.src)
		}
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return out
}

// ObserveConns feeds every unicast connection's originator→responder
// pair through the detector, in the order given.
func (d *Detector) ObserveConns(conns []*flows.Conn) {
	for _, c := range conns {
		if !c.Multicast {
			d.observe(c.Key.Src, c.Key.Dst)
		}
	}
}

// Census is one trace's §3 scanner removal and its distinct-peer pair
// table, from one walk of the trace's connections.
type Census struct {
	// Kept[i] reports whether conns[i] survived: its originator is not a
	// scanner. Multicast connections are kept or removed by the same rule.
	Kept         []bool
	RemovedConns int
	// Scanners is every known scanner and every source the heuristic
	// flagged, in address order.
	Scanners []netip.Addr
	// Pairs is the kept unicast connections' distinct (originator,
	// responder) pairs, each with its connection count.
	Pairs []flows.Pair
	// PairOf[i] is conns[i]'s index in Pairs, or -1 when conns[i] is
	// removed or multicast.
	PairOf []int32
}

// TakeCensus runs the full §3 procedure: observe every unicast connection
// in start order (the order probes hit the wire, which is what makes a
// sequential sweep visible), classify scanners, and remove every
// connection one originated. conns in first-packet order are already in
// start order unless a capture's timestamps regress; only then is an
// order sorted, stably, so ties keep their first-packet order.
func TakeCensus(conns []*flows.Conn, known []netip.Addr) *Census {
	d := NewDetector()
	for _, k := range known {
		d.AddKnown(k)
	}
	d.pairs.Reserve(len(conns) / 2)
	c := &Census{Kept: make([]bool, len(conns)), PairOf: make([]int32, len(conns))}
	observe := func(i int) {
		c.PairOf[i] = -1
		if conn := conns[i]; !conn.Multicast {
			c.PairOf[i] = d.observe(conn.Key.Src, conn.Key.Dst)
		}
	}
	if slices.IsSortedFunc(conns, func(a, b *flows.Conn) int { return a.Start.Compare(b.Start) }) {
		for i := range conns {
			observe(i)
		}
	} else {
		order := make([]int, len(conns))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(i, j int) int { return conns[i].Start.Compare(conns[j].Start) })
		for _, i := range order {
			observe(i)
		}
	}

	c.Scanners = d.Scanners()
	scanners := make(map[netip.Addr]bool, len(c.Scanners))
	for _, s := range c.Scanners {
		scanners[s] = true
	}
	// Kept-ness depends only on the originator, so the pairs whose
	// originator is not a scanner are exactly the kept unicast
	// connections' distinct pairs. Compact them in place; remap takes an
	// index in the full table to one in the kept list, or to -1.
	all := d.pairs.List
	remap := make([]int32, len(all))
	c.Pairs = all[:0]
	for i, p := range all {
		remap[i] = -1
		if !scanners[p.Orig] {
			remap[i] = int32(len(c.Pairs))
			c.Pairs = append(c.Pairs, p)
		}
	}
	for i, conn := range conns {
		if p := c.PairOf[i]; p >= 0 {
			c.PairOf[i] = remap[p]
			c.Kept[i] = remap[p] >= 0
		} else {
			c.Kept[i] = !scanners[conn.Key.Src]
		}
		if !c.Kept[i] {
			c.RemovedConns++
		}
	}
	return c
}
