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
// deduplicated edge set, from which Figure 2 fan is read
// (flows.FanInOut) without sorting anything.
//
// The walk need not wait for the trace to end. A Builder takes it while
// the trace is read: Add observes connections in first-packet order as
// far as their originators are final, and stops for good at the first
// that starts before its predecessor — a capture whose timestamps
// regress is walked again, in start order, by Finish. Finish observes
// the rest and classifies; verdicts wait for it, since a sweep may end in
// the trace's last connection. A Census never depends on how far Add
// got. TakeCensus is a Builder handed every connection at once, so both
// share one observe loop and one compaction.
//
// Epoch obligations: scanner removal is deliberately trace-granular, not
// per-window — a Census sees a whole trace's connection summaries at
// once, so a slow scan cannot escape detection by straddling window cuts,
// and the removal delta banks into the window containing the trace's last
// packet. Each trace takes a Census of its own. See DESIGN.md § "Epoch
// cuts and windowed reports: the Cut/Merge/watermark contract".
package scan

import (
	"net/netip"
	"slices"
	"time"

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

// srcTrack is one source's first-contact sequence, summarized. A trace's
// census holds one per source for as long as the trace is read, so the
// counts are 32 bits: a trace of 2^31 connections is far out of reach.
type srcTrack struct {
	// distinct counts first contacts. last is the previous first-contact
	// address. ascRun/descRun are the current consecutive monotone run
	// lengths (in addresses) within the first-contact sequence, and
	// maxAsc/maxDesc their maxima. A random contact order produces only
	// short runs; a sequential sweep produces a run covering nearly every
	// address, which is what the heuristic keys on.
	last            netip.Addr
	distinct        int32
	ascRun, descRun int32
	maxAsc, maxDesc int32
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

// observe enters one src→dst connection in the pair table and advances
// src's tracker when the pair is new.
func (d *Detector) observe(src, dst netip.Addr) {
	if d.pairs.Add(src, dst) {
		k, ok := d.sources[src]
		if !ok {
			k = int32(len(d.tracks))
			d.sources[src] = k
			d.tracks = append(d.tracks, srcTrack{})
		}
		d.tracks[k].firstContact(dst)
	}
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
	return int(tr.distinct) > d.HostThreshold &&
		(int(tr.maxAsc) >= d.OrderedThreshold || int(tr.maxDesc) >= d.OrderedThreshold)
}

// Scanners returns every source currently classified as a scanner —
// the known ones whether or not they were observed — in address order.
func (d *Detector) Scanners() []netip.Addr {
	var out []netip.Addr
	for src := range d.known {
		out = append(out, src)
	}
	for src, k := range d.sources {
		if !d.known[src] && d.qualifies(&d.tracks[k]) {
			out = append(out, src)
		}
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return out
}

// ObserveConns feeds every unicast connection's originator→responder
// pair through the detector, in the order given.
func (d *Detector) ObserveConns(conns []*flows.Conn) {
	for _, c := range conns {
		d.observeConn(c)
	}
}

// observeConn observes c's originator→responder pair unless c is
// multicast.
func (d *Detector) observeConn(c *flows.Conn) {
	if !c.Multicast {
		d.observe(c.Key.Src, c.Key.Dst)
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
	// responder) pairs.
	Pairs []flows.Pair
}

// Builder takes one trace's Census as the trace is read. Add observes
// connections in first-packet order, as many at a time as are ready;
// Finish observes the rest and classifies. A connection's Key, Multicast
// and Start are read when it is observed; Finish reads its originator
// again to remove it or keep it.
type Builder struct {
	known []netip.Addr
	d     *Detector
	// n counts the added connections.
	n int
	// last is the latest added connection's start. regressed is set once
	// an added connection started before it: the census then observes
	// nothing more, and Finish takes it again in start order.
	last      time.Time
	regressed bool
}

// NewBuilder returns an empty census that counts known as scanners and
// reserves room for about conns connections.
func NewBuilder(known []netip.Addr, conns int) *Builder {
	d := NewDetector()
	for _, k := range known {
		d.AddKnown(k)
	}
	d.pairs.Reserve(conns / 2)
	return &Builder{known: known, d: d}
}

// Len is how many connections the census has observed: the first Len
// connections of the trace.
func (b *Builder) Len() int { return b.n }

// Add observes conns, the connections after the first Len in
// first-packet order. It stops at the first one that starts before the
// connection observed last — a timestamp regression, after which only
// Finish can order the trace — and from then on observes nothing. A
// connection added here must be settled: its originator and responder
// final (flows.Conn.Settled).
func (b *Builder) Add(conns []*flows.Conn) {
	for _, c := range conns {
		if b.regressed || b.n > 0 && c.Start.Before(b.last) {
			b.regressed = true
			return
		}
		b.last = c.Start
		b.d.observeConn(c)
		b.n++
	}
}

// Finish completes the census of conns, the trace's connections in
// first-packet order, of which the census has observed the first Len:
// it observes the rest, classifies scanners and removes every connection
// one originated. When a capture's timestamps regress, the walk is taken
// again from scratch over conns in start order, sorted stably so ties
// keep their first-packet order — so the Census never depends on how far
// Add got.
func (b *Builder) Finish(conns []*flows.Conn) *Census {
	b.Add(conns[b.Len():])
	if !b.regressed {
		return b.d.census(conns)
	}
	sorted := slices.Clone(conns)
	slices.SortStableFunc(sorted, func(x, y *flows.Conn) int { return x.Start.Compare(y.Start) })
	from := NewBuilder(b.known, len(conns))
	from.Add(sorted)
	return from.d.census(conns)
}

// TakeCensus runs the full §3 procedure: observe every unicast connection
// in start order (the order probes hit the wire, which is what makes a
// sequential sweep visible), classify scanners, and remove every
// connection one originated. conns in first-packet order are already in
// start order unless a capture's timestamps regress; only then is an
// order sorted (Builder.Finish).
func TakeCensus(conns []*flows.Conn, known []netip.Addr) *Census {
	return NewBuilder(known, len(conns)).Finish(conns)
}

// census classifies the scanners among what d observed and removes their
// connections.
func (d *Detector) census(conns []*flows.Conn) *Census {
	c := &Census{Kept: make([]bool, len(conns))}
	c.Scanners = d.Scanners()
	scanners := make(map[netip.Addr]bool, len(c.Scanners))
	for _, s := range c.Scanners {
		scanners[s] = true
	}
	// Kept-ness depends only on the originator, so the pairs whose
	// originator is not a scanner are exactly the kept unicast
	// connections' distinct pairs. Compact them in place.
	c.Pairs = slices.DeleteFunc(d.pairs.List(), func(p flows.Pair) bool { return scanners[p.Orig] })
	for i, conn := range conns {
		c.Kept[i] = !scanners[conn.Key.Src]
		if !c.Kept[i] {
			c.RemovedConns++
		}
	}
	return c
}
