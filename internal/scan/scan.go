// Package scan implements the paper's scanner-identification heuristic
// (§3): a source is deemed a scanner when it contacts more than 50
// distinct hosts and at least 45 of the distinct addresses probed were in
// ascending or descending order. The site's known internal vulnerability
// scanners can be added explicitly. Scanner traffic is removed before all
// of the paper's breakdowns; the fraction removed (4–18% of connections in
// the paper) is reported by Filter.
//
// Epoch obligations: scanner removal is deliberately trace-granular, not
// per-window — Filter sees a whole trace's connection summaries at once,
// so a slow scan cannot escape detection by straddling window cuts, and
// the removal delta banks into the window containing the trace's last
// packet. Reset readies a Detector for the next trace, not the next
// window. See DESIGN.md § "Epoch cuts and windowed reports: the
// Cut/Merge/watermark contract".
package scan

import (
	"net/netip"
	"sort"

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

	known   map[netip.Addr]bool
	sources map[netip.Addr]*srcTrack
}

type srcTrack struct {
	seen map[netip.Addr]struct{}
	// last is the previous first-contact address. ascRun/descRun are the
	// current consecutive monotone run lengths (in addresses) within the
	// first-contact sequence, and maxAsc/maxDesc their maxima. A random
	// contact order produces only short runs; a sequential sweep produces
	// a run covering nearly every address, which is what the heuristic
	// keys on.
	last            netip.Addr
	hasLast         bool
	ascRun, descRun int
	maxAsc, maxDesc int
}

// NewDetector returns a Detector with the paper's thresholds.
func NewDetector() *Detector {
	return &Detector{
		HostThreshold:    DefaultHostThreshold,
		OrderedThreshold: DefaultOrderedThreshold,
		known:            make(map[netip.Addr]bool),
		sources:          make(map[netip.Addr]*srcTrack),
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
	clear(d.sources)
}

// Observe records that src originated a conversation to dst.
func (d *Detector) Observe(src, dst netip.Addr) {
	tr := d.sources[src]
	if tr == nil {
		tr = &srcTrack{seen: make(map[netip.Addr]struct{})}
		d.sources[src] = tr
	}
	if _, dup := tr.seen[dst]; dup {
		return
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
	if tr.ascRun > tr.maxAsc {
		tr.maxAsc = tr.ascRun
	}
	if tr.descRun > tr.maxDesc {
		tr.maxDesc = tr.descRun
	}
	tr.last, tr.hasLast = dst, true
}

// IsScanner reports whether src currently qualifies as a scanner.
func (d *Detector) IsScanner(src netip.Addr) bool {
	if d.known[src] {
		return true
	}
	tr := d.sources[src]
	if tr == nil || len(tr.seen) <= d.HostThreshold {
		return false
	}
	return tr.maxAsc >= d.OrderedThreshold || tr.maxDesc >= d.OrderedThreshold
}

// Scanners returns every source currently classified as a scanner.
func (d *Detector) Scanners() []netip.Addr {
	var out []netip.Addr
	for src := range d.known {
		out = append(out, src)
	}
	for src := range d.sources {
		if !d.known[src] && d.IsScanner(src) {
			out = append(out, src)
		}
	}
	return out
}

// ObserveConns feeds every connection's originator→responder pair through
// the detector, in connection start order if the caller sorted them.
func (d *Detector) ObserveConns(conns []*flows.Conn) {
	for _, c := range conns {
		if c.Multicast {
			continue
		}
		d.Observe(c.Key.Src, c.Key.Dst)
	}
}

// FilterResult reports what Filter removed.
type FilterResult struct {
	Kept            []*flows.Conn
	RemovedConns    int
	RemovedFraction float64
	Scanners        []netip.Addr
}

// Filter runs the full §3 procedure: observe all connections in start
// order (the order probes hit the wire, which is what makes a sequential
// sweep visible), classify scanners, and drop every connection originated
// by one.
func Filter(conns []*flows.Conn, known []netip.Addr) FilterResult {
	d := NewDetector()
	for _, k := range known {
		d.AddKnown(k)
	}
	ordered := make([]*flows.Conn, len(conns))
	copy(ordered, conns)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Start.Before(ordered[j].Start)
	})
	d.ObserveConns(ordered)
	res := FilterResult{Scanners: d.Scanners()}
	scanners := make(map[netip.Addr]bool, len(res.Scanners))
	for _, s := range res.Scanners {
		scanners[s] = true
	}
	for _, c := range conns {
		if scanners[c.Key.Src] {
			res.RemovedConns++
			continue
		}
		res.Kept = append(res.Kept, c)
	}
	if len(conns) > 0 {
		res.RemovedFraction = float64(res.RemovedConns) / float64(len(conns))
	}
	return res
}
